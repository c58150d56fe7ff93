"""Seeded inputs, operations and correctness checks of the three workloads.

Each workload turns the benchmark seed into a list of operation inputs
(`make_inputs`) and runs one input as one operation (`run_op`).  The checks
are the package's own acceptance criteria: `report.all_passed` for the
campaign, the `run_shoot` and `run_martin` rows for the far field, and the
`run_grid` rows for the fine grid, built with `plap.cli.CheckRow` and the same
tolerances.  plap receives only the generated inputs.

Layer functions are looked up as `plap.<name>` / `plap.cli.run_all` at call
time, so that the traced run sees the calls made here.
"""

from __future__ import annotations

import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import splu

import plap
import plap.cli

# Nominal seconds per operation on the reference machine (shared 2-core VM,
# Python 3.11, numpy 2.4, scipy 1.17).  A run of `--seconds S` does a fixed
# batch of round(S / nominal) operations, so that the work, the counters and
# the check margins of a run depend only on the seed and S.
NOMINAL_OP_S = {"campaign": 3.5, "far_field": 1.55, "grid_fine": 0.77}
MIN_OPS = 2              # the traced run's overhead ratio leaves op 0 out

FAR_FIELD_T = 2.0e4
GRID_H = 1.0 / 256
GRID_TOL = 1e-9          # the campaign's Dirichlet tolerance
GRID_RECT = (0.0, 0.0, 1.0, 1.0)
GRID_N = 5               # the grid is 2-D whatever n is; n = 5 keeps p < n

RANGES = {
    "campaign": "plap.cli.run_all(default config, seed s), "
                "s uniform in [0, 2^31) per operation",
    "far_field": "n in {2..5}, p in [1.5, min(3, n)), lam in [0.5, 2], "
                 f"r_max = t + 10, t = {FAR_FIELD_T:g}, grid_points = 1600",
    "grid_fine": f"p in [1.5, 4], lam in [0.5, 3], xi uniform on the circle, "
                 f"h = 1/{round(1 / GRID_H)}, tol = {GRID_TOL:g}, unit square",
}


def op_count(workload, seconds):
    return max(MIN_OPS, round(seconds / NOMINAL_OP_S[workload]))


def _shifted_halton(rng, count, dims):
    """`count` points of the Halton sequence in bases 2, 3, 5, shifted by a
    seeded uniform vector modulo 1 (Cranley-Patterson rotation).

    Each point is uniform on the unit cube, and every batch covers the cube
    evenly, so the share of grid draws that land in the slow, failing
    high-p, high-lam corner varies far less from seed to seed than with
    independent draws.
    """
    shift = rng.random(dims)
    pts = np.empty((count, dims))
    for d, base in enumerate((2, 3, 5)[:dims]):
        for i in range(count):
            k, f, x = i + 1, 1.0, 0.0
            while k:
                f /= base
                x += f * (k % base)
                k //= base
            pts[i, d] = x
    return (pts + shift) % 1.0


def _latin_hypercube(rng, count, dims):
    """`count` points with one point in each of `count` equal slices of
    every axis, the slices of each axis in a seeded random order.

    Each point is uniform on the unit cube.  The far-field check margin is
    about 0.0097 (n-1)/(p(p-1)), steep near p = 1.5; stratifying n and p
    separately keeps the batch's typical margin steadier than Halton points
    do.
    """
    return np.column_stack([(rng.permutation(count) + rng.random(count)) / count
                            for _ in range(dims)])


def make_inputs(workload, seed, count):
    rng = np.random.default_rng(seed)
    if workload == "campaign":
        return [{"seed": int(s)} for s in rng.integers(0, 2 ** 31, size=count)]
    if workload not in RANGES:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "far_field":
        inputs = []
        for u in _latin_hypercube(rng, count, 3):
            n = 2 + int(4 * u[0])
            inputs.append({"n": n, "p": 1.5 + (min(3.0, n) - 1.5) * float(u[1]),
                           "lam": 0.5 + 1.5 * float(u[2])})
        return inputs
    inputs = []
    for u in _shifted_halton(rng, count, 3):
        theta = 2.0 * math.pi * float(u[2])
        inputs.append({"p": 1.5 + 2.5 * float(u[0]),
                       "lam": 0.5 + 2.5 * float(u[1]),
                       "xi": (math.cos(theta), math.sin(theta))})
    return inputs


def reference_flow():
    """Inward passes of a fixed radial ratio flow, as in radial_ode's
    shooting: one RK45 pass with a stop event, one DOP853 pass with dense
    output."""
    n, p, lam = 3.0, 2.5, 1.0
    pm1, nm1 = p - 1.0, n - 1.0
    alpha = (lam / pm1) ** (1.0 / p)

    def rhs(r, y):
        sig = y[1]
        core = lam / (pm1 * abs(sig) ** (p - 2.0)) if sig != 0.0 else 0.0
        return [sig, core - sig * sig - nm1 * sig / (pm1 * r)]

    def floor(_r, y):
        return y[1] + 10.0 * alpha
    floor.terminal = True

    solve_ivp(rhs, (120.0, 1.0), [0.0, -alpha], method="RK45", rtol=1e-10,
              atol=1e-12, events=(floor,))
    solve_ivp(rhs, (120.0, 1.0), [0.0, -alpha], method="DOP853", rtol=1e-12,
              atol=1e-14, t_eval=np.geomspace(1.0, 100.0, 400)[::-1])


def reference_lu():
    """Sparse LU of a 5-point operator on a 96 x 96 grid, as in grid_pde."""
    m = 96
    tri = sparse.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(m, m))
    eye = sparse.identity(m)
    mat = (sparse.kron(eye, tri) + sparse.kron(tri, eye)).tocsc()
    splu(mat).solve(np.ones(m * m))


# Fixed scipy work of the same kind as each workload's dominant kernel, timed
# between its operations.  It calls no plap code, so a change to plap does not
# move it; a slow period of the shared machine moves it with the operations.
REFERENCE = {"campaign": reference_flow, "far_field": reference_flow,
             "grid_fine": reference_lu}


def time_kernel(kernel):
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


@dataclass
class OpResult:
    seconds: float = 0.0
    passed: bool = False
    margin: float = math.nan         # worst |measured - target| / tol
    error: str | None = None         # exception class when the op raised
    report_bytes: bytes | None = None
    durations: dict = field(default_factory=dict)


def _campaign(inp, scratch: Path, res: OpResult):
    out = Path(tempfile.mkdtemp(prefix="campaign-", dir=scratch))
    try:
        report = plap.cli.run_all({}, out, seed=inp["seed"])
        res.report_bytes = (out / "report.csv").read_bytes()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    res.durations = dict(report.durations)
    return report.rows


def _far_field(inp):
    n, p, lam = inp["n"], inp["p"], inp["lam"]
    t = FAR_FIELD_T
    shot = plap.radial_exterior_eigen(n, p, lam, 1.0, t + 10.0, grid_points=1600)
    alpha = plap.eigen_rate_alpha(lam, p)
    fit = plap.fit_decay_exponents(shot.profile, alpha)
    xi = np.zeros(n)
    xi[0] = 1.0
    est = plap.martin_kernel_estimate(shot.profile, xi, xi, t)
    row = plap.cli.CheckRow
    return [
        row("fit_rate", alpha, fit.rate, 5e-3 * max(1.0, alpha)),
        row("fit_power", (n - 1.0) / (p * (p - 1.0)), fit.power, 0.1),
        row("fit_rms", 0.0, fit.rms, 1e-2),
        row("kernel_at_xi", math.exp(alpha), est,
            math.exp(alpha) * (5e-3 + 3.0 / t)),
    ]


def _grid_fine(inp):
    p, lam = inp["p"], inp["lam"]
    xi = np.array(inp["xi"])
    params = plap.ProblemParams(n=GRID_N, p=p, lam=lam)
    fld, stats = plap.solve_dirichlet(params, xi, GRID_RECT, GRID_H, tol=GRID_TOL)
    alpha = plap.eigen_rate_alpha(lam, p)
    exact = plap.exponential_field(alpha, xi, GRID_RECT, GRID_H)
    sup_err = float(np.max(np.abs(fld.values - exact.values)))
    glog = plap.gradient_log_sup(fld)
    max_f, kap = plap.kappa_bound_check(fld, p, lam)
    # run_grid states the bounds as one-sided excess rows with zero
    # tolerance, whose margin is 0 whenever they pass.  The sup-error and
    # kappa rows are stated here as |measured| <= bound: each passes exactly
    # when run_grid's row does (measured >= 0), and its margin shows how
    # close the bound is.  The gradient row keeps run_grid's form, because
    # its bound grows with the measured error, so its ratio would fall as
    # the solution got worse.
    row = plap.cli.CheckRow
    return [
        row("final_residual", 0.0, stats.final_residual, GRID_TOL),
        row("sup_error_bound", 0.0, sup_err, 50.0 * GRID_H ** 2),
        row("gradient_log_bound", 0.0,
            max(0.0, glog - (alpha + 5.0 * sup_err / GRID_H)), 0.0),
        row("kappa_bound", 0.0, max_f, kap * 1.01),
    ]


def run_op(workload, inp, scratch: Path) -> OpResult:
    """Run and check one operation; an exception is a failed operation."""
    res = OpResult()
    t0 = time.perf_counter()
    try:
        if workload == "campaign":
            rows = _campaign(inp, scratch, res)
        elif workload == "far_field":
            rows = _far_field(inp)
        else:
            rows = _grid_fine(inp)
    except Exception as exc:  # counted and reported, never fatal to the run
        res.error = type(exc).__name__
        rows = []
    res.seconds = time.perf_counter() - t0
    if res.error is None:
        res.passed = all(r.passed for r in rows)
        res.margin = max(r.margin for r in rows)
    return res
