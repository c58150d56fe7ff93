"""Experiment runner: reproducible, file-emitting verification campaigns.

Campaigns are pure functions of (config, seed); reports and CSV artifacts
are byte-identical across runs with the same inputs.  Wall-clock timings are
logged, never written to artifacts.

Usage:  plap <subcommand> --config <file> --out <dir> [--seed N]
Subcommands: roots | shoot | blowup | martin | grid | bochner | all
Each subcommand takes the keys of its CONFIGS table; `all` takes none.
Exit codes: 0 all checks pass, 1 check failure, 2 config/usage error.  A
DomainError (an input outside what an operation admits) raised in a
targeted campaign is a config error, exit 2, as are cli's own config
checks; every other error of a campaign, and a DomainError of `all`, whose
inputs are pinned in source, is exit 1.
PLAP_LOG in {error, info, debug} selects the log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import blowup, grid_pde, radial_ode
from .errors import ConfigError, DomainError
from .indicial import (IndicialData, ProblemParams, auxiliary_f,
                       eigen_rate_alpha, hardy_best_constant, indicial_roots,
                       placement_satisfied, step_change)

log = logging.getLogger("plap")


@dataclass(frozen=True)
class CheckRow:
    """One verification row; passes iff |measured - target| <= tolerance."""

    name: str
    target: float
    measured: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.measured - self.target) <= self.tolerance

    @property
    def margin(self) -> float:
        """Normalized deviation; <= 1 exactly when the row passes."""
        gap = abs(self.measured - self.target)
        if math.isnan(gap):
            return math.inf
        if self.tolerance > 0.0:
            return gap / self.tolerance
        return 0.0 if gap == 0.0 else 1.0 + gap


def _write_csv(path, header, rows, comments=()):
    """Write a `# ` line per comment, the header, then one line per row.

    Every artifact under --out is written here, and --out is created by the
    first one.  Each number is written with 17 significant digits, which
    read back as the same double."""
    lines = [f"# {line}" for line in comments]
    lines.append(",".join(header))
    lines += [",".join(v if isinstance(v, str) else format(v, ".17g")
                       for v in row) for row in rows]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class ExperimentReport:
    subcommand: str
    rows: list
    metadata: dict = field(default_factory=dict)
    details: list = field(default_factory=list)  # comment-only sub-check lines
    durations: dict = field(default_factory=dict)  # never serialized: CSVs
    # must be byte-identical across runs with the same config and seed

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def write_csv(self, path):
        metadata = [f"{key}: {json.dumps(self.metadata[key], sort_keys=True)}"
                    for key in sorted(self.metadata)]
        _write_csv(path, ("name", "target", "measured", "tolerance", "pass"),
                   [(row.name, row.target, row.measured, row.tolerance,
                     int(row.passed)) for row in self.rows],
                   [f"plap report: {self.subcommand}", *metadata,
                    *self.details])


def _excess(value, ceiling):
    """One-sided check helper: 0 when value <= ceiling, else the gap (NaN
    when either is NaN, where max(0.0, gap) would give 0).  The shortfall
    of a value below a floor is _excess(floor, value)."""
    gap = value - ceiling
    return 0.0 if gap <= 0.0 else gap


def _validate_keys(cfg, allowed, required, where):
    unknown = set(cfg) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = set(required) - set(cfg)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)} in {where}")


# Each check takes (value, key, *extra args) and raises ConfigError naming
# the key.

def _check_count(value, key, low):
    """A sweep size is an int >= low (bool is not a count)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"{key} must be an integer >= {low}, got {value!r}")


def _is_finite_real(value):
    """An int or float that is finite (bool is not a number, and an int
    beyond the float range is not finite)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _check_finite(value, key):
    """An exponent is a finite real."""
    if not _is_finite_real(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")


def _check_positive(value, key):
    """A length, time or rate is a finite real > 0."""
    if not (_is_finite_real(value) and value > 0.0):
        raise ConfigError(f"{key} must be a finite number > 0, got {value!r}")


# Domain of the grid criteria and of the bochner campaign.
UNIT_SQUARE = (0.0, 0.0, 1.0, 1.0)


def _check_sweep(values, key, what, least=2):
    """A sweep is a list of at least `least` finite reals > 0 (`what`)."""
    if not isinstance(values, (list, tuple)) or len(values) < least:
        raise ConfigError(f"{key} needs at least {what}")
    for value in values:
        _check_positive(value, key)


def _check_reals(values, key, size):
    """A direction or rectangle is a list of `size` finite reals."""
    if (not isinstance(values, (list, tuple)) or len(values) != size
            or not all(map(_is_finite_real, values))):
        raise ConfigError(f"{key} must be a list of {size} finite numbers, "
                          f"got {values!r}")


def _check_spacings(h_list, key):
    """A refinement sweep is two or more strictly decreasing spacings
    (grid_pde checks that each one fits the unit square)."""
    _check_sweep(h_list, key, "two spacings for the refinement checks")
    # each refinement factor divides a residual by the next finer one
    if any(fine >= coarse for coarse, fine in zip(h_list, h_list[1:])):
        raise ConfigError(f"{key} must be strictly decreasing, got {h_list!r}")


PARAMS_KEYS = ("n", "p", "a", "mu", "lam")


def _params_from_config(block, key, rate) -> ProblemParams:
    """The params block; the eigen-equation's rate alpha needs lam > 0."""
    if not isinstance(block, dict):
        raise ConfigError(f"{key} must be a JSON object, got {block!r}")
    _validate_keys(block, PARAMS_KEYS, {"n", "p"}, f"{key} block")
    try:
        params = ProblemParams(**block)
    except DomainError as exc:
        raise ConfigError(f"invalid params: {exc}") from exc
    if rate:
        _check_positive(params.lam, f"{key}.lam")
    return params


REQUIRED = object()  # the default of a key that every config must set

# The config of each subcommand: key -> (default, check, *extra check args).
# _read_config runs the checks in this order; a rule that ties keys
# together is its solver's own where one checks it (martin's t >= r0 + 1
# is not), and main turns the solver's DomainError into a ConfigError.
# Each campaign raises it before it writes any file.
CONFIGS = {
    "roots": {"params": (REQUIRED, _params_from_config, False)},
    "shoot": {
        "params": (REQUIRED, _params_from_config, True),
        "r0": (1.0, _check_positive),
        "r_max": (40.0, _check_positive),
        # the decay fit needs 10 samples in its window
        "grid_points": (800, _check_count, 10)},
    "martin": {
        "params": (REQUIRED, _params_from_config, True),
        "t": (1000.0, _check_positive),
        "r0": (1.0, _check_positive),
        "grid_points": (1400, _check_count, 2)},
    "blowup": {
        "params": (REQUIRED, _params_from_config, True),
        "gamma": (0.25, _check_finite),
        "scales": ([1e-1, 1e-2, 1e-3], _check_sweep, "one dilation scale", 1),
        "shifts": ([10.0, 20.0, 40.0, 80.0, 160.0], _check_sweep,
                   "two shifts for the monotonicity check"),
        "window": (0.5, _check_positive)},
    "grid": {
        "params": (REQUIRED, _params_from_config, True),
        "xi": ([0.6, 0.8], _check_reals, 2),
        "rect": (list(UNIT_SQUARE), _check_reals, 4),
        "h": (1.0 / 64, _check_positive),
        "tol": (1e-10, _check_positive)},
    "bochner": {
        "h_list": ([1.0 / 16, 1.0 / 32, 1.0 / 64], _check_spacings),
        "lam": (1.0, _check_positive)},
    "all": {},
}


def _read_config(cfg, subcommand) -> dict:
    """The values of a subcommand's config by key, defaults filled in and
    params built by the one check that returns a value."""
    table = CONFIGS[subcommand]
    _validate_keys(cfg, table, [k for k, v in table.items() if v[0] is REQUIRED],
                   f"{subcommand} config")
    values = {}
    for key, (default, check, *args) in table.items():
        value = cfg.get(key, default)
        built = check(value, key, *args)
        values[key] = value if built is None else built
    return values


# --- builders shared by the targeted campaigns and the acceptance steps ---

def _p2_roots(n, a, mu):
    """Closed-form roots (d -+ sqrt(d^2 - 4 mu)) / 2, d = n - 2 (a + 1), of
    the p=2 index equation, elementwise over arrays; the caller checks that
    d^2 - 4 mu >= 0."""
    d = n - (a + 1.0) * 2.0
    root_disc = np.sqrt(d * d - 4.0 * mu)
    return 0.5 * (d - root_disc), 0.5 * (d + root_disc)


def _write_profile(profile, path):
    """Columns r,u,du under a comment carrying the profile's meta as strict
    JSON: a float that is not finite (a series reach of inf) is written as
    its string "inf", "-inf" or "nan", since JSON has no such number."""
    meta = {key: str(value) if isinstance(value, float)
            and not math.isfinite(value) else value
            for key, value in profile.meta.items()}
    _write_csv(path, ("r", "u", "du"),
               zip(profile.r, profile.u, profile.du),
               [json.dumps(meta, sort_keys=True, default=str, allow_nan=False)])


def _exact_solve(params, alpha, xi, rect, h, tol):
    """Dirichlet solve, the exact field exp(alpha <x, xi>), the sup error
    and the largest error relative to the exact field at a node.

    Logs the solve's counters and time."""
    t0 = time.perf_counter()
    fld, stats = grid_pde.solve_dirichlet(params, xi, rect, h, tol=tol)
    exact = grid_pde.exponential_field(alpha, xi, rect, h)
    err = np.abs(fld.values - exact.values)
    sup_err = float(np.max(err))
    # relative at each node: the equation is homogeneous of degree p - 1, so
    # the error scales with the data, which span decades across the grid
    rel_err = float(np.max(err / exact.values))
    log.info("dirichlet h=%g: %d Newton iters, %d linear solves, %d float64 "
             "refactors, residual %.3g, sup err %.3g (%.2fs)", h,
             stats.newton_iters, stats.linear_solves, stats.float64_refactors,
             stats.final_residual, sup_err, time.perf_counter() - t0)
    return fld, stats, exact, sup_err, rel_err


def _order_shortfall(errs):
    """Shortfall below 1.8 of the smallest order log2(e_h / e_(h/2))."""
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    # np.min keeps a NaN order, which the builtin min drops
    return _excess(1.8, float(np.min(orders)))


# Atoms of the p=2 oracle field e^(a x) + e^(a y), a = sqrt(lam), which
# solves the linear eigen-equation exactly.
BOCHNER_ATOMS = (((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0))


def _oracle_residual(h, lam):
    """Bochner identity residual of the oracle field at spacing h; NaN when
    that field overflows (e^sqrt(lam) beyond the largest double), so the
    refinement row fails."""
    try:
        fld = grid_pde.representation_field(BOCHNER_ATOMS, lam, UNIT_SQUARE, h)
    except OverflowError:
        return math.nan
    return grid_pde.bochner_residual(fld, 2.0, lam)


def _bochner_trend(h_list, lam):
    """Oracle-field identity residuals and their refinement-factor shortfall."""
    resid = [_oracle_residual(h, lam) for h in h_list]
    for h, r in zip(h_list, resid):
        if r == 0.0:
            raise ZeroDivisionError(
                f"no refinement factor: the bochner residual is 0 at h={h:g}, "
                f"lam={lam:g} (no node has |grad w|^2 above the threshold, "
                "or the discrete identity holds exactly)")
    ratios = [resid[i] / resid[i + 1] for i in range(len(resid) - 1)]
    return resid, _excess(1.5, float(np.min(ratios)))


def _power_fixed_point(gamma, scales):
    """Origin dilations of the pure power r^-gamma, a rescaling fixed point."""
    r_pow = np.geomspace(1e-4, 1e2, 900)
    with np.errstate(over="ignore", divide="ignore"):
        log_u = np.log(r_pow ** -gamma)
    if not np.all(np.isfinite(log_u)):
        raise OverflowError(f"r^{-gamma:g} leaves the double range on "
                            "[1e-4, 1e2]")
    power_profile = radial_ode.RadialProfile(
        r=r_pow, log_u=log_u, ratio=-gamma / r_pow,
        meta={"kind": "power", "gamma": gamma})
    return blowup.rescale_near_zero(power_profile, scales, gamma)


def _translate_rows(rep_zero, rep_far, out_dir):
    """Rows of the far-field translates; writes both rescaling reports."""
    for rep, name in ((rep_zero, "rescale_origin.csv"),
                      (rep_far, "translate_far_field.csv")):
        _write_csv(Path(out_dir) / name,
                   ("scale", "sup_distance", "grad_distance"),
                   zip(rep.scales, rep.sup_distance, rep.grad_distance))
    diffs = np.diff(rep_far.sup_distance)
    return [
        CheckRow("translate_monotone", 0.0, float(_excess(diffs.max(), 0.0)), 0.0),
        CheckRow("translate_final", 0.0, float(rep_far.sup_distance[-1]), 1e-2),
    ]


def _gradient_log_excess(fld, alpha, rel_err, h):
    """Excess of a solve's sup |grad log u| over alpha plus its error, the
    largest error relative to the exact field at a node: an error of e
    relative to v moves a centred difference of log v by about e / h."""
    return _excess(grid_pde.gradient_log_sup(fld), alpha + 5.0 * rel_err / h)


def _kappa_excess(fld, p, lam):
    """Excess of max f of a solve over its kappa bound, allowing 1%."""
    max_f, kap = grid_pde.kappa_bound_check(fld, p, lam)
    return _excess(max_f, kap * 1.01)


# --- targeted campaigns ----------------------------------------------------

def _write_report(subcommand, rows, cfg, out_dir) -> ExperimentReport:
    report = ExperimentReport(subcommand, rows, {"config": cfg})
    report.write_csv(Path(out_dir) / f"{subcommand}_report.csv")
    return report


def run_roots(cfg, out_dir) -> ExperimentReport:
    params = _read_config(cfg, "roots")["params"]
    data = indicial_roots(params)
    n, p, a, mu = params.n, params.p, params.a, params.mu
    tol = 1e-12 * max(1.0, abs(mu))
    # no double can beat the change of f across one step at the root
    rows = [CheckRow(f"residual_gamma{k}", 0.0, abs(auxiliary_f(g, n, p, a) - mu),
                     max(tol, step_change(g, n, p, a)))
            for k, g in ((1, data.gamma1), (2, data.gamma2))]
    rows.append(CheckRow("placement_ok", 1.0,
                         float(placement_satisfied(data, n, p, a)), 0.0))
    d = n - (a + 1.0) * 2.0
    # np.sqrt of a negative discriminant warns; the roots are then complex
    if p == 2.0 and d * d - 4.0 * mu >= 0.0:
        q1, q2 = _p2_roots(n, a, mu)
        rows.append(CheckRow("gamma1", q1, data.gamma1, 1e-12 * max(1.0, abs(q1))))
        rows.append(CheckRow("gamma2", q2, data.gamma2, 1e-12 * max(1.0, abs(q2))))
    return _write_report("roots", rows, cfg, out_dir)


def run_shoot(cfg, out_dir) -> ExperimentReport:
    c = _read_config(cfg, "shoot")
    params, r0, r_max = c["params"], c["r0"], c["r_max"]
    alpha = eigen_rate_alpha(params.lam, params.p)
    shot = radial_ode.radial_exterior_eigen(
        params.n, params.p, params.lam, r0, r_max, grid_points=c["grid_points"])
    fit = radial_ode.fit_decay_exponents(shot.profile)
    power_ref = radial_ode.decay_power(params.n, params.p)
    rows = [
        CheckRow("fit_rate", alpha, fit.rate, 5e-3 * max(1.0, alpha)),
        CheckRow("fit_power", power_ref, fit.power, 0.1),
        CheckRow("fit_rms", 0.0, fit.rms, 1e-2),
    ]
    _write_profile(shot.profile, Path(out_dir) / "exterior_profile.csv")
    return _write_report("shoot", rows, cfg, out_dir)


def run_martin(cfg, out_dir) -> ExperimentReport:
    c = _read_config(cfg, "martin")
    params, t, r0 = c["params"], c["t"], c["r0"]
    # the ratio approaches the kernel as t grows with xi between the origin
    # and the pole t*xi; martin_kernel_estimate only checks that |1 - t| and
    # t lie on the shot, which t in [r0, 1 - r0] also passes
    if t < r0 + 1.0:
        raise ConfigError(f"t must be >= {r0 + 1.0:g} (r0 + 1), got {t!r}")
    alpha = eigen_rate_alpha(params.lam, params.p)
    # tolerance carries the O(1/t) bias of the finite-shift ratio
    tol_rel = 5e-3 + 3.0 / t
    if alpha + math.log1p(tol_rel) > math.log(sys.float_info.max):
        raise OverflowError(f"kernel limit exp({alpha:g}) and its tolerance "
                            "overflow float64")
    xi = np.zeros(params.n)  # e_1
    xi[0] = 1.0
    # radial_exterior_eigen needs t + 10 >= 10 r0, and martin_kernel_estimate
    # needs the radii |1 - t| and t on the shot's span [r0, t + 10]
    shot = radial_ode.radial_exterior_eigen(
        params.n, params.p, params.lam, r0, t + 10.0,
        grid_points=c["grid_points"])
    est = blowup.martin_kernel_estimate(shot.profile, xi, xi, t)
    tol = math.exp(alpha) * tol_rel
    rows = [CheckRow("kernel_at_xi", math.exp(alpha), est, tol)]
    return _write_report("martin", rows, cfg, out_dir)


def run_blowup(cfg, out_dir) -> ExperimentReport:
    c = _read_config(cfg, "blowup")
    params, shifts, window = c["params"], c["shifts"], c["window"]
    rep_zero = _power_fixed_point(c["gamma"], c["scales"])
    alpha = eigen_rate_alpha(params.lam, params.p)
    shot = radial_ode.radial_exterior_eigen(
        params.n, params.p, params.lam, 1.0, max(shifts) + 10.0,
        grid_points=1400)
    rep_inf = blowup.translate_rescale_at_infinity(shot.profile, shifts,
                                                   alpha, window=window)
    rows = [CheckRow("power_fixed_point_sup", 0.0,
                     float(rep_zero.sup_distance.max()), 1e-12),
            *_translate_rows(rep_zero, rep_inf, out_dir)]
    return _write_report("blowup", rows, cfg, out_dir)


def run_grid(cfg, out_dir) -> ExperimentReport:
    c = _read_config(cfg, "grid")
    params, xi, rect, h, tol = c["params"], c["xi"], c["rect"], c["h"], c["tol"]
    alpha = eigen_rate_alpha(params.lam, params.p)
    fld, stats, _, _, rel_err = _exact_solve(params, alpha, xi, rect, h, tol)
    rows = [
        CheckRow("final_residual", 0.0, stats.final_residual, tol),
        CheckRow("sup_error_bound", 0.0, _excess(rel_err, 50.0 * h * h), 0.0),
        CheckRow("gradient_log_bound", 0.0,
                 _gradient_log_excess(fld, alpha, rel_err, h), 0.0),
        CheckRow("kappa_bound", 0.0, _kappa_excess(fld, params.p, params.lam), 0.0),
    ]
    # columns x,y,v in row-major node order
    _write_csv(Path(out_dir) / "dirichlet_field.csv", ("x", "y", "v"),
               zip(np.repeat(fld.x_coords(), fld.ny),
                   np.tile(fld.y_coords(), fld.nx), fld.values.ravel()),
               [f"nx={fld.nx} ny={fld.ny} h={fld.h:.17g} "
                f"origin=({fld.origin[0]:.17g},{fld.origin[1]:.17g})"])
    return _write_report("grid", rows, cfg, out_dir)


def run_bochner(cfg, out_dir) -> ExperimentReport:
    c = _read_config(cfg, "bochner")
    resid, shortfall = _bochner_trend(c["h_list"], c["lam"])
    rows = [CheckRow("refinement_factor", 0.0, shortfall, 0.0)]
    _write_csv(Path(out_dir) / "bochner_trend.csv", ("h", "residual"),
               zip(c["h_list"], resid))
    return _write_report("bochner", rows, cfg, out_dir)


# --- acceptance steps (the "all" campaign) ---------------------------------
# Each step returns the CheckRows of one criterion; run_all reports the worst
# margin among them as that criterion's row.

def _uniform(rng, low, high):
    """rng.uniform(low, high) as a float, without its per-call overhead.

    numpy's uniform draws one double x and returns low + (high - low) * x,
    the same operations on the same draw as here, so the stream and every
    value are unchanged."""
    return low + (high - low) * rng.random()


def _sample_admissible(rng, trials):
    """Arrays (n, p, a, mu) of `trials` random draws with mu <= mu_bar,
    covering all placement cases.

    n is uniform on {2..8} and p on [1.05, min(n - 0.05, 4)), except that
    every 5th draw (k % 5 == 0) has n in {3..8} and p = 2.  One draw in ten
    takes the critical weight a = (n-p)/p, where only mu <= 0 is
    admissible: mu = 0 in a tenth of those, else mu is uniform on (-5, 0].
    One in ten takes the double root mu = mu_bar, and the others have
    a - (n-p)/p uniform on [-2, 2) and mu on [-10, mu_bar).  The draws take
    one rng.integers call and one rng.random((4, trials)) block.
    """
    p2 = np.arange(trials) % 5 == 0
    n = rng.integers(np.where(p2, 3, 2), 9)
    u_p, pick, u_a, u_mu = rng.random((4, trials))
    p = np.where(p2, 2.0, 1.05 + (np.minimum(n - 0.05, 4.0) - 1.05) * u_p)
    crit = (n - p) / p
    critical = pick < 0.1
    a = np.where(critical, crit, crit + (-2.0 + 4.0 * u_a))
    mu_bar = hardy_best_constant(n, p, a)
    mu = np.where(pick < 0.2, mu_bar, -10.0 + (mu_bar + 10.0) * u_mu)
    mu = np.where(critical, np.where(u_a < 0.1, 0.0, -5.0 * u_mu), mu)
    return n, p, a, mu


# IndicialData as one numpy record: its numbers stored as doubles and the
# placement as a reference to its RootPlacement member
_INDICIAL_RECORD = np.dtype([
    ("mu_bar", float), ("gamma_star", float), ("gamma1", float),
    ("gamma2", float), ("placement", object), ("double_root", bool)])


def step_indicial(cfg, rng):
    """Criterion 01: both index roots of `indicial_trials` admissible draws.

    The per-draw body is one scalar indicial_roots call, which raises on a
    root whose residual exceeds its tolerance.  np.fromiter stores each
    result as one _INDICIAL_RECORD as it is made, so no IndicialData tuple
    or float object outlives its draw.  The placement check, the largest
    relative residual and, on the p = 2 draws without a double root, the
    gap to the closed-form roots are then taken over arrays of all draws.
    The placement check is placement_satisfied's array form, equal
    elementwise to the scalar one; numpy's power may differ from the scalar
    one in the last bit.
    """
    trials = cfg["indicial_trials"]
    n, p, a, mu = _sample_admissible(rng, trials)
    solved = np.fromiter(
        (indicial_roots(ProblemParams(*draw))
         for draw in zip(n.tolist(), p.tolist(), a.tolist(), mu.tolist())),
        dtype=_INDICIAL_RECORD, count=trials)
    data = IndicialData(*(solved[name] for name in IndicialData._fields))
    placement_failures = np.count_nonzero(~placement_satisfied(data, n, p, a))
    g = np.array([data.gamma1, data.gamma2])
    q = p - 1.0
    f = np.copysign(np.abs(g) ** q, g) * (n - (a + 1.0) * p - q * g)
    resid = np.abs(f - mu) / np.maximum(1.0, np.abs(mu))
    # closed-form roots of the p = 2 draws
    oracle = (p == 2.0) & ~data.double_root
    exact = np.array(_p2_roots(n[oracle], a[oracle], mu[oracle]))
    gap = np.abs(g[:, oracle] - exact) / np.maximum(1.0, np.abs(exact))
    # np.max keeps a NaN, which the builtin max drops
    return [
        CheckRow("max_relative_residual", 0.0, float(np.max(resid)), 1e-12),
        CheckRow("placement_failures", 0.0, float(placement_failures), 0.0),
        CheckRow("p2_oracle_gap", 0.0, float(np.max(gap, initial=0.0)), 1e-12),
    ]


# Tilted p=3 problem of the grid criteria 02-04.  The grid realization is 2-D
# regardless of n; n=4 just satisfies the p < n parameter invariant.
GRID_PARAMS = ProblemParams(n=4, p=3.0, lam=2.0)
GRID_ALPHA = eigen_rate_alpha(2.0, 3.0)


def _dirichlet_cache(cfg):
    """Solves of the grid problem at each spacing, shared by criteria 02-04."""
    xi = np.array([0.6, 0.8])
    solves = []
    for h in cfg["grid_h"]:
        # tol sits far below the O(h^2) discretization error but above the
        # rounding floor of the residual stencils (~eps/h^2)
        fld, _, exact, sup_err, rel_err = _exact_solve(
            GRID_PARAMS, GRID_ALPHA, xi, UNIT_SQUARE, h, 1e-9)
        solves.append({"h": h, "field": fld, "exact": exact, "sup_err": sup_err,
                       "rel_err": rel_err})
    return solves


def step_dirichlet(solves):
    errs = [c["sup_err"] for c in solves]
    return [
        CheckRow("order_min_shortfall_vs_1.8", 0.0, _order_shortfall(errs), 0.0),
        CheckRow("sup_error_finest", 0.0, errs[-1], 5e-4),
    ]


def step_gradient_bound(solves):
    worst = float(np.max([
        _gradient_log_excess(c["field"], GRID_ALPHA, c["rel_err"], c["h"])
        for c in solves]))
    stencil_errs = [abs(grid_pde.gradient_log_sup(c["exact"], via="ratio") - GRID_ALPHA)
                    for c in solves]
    return [
        CheckRow("solve_bound_excess", 0.0, worst, 0.0),
        CheckRow("equality_case_log_path", GRID_ALPHA,
                 grid_pde.gradient_log_sup(solves[-1]["exact"]), 1e-10),
        CheckRow("equality_case_stencil_order_shortfall", 0.0,
                 _order_shortfall(stencil_errs), 0.0),
    ]


def step_kappa(solves):
    p, lam = GRID_PARAMS.p, GRID_PARAMS.lam
    mf, kap = grid_pde.kappa_bound_check(solves[-1]["exact"], p, lam)
    return [
        CheckRow("exact_field_ratio", 1.0, mf / kap, 1e-12),
        CheckRow("solve_bound_excess", 0.0,
                 _kappa_excess(solves[-1]["field"], p, lam), 0.0),
    ]


def step_bochner(cfg):
    resid, shortfall = _bochner_trend(cfg["bochner_h"], 1.0)
    return [
        CheckRow("monotone_decrease", 0.0,
                 float(_excess(np.max(np.diff(resid)), 0.0)), 0.0),
        CheckRow("refinement_factor_shortfall", 0.0, shortfall, 0.0),
    ]


def step_exterior(cfg, out_dir):
    r_max = cfg["shoot_r_max"]
    shot3 = radial_ode.radial_exterior_eigen(3, 2.0, 1.0, 1.0, r_max)
    fit3 = radial_ode.fit_decay_exponents(shot3.profile)
    shot2 = radial_ode.radial_exterior_eigen(2, 2.0, 1.0, 1.0, r_max)
    fit2 = radial_ode.fit_decay_exponents(shot2.profile)
    t = cfg["martin_t"]
    shot_far = radial_ode.radial_exterior_eigen(3, 2.0, 1.0, 1.0, t + 50.0,
                                                grid_points=1600)
    xi = np.array([1.0, 0.0, 0.0])
    est = blowup.martin_kernel_estimate(shot_far.profile, xi, xi, t)
    _write_profile(shot3.profile, Path(out_dir) / "exterior_profile_n3.csv")
    return [
        CheckRow("n3_rate", 1.0, fit3.rate, 1e-3),
        CheckRow("n3_power", radial_ode.decay_power(3, 2.0), fit3.power, 5e-2),
        CheckRow("martin_at_xi", math.e, est, 5e-3),
        CheckRow("n2_power", radial_ode.decay_power(2, 2.0), fit2.power, 5e-2),
    ]


def step_exterior_p15(cfg):
    r_max = cfg["shoot_r_max"]
    shot = radial_ode.radial_exterior_eigen(3, 1.5, 0.5, 1.0, r_max)
    power_ref = radial_ode.decay_power(3, 1.5)
    fit_a = radial_ode.fit_decay_exponents(shot.profile)
    fit_b = radial_ode.fit_decay_exponents(shot.profile,
                                           window=(r_max / 3.0, r_max))
    return [
        CheckRow("rate_window_outer_half", 1.0, fit_a.rate, 5e-3),
        CheckRow("power_window_outer_half", power_ref, fit_a.power, 0.1),
        CheckRow("rate_window_outer_two_thirds", 1.0, fit_b.rate, 5e-3),
        CheckRow("power_window_outer_two_thirds", power_ref, fit_b.power, 0.1),
    ]


def step_riccati(cfg):
    # one vector pass over the (p, lam, s0) grid to T, and one over the p=2
    # flows, whose closed forms are alpha tanh and alpha coth of
    # alpha t + atanh(1/4) from s0 = alpha/4 and 4 alpha
    ps, lams = (1.5, 2.0, 3.0), (0.5, 1.0, 2.0)
    alpha = np.array([[eigen_rate_alpha(lam, p) for lam in lams] for p in ps])
    _, s = radial_ode.riccati_ratio_flow(
        np.array(lams)[:, None], np.array(ps)[:, None, None],
        alpha[..., None] * [0.25, 4.0], (0.0, cfg["riccati_T"]))
    worst_gap = float(np.max(np.abs(s[..., -1] - alpha[..., None])))
    lam = np.array(lams)[:, None]
    rate = np.sqrt(lam)
    t, s = radial_ode.riccati_ratio_flow(lam, 2.0, rate * [0.25, 4.0],
                                         (0.0, 10.0))
    phase = np.tanh(rate * t + math.atanh(0.25))
    ref = np.stack([rate * phase, rate / phase], axis=1)
    oracle_gap = float(np.max(np.abs(s - ref)))
    return [
        CheckRow("terminal_gap", 0.0, worst_gap, 1e-6),
        CheckRow("p2_closed_form_gap", 0.0, oracle_gap, 1e-8),
    ]


def _sample_root_instance(rng):
    """Parameter draw for the power-solution residual sweep.

    Redraws until both roots perturbed by +0.1 give an index-function gap
    of at least 2e-3, so the perturbed-residual floor of 1e-3 is meaningful
    rather than hostage to near-double-root flatness.
    """
    for _ in range(64):
        n = int(rng.integers(2, 7))
        p = _uniform(rng, 1.2, min(n - 0.1, 3.0))
        crit = (n - p) / p
        off = _uniform(rng, 0.05, 1.5) * (1 if rng.random() < 0.5 else -1)
        a = crit + off
        mu_bar = hardy_best_constant(n, p, a)
        mu = _uniform(rng, -5.0, 0.9 * mu_bar)
        data = indicial_roots(ProblemParams(n=n, p=p, a=a, mu=mu))
        pert = min(abs(auxiliary_f(data.gamma1 + 0.1, n, p, a) - mu),
                   abs(auxiliary_f(data.gamma2 + 0.1, n, p, a) - mu))
        if pert >= 2e-3:
            return n, p, a, mu, data
    raise RuntimeError("root-instance sampler failed to find a margin")


def step_power_residual(cfg, rng):
    trials = cfg["hardy_trials"]
    r_samples = np.geomspace(1e-2, 1e2, 9)
    # every instance first, then one vector residual call for the roots and
    # one for the roots + 0.1; each root enters as its own instance
    inst = []
    for _ in range(trials):
        n, p, a, mu, data = _sample_root_instance(rng)
        inst += [(n, p, a, mu, data.gamma1), (n, p, a, mu, data.gamma2)]
    n, p, a, mu, gamma = map(np.array, zip(*inst))
    root = radial_ode.hardy_power_residual(n, p, a, mu, gamma, r_samples)
    pert = radial_ode.hardy_power_residual(n, p, a, mu, gamma + 0.1, r_samples)
    # np.max and np.min keep a NaN, which the builtin max and min drop
    return [
        CheckRow("max_root_residual", 0.0, float(np.max(root)), 1e-12),
        CheckRow("min_perturbed_shortfall", 0.0,
                 _excess(1e-3, float(np.min(pert))), 0.0),
    ]


def step_rescale(cfg, out_dir):
    rep_zero = _power_fixed_point(0.25, [1e-1, 1e-2, 1e-3])

    alpha = 1.0
    r_exp = np.geomspace(1.0, 200.0, 2500)
    exp_profile = radial_ode.RadialProfile(
        r=r_exp, log_u=-alpha * r_exp, ratio=np.full_like(r_exp, -alpha),
        meta={"kind": "exponential", "alpha": alpha})
    shifts, window = cfg["translate_shifts"], cfg["translate_window"]

    r_mix = np.geomspace(1.0, max(shifts) + 10.0, 3000)
    mix_profile = radial_ode.RadialProfile(
        r=r_mix, log_u=-r_mix - np.log(r_mix), ratio=-(1.0 + 1.0 / r_mix),
        meta={"kind": "exp_over_r"})
    rep_exp = blowup.translate_rescale_at_infinity(exp_profile, shifts,
                                                   alpha, window=window)
    rep_mix = blowup.translate_rescale_at_infinity(mix_profile, shifts,
                                                   alpha, window=window)
    return [
        CheckRow("power_fixed_point", 0.0, float(rep_zero.sup_distance.max()), 1e-12),
        CheckRow("exp_fixed_point", 0.0, float(rep_exp.sup_distance.max()), 1e-12),
        *_translate_rows(rep_zero, rep_mix, out_dir),
    ]


# The sweep sizes of the acceptance campaign, pinned in source like its
# tolerances (step 02's 5e-4 holds at its finest spacing 1/128).
ALL_SETTINGS = {
    "indicial_trials": 10000,
    "hardy_trials": 1000,
    "grid_h": (1.0 / 32, 1.0 / 64, 1.0 / 128),
    "bochner_h": (1.0 / 16, 1.0 / 32, 1.0 / 64),
    "shoot_r_max": 40.0,
    "martin_t": 1000.0,
    "riccati_T": 50.0,
    "translate_window": 0.5,
    "translate_shifts": (10.0, 20.0, 40.0, 80.0, 160.0),
}


def run_all(cfg, out_dir, seed=0) -> ExperimentReport:
    _read_config(cfg, "all")  # rejects every key: the campaign takes none
    values = ALL_SETTINGS
    out = Path(out_dir)
    t0 = time.perf_counter()
    solves = _dirichlet_cache(values)
    # the solves of criteria 02-04 run before the steps, under a key of
    # their own
    durations = {"dirichlet_solves": time.perf_counter() - t0}

    # Built per call, so the step names resolve to the module's current
    # bindings (a tracer may have rebound them).  Each randomized sweep draws
    # from its own stream [seed, index of its step].
    steps = [
        ("01_indicial_roots", step_indicial, values,
         np.random.default_rng([seed, 0])),
        ("02_dirichlet_convergence", step_dirichlet, solves),
        ("03_gradient_log_bound", step_gradient_bound, solves),
        ("04_kappa_bound", step_kappa, solves),
        ("05_bochner_trend", step_bochner, values),
        ("06_exterior_decay", step_exterior, values, out),
        ("07_exterior_decay_p15", step_exterior_p15, values),
        ("08_ratio_flow_convergence", step_riccati, values),
        ("09_power_solution_residual", step_power_residual, values,
         np.random.default_rng([seed, 8])),
        ("10_rescaling_fixed_points", step_rescale, values, out),
    ]
    rows, details = [], []
    for name, step, *args in steps:
        t0 = time.perf_counter()
        checks = step(*args)
        durations[name] = time.perf_counter() - t0
        margin = max((c.margin for c in checks), default=0.0)
        log.info("step %s finished in %.2fs (margin %.3g)", name,
                 durations[name], margin)
        rows.append(CheckRow(name, 0.0, margin, 1.0))
        for c in checks:
            details.append(f"{name}/{c.name}: target={c.target:.17g} "
                           f"measured={c.measured:.17g} tol={c.tolerance:.17g} "
                           f"pass={int(c.passed)}")
    report = ExperimentReport("all", rows, {"config": values, "seed": seed},
                              details, durations)
    report.write_csv(out / "report.csv")
    return report


# Each campaign checks its config and computes before it writes any file;
# --out is created with the first artifact.
CAMPAIGNS = {
    "roots": run_roots,
    "shoot": run_shoot,
    "blowup": run_blowup,
    "martin": run_martin,
    "grid": run_grid,
    "bochner": run_bochner,
}


def _setup_logging():
    level_name = os.environ.get("PLAP_LOG", "error")
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    if level_name not in levels:
        raise ConfigError(f"PLAP_LOG must be one of {sorted(levels)}")
    logging.basicConfig(level=levels[level_name],
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="plap",
        description="verification campaigns for quasi-linear asymptotics")
    parser.add_argument("subcommand",
                        choices=sorted(CAMPAIGNS) + ["all"])
    parser.add_argument("--config", required=False,
                        help="JSON config file (defaults to an empty config)")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    try:
        args = parser.parse_args(argv)
        if args.seed < 0:
            parser.error(f"--seed must be >= 0, got {args.seed}")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _setup_logging()
        cfg = {}
        if args.config:
            with open(args.config) as fh:
                cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        if args.subcommand == "all":
            report = run_all(cfg, args.out, seed=args.seed)
        else:
            try:
                report = CAMPAIGNS[args.subcommand](cfg, args.out)
            except DomainError as exc:
                raise ConfigError(f"{args.subcommand} config "
                                  f"{json.dumps(cfg)}: {exc}") from exc
    except (ConfigError, json.JSONDecodeError, OSError) as exc:
        print(f"plap: config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # surface module errors with the campaign name
        print(f"plap: campaign '{args.subcommand}' failed: {exc}", file=sys.stderr)
        return 1
    width = max((len(r.name) for r in report.rows), default=4)
    for row in report.rows:
        status = "PASS" if row.passed else "FAIL"
        print(f"{row.name:<{width}}  target={row.target:<12.6g} "
              f"measured={row.measured:<12.6g} tol={row.tolerance:<12.6g} {status}")
    print(f"{'summary':<{width}}  "
          f"{'all checks passed' if report.all_passed else 'CHECK FAILURE'}")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
