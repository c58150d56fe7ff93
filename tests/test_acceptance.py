"""Acceptance suite: one timed, tolerance-pinned test per exit criterion.

Each test prints a single `ACCEPTANCE nn PASS|FAIL` line (run pytest with -s
to see them as they execute).  Tolerances are written out literally here and
are not configurable.
"""

import math
import time

import numpy as np
import pytest

from plap import blowup, cli, grid_pde, radial_ode
from plap.indicial import (ProblemParams, auxiliary_f, eigen_rate_alpha,
                           indicial_roots, placement_satisfied)

SEED = 20260808


def report(num, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def dirichlet_solves():
    """Shared tilted p=3, lam=2 solves at h in {1/32, 1/64, 1/128}."""
    params = ProblemParams(n=4, p=3.0, lam=2.0)
    xi = np.array([0.6, 0.8])
    rect = (0.0, 0.0, 1.0, 1.0)
    t0 = time.perf_counter()
    cases = []
    for h in (1 / 32, 1 / 64, 1 / 128):
        fld, stats = grid_pde.solve_dirichlet(params, xi, rect, h, tol=1e-9)
        exact = grid_pde.exponential_field(1.0, xi, rect, h)
        sup_err = float(np.max(np.abs(fld.values - exact.values)))
        cases.append({"h": h, "field": fld, "stats": stats,
                      "sup_err": sup_err})
    elapsed = time.perf_counter() - t0
    return {"cases": cases, "elapsed": elapsed, "xi": xi, "rect": rect,
            "p": 3.0, "lam": 2.0, "alpha": 1.0}


def test_criterion_01_indicial_roots():
    trials = 10_000
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    placement_ok = True
    p2_gap = 0.0
    draws = cli._sample_admissible(rng, trials)
    for n, p, a, mu in zip(*(x.tolist() for x in draws)):
        data = indicial_roots(ProblemParams(n=n, p=p, a=a, mu=mu))
        scale = max(1.0, abs(mu))
        for g in (data.gamma1, data.gamma2):
            worst = max(worst, abs(auxiliary_f(g, n, p, a) - mu) / scale)
        placement_ok &= placement_satisfied(data, n, p, a)
        if p == 2.0 and not data.double_root:
            d = n - (a + 1.0) * 2.0
            disc = math.sqrt(max(d * d - 4.0 * mu, 0.0))
            p2_gap = max(p2_gap,
                         abs(data.gamma1 - 0.5 * (d - disc)) / max(1.0, abs(d)),
                         abs(data.gamma2 - 0.5 * (d + disc)) / max(1.0, abs(d)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and placement_ok and p2_gap <= 1e-12 and elapsed <= 5.0
    report(1, ok, f"max residual {worst:.2e}, p=2 gap {p2_gap:.2e}, "
                  f"{elapsed:.2f}s")


def test_criterion_02_dirichlet_convergence(dirichlet_solves):
    errs = [c["sup_err"] for c in dirichlet_solves["cases"]]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    ok = (min(orders) >= 1.8 and errs[-1] <= 5e-4
          and dirichlet_solves["elapsed"] <= 60.0)
    report(2, ok, f"orders {orders[0]:.3f}/{orders[1]:.3f}, "
                  f"err(1/128) {errs[-1]:.2e}, "
                  f"{dirichlet_solves['elapsed']:.1f}s")


def test_criterion_03_gradient_log_bound(dirichlet_solves):
    alpha = dirichlet_solves["alpha"]
    xi, rect = dirichlet_solves["xi"], dirichlet_solves["rect"]
    bound_ok = True
    for c in dirichlet_solves["cases"]:
        glog = grid_pde.gradient_log_sup(c["field"])
        bound_ok &= glog <= alpha + 5.0 * c["sup_err"] / c["h"]
    exact = grid_pde.exponential_field(alpha, xi, rect, 1 / 128)
    log_path_gap = abs(grid_pde.gradient_log_sup(exact) - alpha)
    stencil_errs = [abs(grid_pde.gradient_log_sup(
        grid_pde.exponential_field(alpha, xi, rect, c["h"]), via="ratio")
        - alpha) for c in dirichlet_solves["cases"]]
    stencil_orders = [math.log2(stencil_errs[i] / stencil_errs[i + 1])
                      for i in range(len(stencil_errs) - 1)]
    ok = bound_ok and log_path_gap <= 1e-10 and min(stencil_orders) >= 1.8
    report(3, ok, f"equality gap {log_path_gap:.2e}, "
                  f"stencil orders {stencil_orders[0]:.2f}/{stencil_orders[1]:.2f}")


def test_criterion_04_kappa_bound(dirichlet_solves):
    p, lam = dirichlet_solves["p"], dirichlet_solves["lam"]
    exact = grid_pde.exponential_field(dirichlet_solves["alpha"],
                                       dirichlet_solves["xi"],
                                       dirichlet_solves["rect"], 1 / 128)
    mf, kap = grid_pde.kappa_bound_check(exact, p, lam)
    exact_gap = abs(mf / kap - 1.0)
    finest = dirichlet_solves["cases"][-1]
    mf_s, kap_s = grid_pde.kappa_bound_check(finest["field"], p, lam)
    ok = exact_gap <= 1e-12 and mf_s <= kap_s * (1.0 + 1e-2)
    report(4, ok, f"exact ratio gap {exact_gap:.2e}, "
                  f"solve ratio {mf_s / kap_s:.6f}")


def test_criterion_05_bochner_trend():
    # the p=2 oracle e^x + e^y, a two-atom superposition at lam = 1
    atoms = [((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0)]
    resid = [grid_pde.bochner_residual(
        grid_pde.representation_field(atoms, 1.0, (0.0, 0.0, 1.0, 1.0), h),
        2.0, 1.0) for h in (1 / 16, 1 / 32, 1 / 64)]
    ratios = [resid[i] / resid[i + 1] for i in range(len(resid) - 1)]
    ok = all(np.diff(resid) < 0) and min(ratios) >= 1.5
    report(5, ok, f"residuals {resid[0]:.2e} -> {resid[-1]:.2e}, "
                  f"min factor {min(ratios):.2f}")


def test_criterion_06_exterior_decay():
    t0 = time.perf_counter()
    shot3 = radial_ode.radial_exterior_eigen(3, 2.0, 1.0, 1.0, 40.0)
    fit3 = radial_ode.fit_decay_exponents(shot3.profile, 1.0)
    shot2 = radial_ode.radial_exterior_eigen(2, 2.0, 1.0, 1.0, 40.0)
    fit2 = radial_ode.fit_decay_exponents(shot2.profile, 1.0)
    far = radial_ode.radial_exterior_eigen(3, 2.0, 1.0, 1.0, 1050.0,
                                           grid_points=1600)
    xi = np.array([1.0, 0.0, 0.0])
    est = blowup.martin_kernel_estimate(far.profile, xi, xi, 1e3)
    elapsed = time.perf_counter() - t0
    ok = (abs(fit3.rate - 1.0) <= 1e-3 and abs(fit3.power - 1.0) <= 5e-2
          and abs(est - math.e) <= 5e-3 and abs(fit2.power - 0.5) <= 5e-2
          and elapsed <= 10.0)
    report(6, ok, f"n3 rate {fit3.rate:.6f} power {fit3.power:.4f}, "
                  f"kernel gap {abs(est - math.e):.2e}, "
                  f"n2 power {fit2.power:.4f}, {elapsed:.1f}s")


def test_criterion_07_exterior_decay_p15():
    shot = radial_ode.radial_exterior_eigen(3, 1.5, 0.5, 1.0, 40.0)
    power_ref = 8.0 / 3.0
    fit_a = radial_ode.fit_decay_exponents(shot.profile, 1.0)
    fit_b = radial_ode.fit_decay_exponents(shot.profile, 1.0,
                                           window=(40.0 / 3.0, 40.0))
    ok = all(abs(f.rate - 1.0) <= 5e-3 and abs(f.power - power_ref) <= 0.1
             for f in (fit_a, fit_b))
    report(7, ok, f"rates {fit_a.rate:.5f}/{fit_b.rate:.5f}, "
                  f"powers {fit_a.power:.4f}/{fit_b.power:.4f} (ref 8/3)")


def test_criterion_08_ratio_flow():
    worst_gap = 0.0
    for p in (1.5, 2.0, 3.0):
        for lam in (0.5, 1.0, 2.0):
            alpha = eigen_rate_alpha(lam, p)
            for s0 in (alpha / 4.0, 4.0 * alpha):
                _, s = radial_ode.riccati_ratio_flow(lam, p, s0, (0.0, 50.0))
                worst_gap = max(worst_gap, abs(float(s[-1]) - alpha))
    oracle_gap = 0.0
    for lam in (0.5, 1.0, 2.0):
        alpha = math.sqrt(lam)
        for s0 in (alpha / 4.0, 4.0 * alpha):
            t, s = radial_ode.riccati_ratio_flow(lam, 2.0, s0, (0.0, 10.0))
            if s0 < alpha:
                ref = alpha * np.tanh(alpha * t + math.atanh(s0 / alpha))
            else:
                ref = alpha / np.tanh(alpha * t + math.atanh(alpha / s0))
            oracle_gap = max(oracle_gap, float(np.max(np.abs(s - ref))))
    ok = worst_gap <= 1e-6 and oracle_gap <= 1e-8
    report(8, ok, f"terminal gap {worst_gap:.2e}, oracle gap {oracle_gap:.2e}")


def test_criterion_09_power_solution_residual():
    rng = np.random.default_rng(SEED)
    r_samples = np.geomspace(1e-2, 1e2, 9)
    worst_root = 0.0
    worst_pert = math.inf
    for _ in range(1000):
        n, p, a, mu, data = cli._sample_root_instance(rng)
        for g in (data.gamma1, data.gamma2):
            worst_root = max(worst_root, radial_ode.hardy_power_residual(
                n, p, a, mu, g, r_samples))
            worst_pert = min(worst_pert, radial_ode.hardy_power_residual(
                n, p, a, mu, g + 0.1, r_samples))
    ok = worst_root <= 1e-12 and worst_pert >= 1e-3
    report(9, ok, f"root residual {worst_root:.2e}, "
                  f"perturbed floor {worst_pert:.2e}")


def test_criterion_10_rescaling_fixed_points():
    gamma = 0.25
    r = np.geomspace(1e-4, 1e2, 900)
    u, du = r ** -gamma, -gamma * r ** (-gamma - 1.0)
    power = radial_ode.RadialProfile(r=r, log_u=np.log(u), ratio=du / u,
                                     meta={})
    rep_pow = blowup.rescale_near_zero(power, [1e-1, 1e-2, 1e-3], gamma)

    alpha = 1.0
    r2 = np.geomspace(1.0, 200.0, 2500)
    expo = radial_ode.RadialProfile(
        r=r2, log_u=-r2, ratio=-np.ones_like(r2), meta={})
    rep_exp = blowup.translate_rescale_at_infinity(expo, [10.0, 40.0, 120.0],
                                                   alpha, window=2.0)

    r3 = np.geomspace(1.0, 170.0, 3000)
    mix = radial_ode.RadialProfile(
        r=r3, log_u=-r3 - np.log(r3), ratio=-(1 + 1 / r3), meta={})
    rep_mix = blowup.translate_rescale_at_infinity(
        mix, [10.0, 20.0, 40.0, 80.0, 160.0], alpha, window=0.5)

    fixed_pow = float(rep_pow.sup_distance.max())
    fixed_exp = float(rep_exp.sup_distance.max())
    ok = (fixed_pow <= 1e-12 and fixed_exp <= 1e-12
          and np.all(np.diff(rep_mix.sup_distance) < 0)
          and rep_mix.sup_distance[-1] <= 1e-2)
    report(10, ok, f"fixed points {fixed_pow:.2e}/{fixed_exp:.2e}, "
                   f"final translate {rep_mix.sup_distance[-1]:.2e}")


def test_criterion_11_campaign_determinism(tmp_path):
    outs = [tmp_path / "run1", tmp_path / "run2"]
    for out in outs:
        cli.run_all({}, out, seed=0)
    trees = []
    for out in outs:
        trees.append({p.relative_to(out): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    same_names = set(trees[0]) == set(trees[1])
    same_bytes = same_names and all(trees[0][k] == trees[1][k] for k in trees[0])
    report(11, same_bytes, f"{len(trees[0])} artifacts byte-compared")
