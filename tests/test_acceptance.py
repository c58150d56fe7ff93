"""Acceptance suite: the rows of `plap all`'s report.csv (its 17-digit
numbers read back as the same doubles) against CRITERIA, which pins their
names, targets and tolerances.  Each test prints one `ACCEPTANCE nn
PASS|FAIL` line (run pytest with -s to see them as they execute)."""

import math
import re
import time

import pytest

from plap import cli

# (criterion, its rows as (name, target, tolerance)) in report order
CRITERIA = [
    ("01_indicial_roots", [("max_relative_residual", 0.0, 1e-12),
                           ("placement_failures", 0.0, 0.0),
                           ("p2_oracle_gap", 0.0, 1e-12)]),
    ("02_dirichlet_convergence", [("order_min_shortfall_vs_1.8", 0.0, 0.0),
                                  ("sup_error_finest", 0.0, 5e-4)]),
    ("03_gradient_log_bound", [("solve_bound_excess", 0.0, 0.0),
                               ("equality_case_log_path", 1.0, 1e-10),
                               ("equality_case_stencil_order_shortfall",
                                0.0, 0.0)]),
    ("04_kappa_bound", [("exact_field_ratio", 1.0, 1e-12),
                        ("solve_bound_excess", 0.0, 0.0)]),
    ("05_bochner_trend", [("monotone_decrease", 0.0, 0.0),
                          ("refinement_factor_shortfall", 0.0, 0.0)]),
    ("06_exterior_decay", [("n3_rate", 1.0, 1e-3), ("n3_power", 1.0, 5e-2),
                           ("martin_at_xi", math.e, 5e-3),
                           ("n2_power", 0.5, 5e-2)]),
    ("07_exterior_decay_p15", [("rate_window_outer_half", 1.0, 5e-3),
                               ("power_window_outer_half", 8 / 3, 0.1),
                               ("rate_window_outer_two_thirds", 1.0, 5e-3),
                               ("power_window_outer_two_thirds", 8 / 3, 0.1)]),
    ("08_ratio_flow_convergence", [("terminal_gap", 0.0, 1e-6),
                                   ("p2_closed_form_gap", 0.0, 1e-8)]),
    ("09_power_solution_residual", [("max_root_residual", 0.0, 1e-12),
                                    ("min_perturbed_shortfall", 0.0, 0.0)]),
    ("10_rescaling_fixed_points", [("power_fixed_point", 0.0, 1e-12),
                                   ("exp_fixed_point", 0.0, 1e-12),
                                   ("translate_monotone", 0.0, 0.0),
                                   ("translate_final", 0.0, 1e-2)]),
]
# seconds per step from report.durations; 02's bound is on the whole
# campaign, since its Dirichlet solves run before the steps (they have
# their own entry, "dirichlet_solves", which must lie inside it)
SECONDS = {"01_indicial_roots": 5.0, "02_dirichlet_convergence": 60.0,
           "06_exterior_decay": 10.0}
DETAIL = re.compile(r"^# (\w+)/(.+): target=(\S+) measured=(\S+) tol=(\S+) "
                    r"pass=([01])$", re.MULTILINE)


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """Seed 0's output tree, seconds per step (02: all), rows by criterion."""
    out = tmp_path_factory.mktemp("all")
    t0 = time.perf_counter()
    seconds = dict(cli.run_all({}, out, seed=0).durations)
    seconds["02_dirichlet_convergence"] = time.perf_counter() - t0
    rows = {}
    for m in DETAIL.finditer((out / "report.csv").read_text()):
        crit, name, *numbers, passed = m.groups()
        rows.setdefault(crit, []).append(
            (name, *map(float, numbers), passed == "1"))
    return out, seconds, rows


def announce(num, ok, detail):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


def check_criterion(campaign, num):
    _, seconds, rows = campaign
    crit, expected = CRITERIA[num - 1]
    got = rows.get(crit, [])
    took = seconds.get(crit, 0.0)
    unmet = [what for what, met in [
        ("criteria", list(rows) == [c for c, _ in CRITERIA]),
        ("pinned", [(n, t, tol) for n, t, _, tol, _ in got] == expected),
        ("pass", all(ok and abs(m - t) <= tol for _, t, m, tol, ok in got)),
        ("seconds", took <= SECONDS.get(crit, math.inf)),
        ("solves timed", num != 2
         or 0.0 < seconds["dirichlet_solves"] < took)] if not met]
    announce(num, not unmet, ", ".join(f"{n} {m:.3g}" for n, _, m, _, _ in got)
             + f", {took:.2f}s" + (f"; unmet: {unmet}" if unmet else ""))


def criterion(num):  # a test of its own name per criterion, one check
    return lambda campaign: check_criterion(campaign, num)


test_criterion_01_indicial_roots = criterion(1)
test_criterion_02_dirichlet_convergence = criterion(2)
test_criterion_03_gradient_log_bound = criterion(3)
test_criterion_04_kappa_bound = criterion(4)
test_criterion_05_bochner_trend = criterion(5)
test_criterion_06_exterior_decay = criterion(6)
test_criterion_07_exterior_decay_p15 = criterion(7)
test_criterion_08_ratio_flow = criterion(8)
test_criterion_09_power_solution_residual = criterion(9)
test_criterion_10_rescaling_fixed_points = criterion(10)


def test_criterion_11_campaign_determinism(campaign, tmp_path):
    cli.run_all({}, tmp_path, seed=0)
    first, second = ({p.relative_to(root): p.read_bytes()
                      for p in sorted(root.rglob("*")) if p.is_file()}
                     for root in (campaign[0], tmp_path))
    announce(11, first == second, f"{len(first)} artifacts byte-compared")
