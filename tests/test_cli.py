import contextlib
import copy
import importlib
import io
import json
import logging
import math
import os
import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plap import cli, grid_pde, radial_ode
from plap.errors import (ConfigError, DomainError, IllConditioned, NoRealRoot,
                         OutOfRange)
from plap.indicial import (RESIDUAL_RTOL, ProblemParams, RootPlacement,
                           auxiliary_f, eigen_rate_alpha, hardy_best_constant,
                           indicial_roots, step_change)

# The nine config keys that `plap all` took, at their defaults; the campaign
# now runs with exactly these settings and takes no key.
FORMER_ALL_DEFAULTS = {
    "indicial_trials": 10000,
    "hardy_trials": 1000,
    "grid_h": [1 / 32, 1 / 64, 1 / 128],
    "bochner_h": [1 / 16, 1 / 32, 1 / 64],
    "shoot_r_max": 40.0,
    "martin_t": 1000.0,
    "riccati_T": 50.0,
    "translate_window": 0.5,
    "translate_shifts": [10.0, 20.0, 40.0, 80.0, 160.0],
}


def read_tree(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def assert_same_tree(root1, root2):
    tree1, tree2 = read_tree(root1), read_tree(root2)
    assert set(tree1) == set(tree2)
    for name in tree1:
        assert tree1[name] == tree2[name], name


class TestRootsCampaign:
    def test_factorized_case(self, tmp_path):
        cfg = {"params": {"n": 4, "p": 2.0, "a": 0.0, "mu": 0.0}}
        report = cli.run_roots(cfg, tmp_path)
        rows = {r.name: r for r in report.rows}
        assert rows["gamma2"].target == 2.0
        assert rows["gamma2"].passed
        assert report.all_passed
        assert (tmp_path / "roots_report.csv").exists()

    @pytest.mark.parametrize("n, p, mu, gamma1", [
        (3, 1.001, 0.1, 0.0),     # residual 0.1, allowance 0.95
        (3, 1.01, 1e-3, 5e-324),  # residual 1.6e-4, allowance 1.16e-3
    ])
    def test_one_double_residual_allowance(self, tmp_path, n, p, mu, gamma1):
        # gamma1 lies at or below the smallest double, where f jumps by more
        # than mu across one step: its residual passes only within
        # step_change, the change of f across one double
        report = cli.run_roots({"params": {"n": n, "p": p, "mu": mu}},
                               tmp_path)
        assert indicial_roots(ProblemParams(n=n, p=p, mu=mu)).gamma1 == gamma1
        row = {r.name: r for r in report.rows}["residual_gamma1"]
        assert row.measured > 1e-12 * max(1.0, abs(mu))
        assert row.tolerance == step_change(gamma1, n, p)
        assert report.all_passed

    def test_rejects_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.run_roots({"params": {"n": 4, "p": 2.0}, "bogus": 1}, tmp_path)


class TestMartinCampaign:
    def test_kernel_row(self, tmp_path):
        cfg = {"params": {"n": 3, "p": 2.0, "lam": 1.0}, "t": 100.0}
        report = cli.run_martin(cfg, tmp_path)
        row = report.rows[0]
        assert row.name == "kernel_at_xi"
        assert abs(row.target - 2.718281828459045) < 1e-12
        assert row.passed

    def test_memory_does_not_grow_with_n(self, tmp_path):
        # e_1 in R^n takes n doubles; the row of an n x n identity peaked
        # at 30.7 MB for n = 2000, against 0.2 MB at n = 3
        cfg = {"params": {"n": 2000, "p": 2.0, "lam": 1.0}}
        tracemalloc.start()
        try:
            cli.run_martin(cfg, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


class TestOtherCampaigns:
    def test_shoot(self, tmp_path):
        cfg = {"params": {"n": 3, "p": 2.0, "lam": 1.0}, "r_max": 30.0}
        report = cli.run_shoot(cfg, tmp_path)
        assert report.all_passed
        assert (tmp_path / "exterior_profile.csv").exists()

    # u = exp(ln u) overflows on this profile, whose fit is far off
    @pytest.mark.filterwarnings("ignore:overflow encountered in exp")
    def test_shoot_profile_meta_is_strict_json(self, tmp_path):
        # at n = 1e16, p = 1.001 the far-field series' reach is inf, once
        # written as the token Infinity, which strict JSON readers reject
        cfg = {"params": {"n": 10 ** 16, "p": 1.001, "lam": 1.0},
               "r_max": 10.0, "grid_points": 50}
        cli.run_shoot(cfg, tmp_path)
        first = (tmp_path / "exterior_profile.csv").read_text().splitlines()[0]
        assert first.startswith("# ")

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        meta = json.loads(first[2:], parse_constant=reject)
        assert meta["series_radius"] == "inf"
        assert meta["alpha"] == eigen_rate_alpha(1.0, 1.001)

    def test_blowup(self, tmp_path):
        cfg = {"params": {"n": 3, "p": 2.0, "lam": 1.0},
               "shifts": [10.0, 20.0, 40.0]}
        report = cli.run_blowup(cfg, tmp_path)
        rows = {r.name: r for r in report.rows}
        assert rows["power_fixed_point_sup"].passed
        assert rows["translate_monotone"].passed
        assert (tmp_path / "translate_far_field.csv").exists()

    def test_grid(self, tmp_path):
        cfg = {"params": {"n": 4, "p": 3.0, "lam": 2.0}, "h": 1 / 32,
               "tol": 1e-9}
        report = cli.run_grid(cfg, tmp_path)
        assert report.all_passed
        assert (tmp_path / "dirichlet_field.csv").exists()

    def test_grid_sup_error_is_relative(self, tmp_path):
        # at p = 1.1, alpha = 8.11 and the field runs from 1 to e^(1.4 alpha),
        # about 8.5e4: the sup error 6.8 is at most 3.2e-3 of the field at
        # any node, within 50 h^2 = 0.049, which the absolute error is not
        cfg = {"params": {"n": 4, "p": 1.1, "lam": 1.0}, "h": 1 / 32,
               "tol": 1e-9}
        assert cli.run_grid(cfg, tmp_path).all_passed

    def test_grid_sup_error_is_relative_at_each_node(self, tmp_path,
                                                    monkeypatch):
        # 10% off at the interior node where the data are least is 0.026 of
        # the largest value, e^1.4, and fails: at p = 1.05, lam = 1 a
        # converged field is 2.9 times off there, 1.6e-4 of its largest value
        solve = grid_pde.solve_dirichlet

        def off_at_least_node(*args, **kwargs):
            fld, stats = solve(*args, **kwargs)
            values = fld.values.copy()
            values[1, 1] *= 1.1
            return grid_pde.Field2D(fld.h, fld.origin, values), stats

        monkeypatch.setattr(grid_pde, "solve_dirichlet", off_at_least_node)
        cfg = {"params": {"n": 4, "p": 3.0, "lam": 2.0}, "h": 1 / 32,
               "tol": 1e-9}
        rows = {r.name: r for r in cli.run_grid(cfg, tmp_path).rows}
        assert rows["sup_error_bound"].measured == pytest.approx(
            0.1 - 50.0 / 32 ** 2, abs=1e-4)

    def test_grid_logs_solver_counters(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="plap")
        cfg = {"params": {"n": 4, "p": 3.0, "lam": 2.0}, "h": 1 / 16,
               "tol": 1e-9}
        cli.run_grid(cfg, tmp_path)
        lines = [r.getMessage() for r in caplog.records]
        assert any(re.match(r"dirichlet h=0\.0625: [1-9]\d* Newton iters, [1-9]\d* "
                            r"linear solves, 0 float64 refactors", line)
                   for line in lines), lines
        # logged, never written under the output directory
        for path in tmp_path.rglob("*"):
            assert b"linear solves" not in path.read_bytes()

    def test_bochner(self, tmp_path):
        report = cli.run_bochner({"h_list": [1 / 8, 1 / 16]}, tmp_path)
        assert report.all_passed
        assert (tmp_path / "bochner_trend.csv").exists()


class TestMainEntry:
    def test_malformed_params_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"params": {"n": 3, "p": 5.0}}))
        code = cli.main(["roots", "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
        assert code == 2
        assert "p must lie in (1, n)" in capsys.readouterr().err

    @pytest.mark.parametrize("sub, params", [
        ("roots", {"n": 4, "p": 2.0, "mu": float("nan")}),
        ("roots", {"n": 4, "p": 2.0, "a": float("inf")}),
        ("shoot", {"n": 3, "p": 2.0, "lam": float("inf")}),
        # json writes and reads 10 ** 400 as an integer literal beyond the
        # float range
        ("shoot", {"n": 3, "p": 2.0, "lam": 10 ** 400}),
        ("roots", {"n": 4, "p": 2.0, "mu": -10 ** 400}),
    ])
    def test_non_finite_params_exit_2(self, tmp_path, capsys, sub, params):
        cfg_path = tmp_path / "cfg.json"
        # json.dumps writes the NaN and Infinity tokens that json.load reads
        cfg_path.write_text(json.dumps({"params": params}))
        code = cli.main([sub, "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, message", [
        ({"lam": -1.0}, "lam must be a finite number > 0"),
        ({"lam": 0.0}, "lam must be a finite number > 0"),
        ({"lam": float("inf")}, "lam must be a finite number > 0"),
        ({"h_list": [0.125]}, "h_list needs at least two spacings"),
        ({"h_list": ["a", "b"]}, "h_list must be a finite number > 0"),
        ({"h_list": [0.1, 0]}, "h_list must be a finite number > 0"),
        # decreasing, so the rule that grid_pde checks is the one it breaks
        ({"h_list": [0.3, 0.125]}, "h must divide the rectangle extents"),
        ({"h_list": [0.25, 0.125]}, "5 nodes per axis, the checks need "
                                    "at least 7"),
        # each refinement factor divides a residual by the next finer one,
        # so a sweep that coarsens or repeats a spacing has none to check
        ({"h_list": [1 / 64, 1 / 32, 1 / 16]},
         "h_list must be strictly decreasing"),
        ({"h_list": [1 / 16, 1 / 16]}, "h_list must be strictly decreasing"),
        # a grid too large for memory is a usage error, not a failed check
        ({"h_list": [1 / 16, 2 ** -20]},
         "grid of nx=1048577 by ny=1048577 nodes exceeds the cap of "
         "4194304 nodes"),
    ])
    def test_bochner_config_errors_exit_2(self, tmp_path, capsys, cfg,
                                          message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = cli.main(["bochner", "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", sorted(FORMER_ALL_DEFAULTS))
    def test_all_former_key_exit_2(self, tmp_path, capsys, key):
        # the campaign's settings are pinned in source, so a key is unknown
        # even at the value the campaign runs with
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: FORMER_ALL_DEFAULTS[key]}))
        code = cli.main(["all", "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
        assert code == 2
        assert (f"unknown key(s) ['{key}'] in all config"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cfg, message", [
        ({"h": 0.3}, "h must divide the rectangle extents"),
        ({"h": "abc"}, "h must be a finite number > 0"),
        ({"xi": [0, 0]}, "direction must be a unit vector"),
        ({"xi": [1.0]}, "xi must be a list of 2 finite numbers"),
        ({"tol": -1}, "tol must be a finite number > 0"),
        ({"rect": [0, 0, -1, 1]}, "rectangle must have positive extent"),
        ({"rect": [0, 0, 1]}, "rect must be a list of 4 finite numbers"),
        # np.arange over 2^20 + 1 nodes per axis once failed as the check
        # "Unable to allocate 8.00 TiB" (exit 1)
        ({"h": 2 ** -20}, "grid of nx=1048577 by ny=1048577 nodes exceeds "
                          "the cap of 4194304 nodes"),
        ({"h": 1.0}, "grid needs at least one interior node per axis"),
        # a node count beyond the doubles once failed as the check "cannot
        # convert float infinity to integer" (exit 1)
        ({"rect": [0, 0, 1e300, 1], "h": 1e-10},
         "grid of nx=inf by ny=1e+10 nodes exceeds the cap"),
    ])
    def test_grid_config_errors_exit_2(self, tmp_path, capsys, cfg, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"params": {"n": 3, "p": 2.0, "lam": 1.0}, **cfg}))
        code = cli.main(["grid", "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, message", [
        ({"window": -1}, "window must be a finite number > 0"),
        ({"window": 0}, "window must be a finite number > 0"),
        ({"shifts": []}, "shifts needs at least two"),
        ({"shifts": [10.0, -20.0]}, "shifts must be a finite number > 0"),
        ({"scales": []}, "scales needs at least one dilation scale"),
        ({"scales": [0.1, "x"]}, "scales must be a finite number > 0"),
        ({"scales": [1e-6]}, "radius 1e-07 outside sampled span"),
        ({"gamma": "x"}, "gamma must be a finite number"),
        ({"shifts": [10.0, 10 ** 400]}, "shifts must be a finite number > 0"),
        # n = 1e5 puts the far-field series' reach at 2.6e5, so the shot's
        # ln u quadrature runs past p*alpha*r = 2e5
        ({"params": {"n": 100000, "p": 2.0, "lam": 1.0},
          "shifts": [10.0, 1e6]},
         '"shifts": [10.0, 1000000.0]}: p*alpha*r must be at most 200000 '
         "over the inward pass"),
    ])
    def test_blowup_config_errors_exit_2(self, tmp_path, capsys, cfg,
                                         message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"params": {"n": 3, "p": 2.0, "lam": 1.0}, **cfg}))
        code = cli.main(["blowup", "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("sub, cfg, message", [
        ("shoot", {"lam": 0}, "params.lam must be a finite number > 0"),
        ("martin", {"lam": 0}, "params.lam must be a finite number > 0"),
        ("blowup", {"lam": 0}, "params.lam must be a finite number > 0"),
        ("grid", {"lam": 0}, "params.lam must be a finite number > 0"),
        ("shoot", {"r_max": -5}, "r_max must be a finite number > 0"),
        ("shoot", {"r_max": 5}, "r_max must be at least 10*r0"),
        ("shoot", {"r0": 0}, "r0 must be a finite number > 0"),
        ("shoot", {"grid_points": 1}, "grid_points must be an integer >= 10"),
        ("martin", {"t": -5}, "t must be a finite number > 0"),
        ("martin", {"t": 1.5}, "t must be >= 2"),
        ("shoot", {"lam": "x"}, "invalid params: lam must be a real number, "
                                "got 'x'"),
        ("grid", {"lam": [1.0]}, "invalid params: lam must be a real number, "
                                 "got [1.0]"),
        ("blowup", {"lam": None}, "invalid params: lam must be a real "
                                  "number, got None"),
        ("shoot", {"r0": 10 ** 400}, "r0 must be a finite number > 0"),
        # range errors of the solvers, raised before any file is written
        ("roots", {"n": 4, "mu": 5.0}, '"mu": 5.0}}: mu=5.0 exceeds the '
                                       "admissible maximum mu_bar=1.0"),
        ("shoot", {"grid_points": 30}, '"grid_points": 30}: only 6 samples '
                                       "in window"),
        ("martin", {"t": 5, "r0": 2}, '"t": 5, "r0": 2}: r_max must be at '
                                      "least 10*r0"),
        # xi past the pole: both radii lie on the shot, so only cli's own
        # t >= r0 + 1 rejects it
        ("martin", {"t": 0.5, "r0": 0.1}, "t must be >= 1.1 (r0 + 1), "
                                          "got 0.5"),
        # past the span on which the shot's ln u quadrature is accurate:
        # n = 1e5 puts the far-field series' reach, where that quadrature
        # ends, at 2.6e5
        ("shoot", {"n": 100000, "r_max": 1e12},
         '"r_max": 1000000000000.0}: p*alpha*r must be at most 200000 over '
         "the inward pass, got 528211 at its outer profile radius 264105"),
        ("martin", {"n": 100000, "t": 1e6}, '"t": 1000000.0}: p*alpha*r must '
                                            "be at most 200000"),
    ])
    def test_rate_campaign_config_errors_exit_2(self, tmp_path, capsys, sub,
                                                cfg, message):
        # n, mu and lam are params keys; every other key sits at the top
        # level
        params = {"n": 3, "p": 2.0, "lam": 1.0}
        params.update((k, v) for k, v in cfg.items() if k in ("n", "mu", "lam"))
        top = {k: v for k, v in cfg.items() if k not in params}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"params": params, **top}))
        code = cli.main([sub, "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("params, message", [
        ({"n": 3, "p": 2.0, "mu": "x"},
         "invalid params: mu must be a real number, got 'x'"),
        ({"n": True, "p": 2.0}, "invalid params: n must be a real number, "
                                "got True"),
        ([3, 2.0], "params must be a JSON object"),
        ({"n": 3, "p": 2.0, "q": 4.0}, "unknown key(s) ['q'] in params block"),
        # a bool is not a number, though it is an int, and True would
        # otherwise pass as 1
        ({"n": 3, "p": 2.0, "a": True}, "invalid params: a must be a real "
                                        "number, got True"),
        ({"n": 3, "p": 2.0, "lam": False}, "invalid params: lam must be a "
                                           "real number, got False"),
    ])
    def test_ill_typed_params_exit_2(self, tmp_path, capsys, params, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"params": params}))
        code = cli.main(["roots", "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("config, message", [
        (None, "missing key(s) ['params'] in roots config"),
        ("[1, 2]", "config must be a JSON object"),
    ])
    def test_roots_config_file_errors_exit_2(self, tmp_path, capsys, config,
                                             message):
        # no --config reads as {}, which lacks the required params
        args = ["roots", "--out", str(tmp_path / "out")]
        if config is not None:
            (tmp_path / "cfg.json").write_text(config)
            args += ["--config", str(tmp_path / "cfg.json")]
        assert cli.main(args) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sub", ["shoot", "martin"])
    def test_grid_points_above_cap_exit_2(self, tmp_path, capsys,
                                          monkeypatch, sub):
        # the shot refuses the size before it allocates its grid
        def no_grid(*args, **kwargs):
            raise AssertionError("the profile grid was allocated")

        monkeypatch.setattr(radial_ode.np, "geomspace", no_grid)
        points = radial_ode.MAX_PROFILE_POINTS + 1
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"params": {"n": 3, "p": 2.0,
                                                   "lam": 1.0},
                                        "grid_points": points}))
        code = cli.main([sub, "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert (f"grid_points {points} exceeds the cap of "
                f"{radial_ode.MAX_PROFILE_POINTS} profile points"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("sub, cfg", [
        ("roots", {"params": {"n": 3, "p": 5.0}}),
        ("shoot", {"params": {"n": 3, "p": 2.0, "lam": -1}}),
        ("martin", {"params": {"n": 3, "p": 2.0, "lam": 1.0}, "t": 1.5}),
        ("blowup", {"params": {"n": 3, "p": 2.0, "lam": 1.0},
                    "scales": [1e-6]}),
        ("grid", {"params": {"n": 3, "p": 2.0, "lam": 1.0}, "h": 0.3}),
        ("bochner", {"lam": -1}),
        ("all", {"martin_t": 1.5}),
    ])
    def test_config_error_creates_no_out_dir(self, tmp_path, sub, cfg):
        # every check runs before the first file, which creates --out
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = cli.main([sub, "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
        assert code == 2
        assert not (tmp_path / "out").exists()

    def test_grid_overflowing_data_exit_1(self, tmp_path, capsys):
        # alpha = 678.6 at p = 1.2, lam = 500: the boundary data overflow,
        # and the campaign names that rather than reporting a NaN residual
        # next to passing bounds
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"params": {"n": 3, "p": 1.2, "lam": 500}, "h": 0.125}))
        code = cli.main(["grid", "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 1
        assert "boundary data exp(678.604 <x, xi>) overflows" in captured.err
        assert "PASS" not in captured.out
        assert not (tmp_path / "out").exists()

    def test_grid_overflowing_stencil_exit_1(self, tmp_path, capsys):
        # the data (up to 1.49e122) and the initial residual are finite,
        # but the Newton stencil's c2 = k (p-2) bn bt / s2 overflows in its
        # product; the float64 LU once failed on it as "Factor is exactly
        # singular" after numpy's warnings, which the suite turns to errors
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"params": {"n": 4, "p": 3.0, "lam": 2.0},
             "rect": [200, 200, 201, 201], "h": 0.0625, "tol": 1e-9}))
        code = cli.main(["grid", "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            "plap: campaign 'grid' failed: Newton stencil is not finite: its "
            "face coefficients leave the double range\n")
        assert not (tmp_path / "out").exists()

    def test_martin_overflowing_kernel_exit_1(self, tmp_path, capsys):
        # alpha = 1000 at p = 2, lam = 1e6: e^alpha is beyond the largest
        # double, and the campaign names that before the shot
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"params": {"n": 3, "p": 2.0, "lam": 1e6}}))
        code = cli.main(["martin", "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
        assert code == 1
        assert ("kernel limit exp(1000) and its tolerance overflow float64"
                in capsys.readouterr().err)

    def test_shoot_leaving_double_range_exit_1(self, tmp_path, capsys):
        # at (4, 2.5, 1) the series' reach lies inside the profile, so the
        # inward pass runs; at (3, 2, 1) the exact series leaves none
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"params": {"n": 4, "p": 2.5, "lam": 1.0}, "r0": 1e-300}))
        code = cli.main(["shoot", "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
        assert code == 1
        assert ("inward pass left the double range at r = 1.33656e-154"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sub", ["shoot", "blowup", "martin", "grid"])
    def test_overflowing_rate_exit_1(self, tmp_path, capsys, sub):
        # params that pass every config rule but whose rate lam/(p-1) =
        # 1e311 is beyond the largest double: a number leaving the double
        # range, exit 1 in each campaign that takes the rate
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"params": {"n": 3, "p": 1.001, "lam": 1e308}}))
        code = cli.main([sub, "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
        assert code == 1
        assert ("lam/(p-1) = 1e+308/0.001 overflows"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_roots_near_one_p_exit_0(self, tmp_path):
        # gamma1 lies far below the smallest double, so the root solve
        # evaluates the index function at subnormal gamma
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"params": {"n": 3, "p": 1.04, "mu": 1e-30}}))
        code = cli.main(["roots", "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
        assert code == 0

    def test_roots_below_smallest_double_exit_0(self, tmp_path):
        # gamma1 lies below 5e-324 and f - mu jumps by 1e-9 across the one
        # step from -0.0 to -5e-324, wider than the residual bound
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"params": {"n": 2, "p": 1.026975, "a": 0.429235,
                        "mu": -7.99e-10}}))
        code = cli.main(["roots", "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
        assert code == 0

    # at lam = 1e6 the oracle field overflows, without a numpy warning, and
    # every residual is NaN, which must fail the refinement row rather than
    # pass
    def test_bochner_nan_residuals_exit_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"lam": 1e6}))
        out = tmp_path / "out"
        code = cli.main(["bochner", "--config", str(cfg_path), "--out", str(out)])
        assert code == 1
        trend = (out / "bochner_trend.csv").read_text().splitlines()
        assert [line.split(",")[1] for line in trend[1:]] == ["nan"] * 3
        assert "refinement_factor,0,nan,0,0" in (
            out / "bochner_report.csv").read_text()
        printed = capsys.readouterr().out
        assert "measured=nan" in printed and "CHECK FAILURE" in printed

    def test_bochner_zero_residual_exit_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"lam": 1e-300}))
        code = cli.main(["bochner", "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
        assert code == 1
        assert ("no refinement factor: the bochner residual is 0 at "
                "h=0.0625, lam=1e-300") in capsys.readouterr().err

    @pytest.mark.parametrize("sub, cfg, key", [
        ("roots", {"params": {"n": 4, "p": 2.0, "mu": 5.0}}, "mu"),
        ("shoot", {"params": {"n": 3, "p": 2.0, "lam": 1.0}, "r_max": 5},
         "r_max"),
        ("martin", {"params": {"n": 3, "p": 2.0, "lam": 1.0}, "t": 5,
                    "r0": 2}, "r0"),
        ("blowup", {"params": {"n": 3, "p": 2.0, "lam": 1.0},
                    "scales": [1e-6]}, "scales"),
        ("grid", {"params": {"n": 3, "p": 2.0, "lam": 1.0}, "xi": [0, 0]},
         "xi"),
        ("bochner", {"h_list": [0.25, 0.125]}, "h_list"),
    ])
    def test_solver_domain_error_names_config(self, tmp_path, capsys, sub,
                                              cfg, key):
        # main turns a targeted campaign's DomainError into a config error
        # that quotes the config, so the key the user set is in the message
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = cli.main([sub, "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"plap: config error: {sub} config {{")
        assert f'"{key}": ' in err
        assert not (tmp_path / "out").exists()

    def test_all_domain_error_exit_1(self, tmp_path, capsys, monkeypatch):
        # the inputs of `all` are pinned in source, so a DomainError there
        # is a failure of the campaign, not of the config
        def pinned_input_rejected(values):
            raise DomainError("pinned input rejected")

        monkeypatch.setattr(cli, "_dirichlet_cache", pinned_input_rejected)
        code = cli.main(["all", "--out", str(tmp_path / "out")])
        assert code == 1
        assert ("campaign 'all' failed: pinned input rejected"
                in capsys.readouterr().err)

    def test_unknown_subcommand_exit_2(self, tmp_path):
        code = cli.main(["frobnicate", "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("sub", sorted(cli.CAMPAIGNS) + ["all"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, sub):
        code = cli.main([sub, "--seed", "-1", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", sorted(cli.CAMPAIGNS) + ["all"])
    def test_seed_config_key_exit_2(self, tmp_path, capsys, sub):
        # the seed is set by --seed alone
        cfg = {"seed": 5}
        if sub not in ("all", "bochner"):
            cfg["params"] = {"n": 3, "p": 2.0, "lam": 1.0}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = cli.main([sub, "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
        assert code == 2
        assert "unknown key(s) ['seed']" in capsys.readouterr().err

    @pytest.mark.parametrize("sub, cfg, message", [
        ("blowup", {"window": 20}, '"window": 20}: '),
        ("blowup", {"shifts": [1, 2]}, '"shifts": [1, 2]}: '),
    ])
    def test_translation_outside_profile_exit_2(self, tmp_path, capsys, sub,
                                                cfg, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"params": {"n": 3, "p": 2.0, "lam": 1.0}, **cfg}))
        code = cli.main([sub, "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and "outside sampled span" in err
        assert not (tmp_path / "out").exists()

    def test_passing_campaign_exit_0(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"params": {"n": 4, "p": 2.0, "a": 0.0, "mu": 0.75}}))
        code = cli.main(["roots", "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "all checks passed" in out

    def test_bad_log_level_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PLAP_LOG", "chatty")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"params": {"n": 4, "p": 2.0}}))
        code = cli.main(["roots", "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
        assert code == 2

    def test_log_level_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PLAP_LOG", "debug")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"params": {"n": 4, "p": 2.0}}))
        code = cli.main(["roots", "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
        assert code == 0


# A params block that every campaign taking one accepts.
VALID_PARAMS = {"n": 3, "p": 2.0, "lam": 1.0}
BAD_SCALARS = ["x", None, [1.0], True, math.nan, math.inf, -math.inf]


def default_config(sub):
    return {key: copy.deepcopy(VALID_PARAMS if spec[0] is cli.REQUIRED
                               else spec[0])
            for key, spec in cli.CONFIGS[sub].items()}


@st.composite
def mutated_config(draw, sub):
    """The default config of `sub` with one value ill-typed or non-finite: a
    scalar, one entry of params, or a list or one of its entries."""
    cfg = default_config(sub)
    key = draw(st.sampled_from(sorted(cfg)))
    value = cfg[key]
    if isinstance(value, dict):
        value[draw(st.sampled_from(sorted(value)))] = draw(
            st.sampled_from(BAD_SCALARS))
    elif isinstance(value, list) and draw(st.booleans()):
        value[draw(st.integers(0, len(value) - 1))] = draw(
            st.sampled_from(BAD_SCALARS))
    elif isinstance(value, list):
        cfg[key] = draw(st.sampled_from(["x", None, True, 1.0, math.nan]))
    else:
        cfg[key] = draw(st.sampled_from(BAD_SCALARS))
    return cfg


@pytest.mark.parametrize("sub", sorted(cli.CONFIGS))
def test_config_defaults_accepted(sub):
    cli._read_config(default_config(sub), sub)


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("configs")


# `all` takes no keys, so there is no value of it to mutate
@pytest.mark.parametrize("sub", sorted(sub for sub, table in cli.CONFIGS.items()
                                       if table))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ill_typed_config_value_exit_2(config_dir, sub, data):
    cfg = data.draw(mutated_config(sub))
    # the read rejects the draw, so main below exits before any campaign work
    with pytest.raises(ConfigError):
        cli._read_config(cfg, sub)
    cfg_path = config_dir / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([sub, "--config", str(cfg_path),
                         "--out", str(config_dir / "out")])
    assert code == 2
    assert err.getvalue().startswith("plap: config error")
    assert "Traceback" not in err.getvalue()


def test_readme_tables_name_every_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Config keys")[1].split("\n## ")[0]
    tables = {}
    for part in section.split("\n#### ")[1:]:
        title, body = part.split("\n", 1)
        tables[title] = re.findall(r"^\| `(\w+)` \|", body, re.MULTILINE)
    assert tables.pop("params") == list(cli.PARAMS_KEYS)
    assert tables == {sub: list(table) for sub, table in cli.CONFIGS.items()}


def test_readme_library_example(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Library example\n")[1]
    code = section.split("```python\n")[1].split("```")[0]
    exec(compile(code, "README.md", "exec"), {})
    roots, fit, kernel = capsys.readouterr().out.splitlines()
    gamma1, gamma2 = map(float, roots.split())
    assert abs(gamma1 - 0.5) <= 1e-12 and abs(gamma2 - 1.5) <= 1e-12
    fields = dict(re.findall(r"(\w+)=([^,)]+)", fit))
    assert abs(float(fields["rate"]) - 1.0) <= 1e-6
    assert abs(float(fields["power"]) - 1.0) <= 1e-6
    assert abs(float(kernel) - math.e) <= 5e-3 * math.e


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("all_first")
    report = cli.run_all({}, out, seed=7)
    return out, report


class TestAllCampaign:

    def test_row_semantics(self, first_run):
        # a second seed of the campaign passes too (acceptance runs seed 0)
        _, report = first_run
        for row in report.rows:
            assert row.passed == (abs(row.measured - row.target) <= row.tolerance)
        assert report.all_passed

    def test_config_echo(self, first_run):
        # report.csv records the settings the campaign ran with
        out, _ = first_run
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[1] == "# config: " + json.dumps(FORMER_ALL_DEFAULTS,
                                                     sort_keys=True)

    def test_byte_determinism(self, tmp_path):
        # the campaign's own determinism is acceptance criterion 11
        roots_cfg = {"params": {"n": 4, "p": 2.0, "a": 0.0, "mu": 0.0}}
        for run in ("roots1", "roots2"):
            (tmp_path / run).mkdir()
            cli.run_roots(roots_cfg, tmp_path / run)
        assert_same_tree(tmp_path / "roots1", tmp_path / "roots2")
        assert (tmp_path / "roots1" / "roots_report.csv").exists()

    def test_seed_changes_report(self, first_run, tmp_path):
        out1, _ = first_run
        cli.run_all({}, tmp_path, seed=8)
        rep1 = (out1 / "report.csv").read_text()
        rep2 = (tmp_path / "report.csv").read_text()
        assert rep1 != rep2  # randomized sweeps see the seed

    def test_rejects_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.run_all({"typo_key": 1}, tmp_path, seed=0)


class TestErrorClasses:
    """A DomainError is an input outside what an operation admits; valid
    input whose numbers leave the double range raises an ArithmeticError."""

    def test_range_errors_are_domain_errors(self):
        assert issubclass(OutOfRange, DomainError)
        assert issubclass(IllConditioned, DomainError)
        assert issubclass(NoRealRoot, DomainError)

    def test_zero_bochner_residual_divides_by_zero(self):
        with pytest.raises(ZeroDivisionError, match="no refinement factor"):
            cli._bochner_trend([1 / 16, 1 / 32], 1e-300)

    def test_martin_kernel_overflow(self, tmp_path):
        with pytest.raises(OverflowError, match=re.escape(
                "kernel limit exp(1000) and its tolerance overflow float64")):
            cli.run_martin({"params": {"n": 3, "p": 2.0, "lam": 1e6}},
                           tmp_path)

    @pytest.mark.parametrize("gamma", [80.0, -200.0])
    def test_power_profile_overflow(self, gamma):
        # r^-gamma overflows (or underflows to 0) on [1e-4, 1e2], where
        # numpy once warned and RadialProfile refused ln u = +-inf
        with pytest.raises(OverflowError, match=re.escape(
                f"r^{-gamma:g} leaves the double range")):
            cli._power_fixed_point(gamma, [1e-1])


class TestCheckRow:
    def test_margin_two_sided(self):
        row = cli.CheckRow("x", 1.0, 1.5, 1.0)
        assert row.passed and row.margin == 0.5

    def test_margin_exact(self):
        row = cli.CheckRow("x", 0.0, 0.0, 0.0)
        assert row.passed and row.margin == 0.0

    def test_margin_nan_fails(self):
        row = cli.CheckRow("x", 0.0, float("nan"), 1.0)
        assert not row.passed


class TestOneSidedChecks:
    def test_finite_gaps_are_exact(self):
        assert cli._excess(3.5, 1.25) == 2.25
        assert cli._excess(1.25, 3.5) == 0.0
        assert cli._excess(2.0, 2.0) == 0.0
        assert cli._excess(math.inf, 0.0) == math.inf

    @pytest.mark.parametrize("value, bound", [
        (math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)])
    def test_nan_passes_through(self, value, bound):
        assert math.isnan(cli._excess(value, bound))
        assert math.isnan(cli._excess(bound, value))
        row = cli.CheckRow("x", 0.0, cli._excess(value, bound), 0.0)
        assert not row.passed and row.margin == math.inf

    def test_nan_order_fails(self):
        # the builtin min would drop the NaN order and report no shortfall
        assert cli._order_shortfall([1.0, 0.25, 0.0625]) == 0.0
        assert math.isnan(cli._order_shortfall([1.0, 0.25, math.nan]))


class TestRowBounds:
    """The bounds that sit inside a row's measured value (target 0, tol 0),
    so that the acceptance table does not see them, each met just inside and
    missed just outside."""

    @pytest.mark.parametrize("order, shortfall", [
        (1.8 + 1e-6, 0.0), (1.8 - 1e-6, 1e-6)])
    def test_order_floor(self, order, shortfall):
        errs = [1.0, 2.0 ** -2.5, 2.0 ** -(2.5 + order)]
        assert cli._order_shortfall(errs) == pytest.approx(shortfall, abs=1e-12)

    @pytest.mark.parametrize("ratio, shortfall", [
        (1.5 + 1e-6, 0.0), (1.5 - 1e-6, 1e-6)])
    def test_bochner_refinement_floor(self, monkeypatch, ratio, shortfall):
        resid = {1 / 16: 1.0, 1 / 32: 1 / ratio}
        monkeypatch.setattr(cli, "_oracle_residual", lambda h, lam: resid[h])
        rows = {r.name: r for r in cli.step_bochner({"bochner_h": list(resid)})}
        assert rows["refinement_factor_shortfall"].measured == pytest.approx(
            shortfall, abs=1e-12)
        assert rows["monotone_decrease"].measured == 0.0

    @pytest.mark.parametrize("rise, excess", [(0.0, 0.0), (1e-6, 1e-6)])
    def test_monotone_ceilings(self, monkeypatch, tmp_path, rise, excess):
        resid = {1 / 16: 1.0, 1 / 32: 1.0 + rise}
        monkeypatch.setattr(cli, "_oracle_residual", lambda h, lam: resid[h])
        rows = {r.name: r for r in cli.step_bochner({"bochner_h": list(resid)})}
        assert rows["monotone_decrease"].measured == pytest.approx(excess,
                                                                   abs=1e-12)
        rep = SimpleNamespace(scales=[1.0, 2.0], sup_distance=[0.5, 0.5 + rise],
                              grad_distance=[0.0, 0.0])
        rows = {r.name: r for r in cli._translate_rows(rep, rep, tmp_path)}
        assert rows["translate_monotone"].measured == pytest.approx(excess,
                                                                    abs=1e-12)

    @pytest.mark.parametrize("gap, excess", [(-1e-6, 0.0), (1e-6, 1e-6)])
    def test_gradient_log_ceiling(self, monkeypatch, gap, excess):
        # alpha + 5 rel_err / h = 1 + 5 * 2^-7 / 2^-3 = 1.3125, exactly
        monkeypatch.setattr(cli.grid_pde, "gradient_log_sup",
                            lambda fld: 1.3125 + gap)
        got = cli._gradient_log_excess(None, 1.0, 2.0 ** -7, 2.0 ** -3)
        assert got == pytest.approx(excess, abs=1e-12)

    @staticmethod
    def relative_error(fld, exact):
        return float(np.max(np.abs(fld.values - exact.values) / exact.values))

    def spy_gradient_allowance(self, monkeypatch):
        """The (field, alpha, error, h) of each _gradient_log_excess call."""
        calls = []
        excess = cli._gradient_log_excess

        def spy(fld, alpha, err, h):
            calls.append((fld, alpha, err, h))
            return excess(fld, alpha, err, h)

        monkeypatch.setattr(cli, "_gradient_log_excess", spy)
        return calls

    def test_grid_gradient_allowance_is_relative(self, monkeypatch, tmp_path):
        # the error in alpha + 5 err / h is relative to the exact field at
        # each node, as sup_error_bound's: at p = 1.1, lam = 1 the field
        # reaches 8.5e4 and sup |grad log v| = 8.12 sits under 8.62, where
        # the absolute sup error 6.8 would allow 1103
        calls = self.spy_gradient_allowance(monkeypatch)
        cfg = {"params": {"n": 4, "p": 1.1, "lam": 1.0}, "h": 1 / 32,
               "tol": 1e-9}
        cli.run_grid(cfg, tmp_path)
        [(fld, alpha, err, h)] = calls
        exact = grid_pde.exponential_field(alpha, (0.6, 0.8), cli.UNIT_SQUARE,
                                           h)
        assert err == self.relative_error(fld, exact)
        glog = grid_pde.gradient_log_sup(fld)
        assert glog <= alpha + 5.0 * err / h < glog + 1.0

    def test_gradient_bound_step_allowance_is_relative(self, monkeypatch):
        # criterion 03 takes the same relative error of each solve
        calls = self.spy_gradient_allowance(monkeypatch)
        solves = cli._dirichlet_cache({"grid_h": [1 / 16, 1 / 32]})
        cli.step_gradient_bound(solves)
        assert [err for _, _, err, _ in calls] == [
            self.relative_error(c["field"], c["exact"]) for c in solves]

    @pytest.mark.parametrize("max_f, excess", [
        (101.0 - 1e-6, 0.0), (101.0 + 1e-6, 1e-6)])
    def test_kappa_allowance(self, monkeypatch, max_f, excess):
        # kappa 100 with a 1% allowance
        monkeypatch.setattr(cli.grid_pde, "kappa_bound_check",
                            lambda fld, p, lam: (max_f, 100.0))
        got = cli._kappa_excess(None, 3.0, 2.0)
        assert got == pytest.approx(excess, abs=1e-10)

    @pytest.mark.parametrize("floor_gap, shortfall", [(1e-9, 0.0),
                                                      (-1e-9, 1e-9)])
    def test_perturbed_residual_floor(self, monkeypatch, floor_gap, shortfall):
        calls = iter([0.0, 1e-3 + floor_gap])
        monkeypatch.setattr(
            cli.radial_ode, "hardy_power_residual",
            lambda n, p, a, mu, gamma, r: np.full(np.shape(gamma), next(calls)))
        rows = {r.name: r for r in cli.step_power_residual(
            {"hardy_trials": 2}, np.random.default_rng(0))}
        assert rows["min_perturbed_shortfall"].measured == pytest.approx(
            shortfall, abs=1e-15)


def _uniform_sample_root_instance(rng):
    """_sample_root_instance as written with Generator.uniform."""
    for _ in range(64):
        n = int(rng.integers(2, 7))
        p = float(rng.uniform(1.2, min(n - 0.1, 3.0)))
        crit = (n - p) / p
        off = float(rng.uniform(0.05, 1.5)) * (1 if rng.random() < 0.5 else -1)
        a = crit + off
        mu_bar = hardy_best_constant(n, p, a)
        mu = float(rng.uniform(-5.0, 0.9 * mu_bar))
        data = cli.indicial_roots(cli.ProblemParams(n=n, p=p, a=a, mu=mu))
        pert = min(abs(auxiliary_f(data.gamma1 + 0.1, n, p, a) - mu),
                   abs(auxiliary_f(data.gamma2 + 0.1, n, p, a) - mu))
        if pert >= 2e-3:
            return n, p, a, mu, data
    raise RuntimeError("root-instance sampler failed to find a margin")


class TestSamplerStreams:
    """Step 09's sampler draws each uniform from rng.random(); the draws and
    the stream must be those of Generator.uniform (50 seeds x 400 draws
    here; numpy's uniform is low + (high - low) * next_double)."""

    def test_root_instance_stream(self, monkeypatch):
        # the roots only decide the rare redraws, so cheap stand-ins for the
        # solver and its parameter record keep the draws fast
        monkeypatch.setattr(cli, "ProblemParams", SimpleNamespace)
        monkeypatch.setattr(cli, "indicial_roots", lambda params: SimpleNamespace(
            gamma1=-0.125 * params.mu, gamma2=0.5))
        for seed in range(50):
            new, old = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(400):
                assert (cli._sample_root_instance(new)
                        == _uniform_sample_root_instance(old))
            assert new.random() == old.random()


def test_root_instance_sampler_gives_up(monkeypatch):
    # with no perturbed gap above 2e-3 (here NaN, which fails it too) the
    # sampler stops after its 64 redraws
    monkeypatch.setattr(cli, "auxiliary_f", lambda gamma, n, p, a: math.nan)
    with pytest.raises(RuntimeError, match="root-instance sampler failed"):
        cli._sample_root_instance(np.random.default_rng(0))


class TestAdmissibleSampler:
    """The law of step 01's draws, on 10 000 of them."""

    TRIALS = 10_000

    @pytest.fixture(scope="class")
    def draws(self):
        return cli._sample_admissible(np.random.default_rng(2026), self.TRIALS)

    def test_ranges(self, draws):
        n, p, a, mu = draws
        assert set(n.tolist()) == set(range(2, 9))
        assert np.all((1.0 < p) & (p < n) & (p >= 1.05))
        general = p != 2.0
        assert np.all(p[general] <= np.minimum(n[general] - 0.05, 4.0))
        # below mu_bar within the tolerance of indicial_roots' NoRealRoot
        for n_k, p_k, a_k, mu_k in zip(*(x.tolist() for x in draws)):
            mu_bar = hardy_best_constant(n_k, p_k, a_k)
            assert mu_k <= mu_bar + RESIDUAL_RTOL * max(1.0, mu_bar)

    def test_every_fifth_draw_at_p2(self, draws):
        n, p, _, _ = draws
        assert np.all(p[::5] == 2.0) and np.all(n[::5] >= 3)
        # a general p lands on 2 with probability 0
        assert np.count_nonzero(p == 2.0) == self.TRIALS // 5

    def test_case_shares(self, draws):
        n, p, a, mu = draws
        critical = a == (n - p) / p
        double = ~critical & (mu == hardy_best_constant(n, p, a))
        # binomial(10 000, 0.1) has sd 30 and binomial(1000, 0.1) about 9.5:
        # these bounds sit 5 sd out
        assert abs(np.count_nonzero(critical) - 1000) <= 150
        assert abs(np.count_nonzero(double) - 1000) <= 150
        assert np.all(mu[critical] <= 0.0)
        assert abs(np.count_nonzero(mu[critical] == 0.0) - 100) <= 50

    def test_all_placements_occur(self, draws):
        seen = {cli.indicial_roots(cli.ProblemParams(*draw)).placement
                for draw in zip(*(x.tolist() for x in draws))}
        assert seen == set(RootPlacement)

    def test_seed_repeats(self, draws):
        again = cli._sample_admissible(np.random.default_rng(2026), self.TRIALS)
        for old, new in zip(draws, again):
            assert np.array_equal(old, new)


class TestIndicialStep:
    def test_one_root_solve_per_trial(self, monkeypatch):
        # bench/run.py's traced self-check counts the indicial_roots calls
        # made from step_indicial
        calls = []
        solve = cli.indicial_roots

        def counting(params):
            calls.append(params)
            return solve(params)

        monkeypatch.setattr(cli, "indicial_roots", counting)
        rows = cli.step_indicial({"indicial_trials": 500},
                                 np.random.default_rng(7))
        assert len(calls) == 500
        assert all(row.passed for row in rows)

    def test_draws_are_plain_ints_and_floats(self, monkeypatch):
        # ProblemParams skips the type tests and conversion for plain ints
        # and floats; steps 01 and 09 must not hand it numpy scalars, which
        # take them
        kinds = set()
        build = cli.ProblemParams

        def record(*args, **kwargs):
            kinds.add(tuple(map(type, (*args, *kwargs.values()))))
            return build(*args, **kwargs)

        monkeypatch.setattr(cli, "ProblemParams", record)
        cli.step_indicial({"indicial_trials": 500}, np.random.default_rng(7))
        cli.step_power_residual({"hardy_trials": 50}, np.random.default_rng(7))
        assert kinds == {(int, float, float, float)}

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_rows_match_per_draw_loop(self, seed):
        trials = 2000
        draws = cli._sample_admissible(np.random.default_rng([seed, 0]), trials)
        worst, gap, failures = 0.0, 0.0, 0
        for n, p, a, mu in zip(*(x.tolist() for x in draws)):
            data = cli.indicial_roots(cli.ProblemParams(n, p, a, mu))
            roots = (data.gamma1, data.gamma2)
            for g in roots:
                worst = max(worst, abs(auxiliary_f(g, n, p, a) - mu)
                            / max(1.0, abs(mu)))
            failures += not cli.placement_satisfied(data, n, p, a)
            if p == 2.0 and not data.double_root:
                for g, q in zip(roots, cli._p2_roots(n, a, mu)):
                    gap = max(gap, abs(g - q) / max(1.0, abs(q)))
        rows = {row.name: row.measured for row in cli.step_indicial(
            {"indicial_trials": trials}, np.random.default_rng([seed, 0]))}
        assert rows["placement_failures"] == failures
        # the array power may differ from libm's pow by one ulp, which
        # moves a relative residual by at most 2 eps (derived in CHANGES.md)
        eps = np.finfo(float).eps
        assert abs(rows["max_relative_residual"] - worst) <= 4 * eps
        # the closed form takes the same correctly rounded operations on
        # the same doubles
        assert rows["p2_oracle_gap"] == gap


class TestPowerResidualStep:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_rows_match_per_call_loop(self, seed):
        trials = 300
        rng = np.random.default_rng([seed, 8])
        r_samples = np.geomspace(1e-2, 1e2, 9)
        worst_root, worst_pert = 0.0, math.inf
        for _ in range(trials):
            n, p, a, mu, data = _uniform_sample_root_instance(rng)
            for g in (data.gamma1, data.gamma2):
                worst_root = max(worst_root, radial_ode.hardy_power_residual(
                    n, p, a, mu, g, r_samples))
                worst_pert = min(worst_pert, radial_ode.hardy_power_residual(
                    n, p, a, mu, g + 0.1, r_samples))
        rows = cli.step_power_residual({"hardy_trials": trials},
                                       np.random.default_rng([seed, 8]))
        assert [(r.name, r.measured) for r in rows] == [
            ("max_root_residual", worst_root),
            ("min_perturbed_shortfall", max(0.0, 1e-3 - worst_pert))]


class TestSameOutputs:
    """tools/same_outputs.py counts the numbers on report.csv's comments."""

    @pytest.fixture
    def same_outputs(self, monkeypatch):
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parent.parent / "tools"))
        return importlib.import_module("same_outputs")

    @staticmethod
    def report(measured):
        return ("# plap report: all\n"
                "# seed: 0\n"
                "# 01_indicial_roots/max_relative_residual: target=0 "
                f"measured={measured:.17g} tol=9.9999999999999998e-13 pass=1\n"
                "name,target,measured,tolerance,pass\n"
                "01_indicial_roots,0,0.014210854715202004,1,1\n").encode()

    def test_detail_line_gap_in_ulps(self, same_outputs):
        x = 1.4210854715202004e-14
        old, new = self.report(x), self.report(np.nextafter(x, 1.0))
        assert old != new
        # numbers: the seed, four on the detail line and four in the row
        assert same_outputs.number_gaps("report.csv", old, new) == (1, 9, 1)

    def test_text_change_has_no_gap(self, same_outputs):
        old = self.report(0.5)
        new = old.replace(b"pass=1", b"pass=x")
        assert same_outputs.number_gaps("report.csv", old, new) is None
