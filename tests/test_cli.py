import contextlib
import copy
import io
import json
import logging
import math
import os
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plap import cli, radial_ode
from plap.errors import ConfigError, DomainError
from plap.indicial import auxiliary_f, hardy_best_constant

LIGHT_ALL = {
    "indicial_trials": 200,
    "hardy_trials": 30,
    "grid_h": [1 / 16, 1 / 32],
    "bochner_h": [1 / 8, 1 / 16],
    "shoot_r_max": 30.0,
    "martin_t": 100.0,
    "riccati_T": 50.0,
    "translate_window": 0.5,
    "translate_shifts": [10.0, 20.0, 40.0],
}

EXPECTED_ROWS = [
    "01_indicial_roots",
    "02_dirichlet_convergence",
    "03_gradient_log_bound",
    "04_kappa_bound",
    "05_bochner_trend",
    "06_exterior_decay",
    "07_exterior_decay_p15",
    "08_ratio_flow_convergence",
    "09_power_solution_residual",
    "10_rescaling_fixed_points",
]


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


class TestOtherCampaigns:
    def test_shoot(self, tmp_path):
        cfg = {"params": {"n": 3, "p": 2.0, "lam": 1.0}, "r_max": 30.0}
        report = cli.run_shoot(cfg, tmp_path)
        assert report.all_passed
        assert (tmp_path / "exterior_profile.csv").exists()

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
        assert (tmp_path / "dirichlet_field.plf2").exists()

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
        ({"h_list": [0.3, 0.7]}, "h must divide the rectangle extents"),
        ({"h_list": [0.25, 0.125]}, "5 nodes per axis, the checks need "
                                    "at least 7"),
    ])
    def test_bochner_config_errors_exit_2(self, tmp_path, capsys, cfg,
                                          message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = cli.main(["bochner", "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["indicial_trials", "hardy_trials"])
    @pytest.mark.parametrize("value", [0, "x", True])
    def test_all_trial_counts_exit_2(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        code = cli.main(["all", "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{key} must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, message", [
        ({"shoot_r_max": "x"}, "shoot_r_max must be a finite number > 0"),
        ({"martin_t": -5}, "martin_t must be a finite number > 0"),
        ({"grid_h": [0.3, 0.1]}, "h must divide the rectangle extents"),
        ({"riccati_T": -1}, "riccati_T must be a finite number > 0"),
        ({"translate_window": "w"},
         "translate_window must be a finite number > 0"),
        ({"translate_shifts": []}, "translate_shifts needs at least two"),
        ({"martin_t": 1.5}, "martin_t must be >= 2"),
        ({"shoot_r_max": 9.5}, "shoot_r_max must be >= 10"),
        ({"bochner_h": [0.25, 0.125]}, "5 nodes per axis, the checks need "
                                       "at least 7"),
        ({"martin_t": 10 ** 400}, "martin_t must be a finite number > 0"),
    ])
    def test_all_config_errors_exit_2(self, tmp_path, capsys, cfg, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = cli.main(["all", "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, message", [
        ({"h": 0.3}, "h must divide the rectangle extents"),
        ({"h": "abc"}, "h must be a finite number > 0"),
        ({"xi": [0, 0]}, "direction must be a unit vector"),
        ({"xi": [1.0]}, "xi must be a list of 2 finite numbers"),
        ({"tol": -1}, "tol must be a finite number > 0"),
        ({"rect": [0, 0, -1, 1]}, "rectangle must have positive extent"),
        ({"rect": [0, 0, 1]}, "rect must be a list of 4 finite numbers"),
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
        ("shoot", {"r_max": 5}, "r_max must be >= 10"),
        ("shoot", {"r0": 0}, "r0 must be a finite number > 0"),
        ("shoot", {"grid_points": 1}, "grid_points must be an integer >= 10"),
        ("martin", {"t": -5}, "t must be a finite number > 0"),
        ("martin", {"t": 1.5}, "t must be >= 2"),
        ("shoot", {"lam": "x"}, "params.lam must be a number, got 'x'"),
        ("grid", {"lam": [1.0]}, "params.lam must be a number, got [1.0]"),
        ("blowup", {"lam": None}, "params.lam must be a number, got None"),
        ("shoot", {"r0": 10 ** 400}, "r0 must be a finite number > 0"),
    ])
    def test_rate_campaign_config_errors_exit_2(self, tmp_path, capsys, sub,
                                                cfg, message):
        # lam is a params key; every other key sits at the top level
        params = {"n": 3, "p": 2.0, "lam": cfg.get("lam", 1.0)}
        top = {k: v for k, v in cfg.items() if k != "lam"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"params": params, **top}))
        code = cli.main([sub, "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("params, message", [
        ({"n": 3, "p": 2.0, "mu": "x"}, "params.mu must be a number"),
        ({"n": True, "p": 2.0}, "params.n must be a number"),
        ([3, 2.0], "params must be a JSON object"),
        ({"n": 3, "p": 2.0, "q": 4.0}, "unknown key(s) ['q'] in params block"),
    ])
    def test_ill_typed_params_exit_2(self, tmp_path, capsys, params, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"params": params}))
        code = cli.main(["roots", "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err

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
        # the read, cross-key and scale checks all run before --out exists
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
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"params": {"n": 3, "p": 2.0, "lam": 1.0}, "r0": 1e-300}))
        code = cli.main(["shoot", "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
        assert code == 1
        assert ("inward pass left the double range at r = 5.07137e-155"
                in capsys.readouterr().err)

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

    # at lam = 1e6 the oracle field overflows (numpy warns) and every
    # residual is NaN, which must fail the refinement row rather than pass
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
        ("blowup", {"window": 20}, "with window 20: "),
        ("blowup", {"shifts": [1, 2]}, "shifts [1, 2] with window 0.5: "),
        ("all", {"translate_window": 20}, "with translate_window 20: "),
        # the exponential profile of step 10 ends at r = 200
        ("all", {"translate_shifts": [10.0, 500.0]},
         "translate_shifts [10.0, 500.0] with translate_window 0.5: "),
    ])
    def test_translation_outside_profile_exit_2(self, tmp_path, capsys, sub,
                                                cfg, message):
        if sub == "blowup":
            cfg = {"params": {"n": 3, "p": 2.0, "lam": 1.0}, **cfg}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = cli.main([sub, "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and "outside sampled span" in err
        assert not any(p.is_file() for p in (tmp_path / "out").rglob("*"))

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


@pytest.mark.parametrize("sub", sorted(cli.CONFIGS))
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


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("all_first")
    report = cli.run_all(LIGHT_ALL, out, seed=7)
    return out, report


class TestAllCampaign:

    def test_report_completeness(self, first_run):
        _, report = first_run
        assert [r.name for r in report.rows] == EXPECTED_ROWS

    def test_row_semantics(self, first_run):
        _, report = first_run
        for row in report.rows:
            assert row.passed == (abs(row.measured - row.target) <= row.tolerance)

    def test_byte_determinism(self, first_run, tmp_path):
        out1, _ = first_run
        cli.run_all(LIGHT_ALL, tmp_path / "all", seed=7)
        assert_same_tree(out1, tmp_path / "all")
        roots_cfg = {"params": {"n": 4, "p": 2.0, "a": 0.0, "mu": 0.0}}
        for run in ("roots1", "roots2"):
            (tmp_path / run).mkdir()
            cli.run_roots(roots_cfg, tmp_path / run)
        assert_same_tree(tmp_path / "roots1", tmp_path / "roots2")
        assert (tmp_path / "roots1" / "roots_report.csv").exists()

    def test_seed_changes_report(self, first_run, tmp_path):
        out1, _ = first_run
        cli.run_all(LIGHT_ALL, tmp_path, seed=8)
        rep1 = (out1 / "report.csv").read_text()
        rep2 = (tmp_path / "report.csv").read_text()
        assert rep1 != rep2  # randomized sweeps see the seed

    def test_rejects_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.run_all({"typo_key": 1}, tmp_path, seed=0)


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
        assert cli._shortfall(1.25, 3.5) == 2.25
        assert cli._shortfall(3.5, 1.25) == 0.0
        assert cli._shortfall(2.0, 2.0) == 0.0
        assert cli._excess(math.inf, 0.0) == math.inf

    @pytest.mark.parametrize("value, bound", [
        (math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)])
    def test_nan_passes_through(self, value, bound):
        assert math.isnan(cli._excess(value, bound))
        assert math.isnan(cli._shortfall(value, bound))
        row = cli.CheckRow("x", 0.0, cli._excess(value, bound), 0.0)
        assert not row.passed and row.margin == math.inf

    def test_nan_order_fails(self):
        # the builtin min would drop the NaN order and report no shortfall
        assert cli._order_shortfall([1.0, 0.25, 0.0625]) == 0.0
        assert math.isnan(cli._order_shortfall([1.0, 0.25, math.nan]))


def _uniform_sample_admissible(rng, force_p2=False):
    """_sample_admissible as written with Generator.uniform."""
    n = int(rng.integers(3 if force_p2 else 2, 9))
    p = 2.0 if force_p2 else float(rng.uniform(1.05, min(n - 0.05, 4.0)))
    crit = (n - p) / p
    pick = rng.random()
    if pick < 0.1:
        a = crit
        mu = -float(rng.uniform(0.0, 5.0)) if rng.random() < 0.9 else 0.0
    else:
        a = crit + float(rng.uniform(-2.0, 2.0))
        mu_bar = hardy_best_constant(n, p, a)
        mu = mu_bar if pick < 0.2 else float(rng.uniform(-10.0, mu_bar))
    return n, p, a, mu


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
    """The samplers draw each uniform from rng.random(); the draws and the
    stream must be those of Generator.uniform (50 seeds x 400 draws here;
    numpy's uniform is low + (high - low) * next_double)."""

    def test_admissible_stream(self):
        for seed in range(50):
            new, old = np.random.default_rng(seed), np.random.default_rng(seed)
            for k in range(400):
                assert (cli._sample_admissible(new, k % 5 == 0)
                        == _uniform_sample_admissible(old, k % 5 == 0))
            assert new.random() == old.random()

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
