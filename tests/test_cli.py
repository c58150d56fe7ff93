import json
import os
from pathlib import Path

import pytest

from plap import cli
from plap.errors import ConfigError

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
    ])
    def test_ill_typed_params_exit_2(self, tmp_path, capsys, params, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"params": params}))
        code = cli.main(["roots", "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err

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

    def test_unknown_subcommand_exit_2(self, tmp_path):
        code = cli.main(["frobnicate", "--out", str(tmp_path)])
        assert code == 2

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
