import math

import numpy as np
import pytest

from plap import cli
from plap.blowup import (martin_kernel_estimate, rescale_near_zero,
                         translate_rescale_at_infinity)
from plap.errors import DomainError, OutOfRange
from plap.grid_pde import _check_unit
from plap.radial_ode import RadialProfile


def exp_over_r_profile(r_max, points=3000):
    """Exact samples of e^(-r)/r with log-amplitude data."""
    r = np.geomspace(1.0, r_max, points)
    return RadialProfile(r=r, log_u=-r - np.log(r), ratio=-(1.0 + 1.0 / r),
                         meta={"kind": "exp_over_r"})


def power_profile(gamma, r_lo=1e-4, r_hi=1e2, points=900):
    r = np.geomspace(r_lo, r_hi, points)
    u, du = r ** -gamma, -gamma * r ** (-gamma - 1.0)
    return RadialProfile(r=r, log_u=np.log(u), ratio=du / u,
                         meta={"kind": "power", "gamma": gamma})


class TestDirection:
    """The unit-vector check that martin_kernel_estimate and the grid solver
    share."""

    def test_accepts_unit_vector(self):
        _check_unit(np.array([0.6, 0.8]))

    def test_rejects_non_unit(self):
        with pytest.raises(DomainError, match="direction must be a unit vector"):
            _check_unit(np.array([1.0, 1.0]))
        with pytest.raises(DomainError, match="direction must be a unit vector"):
            martin_kernel_estimate(exp_over_r_profile(50.0), np.zeros(3),
                                   np.array([1.0, 1.0, 0.0]), 20.0)


class TestMartinKernelEstimate:
    def test_center_is_one(self):
        prof = exp_over_r_profile(50.0)
        xi = np.array([1.0, 0.0, 0.0])
        assert martin_kernel_estimate(prof, np.zeros(3), xi, 20.0) == 1.0

    def test_along_direction(self):
        prof = exp_over_r_profile(1100.0)
        xi = np.array([1.0, 0.0, 0.0])
        t = 1e3
        est = martin_kernel_estimate(prof, xi, xi, t)
        # exact value e * t/(t-1); within 5e-3 of the limit e
        assert est == pytest.approx(math.e * t / (t - 1.0), rel=1e-6)
        assert abs(est - math.e) <= 5e-3

    def test_perpendicular(self):
        prof = exp_over_r_profile(1100.0)
        xi = np.array([1.0, 0.0, 0.0])
        x = np.array([0.0, 1.0, 0.0])
        est = martin_kernel_estimate(prof, x, xi, 1e3)
        assert abs(est - 1.0) <= 2e-3

    def test_amplitude_invariance(self):
        r = np.geomspace(1.0, 100.0, 1500)
        xi = np.array([1.0, 0.0, 0.0])
        vals = []
        for c in (1.0, 8.25e3):
            u, du = c * np.exp(-r) / r, -c * (1 + 1 / r) * np.exp(-r) / r
            prof = RadialProfile(r=r, log_u=np.log(u), ratio=du / u, meta={})
            vals.append(martin_kernel_estimate(prof, xi, xi, 50.0))
        assert vals[0] == pytest.approx(vals[1], rel=1e-13)

    def test_out_of_range(self):
        prof = exp_over_r_profile(50.0)
        xi = np.array([1.0, 0.0, 0.0])
        with pytest.raises(OutOfRange):
            martin_kernel_estimate(prof, -xi, xi, 49.5)  # |x - t*xi| = 50.5


class TestRescaleNearZero:
    def test_power_is_fixed_point(self):
        gamma = 0.75
        rep = rescale_near_zero(power_profile(gamma), [1e-1, 1e-2, 1e-3], gamma)
        assert np.max(rep.sup_distance) <= 1e-12
        assert np.max(rep.grad_distance) <= 1e-10

    def test_empty_scales(self):
        rep = rescale_near_zero(power_profile(0.5), [], 0.5)
        assert rep.scales.size == 0
        assert rep.sup_distance.size == 0

    def test_amplitude_invariance(self):
        gamma = 0.4
        r = np.geomspace(1e-4, 1e2, 900)
        reps = []
        for c in (1.0, 3.3e2):
            u, du = c * r ** -gamma, -c * gamma * r ** (-gamma - 1.0)
            prof = RadialProfile(r=r, log_u=np.log(u), ratio=du / u, meta={})
            reps.append(rescale_near_zero(prof, [1e-2], gamma))
        assert reps[0].sup_distance[0] == pytest.approx(
            reps[1].sup_distance[0], abs=1e-13)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            rescale_near_zero(power_profile(0.5), [1e-4], 0.5)  # needs R/10

    @pytest.mark.parametrize("gamma1", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_exponent(self, gamma1):
        # the distances to s^(-gamma1) were all NaN before this rule
        with pytest.raises(DomainError, match="gamma1 must be finite"):
            rescale_near_zero(power_profile(0.5), [1.0], gamma1)

    def test_shrinking_distance_for_perturbed_profile(self):
        # power plus a higher-order correction loses the correction as R -> 0
        gamma = 0.25
        r = np.geomspace(1e-6, 1e2, 1200)
        u = r ** -gamma * (1.0 + 0.2 * r)
        prof = RadialProfile(r=r, log_u=np.log(u), ratio=np.gradient(u, r) / u,
                             meta={})
        rep = rescale_near_zero(prof, [1e-1, 1e-2, 1e-3, 1e-4], gamma)
        assert np.all(np.diff(rep.sup_distance) < 0)

    def test_singular_shoot_converges_to_power(self):
        # full perturbed profile: distances to the pure power shrink with R
        from plap.indicial import Nonlinearity, ProblemParams
        from plap.radial_ode import shoot_singular_profile
        params = ProblemParams(n=3, p=2.0, mu=0.1875, lam=1.0,
                               nonlinearity=Nonlinearity(q=3.0, amplitude=0.05))
        res = shoot_singular_profile(params, 1e-5, 1.2, grid_points=1200)
        rep = rescale_near_zero(res.profile, [1e-1, 1e-2, 1e-3], 0.25)
        assert np.all(np.diff(rep.sup_distance) < 0)


class TestTranslateRescaleAtInfinity:
    def test_exponential_is_fixed_point(self):
        alpha = 0.8
        r = np.geomspace(1.0, 200.0, 2500)
        prof = RadialProfile(r=r, log_u=-alpha * r,
                             ratio=np.full_like(r, -alpha), meta={})
        rep = translate_rescale_at_infinity(prof, [10.0, 40.0, 120.0], alpha,
                                            window=2.0)
        assert np.max(rep.sup_distance) <= 1e-12
        assert np.max(rep.grad_distance) <= 1e-12

    def test_zero_window(self):
        prof = exp_over_r_profile(100.0)
        rep = translate_rescale_at_infinity(prof, [20.0], 1.0, window=0.0)
        assert rep.sup_distance[0] == 0.0

    def test_exp_over_r_converges(self):
        prof = exp_over_r_profile(170.0)
        shifts = [10.0, 20.0, 40.0, 80.0, 160.0]
        rep = translate_rescale_at_infinity(prof, shifts, 1.0, window=0.5)
        assert np.all(np.diff(rep.sup_distance) < 0)
        # leading deviation is |s|/(t+s) * e^{-s}; O(1/t) decay
        assert rep.sup_distance[-1] <= 2.0 * rep.sup_distance[-2] / 2.0

    def test_exp_over_r_default_window(self):
        # doubling shifts roughly halve the deviation at window 2, the
        # campaign's translate_window
        prof = exp_over_r_profile(700.0)
        shifts = [10.0 * 2 ** k for k in range(6)]
        rep = translate_rescale_at_infinity(prof, shifts, 1.0, window=2.0)
        assert np.all(np.diff(rep.sup_distance) < 0)
        ratios = rep.sup_distance[:-1] / rep.sup_distance[1:]
        assert np.all(ratios[1:] >= 1.5)

    def test_out_of_range(self):
        prof = exp_over_r_profile(100.0)
        with pytest.raises(OutOfRange):
            translate_rescale_at_infinity(prof, [99.5], 1.0, window=2.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_rate(self, alpha):
        # the distances to e^(-alpha s) were all NaN before this rule
        prof = exp_over_r_profile(100.0)
        with pytest.raises(DomainError, match="alpha must be finite"):
            translate_rescale_at_infinity(prof, [10.0, 20.0], alpha,
                                          window=1.0)


class TestRescaleReport:
    def test_csv_columns(self, tmp_path):
        # the campaign's rescaling artifacts: one row per scale or shift
        cli.step_rescale(cli.ALL_SETTINGS, tmp_path)
        for name, first in (("rescale_origin.csv", "0.10000000000000001,"),
                            ("translate_far_field.csv", "10,")):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0] == "scale,sup_distance,grad_distance"
            assert lines[1].startswith(first)
            assert all(len(line.split(",")) == 3 for line in lines[1:])
