import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import PchipInterpolator

from plap import cli
from plap.blowup import (_hermite, _pchip_slopes, martin_kernel_estimate,
                         rescale_near_zero, translate_rescale_at_infinity)
from plap.errors import DomainError, OutOfRange
from plap.grid_pde import _check_unit
from plap.radial_ode import RadialProfile, radial_exterior_eigen


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
            _check_unit(np.array([math.nan, 0.0]))
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
        from plap.indicial import ProblemParams
        from plap.radial_ode import shoot_singular_profile
        params = ProblemParams(n=3, p=2.0, mu=0.1875, lam=1.0)
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


def assert_matches_scipy(x, y, xq):
    """The kernel's values and derivatives at xq equal scipy's
    PchipInterpolator and its derivative() bit for bit."""
    x, y, xq = (np.asarray(v, dtype=float) for v in (x, y, xq))
    value, slope = _hermite(x, y, _pchip_slopes(x, y), xq)
    interp = PchipInterpolator(x, y)
    np.testing.assert_array_equal(value, interp(xq))
    np.testing.assert_array_equal(slope, interp.derivative()(xq))


@st.composite
def pchip_data(draw):
    """Grids of 2 to 12 nodes with uneven steps, values that mix flat
    segments and secant sign changes, and queries at every node, at the
    last node and inside the span."""
    size = draw(st.integers(2, 12))
    steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=size - 1,
                          max_size=size - 1))
    x = draw(st.floats(-50.0, 50.0)) + np.cumsum([0.0] + steps)
    # no magnitudes below 1e-200, whose secants overflow w1/m in scipy too
    y = draw(st.lists(st.one_of(st.sampled_from([-1.0, 0.0, 1.0]),
                                st.floats(-1e3, 1e3).filter(
                                    lambda v: v == 0.0 or abs(v) > 1e-200)),
                      min_size=size, max_size=size))
    inside = draw(st.lists(st.floats(0.0, 1.0), max_size=20))
    xq = np.concatenate((x, x[-1:], x[0] + (x[-1] - x[0]) * np.array(inside)))
    return x, y, xq


# (n, p, lam, r_max, grid_points): step 06's Martin shot, a p = 1.5 shot
# as in step 07, and a shot of the far-field benchmark workload
EXTERIOR_SHOTS = [(3, 2.0, 1.0, 1050.0, 1600), (3, 1.5, 0.5, 40.0, 800),
                  (5, 2.8, 1.7, 20010.0, 1600)]


@functools.cache
def exterior_profile(n, p, lam, r_max, points):
    return radial_exterior_eigen(n, p, lam, 1.0, r_max,
                                 grid_points=points).profile


class TestPchipKernel:
    """_pchip_slopes and _hermite reproduce scipy's PchipInterpolator."""

    @settings(max_examples=300, deadline=None)
    @given(pchip_data())
    @example(([0.0, 1.0], [2.0, -1.0], [0.0, 0.25, 1.0]))  # secant, both ends
    @example(([0.0, 1.0, 3.0], [0.0, 1.0, 1.0], [0.0, 0.5, 1.0, 2.0, 3.0]))
    @example(([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 0.0, 0.0, 2.0],
              [0.0, 1.0, 1.5, 2.0, 3.0, 3.5, 4.0]))
    @example(([0.0, 1.0, 2.0], [0.0, 1.0, 5.0], [0.0, 1.0, 2.0]))  # end to 0
    @example(([0.0, 1.0, 2.0], [0.0, 1.0, -9.0], [0.0, 1.0, 2.0]))  # to 3*m0
    def test_matches_scipy(self, data):
        assert_matches_scipy(*data)

    def test_interior_slope_is_zero_at_flat_or_turning_secants(self):
        # a turn at node 1, a flat secant beside nodes 2 and 3, a rise at 4
        x = np.arange(6.0)
        y = np.array([0.0, 1.0, 0.0, 0.0, 2.0, 3.0])
        d = _pchip_slopes(x, y)
        assert d[1:4].tolist() == [0.0, 0.0, 0.0]
        assert d[4] != 0.0
        assert_matches_scipy(x, y, np.linspace(0.0, 5.0, 41))

    @pytest.mark.parametrize("y,end", [
        # three-point slope (3*1 - 4)/2 = -0.5 against the secant 1
        ([0.0, 1.0, 5.0], 0.0),
        # secants 1 and -10 differ in sign; (3*1 + 10)/2 = 6.5 > 3*1
        ([0.0, 1.0, -9.0], 3.0),
    ])
    def test_end_clamps(self, y, end):
        x = np.array([0.0, 1.0, 2.0])
        y = np.array(y)
        assert _pchip_slopes(x, y)[0] == end
        # mirrored, the same clamp sets the last slope
        assert _pchip_slopes(-x[::-1], y[::-1])[-1] == -end
        assert_matches_scipy(x, y, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert_matches_scipy(-x[::-1], y[::-1], [-2.0, -1.0, -0.25, 0.0])

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(EXTERIOR_SHOTS), st.booleans(),
           st.lists(st.floats(0.0, 1.0), max_size=200))
    def test_matches_scipy_on_exterior_profiles(self, shot, in_log_r, inside):
        # the grids blowup reads: ln r for dilations and the kernel ratio,
        # r for translations
        prof = exterior_profile(*shot)
        x = np.log(prof.r) if in_log_r else prof.r
        xq = np.concatenate((x, x[0] + (x[-1] - x[0]) * np.array(inside)))
        assert_matches_scipy(x, prof.log_u, xq)

    def test_fewer_than_two_nodes_raise_domain_error(self):
        # scipy raised ValueError: x must contain at least 2 elements
        prof = RadialProfile(r=[1.0], log_u=[0.0], ratio=[0.0])
        with pytest.raises(DomainError, match="at least 2 nodes, got 1"):
            rescale_near_zero(prof, [1.0], 0.5)
        with pytest.raises(DomainError, match="at least 2 nodes, got 1"):
            translate_rescale_at_infinity(prof, [], 1.0, window=0.0)
        with pytest.raises(DomainError, match="at least 2 nodes, got 1"):
            martin_kernel_estimate(prof, np.zeros(2), [1.0, 0.0], 1.0)


def test_cli_import_leaves_out_scipy_interpolate():
    # a fresh interpreter, importing plap from this checkout's src/
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, plap.cli; print('scipy.interpolate' in sys.modules)"],
        capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
