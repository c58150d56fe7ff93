import math
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.special import kve

from plap import blowup, cli, radial_ode
from plap.errors import (DomainError, IllConditioned, OutOfRange, SingularRatio,
                         StepFailure)
from plap.indicial import (ProblemParams, auxiliary_f, eigen_rate_alpha,
                           indicial_roots)
from plap.radial_ode import (RICCATI_SAMPLES, SERIES_ORDER, RadialProfile,
                             ShootClass, decay_power, far_field_series,
                             fit_decay_exponents,
                             hardy_power_residual,
                             radial_exterior_eigen, riccati_ratio_flow,
                             series_start_radius, shoot_singular_profile)


NAN, INF = math.nan, math.inf
XI = [1.0, 0.0]


def ratio_rhs_in_r(n, p, lam):
    """The exterior ratio flow in r for the state (ln u, sigma):
        sigma' = lam / ((p-1)|sigma|^(p-2)) - sigma^2 - (n-1) sigma / ((p-1) r)
    and (ln u)' = sigma, for reference passes with solve_ivp."""
    k, c = lam / (p - 1.0), (n - 1.0) / (p - 1.0)

    def rhs(r, y):
        sig = y[1]
        core = k / abs(sig) ** (p - 2.0) if sig != 0.0 else 0.0
        return [sig, core - sig * sig - c * sig / r]

    return rhs


def bessel_branch(n, r):
    """(sigma, ln u - ln u(r[0])) of the decaying branch at p = 2, lam = 1:
    u ~ r^-nu K_nu(r), nu = (n-2)/2, so u'/u = -K_(nu+1)/K_nu; kve = K e^r
    keeps the logs finite."""
    nu = (n - 2) / 2
    log_u = -nu * np.log(r) + np.log(kve(nu, r)) - r
    return -kve(nu + 1, r) / kve(nu, r), log_u - log_u[0]


def mpmath_branch(n, p, lam, r):
    """(sigma, ln u - ln u(r[0])) of the decaying branch at the increasing
    radii r in [1, 40], from mpmath's Taylor-series integrator at 16 digits
    (degree 14) in t = -r, seeded with -alpha at r = 40 + 35/(p alpha) as
    radial_exterior_eigen seeds it.  Against a 20-digit run of degree 33
    it is within 4.4e-16 in sigma and 7.1e-15 in ln u at (6, 2.2, 0.7),
    (5, 2.9, 2) and (5, 4.5, 3)."""
    alpha = eigen_rate_alpha(lam, p)
    with mpmath.workdps(16):
        k = mpmath.mpf(lam) / (p - 1.0)
        c = mpmath.mpf(n - 1.0) / (p - 1.0)
        e = mpmath.mpf(p) - 2

        def flow(t, y):  # t = -r
            return [-y[1], -(k / abs(y[1]) ** e - y[1] ** 2 + c * y[1] / t)]

        sol = mpmath.odefun(flow, -(40.0 + 35.0 / (p * alpha)),
                            [mpmath.mpf(0), mpmath.mpf(-alpha)], degree=14)
        # odefun extends its series towards larger t, so r runs downwards
        states = [sol(-mpmath.mpf(x)) for x in r[::-1]]
        log_u0 = states[-1][0]
        sigma = np.array([float(y[1]) for y in states[::-1]])
        log_u = np.array([float(y[0] - log_u0) for y in states[::-1]])
    return sigma, log_u


# each call with a NaN or infinite input, and the error its range rule
# raises; the profile argument is the shot of (3, 2, 1) over [1, 40].
# Before these rules the calls returned NaN or a report, or failed later
# with scipy's ValueError, StepFailure or SingularRatio
NON_FINITE_CALLS = {
    "alpha_lam_nan": (lambda _: eigen_rate_alpha(NAN, 2.0), DomainError),
    "alpha_lam_inf": (lambda _: eigen_rate_alpha(INF, 2.0), DomainError),
    "alpha_p_nan": (lambda _: eigen_rate_alpha(1.0, NAN), DomainError),
    "shot_r0_nan": (lambda _: radial_exterior_eigen(3, 2.0, 1.0, NAN, 40.0),
                    DomainError),
    "shot_r_max_inf": (lambda _: radial_exterior_eigen(3, 2.0, 1.0, 1.0, INF),
                       DomainError),
    "shot_r_max_nan": (lambda _: radial_exterior_eigen(3, 2.0, 1.0, 1.0, NAN),
                       DomainError),
    "shot_lam_nan": (lambda _: radial_exterior_eigen(3, 2.0, NAN, 1.0, 40.0),
                     DomainError),
    "shot_n_nan": (lambda _: radial_exterior_eigen(NAN, 2.0, 1.0, 1.0, 40.0),
                   DomainError),
    "shot_n_inf": (lambda _: radial_exterior_eigen(INF, 2.0, 1.0, 1.0, 40.0),
                   DomainError),
    "riccati_lam_nan": (lambda _: riccati_ratio_flow(NAN, 2.0, 1.0, (0, 1)),
                        DomainError),
    "riccati_p_nan": (lambda _: riccati_ratio_flow(1.0, NAN, 1.0, (0, 1)),
                      DomainError),
    "riccati_s0_nan": (lambda _: riccati_ratio_flow(1.0, 2.0, NAN, (0, 1)),
                       DomainError),
    "riccati_t_nan": (lambda _: riccati_ratio_flow(1.0, 2.0, 1.0, (0, NAN)),
                      DomainError),
    "riccati_t_inf": (lambda _: riccati_ratio_flow(1.0, 2.0, 1.0, (0, INF)),
                      DomainError),
    "martin_t_nan": (lambda prof: blowup.martin_kernel_estimate(prof, XI, XI,
                                                                NAN),
                     OutOfRange),
    "near_zero_scale_nan": (
        lambda prof: blowup.rescale_near_zero(prof, [NAN], 0.25), OutOfRange),
    "translate_window_nan": (
        lambda prof: blowup.translate_rescale_at_infinity(prof, [10, 20], 1.0,
                                                          window=NAN),
        OutOfRange),
    "hardy_r_nan": (lambda _: hardy_power_residual(3, 2.0, 0, 0, 0.5, [NAN]),
                    DomainError),
    "hardy_r_inf": (lambda _: hardy_power_residual(3, 2.0, 0, 0, 0.5, [INF]),
                    DomainError),
}


@pytest.mark.parametrize("call,error", NON_FINITE_CALLS.values(),
                         ids=NON_FINITE_CALLS.keys())
def test_non_finite_input_fails_its_range_rule(call, error):
    prof = radial_exterior_eigen(3, 2.0, 1.0, 1.0, 40.0).profile
    with pytest.raises(error) as caught:
        call(prof)
    assert type(caught.value) is error


class TestRiccatiRatioFlow:
    def test_rest_point_is_fixed(self):
        lam, p = 3.0, 1.5
        alpha = (lam / (p - 1)) ** (1 / p)
        _, s = riccati_ratio_flow(lam, p, alpha, (0, 20))
        assert np.max(np.abs(s - alpha)) <= 1e-9

    def test_p2_coth_branch(self):
        t, s = riccati_ratio_flow(1.0, 2.0, 2.0, (0, 10))
        ref = 1.0 / np.tanh(t + math.atanh(0.5))
        assert np.max(np.abs(s - ref)) <= 1e-8

    def test_p2_tanh_branch(self):
        t, s = riccati_ratio_flow(1.0, 2.0, 0.5, (0, 10))
        ref = np.tanh(t + math.atanh(0.5))
        assert np.max(np.abs(s - ref)) <= 1e-8

    @pytest.mark.parametrize("p,lam", [(1.5, 0.5), (2.0, 1.0), (3.0, 2.0)])
    def test_monotone_convergence(self, p, lam):
        alpha = (lam / (p - 1)) ** (1 / p)
        for s0 in (alpha / 4, 4 * alpha):
            _, s = riccati_ratio_flow(lam, p, s0, (0, 50))
            gaps = np.abs(s - alpha)
            # monotone while above the integrator noise floor
            moving = gaps[:-1] > 1e-8
            assert np.all(np.diff(gaps)[moving] <= 1e-10)
            assert gaps[-1] <= 1e-6

    def test_rejects_nonpositive_start(self):
        with pytest.raises(DomainError):
            riccati_ratio_flow(1.0, 2.0, 0.0, (0, 1))

    @pytest.mark.parametrize("p, s0", [(1.0, 1.0), (0.5, 1.0), (10.0, 1e40),
                                       (3.0, 1e120)])
    def test_rejects_p_at_most_one_and_overflowing_start(self, p, s0):
        # the flow is integrated in w = s^(p-1), which needs p > 1, and its
        # right-hand side holds w^(p/(p-1)) = s^p, which must not overflow
        with pytest.raises(DomainError):
            riccati_ratio_flow(1.0, p, s0, (0, 1))

    def test_rejects_empty_broadcast(self):
        # not ODEPACK's "Illegal input detected" on zero equations
        with pytest.raises(DomainError, match=r"empty shape \(0,\)"):
            riccati_ratio_flow(1.0, 2.0, np.array([]), (0, 1))

    def test_rejects_empty_span(self):
        # not ODEPACK's "Nothing was done" on a span of length 0
        with pytest.raises(DomainError, match="its ends must differ"):
            riccati_ratio_flow(1.0, 2.0, 1.0, (1, 1))

    @pytest.mark.parametrize("t_span", [(0.0,), (0.0, 1.0, 2.0), 1.0,
                                        ((0.0, 1.0),)])
    def test_rejects_span_not_two_ends(self, t_span):
        # one number raised a bare IndexError, three ran on the first two
        with pytest.raises(DomainError, match=r"t_span must be \(t0, t1\)"):
            riccati_ratio_flow(1.0, 2.0, 1.0, t_span)

    def test_vector_call_matches_scalar_calls(self):
        # the (p, lam, s0) grid of acceptance criterion 08 in one call
        p = np.array([1.5, 2.0, 3.0])[:, None, None]
        lam = np.array([0.5, 1.0, 2.0])[:, None]
        alpha = (lam / (p - 1.0)) ** (1.0 / p)
        s0 = alpha * [0.25, 4.0]
        t, s = riccati_ratio_flow(lam, p, s0, (0, 50))
        assert t.shape == (501,)
        assert s.shape == (3, 3, 2, 501)
        lam_b, p_b, s0_b = np.broadcast_arrays(lam, p, s0)
        for idx in np.ndindex(s0_b.shape):
            t_one, s_one = riccati_ratio_flow(float(lam_b[idx]), float(p_b[idx]),
                                              float(s0_b[idx]), (0, 50))
            assert s_one.shape == t.shape
            assert np.array_equal(t_one, t)
            # the shared step size moves transients at integrator error level
            assert np.max(np.abs(s[idx] - s_one)) <= 1e-8

    @pytest.mark.parametrize("lam", [-1.0, -2.0])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_negative_lam_reaches_zero(self, p, lam):
        # lam < 0 lowers s^(p-1) at rate at least |lam|, so from s0 = 1 the
        # flow reaches zero by t = 1/|lam|; at p = 2 the flow is
        # sqrt|lam| tan(atan(s0/sqrt|lam|) - sqrt|lam| t), zero at t_star
        spacing = 10.0 / (RICCATI_SAMPLES - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularRatio, match="reached zero") as err:
                riccati_ratio_flow(lam, p, 1.0, (0, 10))
        t_hit = float(str(err.value).rsplit("t=", 1)[1])
        assert 0.0 < t_hit <= 1.0 / -lam + spacing
        if p == 2.0:
            rate = math.sqrt(-lam)
            t_star = math.atan(1.0 / rate) / rate
            assert abs(t_hit - t_star) <= spacing

    def test_vector_call_rejects_any_nonpositive_start(self):
        with pytest.raises(DomainError):
            riccati_ratio_flow([1.0, 2.0], 2.0, [0.5, 0.0], (0, 1))
        with pytest.raises(DomainError):
            riccati_ratio_flow(1.0, [1.5, 2.0, 3.0], -1.0, (0, 1))


class TestRadialExteriorEigen:
    def test_n3_matches_closed_form(self):
        shot = radial_exterior_eigen(3, 2.0, 1.0, 1.0, 40.0)
        prof = shot.profile
        assert shot.classification is ShootClass.DECAYING
        target = np.exp(1.0 - prof.r) / prof.r  # normalized to u(1) = 1
        rel = np.abs(prof.u / target - 1.0)
        assert np.max(rel[prof.r <= 20.0]) <= 1e-5

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_p2_matches_bessel_oracle(self, n):
        # measured gaps: 8.3e-14 in sigma and 1.5e-13 in ln u (n = 5)
        prof = radial_exterior_eigen(n, 2.0, 1.0, 1.0, 40.0).profile
        ratio, log_u = bessel_branch(n, prof.r)
        assert np.max(np.abs(prof.ratio - ratio)) <= 1e-12
        assert np.max(np.abs(prof.log_u - log_u)) <= 1e-11

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_p2_far_field_matches_bessel_oracle(self, n):
        # the far-field workload's span: ln u falls to about -2e4, so the
        # log error is relative to |log_u|.  Measured gaps: 8.0e-14 in
        # sigma (n = 5) and 1.2e-14 relative in ln u (n = 2)
        prof = radial_exterior_eigen(n, 2.0, 1.0, 1.0, 20010.0).profile
        ratio, log_u = bessel_branch(n, prof.r)
        assert np.max(np.abs(prof.ratio - ratio)) <= 1e-12
        assert np.all(np.abs(prof.log_u - log_u)
                      <= 1e-11 * np.maximum(1.0, np.abs(log_u)))

    @pytest.mark.parametrize("n,r_max,grid_points", [(2, 40.0, 10),
                                                     (3, 40.0, 10),
                                                     (5, 20010.0, 50)])
    def test_p2_coarse_grid_matches_bessel_oracle(self, n, r_max,
                                                  grid_points):
        # ln u is integrated on an internal grid of steps of ln r of at
        # most 1/200, not on the profile's: the quintic rule on 10 points
        # over [1, 40] alone is off by about 1e-4.  Measured gaps: 1.8e-14
        # in sigma (n = 5) and 1.2e-14 relative in ln u (n = 2)
        prof = radial_exterior_eigen(n, 2.0, 1.0, 1.0, r_max,
                                     grid_points=grid_points).profile
        ratio, log_u = bessel_branch(n, prof.r)
        assert np.max(np.abs(prof.ratio - ratio)) <= 1e-12
        assert np.all(np.abs(prof.log_u - log_u)
                      <= 1e-11 * np.maximum(1.0, np.abs(log_u)))

    @pytest.mark.parametrize("n,p,lam", [(3, 1.5, 0.5), (4, 3.0, 2.0),
                                         (2, 1.5, 1.0), (5, 2.9, 0.5),
                                         (6, 4.5, 3.0)])
    def test_matches_tight_explicit_reference(self, n, p, lam):
        # no closed form for p != 2: an explicit DOP853 pass of the same flow
        # from the same seed, at the tightest rtol solve_ivp accepts
        r_max = 40.0
        prof = radial_exterior_eigen(n, p, lam, 1.0, r_max).profile
        alpha = eigen_rate_alpha(lam, p)
        sol = solve_ivp(ratio_rhs_in_r(n, p, lam),
                        (r_max + 35 / (p * alpha), 1.0),
                        [0.0, -alpha], method="DOP853", rtol=2.5e-14,
                        atol=1e-16, t_eval=prof.r[::-1])
        sigma = sol.y[1][::-1]
        log_u = sol.y[0][::-1] - sol.y[0][-1]
        assert np.max(np.abs(prof.ratio - sigma)) <= 1e-10
        assert np.max(np.abs(prof.log_u - log_u)) <= 1e-9

    def test_far_field_rhs_evaluations(self):
        # an explicit method is held to |h| ~ 1/(p*alpha) by stability over
        # the whole span (about 118k evaluations at (3, 2, 1)); the
        # stiff-switching pass took about 4.9k in r and about 700 in s from
        # beyond r_max at (3, 2, 1).  From the series' reach (about 18.7) it
        # takes 458 here, where the pass from beyond r_max took 960
        shot = radial_exterior_eigen(4, 2.5, 1.0, 1.0, 20010.0,
                                     grid_points=1600)
        assert shot.nfev <= 1000

    def test_exact_series_leaves_no_pass(self):
        # at (3, 2, lam) the series ends at a_1, sigma = -sqrt(lam) - 1/r,
        # so it reaches to 0 and covers the whole profile without a pass
        shot = radial_exterior_eigen(3, 2.0, 1.0, 1.0, 20010.0,
                                     grid_points=1600)
        assert shot.nfev == 0
        assert shot.profile.meta["series_radius"] == 0.0
        assert shot.profile.meta["series_terms"] == radial_ode.SERIES_ORDER + 1

    @pytest.mark.parametrize("n,p,lam", [(3, 2.0, 1.0), (3, 1.5, 0.5),
                                         (5, 2.9, 2.0), (6, 2.2, 0.7),
                                         (5, 4.5, 3.0)])
    def test_far_field_matches_solve_ivp_lsoda_pass(self, n, p, lam):
        # The far-field shot against a reference more accurate than it: the
        # Bessel branch over the whole span at p = 2, and mpmath_branch on
        # [1, 40] elsewhere (the shot's error there carries over from the
        # far part of the pass).  The name is from the earlier reference, an
        # LSODA pass in r through solve_ivp, which is itself 2-7e-12 from
        # these in sigma.  Measured gaps: 1.9e-13 in sigma and 7.6e-14
        # relative in ln u, at (6, 2.2, 0.7)
        r_max = 20010.0
        prof = radial_exterior_eigen(n, p, lam, 1.0, r_max,
                                     grid_points=1600).profile
        if p == 2.0:
            r = prof.r
            sigma, log_u = bessel_branch(n, r)
        else:
            r = prof.r[prof.r <= 40.0]
            sigma, log_u = mpmath_branch(n, p, lam, r)
        assert np.max(np.abs(prof.ratio[:r.size] - sigma)) <= 1e-12
        assert np.all(np.abs(prof.log_u[:r.size] - log_u)
                      <= 1e-10 * np.maximum(1.0, np.abs(log_u)))
        # On r >= 5e3 the branch is sigma = -alpha + a1/r + a2/r^2 + a3/r^3
        # up to a4/r^4 < 1e-14, and ln u + alpha r - a1 ln r + a2/r
        # + a3/(2 r^2) is a constant, at p != 2 too.  Measured gaps over
        # these five cases: 6.2e-15 in sigma and 1.8e-15 relative to |ln u|
        # in the constant
        alpha = eigen_rate_alpha(lam, p)
        a1, a2, a3 = far_field_series(n, p, lam)[1:4]
        far = prof.r >= 5e3
        r, log_u = prof.r[far], prof.log_u[far]
        series = -alpha + a1 / r + a2 / r ** 2 + a3 / r ** 3
        assert np.max(np.abs(prof.ratio[far] - series)) <= 1e-12
        const = log_u + alpha * r - a1 * np.log(r) + a2 / r + a3 / (2 * r * r)
        assert np.all(np.abs(const - const[-1]) <= 1e-11 * np.abs(log_u))

    def test_nfev_is_odepack_count(self, monkeypatch):
        # nfev is ODEPACK's nfe, which counts every call of the RHS, the
        # finite-difference Jacobian columns included.  The pass runs in
        # s = 1/r from 1/r_start up to 1/r0 = 1, its critical point, so no
        # call lies outside [1/r_start, 1/r0].  At (4, 2.5, 1) the series'
        # reach (about 18.7) lies inside the profile, so a pass runs.
        real_odeint, args_s, seen = radial_ode.odeint, [], {}

        def recording_odeint(func, *args, **kwargs):
            def recorded(s, y):
                args_s.append(s)
                return func(s, y)
            out = real_odeint(recorded, *args, **kwargs)
            seen["nfe"] = int(out[1]["nfe"][-1])
            return out

        monkeypatch.setattr(radial_ode, "odeint", recording_odeint)
        r_max, alpha = 20010.0, eigen_rate_alpha(1.0, 2.5)
        shot = radial_exterior_eigen(4, 2.5, 1.0, 1.0, r_max,
                                     grid_points=1600)
        assert shot.nfev == seen["nfe"] == len(args_s)
        r_start = r_max + 35.0 / (2.5 * alpha)
        assert 1.0 / r_start <= min(args_s)
        assert max(args_s) <= 1.0

    def test_early_stop_raises_step_failure(self, monkeypatch):
        # a cap of 5 steps between output points, where the pass at
        # (4, 2.5, 1) takes 9 from the series' reach to its first output,
        # makes ODEPACK stop early; the failure surfaces as StepFailure with
        # its message, and its ODEintWarning does not leak
        real_odeint = radial_ode.odeint

        def capped_odeint(*args, **kwargs):
            return real_odeint(*args, **{**kwargs, "mxstep": 5})

        monkeypatch.setattr(radial_ode, "odeint", capped_odeint)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepFailure, match="Excess work done"):
                radial_exterior_eigen(4, 2.5, 1.0, 1.0, 20010.0,
                                      grid_points=10)

    def test_shoot_param_is_initial_ratio(self):
        shot = radial_exterior_eigen(3, 2.0, 1.0, 1.0, 40.0)
        # d/dr log(e^-r / r) at r=1 is -(1 + 1/1) = -2
        assert shot.profile.ratio[0] == pytest.approx(-2.0, abs=1e-10)
        assert shot.profile.meta["shoot_param"] == shot.profile.ratio[0]

    @given(n=st.integers(2, 5), p_frac=st.floats(0.0, 1.0),
           lam=st.floats(0.3, 3.0), log_k=st.floats(-1.5, 1.5))
    @settings(max_examples=25, deadline=None)
    def test_lambda_scaling(self, n, p_frac, lam, log_k):
        # u_k(r) = u(kr) solves the equation with lam k^p, so the shot over
        # [r0/k, r_max/k] gives the grid r/k, ln u_k(r) = ln u(kr) (both
        # normalized at r0) and ratio_k(r) = k ratio(kr).
        # Tolerance: LSODA holds each step's local error to rtol = 3e-14 of
        # the state, a shot to r_max = 40 over these ranges takes at most
        # about 2e3 steps (1949 the most over 400 draws), and the inward
        # flow attracts the branch, so its errors add at most linearly: each
        # shot is within 2e3 * 3e-14 = 6e-11 and the pair within 1.2e-10,
        # relative to |ratio| and to max(1, |ln u|).  Over 400 random draws
        # the largest gaps were 2.1e-12 (ratio), 3.0e-12 (ln u) and 1.5e-15
        # (grid, rounding of the two geomspace calls).
        p = 1.2 + p_frac * (min(n - 0.05, 4.0) - 1.2)
        k = math.exp(log_k)
        pa = radial_exterior_eigen(n, p, lam, 1.0, 40.0).profile
        pb = radial_exterior_eigen(n, p, lam * k ** p, 1.0 / k, 40.0 / k).profile
        assert np.allclose(pb.r * k, pa.r, rtol=1e-13, atol=0.0)
        ratio = k * pa.ratio
        assert np.max(np.abs(pb.ratio - ratio) / np.abs(ratio)) <= 1.2e-10
        assert np.max(np.abs(pb.log_u - pa.log_u)
                      / np.maximum(1.0, np.abs(pa.log_u))) <= 1.2e-10

    @staticmethod
    def _classify_ratio(n, p, lam, r0, sigma0, sigma_up, sigma_floor, r_cap,
                        rtol=1e-9):
        """Side on which a trial ratio trajectory leaves the decaying corridor.

        'up' is definitive growth (sigma above the decaying branch can only
        rise: once u' >= 0 the flux stays positive and u grows to the
        overflow barrier); 'down' is definitive vanishing (sigma below the
        branch dives to -inf, i.e. u crosses zero at finite radius).
        """
        if sigma0 >= sigma_up:
            return "up"
        if sigma0 <= sigma_floor:
            return "down"
        rhs = ratio_rhs_in_r(n, p, lam)

        def up(_r, y):
            return y[1] - sigma_up
        up.terminal = True
        up.direction = 1

        def down(_r, y):
            return y[1] - sigma_floor
        down.terminal = True
        down.direction = -1

        sol = solve_ivp(rhs, (r0, r_cap), [0.0, sigma0], method="RK45",
                        rtol=rtol, atol=1e-12, events=(up, down))
        if sol.t_events[0].size:
            return "up"
        if sol.t_events[1].size:
            return "down"
        return "none"

    def test_final_bracket_straddles(self):
        # the outward classifier sends a ratio just below the realized
        # initial ratio to a zero crossing and one just above to growth
        r_max = 40.0
        for n, p, lam in [(3, 1.5, 0.5), (3, 2.0, 1.0), (4, 3.0, 2.0),
                          (2, 1.5, 1.0), (5, 2.9, 0.5)]:
            alpha = eigen_rate_alpha(lam, p)
            s = radial_exterior_eigen(n, p, lam, 1.0, r_max).profile.ratio[0]
            corridor = (-alpha / 2, -10 * alpha - 1, r_max + 80 / (p * alpha))
            assert self._classify_ratio(n, p, lam, 1.0, s - 1e-8 * alpha,
                                        *corridor) == "down"
            assert self._classify_ratio(n, p, lam, 1.0, s + 1e-8 * alpha,
                                        *corridor) == "up"

    def test_leaving_double_range_raises_step_failure(self):
        # going inward sigma ~ -c/r, whose square overflows near r ~ 1e-154;
        # ODEPACK still reports success, so the pass checks its state.  At
        # (3, 2, 1) the exact series covers the profile and no pass runs
        with pytest.raises(StepFailure, match=r"left the double range at "
                                              r"r = 1\.33656e-154"):
            radial_exterior_eigen(4, 2.5, 1.0, 1e-300, 40.0)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            radial_exterior_eigen(3, 2.0, 1.0, 0.0, 40.0)
        with pytest.raises(DomainError):
            radial_exterior_eigen(3, 2.0, 1.0, 1.0, 5.0)

    @pytest.mark.parametrize("grid_points", [1, 0, -5, 2.5, 800.0, "800"])
    def test_grid_points_must_be_integer_of_at_least_two(self, grid_points):
        # 1 gave a one-node profile r = [1.0] that never reached r_max, 0
        # and below numpy's ValueError, and 2.5 a TypeError
        with pytest.raises(DomainError,
                           match="grid_points must be an integer >= 2"):
            radial_exterior_eigen(3, 2.0, 1.0, 1.0, 40.0,
                                  grid_points=grid_points)

    def test_grid_points_above_cap_raise_before_allocating(self,
                                                           monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("the profile grid was allocated")

        monkeypatch.setattr(radial_ode.np, "geomspace", no_grid)
        with pytest.raises(DomainError, match="exceeds the cap of 4194304 "
                                              "profile points"):
            radial_exterior_eigen(3, 2.0, 1.0, 1.0, 40.0,
                                  grid_points=radial_ode.MAX_PROFILE_POINTS
                                  + 1)

    def test_two_grid_points_span_r0_to_r_max(self):
        prof = radial_exterior_eigen(3, 2.0, 1.0, 1.0, 40.0,
                                     grid_points=np.int64(2)).profile
        assert prof.r.tolist() == [1.0, 40.0]
        assert prof.log_u[1] == pytest.approx(1.0 - 40.0 - math.log(40.0),
                                              rel=1e-12)

    @pytest.mark.parametrize("r_max", [1e5, 1e12, 1e100])
    def test_exact_series_takes_any_span(self, r_max):
        # the span rule bounds the ln u quadrature, whose relative error
        # grows like (p*alpha*r)^2 over the pass (29 at r_max = 1e12 when
        # the pass spanned the profile, and at 1e100 a finite, wrong
        # profile, ln u = +8e193).  At (3, 2, 1) the series is exact and no
        # pass runs: the profile is exp(1 - r)/r to rounding
        shot = radial_exterior_eigen(3, 2.0, 1.0, 1.0, r_max)
        prof = shot.profile
        assert shot.nfev == 0
        exact = 1.0 - prof.r - np.log(prof.r)
        assert np.all(np.abs(prof.log_u - exact)
                      <= 4 * math.ulp(1.0) * np.maximum(1.0, np.abs(exact)))
        assert np.array_equal(prof.ratio, -1.0 - 1.0 / prof.r)

    @pytest.mark.parametrize("n, lam, r_max", [(4, 1.0, 1e8), (2, 1.0, 1e8),
                                               (6, 2.0, 1e7)])
    def test_pass_to_the_reach_takes_a_wide_span(self, n, lam, r_max):
        # the pass runs from the series' reach (17-24), so p*alpha*r_max far
        # past 2e5 is accepted: against the p = 2 Bessel branch (at
        # sqrt(lam) r) ln u is within 2.3e-14 relative and sigma within
        # 3.1e-14, with 474-560 RHS evaluations
        shot = radial_exterior_eigen(n, 2.0, lam, 1.0, r_max)
        prof = shot.profile
        assert prof.meta["series_radius"] < 25.0 and shot.nfev < 600
        a = math.sqrt(lam)
        sigma, log_u = bessel_branch(n, a * prof.r)
        assert np.all(np.abs(prof.log_u - log_u)
                      <= 5e-14 * np.maximum(1.0, np.abs(log_u)))
        assert np.all(np.abs(prof.ratio - a * sigma) <= 5e-14 * a * -sigma)

    def test_series_log_u_leaving_double_range_raises_overflow(self):
        # with no span rule on r_max, ln u = 1 - alpha r - ln r reaches
        # -2e308 at alpha = 2, r_max = 1e308: named, not a NaN profile
        with pytest.raises(OverflowError, match="leaves the double range "
                                                "before r_max = 1e"):
            radial_exterior_eigen(3, 2.0, 4.0, 1.0, 1e308)
        prof = radial_exterior_eigen(3, 2.0, 1.0, 1.0, 1e308).profile
        assert prof.log_u[-1] == -1e308

    def test_span_past_limit_raises_domain_error(self):
        # n = 1e5 puts the reach at 2.57e5: beyond r_max = 2e5, so the
        # quadrature spans the whole profile, and inside r_max = 1e6, where
        # it stops at the first profile radius past the reach.  Both spans
        # reach past p*alpha*r = 2e5
        for r_max, got in ((2e5, "400000 at its outer profile radius 200000"),
                           (1e6, "519156 at its outer profile radius 259578")):
            with pytest.raises(DomainError, match=r"p\*alpha\*r must be at "
                               r"most 200000 over the inward pass, got " + got):
                radial_exterior_eigen(1e5, 2.0, 1.0, 1.0, r_max)


class TestFarFieldSeries:
    @pytest.mark.parametrize("n,p,lam", [(3, 2.0, 1.0), (3, 1.5, 0.5),
                                         (5, 2.9, 2.0), (6, 2.2, 0.7),
                                         (5, 4.5, 3.0), (2, 1.2, 0.4)])
    def test_first_coefficients_match_closed_forms(self, n, p, lam):
        # a_1 to a_3 by hand from s^2 sigma' = sigma^2 + c s sigma
        # - alpha^2 (1 - tau/alpha)^(2-p), tau = sigma + alpha
        alpha = eigen_rate_alpha(lam, p)
        c = (n - 1.0) / (p - 1.0)
        a = far_field_series(n, p, lam)
        assert a.shape == (SERIES_ORDER + 1,)
        assert a[0] == -alpha
        assert a[1] == pytest.approx(-decay_power(n, p), rel=1e-15)
        assert a[2] == pytest.approx(
            c * (2.0 - (p - 1.0) * c) / (2.0 * alpha * p ** 2),
            rel=1e-14, abs=1e-15 * c * c / alpha)
        assert a[3] == pytest.approx(
            -c * ((p - 1.0) * (p - 2.0) * c * c - 3.0 * (2.0 * p - 3.0) * c
                  + 6.0) / (3.0 * alpha ** 2 * p ** 3), rel=1e-14)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
    def test_p2_n3_series_ends_at_first_order(self, lam):
        # u = exp(-sqrt(lam) r)/r, so sigma = -sqrt(lam) - s exactly
        a = far_field_series(3, 2.0, lam)
        assert a[:2].tolist() == [-math.sqrt(lam), -1.0]
        assert not a[2:].any()

    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
    def test_p2_n5_matches_closed_form(self, lam):
        # u ~ exp(-alpha r) (1 + 1/(alpha r)) / r^2, alpha = sqrt(lam), so
        # sigma = -alpha - 2 s - s^2/(alpha + s) and, for j >= 2,
        # a_j = -(-1)^j / alpha^(j-1).  The recurrence's sums are about j/2
        # times a_j here and cancel, so the coefficients lose digits with
        # the order: measured 7e-14 relative at a_10 and 1.7e-5 at a_20
        # (exact at lam = 1).  The sum beyond the reach, where each term
        # that carries those errors is below eps*alpha/4, keeps the closed
        # form to 2.2e-16 relative
        alpha = math.sqrt(lam)
        a = far_field_series(5, 2.0, lam)
        j = np.arange(2, a.size)
        exact = -(-1.0) ** j / alpha ** (j - 1)
        assert a[0] == -alpha and a[1] == -2.0
        assert np.max(np.abs(a[2:12] / exact[:10] - 1.0)) <= 1e-12
        assert np.max(np.abs(a[2:] / exact - 1.0)) <= 1e-4
        s = 1.0 / np.geomspace(1.0, 100.0, 200) / radial_ode._series_reach(a)
        sigma = -alpha - 2.0 * s - s * s / (alpha + s)
        assert np.max(np.abs(np.polyval(a[::-1], s) / sigma - 1.0)) <= 1e-15

    @given(n=st.integers(2, 8), p=st.floats(1.2, 4.0), lam=st.floats(0.3, 3.0))
    @example(n=3, p=2.0, lam=1.0)  # exact series: orders 3..K have no terms
    @settings(max_examples=20, deadline=None)
    def test_truncated_series_satisfies_flow(self, n, p, lam):
        # The flow of _ratio_rhs_s times s^2, evaluated on the truncated
        # series at 40 digits: its Taylor coefficients of orders 0..K vanish
        # up to the rounding of the float coefficients, relative to the size
        # of the products that make up each order.  Measured: at most about
        # 5e-16; order K + 1 is of order one, the series' own remainder
        a = far_field_series(n, p, lam)
        K = a.size - 1
        assert K == SERIES_ORDER
        with mpmath.workdps(40):
            coef = [mpmath.mpf(float(x)) for x in a]
            k = mpmath.mpf(lam) / (mpmath.mpf(p) - 1)
            c = (mpmath.mpf(n) - 1) / (mpmath.mpf(p) - 1)

            def residual(s):
                sig = mpmath.polyval(coef[::-1], s)
                dsig = mpmath.polyval([j * coef[j] for j in range(K, 0, -1)],
                                      s)
                return (s * s * dsig - sig * (sig + c * s)
                        + k * abs(sig) ** (2 - mpmath.mpf(p)))

            taylor = mpmath.taylor(residual, 0, K)
        size = [sum(abs(a[i] * a[j - i]) for i in range(j + 1))
                + (float(c) + j) * abs(a[j - 1] if j else 0.0)
                for j in range(K + 1)]
        # an order with no terms (size 0) must vanish exactly
        assert all(float(abs(t)) <= 1e-13 * m for t, m in zip(taylor, size))

    def test_stops_before_first_non_finite_coefficient(self):
        # p near 1 and n large: c1 = (n-1)/(p-1) is 1e21, and a_j grows
        # about like c1^j / alpha^(j-1) (alpha = 993), past the largest
        # double at j = 18; the shot then runs its pass over the whole span
        a = far_field_series(1e18, 1.001, 1.0)
        assert a.size == 18
        assert np.all(np.isfinite(a))
        assert not math.isfinite(radial_ode._series_reach(a))

    def test_rejects_non_finite_n(self):
        with pytest.raises(DomainError, match="n must be finite"):
            far_field_series(math.inf, 2.0, 1.0)


class TestHardyPowerResidual:
    def test_root_residual_vanishes(self):
        n, p, a, mu = 5, 2.5, 0.3, 0.3
        from plap.indicial import indicial_roots
        data = indicial_roots(ProblemParams(n=n, p=p, a=a, mu=mu))
        r = np.geomspace(1e-2, 1e2, 9)
        assert hardy_power_residual(n, p, a, mu, data.gamma1, r) <= 1e-12
        assert hardy_power_residual(n, p, a, mu, data.gamma2, r) <= 1e-12

    def test_perturbed_root_matches_index_gap(self):
        n, p, a, mu = 5, 2.5, 0.3, 0.3
        from plap.indicial import indicial_roots
        g = indicial_roots(ProblemParams(n=n, p=p, a=a, mu=mu)).gamma1 + 0.1
        r = np.geomspace(1e-2, 1e2, 9)
        resid = hardy_power_residual(n, p, a, mu, g, r)
        assert resid == pytest.approx(abs(auxiliary_f(g, n, p, a) - mu), rel=1e-10)
        assert resid >= 1e-3

    def test_rejects_empty_samples(self):
        # not numpy's zero-size reduction error
        with pytest.raises(DomainError, match="r_samples is empty"):
            hardy_power_residual(5, 2.5, 0.3, 0.3, 1.0, [])

    def test_constant_solution(self):
        r = np.geomspace(0.1, 10, 7)
        assert hardy_power_residual(3, 2.0, 0.0, 0.0, 0.0, r) == 0.0

    def test_scale_invariance(self):
        # normalized residual of the power family is independent of rescaling
        n, p, a, mu, g = 4, 1.8, -0.5, 0.7, None
        from plap.indicial import indicial_roots
        g = indicial_roots(ProblemParams(n=n, p=p, a=a, mu=mu)).gamma2
        r = np.geomspace(0.5, 50, 11)
        r1 = hardy_power_residual(n, p, a, mu, g, r)
        r2 = hardy_power_residual(n, p, a, mu, g, 7.3 * r)
        assert r1 == pytest.approx(r2, rel=1e-6, abs=1e-14)

    @staticmethod
    def _one_instance(n, p, a, mu, gamma, r):
        """The residual of one instance, written out with a scalar exponent
        in every np.power call."""
        pm1 = p - 1.0
        flux_coef = 0.0 if gamma == 0.0 else -abs(gamma) ** (p - 2.0) * gamma
        e_flux = n - 1.0 - a * p - (gamma + 1.0) * pm1
        lhs = -flux_coef * e_flux * np.power(r, e_flux - 1.0)
        e_rhs = n - 1.0 - (a + 1.0) * p - gamma * pm1
        norm = np.power(r, e_rhs)
        return float(np.max(np.abs((lhs - mu * norm) / norm)))

    def test_vector_call_matches_scalar_calls_bitwise(self):
        from plap.cli import _sample_root_instance
        rng = np.random.default_rng(2024)
        inst = [(3, 2.0, 0.0, 0.0, 0.0), (4, 1.8, -0.5, 0.7, -0.25)]
        for _ in range(1000):
            n, p, a, mu, data = _sample_root_instance(rng)
            inst += [(n, p, a, mu, data.gamma1), (n, p, a, mu, data.gamma2)]
        inst += [(n, p, a, mu, g + 0.1) for n, p, a, mu, g in inst]
        assert len(inst) >= 4000
        assert any(g < 0.0 for *_, g in inst) and any(g > 0.0 for *_, g in inst)
        r = np.geomspace(1e-2, 1e2, 9)
        cols = [np.array(c) for c in zip(*inst)]
        vec = hardy_power_residual(*cols, r)
        assert vec.shape == (len(inst),)
        scalar = [hardy_power_residual(*i, r) for i in inst]
        reference = [self._one_instance(*i, r) for i in inst]
        assert vec.tolist() == scalar == reference
        assert vec[0] == 0.0

    def test_scalars_broadcast_against_sequences(self):
        r = np.geomspace(1e-2, 1e2, 9)
        gammas = [-1.5, 0.0, 0.4]
        out = hardy_power_residual(5, 2.5, 0.3, 0.3, gammas, r)
        assert out.tolist() == [hardy_power_residual(5, 2.5, 0.3, 0.3, g, r)
                                for g in gammas]

    def test_scalar_call_returns_float(self):
        r = np.geomspace(1e-2, 1e2, 9)
        out = hardy_power_residual(np.int64(5), 2.5, 0.3, np.float64(0.3),
                                   0.4, r)
        assert type(out) is float

    def test_mismatched_lengths_raise(self):
        r = np.geomspace(1e-2, 1e2, 9)
        with pytest.raises(DomainError, match=r"lengths \[2, 3\]"):
            hardy_power_residual([3, 4], 2.0, 0.0, 0.0, [0.1, 0.2, 0.3], r)

    @pytest.mark.parametrize("gamma", [0.4, [0.4, 0.5]])
    def test_nonpositive_radius_raises(self, gamma):
        with pytest.raises(DomainError, match="must be positive"):
            hardy_power_residual(3, 2.0, 0.0, 0.0, gamma, [1.0, 0.0])


def flux_shot(params, r_in, r_out, grid_points=600):
    """(r, ln u, u'/u) of the singular shot integrated as (u, m) in ln r.

    The earlier form of shoot_singular_profile, m = r^(n-1)|u'|^(p-2)u'
    with DOP853 at rtol 1e-10, atol 1e-12, kept as an independent
    reference for shots that do not overflow (its barriers at u = 1e150
    and 1e-150 are left out).
    """
    n, p, mu, lam = params.n, params.p, params.mu, params.lam
    pm1 = p - 1.0
    g1 = indicial_roots(params).gamma1

    def rhs(t, y):
        u, m = y
        r = math.exp(t)
        du_dt = math.copysign(abs(m) ** (1.0 / pm1), m) * r ** (1.0 - (n - 1.0) / pm1)
        return [du_dt, r ** n * (lam - mu * r ** (-p)) * u ** pm1]

    t_in, t_out = math.log(r_in), math.log(r_out)
    u_in = r_in ** (-g1)
    m_in = -(g1 ** pm1) * r_in ** (n - 1.0 - (g1 + 1.0) * pm1) if g1 > 0.0 else 0.0
    sol = solve_ivp(rhs, (t_in, t_out), [u_in, m_in], method="DOP853",
                    rtol=1e-10, atol=1e-12,
                    t_eval=np.linspace(t_in, t_out, grid_points))
    assert sol.success
    u, m = sol.y
    r = np.exp(sol.t)
    du = np.sign(m) * np.abs(m) ** (1.0 / pm1) * r ** (-(n - 1.0) / pm1)
    return r, np.log(u), du / u


SUITE_SHOTS = [ProblemParams(n=3, p=2.0, mu=0.1875, lam=1.0),
               ProblemParams(n=3, p=1.5, mu=0.01, lam=0.5)]


@st.composite
def singular_shots(draw):
    """(n, p, mu, lam) of a singular shot: mu in [0, mu_bar), lam >= 0.

    At lam = 0, mu/mu_bar is 0 or at least 1e-12: below about 1e-20, w
    stays within rounding of 0 along the whole shot, where its Hoelder
    term |w|^(1/(p-1)) costs LSODA about 2e5 steps (3 s) at 2 < p < 3, and
    near the underflow threshold the pass turns NaN (see
    test_vanishing_mu_at_lam_zero).
    """
    n = draw(st.integers(2, 8))
    p = draw(st.floats(1.05, min(n - 0.05, 6.0)))
    lam = draw(st.one_of(st.just(0.0), st.floats(1e-3, 30.0)))
    low = 1e-12 if lam == 0.0 else 0.0
    mu_frac = draw(st.one_of(st.just(0.0), st.floats(low, 0.98)))
    return n, p, mu_frac * ((n - p) / p) ** p, lam


class TestShootSingularProfile:
    def test_constant_solution_exact(self):
        params = ProblemParams(n=3, p=2.0, mu=0.0, lam=0.0)
        res = shoot_singular_profile(params, 0.01, 1.0)
        assert res.classification is ShootClass.DECAYING
        assert res.profile.meta["r_turn"] is None
        assert np.max(np.abs(res.profile.u - 1.0)) == 0.0

    def test_pure_power_propagates(self):
        # gamma(1 - gamma) = 0.1875 has roots 1/4 and 3/4
        params = ProblemParams(n=3, p=2.0, mu=0.1875, lam=0.0)
        res = shoot_singular_profile(params, 1e-3, 1e-1)
        drift = np.abs(res.profile.u * res.profile.r ** 0.25 - 1.0)
        assert np.max(drift) <= 1e-7

    def test_turning_shot_stays_positive(self):
        # u' turns positive inside the span: the reference's ratio changes
        # sign between two grid radii near 0.81, and the turn lies there
        params = SUITE_SHOTS[0]
        r_in = series_start_radius(params)
        res = shoot_singular_profile(params, r_in, 1.0)
        assert res.classification is ShootClass.TURNS_UP
        # the shot starts on the power solution, r sigma = -gamma1 = -1/4
        assert res.profile.r[0] * res.profile.ratio[0] == pytest.approx(
            -0.25, rel=1e-14)
        assert np.all(res.profile.u > 0)
        r, _, ratio = flux_shot(params, r_in, 1.0)
        up = np.argmax(ratio > 0.0)
        assert r[up - 1] < res.profile.meta["r_turn"] < r[up]

    @pytest.mark.parametrize("params,r_in,r_out,log_tol,rs_tol", [
        # the suite's shots: measured gaps 8.8e-9 (ln u), 5.9e-10 (r sigma)
        (SUITE_SHOTS[0], None, 1.2, 3e-8, 2e-9),
        (SUITE_SHOTS[1], None, 1.2, 3e-8, 2e-9),
        # long shots that turn up: measured gaps 7.4e-9 and 3.8e-9 (p = 2),
        # 2.6e-8 and 1.8e-8 (p = 1.5), 8.4e-9 and 1.1e-9 (p = 3)
        (ProblemParams(n=3, p=2.0, mu=0.1, lam=1.0), 1e-3, 30.0, 3e-8, 2.5e-8),
        (ProblemParams(n=3, p=1.5, mu=0.05, lam=1.0), 1e-3, 30.0, 4e-8, 1e-7),
        (ProblemParams(n=4, p=3.0, mu=0.02, lam=1.0), 1e-3, 30.0, 3e-8, 5e-9),
        # the same p = 3 shot at lam = 0 decays: measured gaps 4.8e-9, 1.5e-9
        (ProblemParams(n=4, p=3.0, mu=0.02, lam=0.0), 1e-3, 30.0, 3e-8, 5e-9),
    ])
    def test_matches_flux_form_reference(self, params, r_in, r_out, log_tol,
                                         rs_tol):
        r_in = r_in or series_start_radius(params)
        prof = shoot_singular_profile(params, r_in, r_out).profile
        r, log_u, ratio = flux_shot(params, r_in, r_out)
        assert np.array_equal(prof.r, r)
        assert np.max(np.abs(prof.log_u - log_u)) <= log_tol
        assert np.max(np.abs(r * (prof.ratio - ratio))) <= rs_tol

    @given(shot=singular_shots())
    @example(shot=(4, 3.0, 0.02, 1.0))  # p = 3, turns up near 0.48
    # turns in LSODA's first step from w_in of about -6e-39
    @example(shot=(2, 1.5, 1e-40, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_power_solution_bounds_every_shot(self, shot):
        # w' in r is lam - mu r^-p - (n-1) w/r - (p-1)|w|^(p/(p-1)), at
        # least its lam = 0 value, which w0 = -(gamma1/r)^(p-1) solves from
        # the shot's start; so w >= w0, r sigma >= -gamma1, u never reaches
        # 0 and every pass runs to r_out.
        # Tolerance: LSODA holds each step's local error in w to
        # rtol |w| + atol (rtol = 1e-10, atol = 1e-12), and a shot takes at
        # most nfev steps.  About w0 the error does not grow: the
        # linearized w' is (p gamma1 - (n-1)) w/r with p gamma1 <= n - p.
        # So w >= w0 - delta, delta = nfev (rtol |w0| + atol), and
        # sigma = -|w|^(1/(p-1)) gives
        #     r sigma >= -r (|w0| + delta)^(1/(p-1))
        #              ~ -gamma1 (1 + delta / ((p-1) |w0|)),
        # the rounding of w amplified by 1/(p-1).  Over 400 random shots
        # the largest share of this slack used was 3.2%.
        n, p, mu, lam = shot
        params = ProblemParams(n=n, p=p, mu=mu, lam=lam)
        g1 = indicial_roots(params).gamma1
        res = shoot_singular_profile(params, 1e-3, 30.0)
        assert res.classification in (ShootClass.TURNS_UP,
                                      ShootClass.DECAYING)
        prof = res.profile
        assert prof.r[-1] == pytest.approx(30.0, rel=1e-14)
        w0 = (g1 / prof.r) ** (p - 1.0)
        delta = res.nfev * (1e-10 * w0 + 1e-12)
        assert np.all(prof.r * prof.ratio
                      >= -prof.r * (w0 + delta) ** (1.0 / (p - 1.0)))

    @pytest.mark.xfail(raises=StepFailure, strict=True,
                       reason="LSODA's pass turns NaN where w is near the "
                              "underflow threshold")
    def test_vanishing_mu_at_lam_zero(self):
        # gamma1 = (mu/D)^2 of about 1e-600 underflows to 0, so the shot
        # takes the regular start w = 0, and mu r^-p drives w to about
        # -1e-300; the exact solution is the power r^(-gamma1), u = 1
        params = ProblemParams(n=3, p=1.5, mu=1e-300 * 0.5 ** 1.5)
        res = shoot_singular_profile(params, 1e-3, 30.0)
        assert res.classification is ShootClass.DECAYING
        assert np.max(np.abs(res.profile.log_u)) <= 1e-12

    def test_regular_start_at_mu_zero(self):
        # mu = 0 gives gamma1 = 0, and w starts from lam r_in / n > 0, so
        # the shot rises from r_in
        params = ProblemParams(n=3, p=2.0, mu=0.0, lam=1.0)
        rising = shoot_singular_profile(params, 1e-3, 5.0)
        assert rising.classification is ShootClass.TURNS_UP
        assert rising.profile.meta["r_turn"] == 1e-3
        assert rising.profile.ratio[0] > 0.0

    @given(n=st.integers(2, 5), p_frac=st.floats(0.0, 1.0),
           mu_frac=st.floats(0.05, 0.9), lam=st.floats(0.5, 2.0),
           log_k=st.floats(-1.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_lambda_scaling(self, n, p_frac, mu_frac, lam, log_k):
        # u_k(r) = k^gamma1 u(kr) solves the problem with lam k^p from
        # r^(-gamma1) at r_in/k, so ln u_k(r) = ln u(kr) + gamma1 ln k,
        # ratio_k(r) = k ratio(kr) and the turn radius scales by 1/k.  The
        # ratio is compared through W = |r sigma|^(p-2) r sigma, the
        # dimensionless form of the flux w that the integrator carries: at
        # p > 2 the map W -> r sigma is only Hoelder at a turn.
        # Tolerance: LSODA holds each step's local error to rtol = 1e-10 of
        # the state, and a shot here takes at most a few thousand steps, so
        # with at most linear error growth each shot is within 5e3 rtol and
        # the pair within 1e4 rtol = 1e-6, relative to max(1, |value|).
        # Over 800 random draws the largest gaps were 3.0e-9 (ln u),
        # 4.4e-10 (W) and 9.4e-11 (turn radius).
        p = 1.3 + p_frac * (min(n - 0.3, 3.0) - 1.3)
        mu = mu_frac * ((n - p) / p) ** p
        k = math.exp(log_k)
        params = ProblemParams(n=n, p=p, mu=mu, lam=lam)
        scaled = ProblemParams(n=n, p=p, mu=mu, lam=lam * k ** p)
        g1 = indicial_roots(params).gamma1
        a = shoot_singular_profile(params, 1e-3, 5.0)
        b = shoot_singular_profile(scaled, 1e-3 / k, 5.0 / k)
        assert a.classification is b.classification
        pa, pb = a.profile, b.profile

        def gap(x, y):
            return np.max(np.abs(x - y) / np.maximum(1.0, np.abs(x)))

        def flux(prof):
            rs = prof.r * prof.ratio
            return np.sign(rs) * np.abs(rs) ** (p - 1.0)

        assert np.allclose(pb.r * k, pa.r, rtol=1e-13, atol=0.0)
        assert gap(pa.log_u, pb.log_u - g1 * log_k) <= 1e-6
        assert gap(flux(pa), flux(pb)) <= 1e-6
        if a.classification is ShootClass.TURNS_UP:
            r_turn = a.profile.meta["r_turn"]
            assert abs(k * b.profile.meta["r_turn"] - r_turn) <= 1e-6 * r_turn

    @pytest.mark.parametrize("r_in, r_out", [(0.0, 1.0), (-1.0, 1.0),
                                             (1e-3, math.inf),
                                             (math.nan, 1.0)])
    def test_rejects_radii_outside_the_half_line(self, r_in, r_out):
        # not the bare "math domain error" of log(r_in) or the overflow of
        # exp(t) on the way to r_out = inf
        params = ProblemParams(n=3, p=2.0, mu=0.1, lam=1.0)
        with pytest.raises(DomainError, match="0 < r_in < r_out < inf"):
            shoot_singular_profile(params, r_in, r_out)

    def test_rejects_reversed_span(self):
        params = ProblemParams(n=3, p=2.0, mu=0.1, lam=0.0)
        with pytest.raises(DomainError):
            shoot_singular_profile(params, 1.0, 1.0)
        with pytest.raises(DomainError):
            shoot_singular_profile(params, 2.0, 1.0)

    @pytest.mark.parametrize("params, message", [
        (ProblemParams(n=3, p=2.0, a=0.5, mu=0.01), "unweighted case a = 0"),
        # mu_bar = 0.25 here
        (ProblemParams(n=3, p=2.0, mu=-0.5), r"mu must lie in \[0, mu_bar\)"),
        (ProblemParams(n=3, p=2.0, mu=0.25), r"mu must lie in \[0, mu_bar\)"),
    ])
    def test_rejects_params_outside_the_singular_problem(self, params,
                                                         message):
        with pytest.raises(DomainError, match=message):
            shoot_singular_profile(params, 1e-3, 1.0)

    @pytest.mark.parametrize("params, message", [
        (ProblemParams(n=3, p=2.0, mu=0.0, lam=1.0), "needs mu > 0"),
        (ProblemParams(n=3, p=2.0, mu=-0.5, lam=1.0), "needs mu > 0"),
        # lam = 0 leaves no term that perturbs the leading power
        (ProblemParams(n=3, p=2.0, mu=0.1), "no perturbation terms active"),
    ])
    def test_series_start_radius_preconditions(self, params, message):
        with pytest.raises(DomainError, match=message):
            series_start_radius(params)

    def test_failed_pass_raises_step_failure(self, monkeypatch):
        def failed(*args, **kwargs):
            return SimpleNamespace(status=-1, message="Required step size "
                                   "is less than spacing between numbers.")

        monkeypatch.setattr(radial_ode, "solve_ivp", failed)
        with pytest.raises(StepFailure, match="Required step size"):
            shoot_singular_profile(ProblemParams(n=3, p=2.0, mu=0.1, lam=1.0),
                                   1e-3, 1.0)

    @pytest.mark.parametrize("grid_points", [1, 0, -5, 2.5, 800.0, "800"])
    def test_grid_points_must_be_integer_of_at_least_two(self, grid_points):
        # 1 gave a one-point profile at r_in, 0 and below numpy's
        # ValueError, and 2.5 a TypeError
        with pytest.raises(DomainError,
                           match="grid_points must be an integer >= 2"):
            shoot_singular_profile(ProblemParams(n=3, p=2.0, mu=0.1, lam=1.0),
                                   1e-3, 1.0, grid_points=grid_points)

    def test_grid_points_above_cap_raise_before_allocating(self,
                                                           monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("the profile grid was allocated")

        monkeypatch.setattr(radial_ode.np, "linspace", no_grid)
        with pytest.raises(DomainError, match="exceeds the cap of 4194304 "
                                              "profile points"):
            shoot_singular_profile(ProblemParams(n=3, p=2.0, mu=0.1, lam=1.0),
                                   1e-3, 1.0,
                                   grid_points=radial_ode.MAX_PROFILE_POINTS
                                   + 1)

    def test_two_grid_points_span_r_in_to_r_out(self):
        prof = shoot_singular_profile(ProblemParams(n=3, p=2.0, mu=0.0),
                                      0.01, 1.0,
                                      grid_points=np.int64(2)).profile
        assert prof.r.tolist() == pytest.approx([0.01, 1.0], rel=1e-15)


class TestDecayPower:
    def test_campaign_targets(self):
        # the literals steps 06 and 07 used, double for double
        assert decay_power(3, 2.0) == 1.0
        assert decay_power(2, 2.0) == 0.5
        assert decay_power(3, 1.5) == 2.0 / (1.5 * 0.5) == 2.6666666666666665

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_p2_bessel_power(self, n):
        # r^-nu K_nu(r), nu = (n-2)/2, decays as r^-(nu + 1/2)
        assert decay_power(n, 2.0) == (n - 2) / 2 + 0.5


class TestFitDecayExponents:
    def test_exact_recovery_any_scale(self):
        alpha, beta = 0.7, 1.5
        for c in (1.0, 3.7e4, 2.2e-6):
            r = np.geomspace(1.0, 40.0, 800)
            u = c * r ** -beta * np.exp(-alpha * r)
            prof = RadialProfile(r=r, log_u=np.log(u),
                                 ratio=np.gradient(u, r) / u, meta={})
            fit = fit_decay_exponents(prof)
            assert abs(fit.rate - alpha) <= 1e-10
            assert abs(fit.power - beta) <= 1e-10
            assert abs(fit.log_scale - math.log(c)) <= 1e-9
            assert fit.rms <= 1e-10

    def test_pure_power(self):
        r = np.geomspace(1.0, 30.0, 400)
        u, du = r ** -2.0, -2 * r ** -3.0
        prof = RadialProfile(r=r, log_u=np.log(u), ratio=du / u, meta={})
        fit = fit_decay_exponents(prof, alpha=123.0)  # alpha plays no role
        assert abs(fit.rate) <= 1e-12
        assert abs(fit.power - 2.0) <= 1e-11

    def test_shoot_output(self):
        shot = radial_exterior_eigen(3, 2.0, 1.0, 1.0, 40.0)
        fit = fit_decay_exponents(shot.profile, 1.0)
        assert abs(fit.rate - 1.0) <= 1e-3
        assert abs(fit.power - 1.0) <= 5e-2

    def test_window_too_small(self):
        r = np.geomspace(1.0, 30.0, 400)
        u, du = r ** -1.0, -r ** -2.0
        prof = RadialProfile(r=r, log_u=np.log(u), ratio=du / u, meta={})
        with pytest.raises(IllConditioned):
            fit_decay_exponents(prof, window=(29.9, 30.0))


class TestRadialProfile:
    def test_validation(self):
        r = np.array([1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            RadialProfile(r=r[::-1].copy(), log_u=r, ratio=r, meta={})
        with pytest.raises(DomainError, match="log_u must be finite"):
            RadialProfile(r=r, log_u=np.array([0.0, -np.inf, 1.0]), ratio=r,
                          meta={})
        with pytest.raises(DomainError):
            RadialProfile(r=np.array([0.0, 1.0, 2.0]), log_u=r, ratio=r,
                          meta={})

    def test_rejects_non_finite_ratio(self):
        r = np.array([1.0, 2.0, 3.0])
        with pytest.raises(DomainError, match="ratio must be finite"):
            RadialProfile(r=r, log_u=r, ratio=np.array([1.0, np.nan, 1.0]),
                          meta={})

    def test_rejects_unequal_lengths(self):
        r = np.array([1.0, 2.0, 3.0])
        for log_u, ratio in ((r[:2], r), (r, r[:2])):
            with pytest.raises(DomainError, match="equal length"):
                RadialProfile(r=r, log_u=log_u, ratio=ratio, meta={})

    def test_ratio_is_log_derivative_of_shots(self):
        # d(log_u)/d(ln r) of a cubic spline through log_u against r * ratio,
        # on exterior shots and on singular shots at p <= 2, where
        # u' = sign(m)|m|^(1/(p-1)) stays smooth through a zero of the flux m
        profiles = [radial_exterior_eigen(n, p, lam, 1.0, 40.0).profile
                    for n, p, lam in [(3, 2.0, 1.0), (3, 1.5, 0.5),
                                      (5, 2.9, 0.5)]]
        for params in SUITE_SHOTS:
            profiles.append(shoot_singular_profile(
                params, series_start_radius(params), 1.2).profile)
        for prof in profiles:
            t = np.log(prof.r)
            slope = CubicSpline(t, prof.log_u).derivative()(t)
            assert np.max(np.abs(slope - prof.r * prof.ratio)) <= 1e-5

    def test_log_backed_profile_tolerates_underflow(self):
        r = np.array([1.0, 500.0, 1000.0])
        prof = RadialProfile(r=r, log_u=-r, ratio=-np.ones_like(r), meta={})
        assert prof.u[-1] == 0.0  # underflowed but log data intact
        assert prof.du[-1] == 0.0
        assert prof.log_u[-1] == -1000.0

    def test_csv_roundtrip(self, tmp_path):
        # plap shoot's profile artifact reads back as the shot, bit for bit
        cli.run_shoot({"params": {"n": 3, "p": 2.0, "lam": 1.0},
                       "grid_points": 50}, tmp_path)
        prof = radial_exterior_eigen(3, 2.0, 1.0, 1.0, 40.0,
                                     grid_points=50).profile
        lines = (tmp_path / "exterior_profile.csv").read_text().splitlines()
        assert lines[0].startswith("#")
        assert '"shoot_param": ' in lines[0]
        assert lines[1] == "r,u,du"
        data = np.loadtxt(lines[2:], delimiter=",")
        assert np.array_equal(data[:, 0], prof.r)
        assert np.array_equal(data[:, 1], prof.u)
        assert np.array_equal(data[:, 2], prof.du)
