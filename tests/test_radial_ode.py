import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.special import kve

from plap import radial_ode
from plap.errors import DomainError, IllConditioned, SingularRatio, StepFailure
from plap.indicial import (Nonlinearity, ProblemParams, auxiliary_f,
                           eigen_rate_alpha)
from plap.radial_ode import (RadialProfile, ShootClass, eigen_profile_1d,
                             fit_decay_exponents, gradient_ratio_curve,
                             hardy_power_residual, radial_exterior_eigen,
                             riccati_ratio_flow, series_start_radius,
                             shoot_singular_profile, write_profile_csv)
from plap.radial_ode import _classify_ratio, _ratio_rhs


def monotone_profile_t(profile):
    return profile.r - profile.meta["t_shift"]


class TestEigenProfile1D:
    def test_p2_exponential(self):
        prof = eigen_profile_1d(1.0, 2.0, 1.0, 1.0, (0, 10), steps=40000)
        t = monotone_profile_t(prof)
        assert np.max(np.abs(prof.u - np.exp(t))) <= 1e-8

    def test_p3_exponential(self):
        # (p-1) alpha^p = lam with alpha = 1: e^t solves the p=3 flow
        prof = eigen_profile_1d(2.0, 3.0, 1.0, 1.0, (0, 10), steps=40000)
        t = monotone_profile_t(prof)
        assert np.max(np.abs(prof.u - np.exp(t))) <= 1e-8

    def test_flat_start_gives_cosh(self):
        prof = eigen_profile_1d(1.0, 2.0, 1.0, 0.0, (0, 10), steps=40000)
        t = monotone_profile_t(prof)
        assert np.max(np.abs(prof.u - np.cosh(t))) <= 1e-8

    def test_fourth_order_step_halving(self):
        errs = []
        for steps in (1000, 2000):
            prof = eigen_profile_1d(1.0, 2.0, 1.0, 1.0, (0, 5), steps=steps)
            t = monotone_profile_t(prof)
            errs.append(np.max(np.abs(prof.u - np.exp(t))))
        assert errs[0] / errs[1] >= 2 ** 4 / 2

    def test_derivative_consistent_with_samples(self):
        prof = eigen_profile_1d(1.0, 2.0, 1.0, 0.0, (0, 5), steps=2000)
        centered = (prof.u[2:] - prof.u[:-2]) / (prof.r[2:] - prof.r[:-2])
        scale = np.abs(prof.du[1:-1]) + 1.0
        assert np.max(np.abs(centered - prof.du[1:-1]) / scale) <= 1e-5

    def test_preconditions(self):
        with pytest.raises(DomainError):
            eigen_profile_1d(1.0, 2.0, -1.0, 1.0, (0, 1))
        with pytest.raises(DomainError):
            eigen_profile_1d(1.0, 2.0, 1.0, -0.5, (0, 1))
        with pytest.raises(DomainError):
            eigen_profile_1d(1.0, 2.0, 1.0, 1.0, (1, 1))

    def test_overflow_raises_step_failure(self):
        from plap.errors import StepFailure
        with pytest.raises(StepFailure):
            eigen_profile_1d(1.0, 2.0, 1.0, 1.0, (0, 2000), steps=4000)


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

    def test_vector_call_matches_scalar_calls(self):
        # the (p, lam, s0) grid of acceptance criterion 08 in one call
        p = np.array([1.5, 2.0, 3.0])[:, None, None]
        lam = np.array([0.5, 1.0, 2.0])[:, None]
        alpha = (lam / (p - 1.0)) ** (1.0 / p)
        s0 = alpha * [0.25, 4.0]
        t, s = riccati_ratio_flow(lam, p, s0, (0, 50), samples=301)
        assert t.shape == (301,)
        assert s.shape == (3, 3, 2, 301)
        lam_b, p_b, s0_b = np.broadcast_arrays(lam, p, s0)
        for idx in np.ndindex(s0_b.shape):
            t_one, s_one = riccati_ratio_flow(float(lam_b[idx]), float(p_b[idx]),
                                              float(s0_b[idx]), (0, 50),
                                              samples=301)
            assert s_one.shape == t.shape
            assert np.array_equal(t_one, t)
            # the shared step size moves transients at integrator error level
            assert np.max(np.abs(s[idx] - s_one)) <= 1e-8

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
        # for p = 2 the decaying solution is u ~ r^-nu K_nu(r), nu = (n-2)/2,
        # so u'/u = -K_(nu+1)/K_nu; kve = K e^r keeps the logs finite
        shot = radial_exterior_eigen(n, 2.0, 1.0, 1.0, 40.0)
        prof = shot.profile
        r, nu = prof.r, (n - 2) / 2
        ratio = -kve(nu + 1, r) / kve(nu, r)
        log_u = -nu * np.log(r) + np.log(kve(nu, r)) - r
        log_u -= log_u[0]
        assert np.max(np.abs(prof.ratio - ratio)) <= 1e-9
        assert np.max(np.abs(prof.log_u - log_u)) <= 1e-9

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_p2_far_field_matches_bessel_oracle(self, n):
        # the far-field workload's span: ln u falls to about -2e4, so the
        # log error is relative to |log_u|
        shot = radial_exterior_eigen(n, 2.0, 1.0, 1.0, 20010.0)
        prof = shot.profile
        r, nu = prof.r, (n - 2) / 2
        ratio = -kve(nu + 1, r) / kve(nu, r)
        log_u = -nu * np.log(r) + np.log(kve(nu, r)) - r
        log_u -= log_u[0]
        assert np.max(np.abs(prof.ratio - ratio)) <= 1e-9
        assert np.all(np.abs(prof.log_u - log_u)
                      <= 1e-10 * np.maximum(1.0, np.abs(log_u)))

    @pytest.mark.parametrize("n,p,lam", [(3, 1.5, 0.5), (4, 3.0, 2.0),
                                         (2, 1.5, 1.0), (5, 2.9, 0.5),
                                         (6, 4.5, 3.0)])
    def test_matches_tight_explicit_reference(self, n, p, lam):
        # no closed form for p != 2: an explicit DOP853 pass of the same flow
        # from the same seed, at the tightest rtol solve_ivp accepts
        r_max = 40.0
        prof = radial_exterior_eigen(n, p, lam, 1.0, r_max).profile
        alpha = eigen_rate_alpha(lam, p)
        sol = solve_ivp(_ratio_rhs(n, p, lam), (r_max + 35 / (p * alpha), 1.0),
                        [0.0, -alpha], method="DOP853", rtol=2.5e-14,
                        atol=1e-16, t_eval=prof.r[::-1])
        sigma = sol.y[1][::-1]
        log_u = sol.y[0][::-1] - sol.y[0][-1]
        assert np.max(np.abs(prof.ratio - sigma)) <= 1e-10
        assert np.max(np.abs(prof.log_u - log_u)) <= 1e-9

    def test_far_field_rhs_evaluations(self):
        # an explicit method is held to |h| ~ 1/(p*alpha) by stability over
        # the whole span (about 118k evaluations here); the stiff-switching
        # pass needs about 4.9k
        shot = radial_exterior_eigen(3, 2.0, 1.0, 1.0, 20010.0, grid_points=1600)
        assert shot.nfev <= 20000

    @pytest.mark.parametrize("n,p,lam", [(3, 2.0, 1.0), (3, 1.5, 0.5),
                                         (5, 2.9, 2.0), (6, 2.2, 0.7),
                                         (5, 4.5, 3.0)])
    def test_far_field_matches_solve_ivp_lsoda_pass(self, n, p, lam):
        # the same LSODA pass driven step by step through solve_ivp, with
        # the ratio flow as written before it became a float-only closure.
        # At p = 2 and 1.5 both passes take the same steps and sigma agrees
        # to 4.4e-16; elsewhere the RHS rounds differently, and the measured
        # gaps reach 3.3e-13 in sigma and 3.6e-11 relative in log_u
        r_max = 20010.0
        prof = radial_exterior_eigen(n, p, lam, 1.0, r_max,
                                     grid_points=1600).profile
        alpha = eigen_rate_alpha(lam, p)
        pm1, nm1 = p - 1.0, n - 1.0

        def rhs(r, y):
            sig = y[1]
            core = lam / (pm1 * abs(sig) ** (p - 2.0)) if sig != 0.0 else 0.0
            return [sig, core - sig * sig - nm1 * sig / (pm1 * r)]

        sol = solve_ivp(rhs, (r_max + 35 / (p * alpha), 1.0), [0.0, -alpha],
                        method="LSODA", rtol=3e-14, atol=1e-16,
                        t_eval=prof.r[::-1])
        assert sol.success
        sigma = sol.y[1][::-1]
        log_u = sol.y[0][::-1] - sol.y[0][-1]
        assert np.max(np.abs(prof.ratio - sigma)) <= 1e-12
        assert np.all(np.abs(prof.log_u - log_u)
                      <= 1e-10 * np.maximum(1.0, np.abs(log_u)))

    def test_nfev_is_odepack_count(self, monkeypatch):
        # nfev is ODEPACK's nfe, which counts every call of the RHS, the
        # finite-difference Jacobian columns included.  The pass runs in
        # s = -r with tcrit = -r0, so no call reaches below r0.
        real_odeint, args_s, seen = radial_ode.odeint, [], {}

        def recording_odeint(func, *args, **kwargs):
            def recorded(s, y):
                args_s.append(s)
                return func(s, y)
            out = real_odeint(recorded, *args, **kwargs)
            seen["nfe"] = int(out[1]["nfe"][-1])
            return out

        monkeypatch.setattr(radial_ode, "odeint", recording_odeint)
        shot = radial_exterior_eigen(3, 2.0, 1.0, 1.0, 20010.0,
                                     grid_points=1600)
        assert shot.nfev == seen["nfe"] == len(args_s)
        assert max(args_s) <= -1.0

    def test_early_stop_raises_step_failure(self, monkeypatch):
        # a cap of 5 steps between output points, where a 10-point grid to
        # r_max = 20010 needs hundreds, makes ODEPACK stop early; the failure
        # surfaces as StepFailure with its message, and its ODEintWarning
        # does not leak
        real_odeint = radial_ode.odeint

        def capped_odeint(*args, **kwargs):
            return real_odeint(*args, **{**kwargs, "mxstep": 5})

        monkeypatch.setattr(radial_ode, "odeint", capped_odeint)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepFailure, match="Excess work done"):
                radial_exterior_eigen(3, 2.0, 1.0, 1.0, 20010.0,
                                      grid_points=10)

    def test_shoot_param_is_initial_ratio(self):
        shot = radial_exterior_eigen(3, 2.0, 1.0, 1.0, 40.0)
        # d/dr log(e^-r / r) at r=1 is -(1 + 1/1) = -2
        assert shot.shoot_param == pytest.approx(-2.0, abs=1e-10)
        assert shot.shoot_param == shot.profile.ratio[0]

    def test_final_bracket_straddles(self):
        # the outward classifier sends a ratio just below the realized
        # initial ratio to a zero crossing and one just above to growth
        r_max = 40.0
        for n, p, lam in [(3, 1.5, 0.5), (3, 2.0, 1.0), (4, 3.0, 2.0),
                          (2, 1.5, 1.0), (5, 2.9, 0.5)]:
            alpha = eigen_rate_alpha(lam, p)
            s = radial_exterior_eigen(n, p, lam, 1.0, r_max).shoot_param
            corridor = (-alpha / 2, -10 * alpha - 1, r_max + 80 / (p * alpha))
            assert _classify_ratio(n, p, lam, 1.0, s - 1e-8 * alpha,
                                   *corridor) == "down"
            assert _classify_ratio(n, p, lam, 1.0, s + 1e-8 * alpha,
                                   *corridor) == "up"

    def test_preconditions(self):
        with pytest.raises(DomainError):
            radial_exterior_eigen(3, 2.0, 1.0, 0.0, 40.0)
        with pytest.raises(DomainError):
            radial_exterior_eigen(3, 2.0, 1.0, 1.0, 5.0)


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


class TestShootSingularProfile:
    def test_constant_solution_exact(self):
        params = ProblemParams(n=3, p=2.0, mu=0.0, lam=0.0)
        res = shoot_singular_profile(params, 0.01, 1.0)
        assert res.classification is ShootClass.DECAYING
        assert np.max(np.abs(res.profile.u - 1.0)) == 0.0

    def test_pure_power_propagates(self):
        # gamma(1 - gamma) = 0.1875 has roots 1/4 and 3/4
        params = ProblemParams(n=3, p=2.0, mu=0.1875, lam=0.0)
        res = shoot_singular_profile(params, 1e-3, 1e-1)
        drift = np.abs(res.profile.u * res.profile.r ** 0.25 - 1.0)
        assert np.max(drift) <= 1e-7

    def test_nonlinearity_stays_positive(self):
        params = ProblemParams(n=3, p=2.0, mu=0.1875, lam=1.0,
                               nonlinearity=Nonlinearity(q=3.0, amplitude=0.1))
        r_in = series_start_radius(params, 1.0)
        res = shoot_singular_profile(params, r_in, 1.0)
        assert res.classification is ShootClass.DECAYING
        assert np.all(res.profile.u > 0)

    def test_rejects_reversed_span(self):
        params = ProblemParams(n=3, p=2.0, mu=0.1, lam=0.0)
        with pytest.raises(DomainError):
            shoot_singular_profile(params, 1.0, 1.0)
        with pytest.raises(DomainError):
            shoot_singular_profile(params, 2.0, 1.0)


class TestFitDecayExponents:
    def test_exact_recovery_any_scale(self):
        alpha, beta = 0.7, 1.5
        for c in (1.0, 3.7e4, 2.2e-6):
            r = np.geomspace(1.0, 40.0, 800)
            u = c * r ** -beta * np.exp(-alpha * r)
            prof = RadialProfile(r=r, u=u, du=np.gradient(u, r), meta={})
            fit = fit_decay_exponents(prof)
            assert abs(fit.rate - alpha) <= 1e-10
            assert abs(fit.power - beta) <= 1e-10
            assert abs(fit.log_scale - math.log(c)) <= 1e-9
            assert fit.rms <= 1e-10

    def test_pure_power(self):
        r = np.geomspace(1.0, 30.0, 400)
        prof = RadialProfile(r=r, u=r ** -2.0, du=-2 * r ** -3.0, meta={})
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
        prof = RadialProfile(r=r, u=r ** -1.0, du=-r ** -2.0, meta={})
        with pytest.raises(IllConditioned):
            fit_decay_exponents(prof, window=(29.9, 30.0))


class TestGradientRatioCurve:
    def test_power_profile_scaled(self):
        r = np.geomspace(0.01, 10, 200)
        prof = RadialProfile(r=r, u=r ** -0.75, du=-0.75 * r ** -1.75, meta={})
        curve = gradient_ratio_curve(prof, mode="scaled")
        assert np.allclose(curve[:, 1], 0.75, atol=1e-12)

    def test_exp_profile_plain(self):
        r = np.geomspace(1, 30, 200)
        prof = RadialProfile(r=r, u=np.exp(-2 * r), du=-2 * np.exp(-2 * r),
                             meta={})
        curve = gradient_ratio_curve(prof, mode="plain")
        assert np.allclose(curve[:, 1], 2.0, atol=1e-12)

    def test_shoot_profile_near_alpha(self):
        shot = radial_exterior_eigen(3, 2.0, 1.0, 1.0, 40.0)
        curve = gradient_ratio_curve(shot.profile, mode="plain")
        k = np.argmin(np.abs(curve[:, 0] - 20.0))
        assert abs(curve[k, 1] - 1.0) <= 0.06

    def test_bad_mode(self):
        r = np.geomspace(1, 2, 20)
        prof = RadialProfile(r=r, u=r, du=np.ones_like(r), meta={})
        with pytest.raises(DomainError):
            gradient_ratio_curve(prof, mode="weird")


class TestRadialProfile:
    def test_validation(self):
        r = np.array([1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            RadialProfile(r=r[::-1].copy(), u=r, du=r, meta={})
        with pytest.raises(DomainError):
            RadialProfile(r=r, u=np.array([1.0, -1.0, 1.0]), du=r, meta={})
        with pytest.raises(DomainError):
            RadialProfile(r=np.array([0.0, 1.0, 2.0]), u=r, du=r, meta={})

    def test_log_backed_profile_tolerates_underflow(self):
        r = np.array([1.0, 500.0, 1000.0])
        log_u = -r
        prof = RadialProfile(r=r, u=np.exp(log_u), du=-np.exp(log_u), meta={},
                             log_u=log_u, ratio=-np.ones_like(r))
        assert prof.u[-1] == 0.0  # underflowed but log data intact
        assert prof.log_values()[-1] == -1000.0

    def test_csv_roundtrip(self, tmp_path):
        r = np.geomspace(1, 10, 50)
        prof = RadialProfile(r=r, u=r ** -1.0, du=-r ** -2.0,
                             meta={"kind": "power", "gamma": 1.0})
        path = tmp_path / "profile.csv"
        write_profile_csv(prof, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert "gamma" in lines[0]
        assert lines[1] == "r,u,du"
        data = np.loadtxt(lines[2:], delimiter=",")
        assert np.array_equal(data[:, 0], prof.r)
        assert np.array_equal(data[:, 1], prof.u)
