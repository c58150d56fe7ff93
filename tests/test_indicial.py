import copy
import hashlib
import math
import pickle
import re
import sys
from fractions import Fraction
from numbers import Real
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plap import cli, indicial
from plap.errors import DomainError, NoRealRoot
from plap.indicial import (CRITICAL_WEIGHT_ATOL, DOUBLE_ROOT_RTOL,
                           PLACEMENT_TOL, IndicialData, ProblemParams,
                           RootPlacement, auxiliary_f,
                           eigen_rate_alpha, gamma_star, hardy_best_constant,
                           indicial_roots, placement_satisfied)


@st.composite
def admissible_params(draw):
    n = draw(st.integers(2, 8))
    p = draw(st.floats(1.05, min(n - 0.05, 4.0)))
    a = draw(st.floats(-2.0, 2.0))
    return n, p, a


class TestHardyBestConstant:
    def test_hand_values(self):
        assert hardy_best_constant(3, 2, 0) == pytest.approx(0.25, abs=1e-15)
        assert hardy_best_constant(5, 2, -1) == pytest.approx(6.25, abs=1e-15)

    def test_vanishes_at_critical_weight(self):
        assert hardy_best_constant(4, 2, 1) == 0.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            hardy_best_constant(3, 5, 0)
        with pytest.raises(DomainError):
            hardy_best_constant(3, 1.0, 0)

    def test_arrays_match_scalar(self):
        # numpy's array power may differ from libm's pow in the last bit
        n, p, a, _ = cli._sample_admissible(np.random.default_rng(5), 2000)
        got = hardy_best_constant(n, p, a)
        want = np.array([hardy_best_constant(*draw)
                         for draw in zip(n.tolist(), p.tolist(), a.tolist())])
        assert np.all(np.abs(got - want) <= np.spacing(want))
        for bad in (1.0, 3.0):
            with pytest.raises(DomainError):
                hardy_best_constant(np.array([3, 3]), np.array([2.0, bad]))


class TestEigenRateAlpha:
    def test_hand_values(self):
        assert eigen_rate_alpha(1, 2) == 1.0
        assert eigen_rate_alpha(2, 3) == 1.0
        assert eigen_rate_alpha(1, 1.5) == pytest.approx(2 ** (2 / 3), abs=1e-14)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(DomainError):
            eigen_rate_alpha(0.0, 2)
        with pytest.raises(DomainError):
            eigen_rate_alpha(-1.0, 2)

    @pytest.mark.parametrize("lam, p, how", [
        (1e308, 1.001, "1e+308/0.001 overflows"),
        (1e-320, 1e300, "underflows to 0")])
    def test_ratio_leaving_double_range_raises(self, lam, p, how):
        # valid lam and p whose lam/(p-1) leaves the double range: an
        # infinite or zero rate would pass for a number
        with pytest.raises(OverflowError, match=re.escape(how)):
            eigen_rate_alpha(lam, p)


class TestAuxiliaryF:
    def test_peak_value_n4(self):
        # peak at 1 with value 1 for (n=4, p=2, a=0)
        assert gamma_star(4, 2, 0) == 1.0
        assert auxiliary_f(1.0, 4, 2, 0) == pytest.approx(1.0, abs=1e-15)

    def test_zero_by_continuity(self):
        for p in (1.5, 2.0, 3.0):
            assert auxiliary_f(0.0, 5, p, 0.3) == 0.0

    def test_second_factor_root(self):
        assert auxiliary_f(3.0, 5, 2, 0) == 0.0

    def test_subnormal_gamma_p_below_2(self):
        # |g|^(p-2) alone overflows at the smallest double when p < 2
        expected = 5e-324 ** 0.04 * 1.96
        assert auxiliary_f(5e-324, 3, 1.04) == pytest.approx(expected, rel=1e-14)
        assert auxiliary_f(-5e-324, 3, 1.04) == pytest.approx(-expected, rel=1e-14)

    @given(admissible_params())
    @settings(max_examples=150, deadline=None)
    def test_peak_location_and_value(self, npa):
        n, p, a = npa
        gs = gamma_star(n, p, a)
        mu_bar = hardy_best_constant(n, p, a)
        span = max(1.0, abs(gs))
        grid = np.linspace(gs - 3 * span, gs + 3 * span, 2001)
        vals = np.array([auxiliary_f(g, n, p, a) for g in grid])
        assert abs(auxiliary_f(gs, n, p, a) - mu_bar) <= 1e-10 * max(1.0, mu_bar)
        assert vals.max() <= mu_bar + 1e-10 * max(1.0, mu_bar)
        # the grid argmax sits next to the true peak
        assert abs(grid[np.argmax(vals)] - gs) <= grid[1] - grid[0] + 1e-12

    @given(admissible_params())
    @settings(max_examples=100, deadline=None)
    def test_monotone_branches(self, npa):
        n, p, a = npa
        gs = gamma_star(n, p, a)
        span = max(1.0, abs(gs))
        left = np.linspace(gs - 4 * span, gs, 400)
        right = np.linspace(gs, gs + 4 * span, 400)
        f_left = [auxiliary_f(g, n, p, a) for g in left]
        f_right = [auxiliary_f(g, n, p, a) for g in right]
        assert all(x < y + 1e-13 for x, y in zip(f_left, f_left[1:]))
        assert all(x > y - 1e-13 for x, y in zip(f_right, f_right[1:]))


class TestIndicialRoots:
    def test_roots_polished_to_rounding_floor(self):
        # a bisection stopped at width 1e-13 in ln|gamma| left gamma2 at
        # residual 1.1e-12 here; the root solve must carry both roots well
        # below the 1e-12 acceptance bound
        n, p, a, mu = (4, 2.9821398552125684, -1.1058682453504916,
                       -4.964384945276048)
        data = indicial_roots(ProblemParams(n=n, p=p, a=a, mu=mu))
        for g in (data.gamma1, data.gamma2):
            assert abs(auxiliary_f(g, n, p, a) - mu) <= 1e-13

    @pytest.mark.parametrize("mu", [-1e300, -1.7e308])
    def test_roots_near_largest_double(self, mu):
        # |gamma|^p ~ |mu| overflows inside the Newton slope (p-1)(f - |g|^p)
        data = indicial_roots(ProblemParams(n=8, p=2.0, mu=mu))
        half_gap = math.sqrt(9.0 - mu)  # gamma (6 - gamma) = mu
        assert data.gamma1 == pytest.approx(3.0 - half_gap, rel=1e-13)
        assert data.gamma2 == pytest.approx(3.0 + half_gap, rel=1e-13)

    def test_root_beyond_largest_double_is_named(self):
        # gamma2 ~ 10^309.7 has no double
        with pytest.raises(OverflowError, match="exceeds the largest double"):
            indicial_roots(ProblemParams(n=8, p=1.001, mu=-1e307))

    def test_critical_weight_root_beyond_largest_double_is_named(self):
        # D = n - (a+1)p = 0 takes the closed form |gamma|^p = -mu/(p-1),
        # which once returned gamma = -inf, inf here: the NaN residual of an
        # infinite root passed the residual check
        p = 1.001
        params = ProblemParams(n=2, p=p, a=2.0 / p - 1.0, mu=-1e307)
        assert params.n - (params.a + 1.0) * p == 0.0
        with pytest.raises(OverflowError, match="exceeds the largest double"):
            indicial_roots(params)

    def test_critical_weight_roots_with_overflowing_ratio(self):
        # -mu/(p-1) = 3.4e308 overflows, the root 4.87e205 does not
        p, mu = 1.5, -1.7e308
        data = indicial_roots(ProblemParams(n=2, p=p, a=2.0 / p - 1.0, mu=mu))
        mag = math.exp((math.log(-mu) - math.log(p - 1.0)) / p)
        assert data.gamma2 == pytest.approx(mag, rel=1e-13)
        assert data.gamma1 == -data.gamma2

    def test_nan_root_fails_residual_check(self, monkeypatch):
        # abs(nan) > bound is false: the check must not read NaN as a pass
        monkeypatch.setattr(indicial, "_solve_branches",
                            lambda mu, p, big_d: (math.nan,) * 4)
        with pytest.raises(RuntimeError, match="root residual nan"):
            indicial_roots(ProblemParams(n=3, p=2.5, mu=0.01))

    def test_roots_just_below_largest_double(self):
        # |gamma| ~ 1.64e308: the closed-form brackets reach past the
        # largest double, where exp(x) overflows
        mu = -4.9e307
        data = indicial_roots(ProblemParams(n=8, p=1.0056, mu=mu))
        for g in (data.gamma1, data.gamma2):
            assert 1e308 < abs(g) < math.inf
            assert abs(auxiliary_f(g, 8, 1.0056, 0.0) - mu) <= 1e-12 * -mu

    def test_newton_on_gamma_keeps_only_a_better_finite_step(self):
        q, big_d = 0.05, 8.0 - 1.05
        exact = 4.168968054720113e293

        def g(gamma):
            return math.copysign(abs(gamma) ** q, gamma) * (big_d - q * gamma)

        mu = g(exact)
        # 1e-13 off the root, the step lands within rounding of it
        start = exact * (1.0 + 1e-13)
        new = indicial._newton_on_gamma(start, mu, q, big_d)
        assert abs(g(new) - mu) < abs(g(start) - mu)
        assert new == pytest.approx(exact, rel=1e-15)
        # at the root no step lowers |g|
        assert indicial._newton_on_gamma(exact, mu, q, big_d) == exact
        # |gamma|^q overflows for q > 1: the step is dropped
        assert indicial._newton_on_gamma(1e300, -1e307, 2.0, 1.0) == 1e300

    def test_mu_zero_factorization(self):
        data = indicial_roots(ProblemParams(n=4, p=2.0))
        assert data.gamma1 == 0.0
        assert data.gamma2 == 2.0
        assert data.placement is RootPlacement.BELOW_CRITICAL_NONNEG_MU
        assert not data.double_root

    def test_double_root(self):
        data = indicial_roots(ProblemParams(n=3, p=2.0, mu=0.25))
        assert data.double_root
        assert data.gamma1 == data.gamma2 == pytest.approx(0.5, abs=1e-14)

    def test_quadratic_case(self):
        # independent oracle: gamma(2 - gamma) = 0.75 has roots 1/2 and 3/2
        data = indicial_roots(ProblemParams(n=4, p=2.0, mu=0.75))
        q1, q2 = np.sort(np.roots([-1.0, 2.0, -0.75]))
        assert data.gamma1 == pytest.approx(q1, abs=1e-12)
        assert data.gamma2 == pytest.approx(q2, abs=1e-12)

    def test_no_real_root(self):
        with pytest.raises(NoRealRoot):
            indicial_roots(ProblemParams(n=3, p=2.0, mu=1.0))

    def test_critical_weight_positive_mu_has_no_root(self):
        # mu_bar = 0 at a = (n-p)/p, so any mu > 0 is inadmissible
        with pytest.raises(NoRealRoot):
            indicial_roots(ProblemParams(n=4, p=2.0, a=1.0, mu=0.5))

    def test_critical_weight_negative_mu(self):
        p = 2.0
        data = indicial_roots(ProblemParams(n=4, p=p, a=1.0, mu=-3.0))
        mag = (3.0 / (p - 1.0)) ** (1.0 / p)
        assert data.gamma1 == pytest.approx(-mag, rel=1e-13)
        assert data.gamma2 == pytest.approx(mag, rel=1e-13)
        assert data.placement is RootPlacement.AT_CRITICAL

    @given(admissible_params(), st.floats(0.0, 1.0), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_random_roots_residual_and_placement(self, npa, frac, negative):
        n, p, a = npa
        mu_bar = hardy_best_constant(n, p, a)
        mu = -10.0 * frac if negative else frac * mu_bar
        data = indicial_roots(ProblemParams(n=n, p=p, a=a, mu=mu))
        tol = 1e-12 * max(1.0, abs(mu))
        if data.double_root:
            tol = 1.1e-10 * max(1.0, mu_bar)
        assert abs(auxiliary_f(data.gamma1, n, p, a) - mu) <= tol
        assert abs(auxiliary_f(data.gamma2, n, p, a) - mu) <= tol
        assert data.gamma1 <= data.gamma_star + 1e-12 <= data.gamma2 + 2e-12
        assert placement_satisfied(data, n, p, a)

    @given(st.integers(3, 8), st.floats(-2.0, 2.0), st.floats(0.0, 1.0),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_p2_matches_quadratic_formula(self, n, a, frac, negative):
        mu_bar = hardy_best_constant(n, 2.0, a)
        mu = -10.0 * frac if negative else 0.999 * frac * mu_bar
        data = indicial_roots(ProblemParams(n=n, p=2.0, a=a, mu=mu))
        if data.double_root:
            return  # collapsed bracket; the oracle comparison needs two roots
        d = n - (a + 1.0) * 2.0
        disc = math.sqrt(max(d * d - 4.0 * mu, 0.0))
        assert data.gamma1 == pytest.approx(0.5 * (d - disc), abs=1e-12 * max(1, abs(d)))
        assert data.gamma2 == pytest.approx(0.5 * (d + disc), abs=1e-12 * max(1, abs(d)))


def _oracle_roots(n, p, a, mu, x_floor=-3000, x_ceil=710):
    """Both roots of f(gamma) = mu by mpmath.findroot at 50 digits.

    Solves f(+-e^x) = mu on each monotone branch of f, bracketed only by
    gamma_star, the zero crossing edge = D/(p-1) and wide outer ends (the
    lower one at x_floor, which must lie below ln|gamma1|, the upper one
    at x_ceil, just above the log of the largest double).  The
    residual is taken relative to the size of the terms of f, so that a root
    of a tiny mu and a root next to the cancellation at edge both resolve.
    D < 0 reduces to D > 0 by the symmetry (gamma, D) -> (-gamma, -D).
    """
    with mpmath.workdps(50):
        p, mu = mpmath.mpf(p), mpmath.mpf(mu)
        q = p - 1
        d = n - (mpmath.mpf(a) + 1) * p
        flip, d = d < 0, abs(d)

        def solve(sign, x_lo, x_hi):
            def resid(x):
                g = mpmath.exp(x)
                f = sign * g ** q * (d - sign * q * g)
                return (f - mu) / (g ** q * (d + q * g) + abs(mu))
            x = mpmath.findroot(resid, (x_lo, x_hi), solver="pegasus",
                                maxsteps=5000)
            return sign * mpmath.exp(x)

        x_star, x_edge = mpmath.log(d / p), mpmath.log(d / q)
        if mu > 0:
            g1, g2 = solve(1, x_floor, x_star), solve(1, x_star, x_edge)
        else:
            g1, g2 = solve(-1, x_floor, x_ceil), solve(1, x_edge, x_ceil)
        return (-g2, -g1) if flip else (g1, g2)


@pytest.mark.parametrize("n, p, a, mu", [
    (3, 2.0, 0.0, 0.2),
    (3, 2.0, 0.0, -3.0),
    (4, 1.03, 0.0, 1e-3),
    (5, 1.02, 0.5, -1e-13),
    (2, 1.05, 1.5, 1e-14),
    (2, 1.05, 1.5, 0.3),
    (6, 3.5, 1.0, -7.5),
    (8, 4.0, -1.5, 30.0),
    (3, 2.5, -0.4, -1e-12),
    (3, 1.04, 2.5, -0.5),
    (7, 1.05, 3.0, 1e-13),
    (4, 2.9821398552125684, -1.1058682453504916, -4.964384945276048),
    # mu = 5e-324 * mu_bar rounded: ln(mu / D) would be ln(0)
    (5, 2.0, 0.4, 5e-324),
    # |gamma1| ~ 4e-327 lies below the smallest double
    (2, 1.5, 0.0, -3.17e-164),
    # gamma2 lies within 1e-15 of edge = 1
    (3, 2.0, 0.0, -2.2e-16),
    # gamma1 lies below the smallest double and no double meets the residual
    # bound: f - mu changes sign between -0.0 and -5e-324
    (2, 1.026975, 0.429235, -7.99e-10),
    # |gamma| ~ 4e293: one ulp of ln|gamma| ~ 675 is 1.1e-13 of gamma
    (8, 1.05, 0.0, -1e307),
    # gamma1 ~ 1e-118 with p near 1 (test_no_newton_step_within_rounding)
    (3, 1.0062569971562056, 1.0327012427440763, 0.17435110706076715),
])
def test_roots_match_mpmath_oracle(n, p, a, mu):
    data = indicial_roots(ProblemParams(n=n, p=p, a=a, mu=mu))
    for got, exact in zip((data.gamma1, data.gamma2), _oracle_roots(n, p, a, mu)):
        # relative error, or one subnormal step for a root below the
        # smallest double
        assert abs(got - exact) <= 1e-13 * abs(exact) + math.ulp(0.0)


def test_no_newton_step_within_rounding():
    # f ~ D gamma^(p-1) is so flat at gamma1 that a Newton step from a g
    # within f's rounding moves gamma by about eps / (p - 1): taking it
    # left gamma1 2.9e-14 from the oracle, the x solve alone 3.2e-15
    n, p, a, mu = 3, 1.0062569971562056, 1.0327012427440763, 0.17435110706076715
    got = indicial_roots(ProblemParams(n=n, p=p, a=a, mu=mu)).gamma1
    exact = _oracle_roots(n, p, a, mu)[0]
    assert abs(got - exact) <= 1e-14 * abs(exact)


def _newton_sweep_draws():
    """Seeded draws whose roots come from the Newton iteration: campaign
    draws of step 01, then p in [1.02, 1.2] with |mu| down to 1e-300, where
    gamma1 lies far below the smallest double."""
    rng = np.random.default_rng(11)
    draws = list(zip(*(x.tolist() for x in cli._sample_admissible(rng, 200))))
    for _ in range(100):
        n = int(rng.integers(2, 9))
        p = float(rng.uniform(1.02, 1.2))
        a = (n - p) / p + float(rng.uniform(-2.0, 2.0))
        mag = 10.0 ** float(rng.uniform(-300.0, 0.0))
        mu = mag * hardy_best_constant(n, p, a) if rng.random() < 0.5 else -mag
        draws.append((n, p, a, mu))
    # the closed forms (double root, mu = 0, D = 0) bypass the iteration
    return [(n, p, a, mu) for n, p, a, mu in draws
            if mu != 0.0 and n - (a + 1.0) * p != 0.0
            and abs(mu - hardy_best_constant(n, p, a))
            > DOUBLE_ROOT_RTOL * max(1.0, hardy_best_constant(n, p, a))]


def test_newton_roots_match_mpmath_sweep():
    draws = _newton_sweep_draws()
    assert len(draws) >= 250
    for n, p, a, mu in draws:
        data = indicial_roots(ProblemParams(n=n, p=p, a=a, mu=mu))
        exact = _oracle_roots(n, p, a, mu, x_floor=-1e5)
        for got, want in zip((data.gamma1, data.gamma2), exact):
            # relative error, or one subnormal step for a root below the
            # smallest double
            assert abs(got - want) <= 1e-13 * abs(want) + math.ulp(0.0), \
                (n, p, a, mu)


# each field's draws for the check oracle: non-finite floats, ints beyond
# the float range, the largest doubles, bools, strings, numpy scalars,
# Fractions and in-range values
FIELD_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400,
                     sys.float_info.max, -sys.float_info.max, True, False,
                     "3", "x", "", np.float64(2.5), np.float64(math.inf),
                     np.int64(3), np.int64(-1), Fraction(1, 3),
                     Fraction(10 ** 400)]),
    st.integers(-3, 10),
    st.floats(-12.0, 12.0))


def real_number_check(value, name):
    """The number rule of ProblemParams written out: a bool or a non-Real
    is not a real number, and the finiteness test is on abs(value)."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise DomainError(f"{name} must be finite, got {value!r}")


def per_field_checks(params):
    """ProblemParams' input rules as a loop of getattr over the field
    names; the oracle of the checks in ProblemParams.__new__."""
    for name in ("n", "p", "a", "mu", "lam"):
        real_number_check(getattr(params, name), name)
    if int(params.n) != params.n or params.n < 2:
        raise DomainError("n must be an integer >= 2")
    if not (1.0 < params.p < params.n):
        raise DomainError("p must lie in (1, n)")
    if params.lam < 0.0:
        raise DomainError("lam must be >= 0 (no positive solutions otherwise)")


def outcome(check):
    """(exception type, message) of check(), or None if it returns."""
    try:
        check()
    except Exception as exc:
        return type(exc), str(exc)
    return None


class TestProblemParams:
    def test_rejects_bad_p(self):
        with pytest.raises(DomainError):
            ProblemParams(n=3, p=5.0)
        with pytest.raises(DomainError):
            ProblemParams(n=3, p=1.0)

    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            ProblemParams(n=1, p=0.5)

    def test_rejects_negative_lambda(self):
        with pytest.raises(DomainError):
            ProblemParams(n=3, p=2.0, lam=-1.0)

    @pytest.mark.parametrize("field", ["n", "p", "a", "mu", "lam"])
    # an int beyond the float range counts as infinite
    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf,
        pytest.param(10 ** 400, id="int_1e400"),
        pytest.param(-10 ** 400, id="int_-1e400")])
    def test_rejects_non_finite(self, field, value):
        kwargs = {"n": 4, "p": 2.0, field: value}
        with pytest.raises(DomainError, match="must be finite"):
            ProblemParams(**kwargs)

    @settings(max_examples=400, deadline=None)
    @given(st.fixed_dictionaries(
        {name: FIELD_VALUES for name in ("n", "p", "a", "mu", "lam")}))
    def test_checks_match_the_per_field_loop(self, fields):
        # the same exception type and message as per_field_checks, or
        # acceptance by both
        record = SimpleNamespace(**fields)
        assert (outcome(lambda: ProblemParams(**fields))
                == outcome(lambda: per_field_checks(record)))

    @pytest.mark.parametrize("fields", [
        {"n": True}, {"p": True}, {"n": 10 ** 400},
        *({name: value} for name in ("n", "p", "a", "mu", "lam")
          for value in (math.inf, -math.inf, math.nan)),
        {"n": np.int64(4)}, {"n": np.float64(4.0)},
        *({name: np.float64(0.5)} for name in ("a", "mu", "lam")),
        {"p": np.float64(2.5)}, {"p": np.int64(3), "n": 5},
        *({name: np.int64(1)} for name in ("a", "mu", "lam")),
        {"mu": Fraction(1, 3)}, {"mu": Fraction(10 ** 400)}],
        ids=repr)
    def test_plain_draw_gate_refuses_or_converts_as_real(self, fields):
        # only a draw of int n and float p, a, mu, lam within the double
        # range skips _real: every other draw is refused with the per-field
        # loop's message, or accepted with each field as _real returns it
        fields = {"n": 4, "p": 2.0, **fields}
        record = SimpleNamespace(**{"a": 0.0, "mu": 0.0, "lam": 0.0,
                                    **fields})
        got = outcome(lambda: ProblemParams(**fields))
        assert got == outcome(lambda: per_field_checks(record))
        if got is None:
            params = ProblemParams(**fields)
            want = [indicial._real(getattr(record, name), name)
                    for name in ProblemParams._fields]
            assert list(params) == want
            assert [type(v) for v in params] == [type(v) for v in want]

    @pytest.mark.parametrize("field", ["n", "p", "a", "mu", "lam"])
    # numpy's float32(inf) compares <= the largest double, which numpy casts
    # to float32 inf; a Fraction beyond the float range overflows float()
    @pytest.mark.parametrize("value", [
        np.float32("nan"), np.float32("inf"), np.float16("-inf"),
        np.longdouble("inf"), pytest.param(Fraction(10 ** 400), id="frac")])
    def test_rejects_non_finite_real_types(self, field, value):
        kwargs = {"n": 4, "p": 2.0, field: value}
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            ProblemParams(**kwargs)

    def test_accepts_finite_numpy_scalars(self):
        # numpy fields become int and float, so a float32 field carries no
        # float32 rounding into the roots: they equal the plain call's
        params = ProblemParams(n=np.int64(4), p=np.float32(2.0),
                               mu=np.float32(0.75), lam=np.float16(1.0))
        assert [type(v) for v in (params.n, params.p, params.mu, params.lam)] \
            == [int, float, float, float]
        plain = ProblemParams(n=4, p=2.0, mu=0.75, lam=1.0)
        assert params == plain
        assert indicial_roots(params) == indicial_roots(plain)
        assert type(ProblemParams(n=4, p=np.float64(2.5)).p) is float

    @pytest.mark.parametrize("field,value", [("a", "x"), ("mu", "x"),
                                             ("mu", 1j), ("a", None),
                                             ("a", True), ("lam", False)])
    def test_rejects_non_real_field(self, field, value):
        # a and mu have no range rule; a string mu used to construct and
        # fail later in indicial_roots with TypeError, and a = True
        # constructed as a = 1 and lam = False as lam = 0
        with pytest.raises(DomainError, match=f"{field} must be a real number"):
            ProblemParams(n=4, p=2.0, **{field: value})

    def test_replace_and_make_check_their_fields(self):
        # a namedtuple's _make and _replace build with tuple.__new__ unless
        # overridden, which returned p = 100 > n here
        params = ProblemParams(n=3, p=2.0)
        with pytest.raises(DomainError, match=r"p must lie in \(1, n\)"):
            params._replace(p=100.0)
        with pytest.raises(DomainError, match="lam must be >= 0"):
            ProblemParams._make((3, 2.0, 0.0, 0.0, -1.0))
        with pytest.raises(TypeError):
            ProblemParams._make((3, 2.0, 0.0, 0.0, 1.0, None))
        with pytest.raises(DomainError, match="mu must be a real number"):
            params._replace(mu="x")
        moved = params._replace(mu=np.float32(0.5))
        assert moved == ProblemParams(n=3, p=2.0, mu=0.5)
        assert type(moved.mu) is float

    @pytest.mark.parametrize("round_trip", [
        lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"])
    def test_round_trips_give_an_equal_record(self, round_trip):
        params = ProblemParams(n=np.int64(5), p=np.float32(2.5), a=-0.5,
                               mu=1.0, lam=2.0)
        back = round_trip(params)
        assert back == params and type(back) is ProblemParams
        assert [type(v) for v in back] == [int, float, float, float, float]

    @pytest.mark.parametrize("name", ["n", "p", "lam", "nonlinearity",
                                      "other"])
    def test_attributes_cannot_be_assigned(self, name):
        params = ProblemParams(n=3, p=2.0)
        with pytest.raises(AttributeError):
            setattr(params, name, 1.5)
        assert params == ProblemParams(n=3, p=2.0)

    def test_record_is_a_tuple_of_its_fields(self):
        # the record equals the plain tuple of its values and unpacks
        params = ProblemParams(4, 2.0, mu=0.75)
        assert params == (4, 2.0, 0.0, 0.75, 0.0)
        n, p, a, mu, lam = params
        assert (n, p, a, mu, lam) == (4, 2.0, 0.0, 0.75, 0.0)
        assert ProblemParams._fields == ("n", "p", "a", "mu", "lam")
        # and has no sixth field, by position or by name
        with pytest.raises(TypeError):
            ProblemParams(4, 2.0, 0.0, 0.75, 0.0, None)
        with pytest.raises(TypeError):
            ProblemParams(4, 2.0, nonlinearity=None)


def _placement_by_case(data, n, p, a):
    """The case-table check as a branch per placement: the reference of
    placement_satisfied."""
    tol = PLACEMENT_TOL
    g1, g2, gs = data.gamma1, data.gamma2, data.gamma_star
    edge = (n - (a + 1.0) * p) / (p - 1.0)
    case = data.placement
    if case is RootPlacement.BELOW_CRITICAL_NONNEG_MU:
        return -tol <= g1 <= gs + tol and gs <= g2 + tol and g2 <= edge + tol
    if case is RootPlacement.BELOW_CRITICAL_NEG_MU:
        return g1 <= tol and 0.0 <= edge + tol and edge <= g2 + tol
    if case is RootPlacement.AT_CRITICAL:
        return g1 <= tol and -tol <= g2
    if case is RootPlacement.ABOVE_CRITICAL_NONNEG_MU:
        return edge - tol <= g1 <= gs + tol and gs <= g2 + tol and g2 <= tol
    return g1 <= edge + tol and edge <= tol and -tol <= g2


def _check_placements(cases):
    """Assert that placement_satisfied over arrays of `cases`, a list of
    (IndicialData, n, p, a), equals its scalar form and the reference on
    each case."""
    n, p, a = (np.array(x) for x in zip(*(case[1:] for case in cases)))
    columns = zip(*(case[0] for case in cases))
    data = IndicialData(*(np.array(col, dtype=object if k == 4 else None)
                          for k, col in enumerate(columns)))
    got = placement_satisfied(data, n, p, a)
    assert got.dtype == bool and got.shape == (len(cases),)
    scalar = [placement_satisfied(*case) for case in cases]
    assert all(type(ok) is bool for ok in scalar)
    assert got.tolist() == scalar == [_placement_by_case(*case)
                                      for case in cases]


# draws that reach every closed-form branch of indicial_roots: each
# placement, the critical weight and offsets within CRITICAL_WEIGHT_ATOL of
# it, double roots (mu = mu_bar) and mu = 0 on both sides of it
HAND_DRAWS = [
    (4, 2.0, 0.0, 0.75), (4, 2.0, 0.0, -3.0), (4, 2.0, 1.0, -3.0),
    (4, 2.0, 1.5, 0.2), (4, 2.0, 1.5, -3.0), (4, 2.0, 1.0, 0.0),
    (4, 2.0, 1.0 + 0.5 * CRITICAL_WEIGHT_ATOL, -2.0),
    (4, 2.0, 1.0 - 0.5 * CRITICAL_WEIGHT_ATOL, -2.0),
    (4, 2.0, 1.0 + 4.0 * CRITICAL_WEIGHT_ATOL, -2.0),
    (3, 2.0, 0.0, 0.25), (5, 2.5, -0.5, hardy_best_constant(5, 2.5, -0.5)),
    (6, 3.0, 2.0, hardy_best_constant(6, 3.0, 2.0)),
    (4, 2.0, 0.0, 0.0), (4, 2.0, 1.5, 0.0), (3, 1.05, 0.0, 0.0),
]


@st.composite
def boundary_cases(draw):
    """(IndicialData, n, p, a) with gamma1 and gamma2 at each case-table
    bound exactly, one double either side of it, or anywhere."""
    n, p, a = draw(admissible_params())
    tol = PLACEMENT_TOL
    gs = gamma_star(n, p, a)
    edge = (n - (a + 1.0) * p) / (p - 1.0)
    # the values that meet each inequality with equality: g1 = -tol,
    # g1 = gs + tol, g2 + tol = gs, g2 = edge + tol, ...
    bounds = [-tol, tol, gs + tol, gs - tol, edge + tol, edge - tol, 0.0,
              gs, edge]
    near = st.sampled_from(bounds).flatmap(lambda x: st.sampled_from(
        [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]))
    value = st.one_of(near, st.floats(-10.0, 10.0), st.just(math.nan))
    data = IndicialData(0.0, gs, draw(value), draw(value),
                        draw(st.sampled_from(RootPlacement)), False)
    return data, n, p, a


class TestVectorPlacement:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_sampled_draws(self, seed):
        draws = cli._sample_admissible(np.random.default_rng(seed), 200)
        _check_placements([
            (indicial_roots(ProblemParams(*draw)), *draw[:3])
            for draw in zip(*(x.tolist() for x in draws))])

    def test_hand_draws(self):
        cases = [(indicial_roots(ProblemParams(*draw)), *draw[:3])
                 for draw in HAND_DRAWS]
        placements = [data.placement for data, *_ in cases]
        assert set(placements) == set(RootPlacement)
        assert placements[6:8] == [RootPlacement.AT_CRITICAL] * 2
        assert placements[8] is not RootPlacement.AT_CRITICAL
        assert sum(data.double_root for data, *_ in cases) >= 4
        _check_placements(cases)

    @given(st.lists(boundary_cases(), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_boundaries(self, cases):
        _check_placements(cases)


def _step01_draws():
    """The step-01 draws of `plap all` at seeds 0-7, 80 000 in all."""
    draws = []
    for seed in range(8):
        arrays = cli._sample_admissible(np.random.default_rng([seed, 0]),
                                        cli.ALL_SETTINGS["indicial_trials"])
        draws += zip(*(x.tolist() for x in arrays))
    return draws


class TestSharedIndexKernel:
    @pytest.fixture(scope="class")
    def solved(self):
        draws = _step01_draws()
        return draws, [indicial_roots(ProblemParams(*draw)) for draw in draws]

    def test_iteration_residuals_are_the_kernels(self, solved, monkeypatch):
        # each residual _solve_branches returns is the f - mu the iteration
        # computed at the root it returns, bit for bit the residual check's
        # own, and None only for a root _newton_on_gamma polished
        branches, newton = indicial._solve_branches, indicial._newton_on_gamma
        polished, seen = [], set()

        def record_newton(gamma, mu, q, big_d):
            polished.append(newton(gamma, mu, q, big_d))
            return polished[-1]

        monkeypatch.setattr(indicial, "_newton_on_gamma", record_newton)
        draws = _step01_draws() + _newton_sweep_draws()
        reached = polished_roots = 0
        for n, p, a, mu in draws:
            big_d = n - (a + 1.0) * p
            data = indicial_roots(ProblemParams(n, p, a, mu))
            if data.double_root or mu == 0.0 or big_d == 0.0:
                continue
            reached += 1
            del polished[:]
            g1, g2, r1, r2 = branches(mu, p, big_d)
            assert (g1, g2) == (data.gamma1, data.gamma2)
            assert [r is None for r in (r1, r2)].count(True) == len(polished)
            polished_roots += len(polished)
            for root, resid in ((g1, r1), (g2, r2)):
                if resid is None:
                    assert root in polished
                    continue
                kernel = indicial._index_f(root, p - 1.0, big_d) - mu
                assert np.float64(resid).view(np.uint64) \
                    == np.float64(kernel).view(np.uint64), (n, p, a, mu)
            seen.add((big_d > 0.0, mu > 0.0))
        # 65 608 draws reach the iteration; 101 of their roots are polished
        assert reached > 60_000 and polished_roots > 0
        assert seen == {(True, True), (True, False), (False, True),
                        (False, False)}

    def test_roots_unchanged(self, solved):
        # sha256 of the float64 roots (gamma1, gamma2 per draw) computed
        # while the index function was written out three times, in
        # auxiliary_f, the residual check and _newton_on_gamma (x86-64,
        # glibc libm): the shared kernel moves no bit of any root
        _, roots = solved
        pairs = np.array([(data.gamma1, data.gamma2) for data in roots])
        assert pairs.shape == (80_000, 2)
        assert hashlib.sha256(pairs.tobytes()).hexdigest() == (
            "d4626dc2fda324e9c5f256b783035ce947e8c186b7093d683df0e30b02fb0c8a")

    def test_kernel_matches_auxiliary_f(self, solved):
        def written_out(g, n, p, a):
            """auxiliary_f's arithmetic as it stood before the kernel."""
            if g == 0.0:
                return 0.0
            big_d = n - (a + 1.0) * p
            return math.copysign(abs(g) ** (p - 1.0), g) * (big_d - (p - 1.0) * g)

        def bits(x):
            return np.float64(x).view(np.uint64)

        for (n, p, a, mu), data in zip(*solved):
            for g in (data.gamma1, data.gamma2):
                kernel = indicial._index_f(g, p - 1.0, n - (a + 1.0) * p) - mu
                assert bits(kernel) == bits(auxiliary_f(g, n, p, a) - mu) \
                    == bits(written_out(g, n, p, a) - mu), (n, p, a, mu)
