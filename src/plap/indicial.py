"""Closed-form constants and root solving for the power-law index function.

Pure powers r**(-g) solve the weighted radial equations exactly when g is a
real root of

    index_f(g) = |g|^(p-2) * g * (n - (a+1)*p - (p-1)*g) = mu.

index_f rises to its unique maximum mu_bar = |(n-(a+1)p)/p|^p at
g_star = (n-(a+1)p)/p and falls on either side, so for mu <= mu_bar there are
exactly two real roots g1 <= g_star <= g2 (one double root at mu = mu_bar).
Everything here is a pure function of its arguments.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from enum import Enum
from numbers import Integral, Real
from typing import NamedTuple

from .errors import DomainError, NoRealRoot

# Absolute/relative tolerances fixed once for the whole package.
RESIDUAL_RTOL = 1e-12        # |f(root) - mu| <= RESIDUAL_RTOL * max(1, |mu|)
DOUBLE_ROOT_RTOL = 1e-10     # |mu - mu_bar| below this collapses the bracket
CRITICAL_WEIGHT_ATOL = 1e-14  # exact-zero tolerance on a - (n-p)/p
PLACEMENT_TOL = 1e-10        # slack of each case-table inequality

_FMAX = sys.float_info.max


def _real(value, name):
    """value as an int or a float; DomainError unless a finite real number."""
    number = value
    # plain ints and floats, all that step 01 draws, skip the type tests
    if type(value) is not float and type(value) is not int:
        # a bool is an Integral, but not a number here
        if isinstance(value, bool) or not isinstance(value, Real):
            raise DomainError(f"{name} must be a real number, got {value!r}")
        try:
            # numpy scalars and other reals become int or float, so that a
            # float32 field does not carry its rounding into the roots
            number = int(value) if isinstance(value, Integral) else float(value)
        except OverflowError:  # a Fraction beyond the float range
            number = math.inf
    # an int beyond the float range is not finite either
    if not -_FMAX <= number <= _FMAX:
        raise DomainError(f"{name} must be finite, got {value!r}")
    return number


class ProblemParams(namedtuple("ProblemParams", "n p a mu lam",
                               defaults=(0.0, 0.0, 0.0))):
    """Equation parameters shared by every module, checked on construction.

    n    -- space dimension (integer, >= 2)
    p    -- quasi-linear exponent, 1 < p < n
    a    -- radial weight exponent (|x|^(-ap) under the divergence)
    mu   -- coefficient of the singular zero-order term
    lam  -- eigenvalue coefficient (>= 0 where used)

    An immutable tuple of these five fields: _make and _replace, pickle and
    copy all build it through __new__, so every record has passed its checks.
    """

    __slots__ = ()

    def __new__(cls, n, p, a=0.0, mu=0.0, lam=0.0):
        n, p, a, mu, lam = (_real(n, "n"), _real(p, "p"), _real(a, "a"),
                            _real(mu, "mu"), _real(lam, "lam"))
        if int(n) != n or n < 2:
            raise DomainError("n must be an integer >= 2")
        if not (1.0 < p < n):
            raise DomainError("p must lie in (1, n)")
        if lam < 0.0:
            raise DomainError("lam must be >= 0 (no positive solutions otherwise)")
        return tuple.__new__(cls, (n, p, a, mu, lam))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class RootPlacement(Enum):
    """Which side of the case table a root pair falls on."""

    BELOW_CRITICAL_NONNEG_MU = "a < (n-p)/p, 0 <= mu <= mu_bar"
    BELOW_CRITICAL_NEG_MU = "a < (n-p)/p, mu < 0"
    AT_CRITICAL = "a = (n-p)/p, mu <= 0"
    ABOVE_CRITICAL_NONNEG_MU = "a > (n-p)/p, 0 <= mu <= mu_bar"
    ABOVE_CRITICAL_NEG_MU = "a > (n-p)/p, mu < 0"


class IndicialData(NamedTuple):
    """Solved root pair with its classification.

    gamma1 <= gamma_star <= gamma2 always; all three coincide exactly when
    double_root is set.
    """

    mu_bar: float
    gamma_star: float
    gamma1: float
    gamma2: float
    placement: RootPlacement
    double_root: bool


def hardy_best_constant(n, p, a=0.0):
    """Best constant |(n-(a+1)p)/p|^p of the two-weight Hardy inequality.

    Vanishes exactly at a = (n-p)/p.  n, p and a may also be arrays that
    broadcast; every p must then lie in (1, n).  numpy's array power may
    differ from the scalar one in the last bit.
    """
    inside = (1.0 < p) & (p < n)
    # a Python bool for scalars, which skips numpy's per-call cost
    if not (inside if isinstance(inside, bool) else inside.all()):
        raise DomainError("p must lie in (1, n)")
    return abs((n - (a + 1.0) * p) / p) ** p


def eigen_rate_alpha(lam, p):
    """Exponential rate (lam/(p-1))^(1/p) of entire eigenfunctions, lam > 0."""
    # written so that NaN fails each rule
    if not lam > 0.0:
        raise DomainError("rate defined for lam > 0 only")
    if not lam < math.inf:
        raise DomainError("lam must be finite")
    if not 1.0 < p < math.inf:
        raise DomainError("p must exceed 1 and be finite")
    return (lam / (p - 1.0)) ** (1.0 / p)


def gamma_star(n, p, a=0.0):
    """Location (n-(a+1)p)/p of the index function's maximum."""
    return (n - (a + 1.0) * p) / p


def auxiliary_f(gamma, n, p, a=0.0):
    """Index function |g|^(p-2) g (n-(a+1)p-(p-1)g); f(0) = 0 by continuity."""
    return _index_f(gamma, p - 1.0, n - (a + 1.0) * p)


def _index_f(gamma, q, big_d):
    """The index function at gamma from q = p-1 and D = n-(a+1)p.

    The one evaluation of |g|^q sign(g) (D - q g) shared by auxiliary_f,
    the residual check of indicial_roots and _newton_on_gamma.
    """
    if gamma == 0.0:
        return 0.0
    # |g|^(p-1) sign(g), not |g|^(p-2) g: the latter overflows for subnormal
    # g when p < 2
    return math.copysign(abs(gamma) ** q, gamma) * (big_d - q * gamma)


_LOG_TINY = math.log(5e-324)  # ln of the smallest positive double
_LOG_HUGE = math.log(_FMAX)  # ln of the largest double
_LOG_2 = math.log(2.0)
# relative accuracy wanted of a root: one ulp of x = ln|gamma| is this
# coarse in gamma once |x| >= 64, and such roots take a Newton step on gamma
_ROOT_RTOL = 1e-14
# Bisection alone reaches 4 ulp of x from any closed-form bracket in about
# 60 steps; the cap only bounds roots at x ~ 0, where ulp(x) is far finer
# than the resolution of gamma itself.
_MAX_STEPS = 200


def _solve_branches(mu, p, big_d):
    """Both roots of the index equation for mu < mu_bar, mu != 0.

    Works on the canonical orientation D > 0 (the index function is even
    under (gamma, D) -> (-gamma, -D)) and solves g(x) = f(+-e^x) - mu in
    x = ln|gamma|, which resolves the extreme root magnitudes that appear
    for p close to 1.  Each root is bracketed in closed form from the
    power-law bounds of the index function and found by a safeguarded
    Newton iteration (rtsafe, Numerical Recipes 9.4) on the closed-form
    slope dg/dx = (p-1)(f - |gamma|^p).  Every evaluation narrows the
    bracket by the sign of g; a Newton step that would leave the bracket is
    replaced by bisection.  The iteration starts from the power-law estimate
    of the root clipped to its bracket, stops after evaluating the first
    step within 4 ulp of x, and returns the iterate of smallest |g|; over
    the draws of `plap all` a root takes 6.3 evaluations of f on average.
    Where one ulp of x exceeds _ROOT_RTOL, one Newton step on gamma itself
    follows (_newton_on_gamma).
    Logs of ratios are taken as differences, so they stay finite when mu is
    near the smallest double.
    """
    if big_d < 0.0:
        m1, m2 = _solve_branches(mu, p, -big_d)
        return -m2, -m1
    q = p - 1.0
    log_d, log_p, log_q = math.log(big_d), math.log(p), math.log(q)
    x_star = log_d - log_p
    x_edge = log_d - log_q
    exp, ulp, inf = math.exp, math.ulp, math.inf

    def root(sign, x_lo, x_hi, x, rising=False):
        """The root sign * e^x with x in [x_lo, x_hi], started from x; g
        rises with x on the bracket if rising and falls on it otherwise."""
        x = min(max(x, x_lo), x_hi)
        best_x, best_g = x, inf
        last = False
        positive = sign > 0.0
        for _ in range(_MAX_STEPS):
            t = exp(x)
            a = t ** q
            # sign * a * (D - q * sign * t); negating is exact
            f = a * (big_d - q * t) if positive else -(a * (big_d + q * t))
            g = f - mu
            size = abs(g)
            if size < best_g:
                best_x, best_g = x, size
            if g == 0.0 or last:
                break
            if (g < 0.0) == rising:
                x_lo = x
            else:
                x_hi = x
            slope = q * (f - a * t)
            # a slope that vanishes (gamma below the smallest double) or
            # overflows (|gamma|^p near the largest double) gives no step
            step = -g / slope if 0.0 < abs(slope) < inf else inf
            tol = 4.0 * ulp(x)
            # a step this small lands within rounding of the root: take it,
            # evaluate there once more and stop
            last = -tol <= step <= tol
            if not last and not x_lo < x + step < x_hi:
                step = 0.5 * (x_lo + x_hi) - x
                last = -tol <= step <= tol
            x += step
        if ulp(best_x) > _ROOT_RTOL:
            return _newton_on_gamma(sign * exp(best_x), mu, q, big_d)
        return sign * exp(best_x)

    if mu > 0.0:
        # both roots positive.  On (0, g_star), D g^q / p <= f <= D g^q puts
        # g1 between (mu/D)^(1/q) and (p mu/D)^(1/q); a g1 below the
        # smallest double is bracketed up to that double.  g2 lies in
        # (g_star, edge), whose end is pushed past the zero crossing so its
        # sign does not ride on rounding noise when mu is tiny.
        x_mu = (math.log(mu) - log_d) / q
        g1 = root(1.0, x_mu - 1.0,
                  min(x_star, max(x_mu + log_p / q + 1.0, _LOG_TINY)),
                  x_mu, rising=True)
        g2 = root(1.0, x_star, x_edge + 1e-7, x_edge)
    else:
        # g1 < 0 with |g1| solving D g^q + q g^p = M, M = -mu: at the root
        # neither term exceeds M and the larger is at least M/2.  A root
        # below the smallest double is bracketed up to that double.  g2 > edge,
        # where f <= -q g^p / 2 once g >= 2 edge; it starts from the lower
        # bound q g^p = M + D g^q >= M + D edge^q.
        log_m = math.log(-mu)
        x_lo = min((log_m - _LOG_2 - log_d) / q,
                   (log_m - math.log(2.0 * q)) / p) - 1.0
        x_hi = max(min((log_m - log_d) / q, (log_m - log_q) / p) + 1.0,
                   _LOG_TINY)
        x_g2 = (math.log(big_d * math.exp(q * x_edge) - mu) - log_q) / p
        x_top = 1.0 + max(_LOG_2 + x_edge, (_LOG_2 + log_m - log_q) / p)
        if x_top > _LOG_HUGE:
            # g2 > |g1|, so both roots are representable when the lower
            # bound of g2 is, and then both brackets can end at the largest
            # double
            if x_g2 > _LOG_HUGE:
                raise DomainError(f"root gamma2 >= e^{x_g2:.6g} exceeds the "
                                  "largest double")
            x_hi = min(x_hi, _LOG_HUGE)
            x_top = _LOG_HUGE
        g1 = root(-1.0, x_lo, x_hi, 0.5 * (x_lo + x_hi))
        g2 = root(1.0, x_edge - 1e-7, x_top, x_g2)
    return g1, g2


def _newton_on_gamma(gamma, mu, q, big_d):
    """gamma after one Newton step on g = f(gamma) - mu, or gamma itself
    when |g| is within the rounding of f or the step does not lower |g|.

    With t = |gamma| and a = t^q, f = sign(gamma) a (D - q gamma) and
    dg/dgamma = q a ((D - q gamma)/t - sign(gamma)); a step that overflows
    or divides by zero is dropped.  f is rounded by about
    eps a (|D| + q t), and where f is flat in gamma (p near 1) a step from
    a g that small moves gamma by rounding noise.
    """
    sign, t = math.copysign(1.0, gamma), abs(gamma)
    try:
        a = t ** q
        g = _index_f(gamma, q, big_d) - mu
        if abs(g) <= 4.0 * sys.float_info.epsilon * a * (abs(big_d) + q * t):
            return gamma
        new = gamma - g / (q * a * ((big_d - q * gamma) / t - sign))
        new_g = _index_f(new, q, big_d) - mu
    except (OverflowError, ZeroDivisionError):
        return gamma
    return new if abs(new_g) < abs(g) else gamma


def _adjacent_f(gamma, n, p, a):
    """Index function at the two doubles adjacent to gamma."""
    return [auxiliary_f(math.nextafter(gamma, toward), n, p, a)
            for toward in (-math.inf, math.inf)]


def step_change(gamma, n, p, a=0.0):
    """Largest change of the index function across one double step at gamma.

    A root resolved to one representable step can leave a residual up to
    this size.  It exceeds RESIDUAL_RTOL only where f is extremely steep:
    near 0 with p close to 1, f ~ D |gamma|^(p-1) can jump by 1e-9 between
    0 and 5e-324.
    """
    f = auxiliary_f(gamma, n, p, a)
    return max(abs(g - f) for g in _adjacent_f(gamma, n, p, a))


def indicial_roots(params: ProblemParams) -> IndicialData:
    """Both real roots of the index equation f(gamma) = mu, classified.

    Raises NoRealRoot when mu exceeds mu_bar beyond tolerance.  A double root
    gamma1 = gamma2 = gamma_star is reported when |mu - mu_bar| is within the
    detection tolerance (below it f(gamma_star) - mu, the sign that splits
    the two root brackets, is too close to rounding noise to trust).
    """
    n, p, a, mu = params.n, params.p, params.a, params.mu
    # the expressions of gamma_star and hardy_best_constant, whose range
    # check ProblemParams has made
    big_d = n - (a + 1.0) * p
    gs = big_d / p
    mu_bar = abs(gs) ** p

    if mu > mu_bar + RESIDUAL_RTOL * max(1.0, mu_bar):
        raise NoRealRoot(
            f"mu={mu!r} exceeds the admissible maximum mu_bar={mu_bar!r}"
        )

    if abs(mu - mu_bar) <= DOUBLE_ROOT_RTOL * max(1.0, mu_bar):
        g1 = g2 = gs
        double = True
    elif mu == 0.0:
        # factors exactly: gamma = 0 or gamma = (n-(a+1)p)/(p-1)
        other = big_d / (p - 1.0)
        g1, g2 = min(0.0, other), max(0.0, other)
        double = False
    elif big_d == 0.0:
        # degenerate peak: f(gamma) = -(p-1)|gamma|^p, roots symmetric; here
        # mu < -DOUBLE_ROOT_RTOL
        x_mag = (math.log(-mu) - math.log(p - 1.0)) / p
        if x_mag > _LOG_HUGE:
            raise DomainError(f"root gamma2 = e^{x_mag:.6g} exceeds the "
                              "largest double")
        ratio = -mu / (p - 1.0)
        # the ratio itself can overflow below a representable root
        mag = ratio ** (1.0 / p) if ratio < math.inf else math.exp(x_mag)
        g1, g2 = -mag, mag
        double = False
    else:
        g1, g2 = _solve_branches(mu, p, big_d)
        double = False

    bound = RESIDUAL_RTOL * max(1.0, abs(mu))
    if double:
        bound = max(bound, DOUBLE_ROOT_RTOL * max(1.0, mu_bar))
    q = p - 1.0
    for root in (g1, g2):
        resid = _index_f(root, q, big_d) - mu
        # a sign change of f - mu between root and an adjacent double
        # resolves the root to one representable step, whatever the residual;
        # both tests are written to fail on a NaN residual
        if not abs(resid) <= bound and not any(
                resid * (g - mu) <= 0.0 for g in _adjacent_f(root, n, p, a)):
            raise RuntimeError(
                f"root residual {abs(resid):g} exceeds tolerance {bound:g}")

    d = a - (n - p) / p
    if abs(d) <= CRITICAL_WEIGHT_ATOL:
        placement = RootPlacement.AT_CRITICAL
    elif d < 0.0:
        placement = (RootPlacement.BELOW_CRITICAL_NONNEG_MU if mu >= 0.0
                     else RootPlacement.BELOW_CRITICAL_NEG_MU)
    else:
        placement = (RootPlacement.ABOVE_CRITICAL_NONNEG_MU if mu >= 0.0
                     else RootPlacement.ABOVE_CRITICAL_NEG_MU)

    return IndicialData(mu_bar, gs, g1, g2, placement, double)


def placement_satisfied(data: IndicialData, n, p, a):
    """Check the case-table inequalities, non-strict at PLACEMENT_TOL.

    Scalars give a bool.  data's gamma1, gamma2, gamma_star and placement
    may also be arrays, broadcasting with n, p and a (placement an object
    array of RootPlacement members); the result is then a bool array, equal
    elementwise to the scalar check, as every inequality is the same
    comparison of the same doubles.
    """
    tol = PLACEMENT_TOL
    g1, g2, gs = data.gamma1, data.gamma2, data.gamma_star
    edge = (n - (a + 1.0) * p) / (p - 1.0)
    case = data.placement
    # every case's inequalities are evaluated and the placement picks one;
    # & and | act on Python bools as on numpy bool arrays
    return (
        (case == RootPlacement.BELOW_CRITICAL_NONNEG_MU) & (-tol <= g1)
        & (g1 <= gs + tol) & (gs <= g2 + tol) & (g2 <= edge + tol)
        | (case == RootPlacement.BELOW_CRITICAL_NEG_MU) & (g1 <= tol)
        & (0.0 <= edge + tol) & (edge <= g2 + tol)
        | (case == RootPlacement.AT_CRITICAL) & (g1 <= tol) & (-tol <= g2)
        | (case == RootPlacement.ABOVE_CRITICAL_NONNEG_MU) & (edge - tol <= g1)
        & (g1 <= gs + tol) & (gs <= g2 + tol) & (g2 <= tol)
        | (case == RootPlacement.ABOVE_CRITICAL_NEG_MU) & (g1 <= edge + tol)
        & (edge <= tol) & (-tol <= g2))
