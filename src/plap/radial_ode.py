"""Radial and 1-D reductions: integration, shooting, and decay-rate fitting.

Every radial solver works with ln u and a log-derivative, never u itself,
and every profile is (r, ln u, ratio = u'/u); u and u' are derived from
them.  u underflows float64 once ln(u) drops below about -745, while the
pair stays finite on any span.  The ratio flow repels the decaying branch
at rate exp(p*alpha*r) going outward and attracts it at the same rate going
inward.  Far out the branch is its asymptotic series in s = 1/r
(far_field_series), and inside the radius where that series is exact to
rounding it is found by one inward integration seeded with the series; no
outward shooting or bisection on the initial ratio is needed.  That inward
pass is integrated with LSODA in s, where the branch is a regular series:
the attraction makes the flow stiff (an explicit Runge-Kutta method is held
to steps |h| of order 1/(p*alpha) in r by stability alone, although sigma
itself varies slowly), and a stiff-switching method takes steps limited
only by accuracy.  ln u is then a quadrature of sigma, and beyond the
series' reach the series' closed-form integral.  Every pass here, the ratio
flow's included, runs through the one ODEPACK driver _odeint.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from numbers import Integral
from typing import NamedTuple

import numpy as np
# solve_ivp is not called here: bench/spans.py wraps radial_ode.solve_ivp
from scipy.integrate import ODEintWarning, odeint, solve_ivp

from .errors import DomainError, IllConditioned, SingularRatio, StepFailure
from .indicial import eigen_rate_alpha

# ODEPACK's cap on the steps between two output points of an odeint pass,
# raised from its default of 500 so that no pass stops for it: the exterior
# shot took about 2.3k steps between two outputs in r.  In s from the far
# field series' reach it takes at most 9 on the far-field workload, and up
# to about 300 where the reach lies far beyond r_max (its first output
# interval at (200, 1.5, 1), r_max = 40).
_ODEINT_MXSTEP = 100_000
_ODEINT_SUCCESS = "Integration successful."
RICCATI_SAMPLES = 501  # points of t at which riccati_ratio_flow reports s
# The exterior shot's pass in s = 1/r takes steps of at most 1/(400 r0).
# Uncapped, LSODA's BDF steps where sigma turns from -alpha to its 1/r
# growth near r0 each spend the whole tolerance, and their errors add up to
# 1.3e-12 in sigma(r0) at (n, p, lam) = (6, 2.2, 0.7) against a 20-digit
# reference (1.9e-13 with the cap, at about 4% more RHS evaluations on the
# far-field workload: 505 against 486 per shot).
_S_STEP_MAX = 1.0 / 400.0
# its quadrature of ln u takes steps of ln r of at most 1/200
_QUAD_STEPS_PER_UNIT_LOG_R = 200
# The span of the shot's ln u quadrature is capped at p*alpha*r <= 2e5.
# Its closed-form sigma' and sigma'' carry the rounding of sigma amplified
# by about (p*alpha*r) and (p*alpha*r)^2, so the relative error of ln u
# grows with the span: at most 7.3e-12 at 2e5 and up to 1.4e-9 at 2e6 over
# ten cases with 1.05 <= p <= 10, 2.3e-3 at 2e10 and 29 at 2e12 (n = 3,
# p = 2, lam = 1, when the pass spanned the profile).  The far-field
# workload reaches about 7.6e4.  The profile beyond the quadrature comes
# from the far-field series' closed form, which the cap does not concern.
_MAX_STIFF_SPAN = 2e5
# Order K of far_field_series, from which the exterior shot takes its
# profile beyond the series' reach.  On the far-field workload's 16 draws
# of seed 1011 the shot's mean RHS evaluations fall with K: 629 at K = 8,
# 519 at 16, 505 at 20, 486 at 25 and 479 at 40 (median reach 204, 26,
# 20, 17, 15), while the coefficients take 0.06 ms at K = 20 and 0.17 ms
# at 40.  Past K = 20 the saving no longer pays for the longer recurrence.
SERIES_ORDER = 20
_EPS = math.ulp(1.0)
# largest profile that a shot returns, in grid_points radii:
# `plap shoot` peaked at about 286 B per profile point (tracemalloc, 2e4
# and 2e5 points) and took about 2.2 s per 1e5 points, so 2^22 points take
# about 1.2 GB and 90 s
MAX_PROFILE_POINTS = 2 ** 22


@dataclass
class RadialProfile:
    """Sampled radial solution as (r, ln u, u'/u) on an increasing grid.

    log_u and ratio are the data and stay finite where u itself underflows
    to zero; u and du are derived from them on each read.
    """

    r: np.ndarray
    log_u: np.ndarray
    ratio: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.log_u = np.asarray(self.log_u, dtype=float)
        self.ratio = np.asarray(self.ratio, dtype=float)
        if (self.r.ndim != 1 or self.r.shape != self.log_u.shape
                or self.r.shape != self.ratio.shape):
            raise DomainError("r, log_u, ratio must be 1-D arrays of equal length")
        if not np.all(np.diff(self.r) > 0.0):
            raise DomainError("r must be strictly increasing")
        if np.any(self.r <= 0.0):
            raise DomainError("r must be positive")
        if not np.all(np.isfinite(self.log_u)):
            raise DomainError("log_u must be finite")
        if not np.all(np.isfinite(self.ratio)):
            raise DomainError("ratio must be finite")

    @property
    def u(self) -> np.ndarray:
        """exp(log_u), zero where it underflows."""
        with np.errstate(under="ignore"):
            return np.exp(self.log_u)

    @property
    def du(self) -> np.ndarray:
        """u' = ratio * u."""
        return self.ratio * self.u

    @property
    def r_min(self) -> float:
        return float(self.r[0])

    @property
    def r_max(self) -> float:
        return float(self.r[-1])


@dataclass(frozen=True)
class ShootResult:
    """An exterior shot's decaying profile with its integration counters.

    nfev is the number of right-hand-side evaluations of the shot's one
    integration pass; bisection_iters is always 0 (no shot bisects).
    """

    profile: RadialProfile
    bisection_iters: int
    nfev: int


class DecayFit(NamedTuple):
    rate: float
    power: float
    log_scale: float
    rms: float


def _odeint(rhs, y0, t, **options):
    """(y, nfev) of one odeint pass (ODEPACK's LSODA) of rhs(t, y) over t,
    increasing or decreasing; nfev counts every RHS call, the Jacobian's
    included.  Raises StepFailure with ODEPACK's message if the pass stops
    early.  The state is not checked: an overflow still reports success."""
    with warnings.catch_warnings():
        # a failed pass is reported from the message in `info`
        warnings.simplefilter("ignore", ODEintWarning)
        y, info = odeint(rhs, y0, t, mxstep=_ODEINT_MXSTEP, full_output=True,
                         tfirst=True, **options)
    if info["message"] != _ODEINT_SUCCESS:
        raise StepFailure(info["message"])
    return y, int(info["nfe"][-1])


def riccati_ratio_flow(lam, p, s0, t_span):
    """Flows of the ratio s = v'/v: (p-1) s^(p-2) s' + (p-1) s^p = lam.

    The unique positive rest point is alpha = (lam/(p-1))^(1/p).  lam, p and
    s0 broadcast against each other, and every flow of the broadcast shape
    is integrated in one vector system on the shared samples; a scalar call
    is a flow of shape ().  Returns (t, s) with t of shape (RICCATI_SAMPLES,)
    and s of shape broadcast + t.shape.

    The system is the same flow in w = s^(p-1), w' = lam - (p-1) w^(p/(p-1)),
    whose right-hand side stays bounded and C^1 where s reaches zero (the
    s^(2-p) term of s' is singular there for p > 2, and the step size
    collapses before s gets to zero).  Below zero w^(p/(p-1)) is taken as 0,
    so a flow that crosses zero goes on linearly instead of blowing up.  The
    pass is scipy's odeint (ODEPACK's LSODA, its step loop in compiled code)
    at rtol = 1e-12 and atol = 1e-14, with a diagonal banded Jacobian since
    the flows are independent.  Raises DomainError on an empty broadcast or
    a t_span that is not two distinct ends, StepFailure with ODEPACK's
    message if the pass stops early, and SingularRatio naming the first
    sample time at which a flow is at or below 1e-12 (or not finite);
    lam < 0 drives every flow to zero by t0 + s0^(p-1)/|lam|.
    """
    lam, p, s0 = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                       for v in (lam, p, s0)))
    if lam.size == 0:
        raise DomainError("lam, p and s0 broadcast to the empty shape "
                          f"{lam.shape}")
    # written so that NaN fails each rule
    if not np.all(s0 > 0.0):
        raise DomainError("s0 must be positive")
    if not np.all((p > 1.0) & (p < math.inf)):
        raise DomainError("p must exceed 1 and be finite")
    t_span = np.asarray(t_span, dtype=float)
    if t_span.shape != (2,):
        raise DomainError(f"t_span must be (t0, t1), got shape {t_span.shape}")
    if not (np.isfinite(lam).all() and np.isfinite(t_span).all()):
        raise DomainError("lam and t_span must be finite")
    if t_span[0] == t_span[1]:
        raise DomainError(f"t_span starts and ends at {float(t_span[0])!r}: "
                          "its ends must differ")
    q = (p - 1.0).ravel()
    lam_flat, expo = lam.ravel(), p.ravel() / q
    with np.errstate(over="ignore"):
        w0 = s0.ravel() ** q
        # w moves monotonically to lam/(p-1), so its largest power
        # w^(p/(p-1)) = s^p in the right-hand side is at the start or there
        top = w0 ** expo
    if not np.all(top < math.inf):
        raise DomainError("s0^p must be below the largest double")

    def rhs(_t, w):
        return lam_flat - q * np.maximum(w, 0.0) ** expo

    t = np.linspace(float(t_span[0]), float(t_span[1]), RICCATI_SAMPLES)
    w, _ = _odeint(rhs, w0, t, ml=0, mu=0, rtol=1e-12, atol=1e-14)
    s = np.maximum(w, 0.0) ** (1.0 / q)
    # w0 rounds s0, or underflows for a tiny s0; the start is not checked
    s[0] = s0.ravel()
    zero = ~((s[1:] > 1e-12) & (s[1:] < math.inf)).all(axis=1)
    if zero.any():
        raise SingularRatio("ratio reached zero by "
                            f"t={float(t[1 + np.argmax(zero)])!r}")
    return t, s.T.reshape(s0.shape + t.shape)


def _ratio_rhs_s(n, p, lam):
    """RHS of the radial exterior ratio flow in s = 1/r.

    With sigma = u'/u, (r^(n-1)|u'|^(p-2)u')' = lam r^(n-1) u^(p-1) becomes
        dsigma/dr = k |sigma|^(2-p) - sigma^2 - c sigma / r,
    k = lam/(p-1) and c = (n-1)/(p-1), and with dr/ds = -1/s^2
        dsigma/ds = (sigma^2 + c sigma s - k |sigma|^(2-p)) / s^2,
    whose decaying branch has the series -alpha - (c/p) s - ... near s = 0
    (far_field_series).  It works on Python floats and returns a tuple,
    since a shot evaluates it about five hundred times.
    """
    k = lam / (p - 1.0)
    c = (n - 1.0) / (p - 1.0)
    e = p - 2.0

    def rhs(s, y):
        sig, = y.tolist()
        core = k / abs(sig) ** e if sig != 0.0 else 0.0
        return ((sig * (sig + c * s) - core) / s / s,)

    return rhs


def _log_u_quadrature(r, sigma, n, p, lam):
    """ln u(r) - ln u(r[0]) on the increasing radii r from sigma = u'/u.

    Each interval [r_a, r_b], h = r_b - r_a, takes the two-point quintic
    Hermite rule
        h/2 (sigma_a + sigma_b) + h^2/10 (sigma'_a - sigma'_b)
        + h^3/120 (sigma''_a + sigma''_b),
    with sigma' and sigma'' in closed form from the flow.  They are carried
    as y = r sigma, r^2 sigma' and r^3 sigma'', against the powers of h/r_a
    and h/r_b, which stay finite wherever sigma does.
    """
    k = lam / (p - 1.0)
    c = (n - 1.0) / (p - 1.0)
    y = r * sigma
    g = k * r * r * np.abs(sigma) ** (2.0 - p)  # r^2 k |sigma|^(2-p)
    y1 = g - y * y - c * y                      # r^2 sigma'
    y2 = c * y + ((2.0 - p) * g / y - 2.0 * y - c) * y1  # r^3 sigma''
    h = np.diff(r)
    a, b = h / r[:-1], h / r[1:]
    pieces = ((a * y[:-1] + b * y[1:]) / 2.0
              + (a * a * y1[:-1] - b * b * y1[1:]) / 10.0
              + (a ** 3 * y2[:-1] + b ** 3 * y2[1:]) / 120.0)
    return np.concatenate(([0.0], np.cumsum(pieces)))


def radial_exterior_eigen(n, p, lam, r0, r_max, grid_points=800) -> ShootResult:
    """Decaying positive exterior solution of the radial eigen-equation.

    Far out the decaying branch is the series sigma = u'/u = a_0 + a_1 s
    + ... + a_K s^K in s = 1/r of far_field_series.  Its reach,
    meta["series_radius"], is the smallest radius from which each of its
    last two terms is at most eps/4 of alpha; meta["series_terms"] is the
    number of coefficients (K + 1 = SERIES_ORDER + 1 unless one is not
    finite).  Profile radii at or beyond the reach take sigma from the
    series and ln u from its closed-form integral (see _series_log_u).  The
    rest come from one inward LSODA pass of the ratio flow in s, seeded with
    the series value at r_start: the first profile radius at or beyond the
    reach, or min(reach, r_max + 35/(p*alpha)) when the reach lies beyond
    r_max; there the seed is the series summed up to its smallest pair of
    terms (see _series_seed).  Going inward the branch attracts the flow at
    rate exp(p*alpha*(r_start - r)), so in the second case the seed's error
    is damped by at least about e^-35 before r_max.  The same attraction makes
    the pass stiff: an explicit Runge-Kutta method must keep |h| below about
    6/(p*alpha) in r for stability whatever the accuracy asked, while LSODA
    switches to a BDF method and takes steps limited only by the smoothness
    of sigma.  In s the branch is a regular series, where in r its 1/r tail
    keeps the steps short.  A far-field shot (r_max = 2e4, 1600 radii)
    takes about 500 RHS evaluations (505 on average over the 16 far-field
    benchmark draws of seed 1011, whose reaches lie between 11 and 30); a
    pass from r_max + 35/(p*alpha) seeded with -alpha took about 980, and
    one in r about five thousand.  At (n, p) = (3, 2) the series ends at
    a_1, so its reach is 0, no pass runs and nfev is 0.

    The pass is scipy's odeint, ODEPACK's LSODA with the step loop and the
    output interpolation in compiled code, at rtol = 3e-14 and atol = 1e-16
    with its internally generated Jacobian, over the increasing s from
    1/r_start to 1/r0 with steps of at most 1/(400 r0) (see _S_STEP_MAX).
    ln u is then the integral of sigma in r by a two-point quintic Hermite
    rule (see _log_u_quadrature) on an internal grid that holds every
    profile radius of the pass and splits each profile interval into equal
    steps of ln r of at most 1/200, so that a coarse profile grid does not
    set the quadrature's error; sigma is read from the pass on that grid
    too.  The rule's sigma' and sigma'' pass on the rounding of sigma
    amplified by the flow's stiffness, so where the pass spans the whole
    profile the relative error of ln u grows like (alpha r_max)^2: about
    4e-13 at alpha r_max = 1e5, 2e-7 at 1e8 and 2e-3 at 1e10.  Where the
    reach lies inside the profile the quadrature stops at the first profile
    radius at or beyond it, and the series' closed form takes over.  The
    shot therefore raises DomainError when the quadrature's span, to that
    radius or to r_max, reaches past p*alpha*r = 2e5 (see _MAX_STIFF_SPAN),
    where the error is below about 1e-11; r_max itself is not bounded.  The
    Bessel branch at p = 2 is within 2.3e-14 relative in ln u at
    r_max = 1e8 (n = 2 and 4, reaches 24).  The profile lives on
    a log-spaced grid of grid_points radii from r0 to r_max, an integer
    from 2 to MAX_PROFILE_POINTS (DomainError otherwise), and is normalized
    to u(r0) = 1; meta["shoot_param"] is the realized initial ratio
    u'(r0)/u(r0) and nfev is ODEPACK's count of RHS evaluations.
    Raises OverflowError when the series' ln u, about -alpha r, leaves the
    double range before r_max, and StepFailure with ODEPACK's message if
    the pass stops early, and
    naming the first radius at which sigma is no longer finite if it leaves
    the double range (sigma ~ -c/r overflows its square near r ~ 1e-154).
    """
    if not (math.isfinite(n) and r0 > 0.0 and r_max < math.inf):
        raise DomainError("n and r_max must be finite and r0 positive")
    if r_max < 10.0 * r0:
        raise DomainError("r_max must be at least 10*r0")
    if not (isinstance(grid_points, Integral) and grid_points >= 2):
        raise DomainError("grid_points must be an integer >= 2, "
                          f"got {grid_points!r}")
    if grid_points > MAX_PROFILE_POINTS:
        raise DomainError(f"grid_points {grid_points} exceeds the cap of "
                          f"{MAX_PROFILE_POINTS} profile points")
    alpha = eigen_rate_alpha(lam, p)
    coef = far_field_series(n, p, lam)
    reach = _series_reach(coef)
    r_grid = np.geomspace(r0, r_max, grid_points)
    # the profile radii from r_grid[k] on lie at or beyond the reach and
    # take sigma and ln u from the series; the pass runs from r_grid[k]
    # (from beyond r_max when k = grid_points) down to r0
    k = int(np.searchsorted(r_grid, reach))
    if k < grid_points:
        sigma = np.polyval(coef[::-1], 1.0 / r_grid[k:])
        with np.errstate(over="ignore"):  # -alpha r past the double range
            log_u = _series_log_u(coef, r_grid[k:])
        if not np.isfinite(log_u[-1]):
            raise OverflowError("ln u of the far-field series leaves the "
                                f"double range before r_max = {r_max:g}")
    else:
        sigma = log_u = np.empty(0)
    nfev = 0
    if k > 0:
        # the ln u quadrature spans the profile radii up to r_grid[j]
        j = min(k, grid_points - 1)
        span = p * alpha * float(r_grid[j])
        if not span <= _MAX_STIFF_SPAN:
            raise DomainError(f"p*alpha*r must be at most {_MAX_STIFF_SPAN:g}"
                              f" over the inward pass, got {span:g} at its "
                              f"outer profile radius {r_grid[j]:g}")
        # the quadrature grid splits each profile interval into m equal
        # steps of ln r, each at most 1/200, and holds every profile radius
        # exactly
        m = math.ceil(_QUAD_STEPS_PER_UNIT_LOG_R * math.log(r_max / r0)
                      / (grid_points - 1))
        r_fine = np.geomspace(r0, r_grid[j], j * m + 1)
        r_fine[::m] = r_grid[:j + 1]
        r_out = r_fine[::-1]
        if k < grid_points:
            seed = sigma[0]
        else:
            r_start = min(reach, r_max + 35.0 / (p * alpha))
            seed = _series_seed(coef, 1.0 / r_start)
            r_out = np.concatenate(([r_start], r_out))
        s_out = 1.0 / r_out
        y, nfev = _odeint(_ratio_rhs_s(n, p, lam), [seed], s_out,
                          tcrit=s_out[-1:], hmax=_S_STEP_MAX / r0, rtol=3e-14,
                          atol=1e-16)
        # ODEPACK reports success on a state that overflowed to inf or NaN
        bad = ~np.isfinite(y).all(axis=1)
        if bad.any():
            raise StepFailure("inward pass left the double range at "
                              f"r = {r_out[np.argmax(bad)]:g}")
        # the rows run from the start down to r0
        sigma_fine = y[::-1, 0][:r_fine.size]
        log_pass = _log_u_quadrature(r_fine, sigma_fine, n, p, lam)[::m]
        sigma = np.concatenate((sigma_fine[::m][:k], sigma))
        log_u = np.concatenate((log_pass[:k], log_pass[k:] + log_u))

    meta = {"kind": "radial_exterior_eigen", "n": n, "p": p, "lam": lam,
            "r0": r0, "r_max": r_max, "alpha": alpha,
            "shoot_param": float(sigma[0]), "series_radius": reach,
            "series_terms": int(coef.size)}
    profile = RadialProfile(r=r_grid, log_u=log_u, ratio=sigma, meta=meta)
    return ShootResult(profile=profile, bisection_iters=0, nfev=nfev)


def hardy_power_residual(n, p, a, mu, gamma, r_samples):
    """Normalized residual of u = r^(-gamma) in the weighted radial equation.

    Evaluates -(r^(n-1-ap)|u'|^(p-2)u')' - mu r^(n-1-(a+1)p) u^(p-1) from the
    closed-form derivative at each sample and divides by the common power
    r^(n-1-(a+1)p-(p-1)gamma); the result is |f(gamma) - mu| up to rounding
    (the largest over the samples).

    n, p, a, mu and gamma are scalars, giving a float, or sequences of one
    length m (scalars among them are repeated), giving an (m,) array whose
    entry i equals the scalar call on the i-th values bit for bit.  Raises
    DomainError when r_samples is empty or a sample is not positive and
    finite.
    """
    r = np.ravel(np.asarray(r_samples, dtype=float))
    if r.size == 0:
        raise DomainError("r_samples is empty")
    if not np.all((r > 0.0) & (r < math.inf)):
        raise DomainError("r_samples must be positive and finite")
    args = (n, p, a, mu, gamma)
    lengths = {len(v) for v in args if np.ndim(v) != 0}
    if len(lengths) > 1:
        raise DomainError(f"n, p, a, mu and gamma have lengths {sorted(lengths)}")
    m = next(iter(lengths), 1)
    columns = [np.asarray(v, float).tolist() if np.ndim(v) else [float(v)] * m
               for v in args]
    # The coefficients stay Python floats: ** is libm's pow, whose bits
    # np.power (a SIMD routine) does not match on about 5% of inputs.  Only
    # the powers of r go through np.power, which gives the same bits for an
    # (m, len(r)) table as for one row at a time.
    flux, e_flux, e_rhs = [], [], []
    for n_i, p_i, a_i, _, g_i in zip(*columns):
        pm1 = p_i - 1.0
        if g_i == 0.0:
            flux_coef = 0.0
        else:
            flux_coef = -abs(g_i) ** (p_i - 2.0) * g_i  # |u'|^(p-2) u' = c * r^...
        e_f = n_i - 1.0 - a_i * p_i - (g_i + 1.0) * pm1
        flux.append(-flux_coef * e_f)
        e_flux.append(e_f - 1.0)
        e_rhs.append(n_i - 1.0 - (a_i + 1.0) * p_i - g_i * pm1)
    lhs = np.array(flux)[:, None] * np.power(r, np.array(e_flux)[:, None])
    norm = np.power(r, np.array(e_rhs)[:, None])
    rhs = np.array(columns[3])[:, None] * norm  # mu r^e_rhs
    resid = np.max(np.abs((lhs - rhs) / norm), axis=1)
    return float(resid[0]) if not lengths else resid


def decay_power(n, p) -> float:
    """Power c = (n-1)/(p(p-1)) of the exterior eigenfunction's far-field
    decay u ~ r^-c exp(-alpha r); (n-1)/2 at p = 2, as r^-nu K_nu(r)."""
    return (n - 1.0) / (p * (p - 1.0))


def far_field_series(n, p, lam) -> np.ndarray:
    """Coefficients a_0..a_K of the decaying branch's far-field series
    sigma = u'/u = a_0 + a_1 s + ... + a_K s^K in s = 1/r, K = SERIES_ORDER.

    a_0 = -alpha and a_1 = -c1/p = -decay_power(n, p), c1 = (n-1)/(p-1).
    The rest follow from the flow of _ratio_rhs_s written as
        s^2 sigma' = sigma^2 + c1 s sigma - alpha^2 (1 - tau/alpha)^e,
    tau = sigma + alpha and e = 2 - p.  With f_0 = 1, f_j = -a_j/alpha and
    (sum f_j s^j)^e = sum P_j s^j, J. C. P. Miller's recurrence for the
    power (Knuth, TAOCP vol. 2, 4.7) gives P_j = R_j + e f_j with
        R_j = (1/j) sum_{0<i<j} ((e+1) i - j) f_i P_{j-i},
    and matching the powers s^j gives, for j >= 1,
        p alpha a_j = sum_{0<i<j} a_i a_{j-i} + (c1 - j + 1) a_{j-1}
                      - alpha^2 R_j.
    At p = 2 the series ends after a_1 for n = 3 (u = exp(-alpha r)/r) and
    is -s^2/(alpha + s) beyond it for n = 5; elsewhere it is asymptotic,
    its coefficients growing about like j!/(p alpha)^j.  The list stops
    before the first coefficient that is not finite, which happens for p
    near 1 at large n.  Raises DomainError unless n is finite, and what
    eigen_rate_alpha raises on lam and p.
    """
    if not math.isfinite(n):
        raise DomainError("n must be finite")
    alpha = eigen_rate_alpha(lam, p)
    c1 = (n - 1.0) / (p - 1.0)
    e = 2.0 - p
    a, f, power = [-alpha], [1.0], [1.0]
    for j in range(1, SERIES_ORDER + 1):
        rest = sum(((e + 1.0) * i - j) * f[i] * power[j - i]
                   for i in range(1, j)) / j
        a_j = (sum(a[i] * a[j - i] for i in range(1, j))
               + (c1 - j + 1.0) * a[j - 1]
               - alpha * alpha * rest) / (p * alpha)
        if not math.isfinite(a_j):
            break
        a.append(a_j)
        f.append(-a_j / alpha)
        power.append(rest + e * f[j])
    return np.array(a)


def _series_reach(coef):
    """Smallest radius from which each of the last two terms of the series
    coef is at most eps/4 of alpha = -coef[0], and inf for fewer than three
    coefficients.  Two terms, not the smallest one: a single coefficient
    can vanish (a_2 at n = 3) where the series goes on."""
    if coef.size < 3:
        return math.inf
    return max((4.0 * abs(float(coef[j])) / (_EPS * -float(coef[0])))
               ** (1.0 / j) for j in (coef.size - 2, coef.size - 1))


def _series_seed(coef, s):
    """The series coef at s, truncated after the order j whose last two
    terms a_(j-1) s^(j-1) and a_j s^j are smallest (the larger of the two;
    the highest such j on ties), the rule of _series_reach.  At or beyond
    the reach that is the whole series.  Inside it an asymptotic series is
    nearest the branch so truncated (Bender and Orszag, 3.8): summed in full
    its growing terms can put the sum anywhere, even above zero (5.8e22 at
    n = 2000, p = 2, r = 57.5, where sigma is -34.8), and truncated at its
    smallest single term it stops at a vanishing a_2 (n = 3)."""
    terms = coef * s ** np.arange(coef.size)
    size = np.abs(terms)
    last_two = np.maximum(size[:-1], size[1:])
    j = last_two.size - int(np.argmin(last_two[::-1])) if last_two.size else 0
    return float(np.sum(terms[:j + 1]))


def _series_log_u(coef, r):
    """ln u(r) - ln u(r[0]) on the radii r from the series coef, in closed
    form: -alpha (r - r_a) + a_1 ln(r/r_a)
    + sum_{j>=2} a_j (s^(j-1) - s_a^(j-1))/(1 - j), s = 1/r."""
    s = 1.0 / r
    higher = coef[2:] / (1.0 - np.arange(2, coef.size))
    tail = s * np.polyval(higher[::-1], s)
    return (coef[0] * (r - r[0]) + coef[1] * np.log(r / r[0])
            + (tail - tail[0]))


def fit_decay_exponents(profile: RadialProfile, alpha=None, window=None) -> DecayFit:
    """Least-squares fit of ln u = -rate*r - power*ln r + c on a radial window.

    The window defaults to the outer half [r_max/2, r_max].  `alpha` is
    accepted and ignored: the fit neither reads nor returns it.  Raises
    IllConditioned when fewer than 10 samples fall in the window.
    """
    if window is None:
        window = (0.5 * profile.r_max, profile.r_max)
    w0, w1 = window
    mask = (profile.r >= w0) & (profile.r <= w1)
    if int(mask.sum()) < 10:
        raise IllConditioned(f"only {int(mask.sum())} samples in window {window}")
    r = profile.r[mask]
    log_u = profile.log_u[mask]
    design = np.column_stack([-r, -np.log(r), np.ones_like(r)])
    coef, *_ = np.linalg.lstsq(design, log_u, rcond=None)
    resid = design @ coef - log_u
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return DecayFit(rate=float(coef[0]), power=float(coef[1]),
                    log_scale=float(coef[2]), rms=rms)
