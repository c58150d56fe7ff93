"""Radial and 1-D reductions: integration, shooting, and decay-rate fitting.

Exponentially decaying exterior solutions are handled in logarithmic
amplitude: profiles carry log_u = ln(u) and ratio = u'/u alongside u itself,
because u underflows float64 once ln(u) drops below about -745 while the
log-derivative pair stays O(1) on any span.  The ratio flow repels the
decaying branch at rate exp(p*alpha*r) going outward and attracts it at the
same rate going inward, so the branch is found by one inward integration from
beyond r_max, seeded with its far-field limit -alpha; no outward shooting or
bisection on the initial ratio is needed.  That inward pass is integrated with
LSODA: the attraction makes the flow stiff (an explicit Runge-Kutta method is
held to steps |h| of order 1/(p*alpha) by stability alone, although sigma
itself varies slowly), and a stiff-switching method takes steps limited only
by accuracy.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np
from scipy.integrate import ODEintWarning, odeint, solve_ivp
from scipy.interpolate import PchipInterpolator

from .errors import DomainError, IllConditioned, SingularRatio, StepFailure
from .indicial import ProblemParams, eigen_rate_alpha, indicial_roots

OVERFLOW_BARRIER = 1e150
ZERO_BARRIER = 1e-150
# ODEPACK's cap on the steps between two output points of the inward pass.
# Its default of 500 is below the ~2.3k steps a shot to r_max = 2e4 takes
# when few output points are asked for.
_INWARD_MXSTEP = 100_000
_ODEINT_SUCCESS = "Integration successful."


class ShootClass(Enum):
    DECAYING = "decaying"
    BLOW_UP = "blow_up"
    HIT_ZERO = "hit_zero"


@dataclass
class RadialProfile:
    """Sampled radial solution u(r) with derivative on an increasing grid.

    log_u and ratio (= u'/u), when present, are the primary data and stay
    finite even where u itself underflows to zero.
    """

    r: np.ndarray
    u: np.ndarray
    du: np.ndarray
    meta: dict = field(default_factory=dict)
    log_u: np.ndarray | None = None
    ratio: np.ndarray | None = None

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        self.du = np.asarray(self.du, dtype=float)
        if self.r.ndim != 1 or self.r.shape != self.u.shape or self.r.shape != self.du.shape:
            raise DomainError("r, u, du must be 1-D arrays of equal length")
        if not np.all(np.diff(self.r) > 0.0):
            raise DomainError("r must be strictly increasing")
        if np.any(self.r <= 0.0):
            raise DomainError("r must be positive")
        if self.log_u is not None:
            self.log_u = np.asarray(self.log_u, dtype=float)
            if not np.all(np.isfinite(self.log_u)):
                raise DomainError("log_u must be finite")
        elif not np.all(self.u > 0.0):
            raise DomainError("u must be positive")
        if self.ratio is not None:
            self.ratio = np.asarray(self.ratio, dtype=float)

    def log_values(self) -> np.ndarray:
        return self.log_u if self.log_u is not None else np.log(self.u)

    def ratio_values(self) -> np.ndarray:
        return self.ratio if self.ratio is not None else self.du / self.u

    def log_interp(self) -> PchipInterpolator:
        """Monotone cubic interpolant of ln u against ln r."""
        return PchipInterpolator(np.log(self.r), self.log_values())

    @property
    def r_min(self) -> float:
        return float(self.r[0])

    @property
    def r_max(self) -> float:
        return float(self.r[-1])


@dataclass(frozen=True)
class ShootResult:
    """A shot profile with its classification and integration counters.

    nfev is the number of right-hand-side evaluations of the shot's one
    integration pass; bisection_iters is always 0 (no shot bisects).
    """

    profile: RadialProfile
    shoot_param: float
    bisection_iters: int
    classification: ShootClass
    nfev: int


class DecayFit(NamedTuple):
    rate: float
    power: float
    log_scale: float
    rms: float


def write_profile_csv(profile: RadialProfile, path):
    """Columns r,u,du with a leading '#' comment carrying the parameters."""
    with open(path, "w", newline="") as fh:
        fh.write("# " + json.dumps(profile.meta, sort_keys=True, default=str) + "\n")
        fh.write("r,u,du\n")
        for r, u, du in zip(profile.r, profile.u, profile.du):
            fh.write(f"{r:.17g},{u:.17g},{du:.17g}\n")


def _rk4_path(rhs, t0, t1, y0, steps):
    """Classical fixed-step RK4; raises StepFailure on a non-finite state."""
    h = (t1 - t0) / steps
    ts = t0 + h * np.arange(steps + 1)
    y = np.array(y0, dtype=float)
    out = np.empty((steps + 1, y.size))
    out[0] = y
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            t = ts[k]
            k1 = rhs(t, y)
            k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(y)):
                raise StepFailure(f"non-finite state at t={t + h:g}")
            out[k + 1] = y
    return ts, out


def eigen_profile_1d(lam, p, v0, s0, t_span, steps=20000) -> RadialProfile:
    """Monotone 1-D profile of ((v')^(p-1))' = lam v^(p-1).

    Integrates the first-order pair (v, m) with m = (v')^(p-1), m(t0) =
    (s0*v0)^(p-1), by fixed-step RK4 so that halving the step shrinks the
    error by the scheme's full fourth order.

    Args:
        lam: eigenvalue coefficient, > 0
        p: exponent, > 1
        v0: initial value, > 0
        s0: initial ratio v'(t0)/v(t0), >= 0 (monotone regime)
        t_span: (t0, t1) integration interval
        steps: number of RK4 steps

    Returns:
        RadialProfile sampled on the uniform grid (r holds t).
    """
    if v0 <= 0.0:
        raise DomainError("v0 must be positive")
    if s0 < 0.0:
        raise DomainError("s0 must be >= 0 in the monotone regime")
    if lam <= 0.0:
        raise DomainError("lam must be positive")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise DomainError("t_span must be increasing")

    pm1 = p - 1.0

    def rhs(_t, y):
        v, m = y
        dv = max(m, 0.0) ** (1.0 / pm1)
        return np.array([dv, lam * v ** pm1])

    m0 = (s0 * v0) ** pm1 if s0 > 0.0 else 0.0
    ts, ys = _rk4_path(rhs, t0, t1, (v0, m0), steps)
    v = ys[:, 0]
    dv = np.maximum(ys[:, 1], 0.0) ** (1.0 / pm1)
    # the grid is shifted to positive abscissae if t0 <= 0 (r must be > 0)
    shift = 0.0 if t0 > 0.0 else 1.0 - t0
    meta = {"kind": "eigen_profile_1d", "lam": lam, "p": p, "v0": v0, "s0": s0,
            "t0": t0, "t1": t1, "steps": steps, "t_shift": shift}
    return RadialProfile(r=ts + shift, u=v, du=dv, meta=meta)


def riccati_ratio_flow(lam, p, s0, t_span, samples=501):
    """Flows of the ratio s = v'/v: (p-1) s^(p-2) s' + (p-1) s^p = lam.

    The unique positive rest point is alpha = (lam/(p-1))^(1/p).  lam, p and
    s0 broadcast against each other, and every flow of the broadcast shape
    is integrated in one vector DOP853 system on the shared samples; a
    scalar call is a flow of shape ().  Returns (t, s) with t of shape
    (samples,) and s of shape broadcast + (samples,).  Raises SingularRatio
    if any flow reaches zero, where the s^(p-2) coefficient degenerates.
    """
    lam, p, s0 = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                       for v in (lam, p, s0)))
    if np.any(s0 <= 0.0):
        raise DomainError("s0 must be positive")
    t0, t1 = float(t_span[0]), float(t_span[1])
    coef = (lam / (p - 1.0)).ravel()
    expo = (2.0 - p).ravel()

    def rhs(_t, s):
        return coef * s ** expo - s * s

    def hit_zero(_t, s):
        return s.min() - 1e-12
    hit_zero.terminal = True
    hit_zero.direction = -1

    t_eval = np.linspace(t0, t1, samples)
    sol = solve_ivp(rhs, (t0, t1), s0.ravel(), method="DOP853", rtol=1e-11,
                    atol=1e-13, t_eval=t_eval, events=hit_zero)
    if sol.t_events[0].size:
        raise SingularRatio(f"ratio reached zero at t={sol.t_events[0][0]:g}")
    if not sol.success:
        raise StepFailure(sol.message)
    return sol.t, sol.y.reshape(s0.shape + sol.t.shape)


def _ratio_rhs(n, p, lam, inward=False):
    """RHS of the radial exterior ratio flow for the state (log u, sigma).

    With sigma = u'/u, (r^(n-1)|u'|^(p-2)u')' = lam r^(n-1) u^(p-1) becomes
        sigma' = lam / ((p-1)|sigma|^(p-2)) - sigma^2 - (n-1) sigma / ((p-1) r)
    and (log u)' = sigma.  With inward=True the independent variable is
    s = -r, so an inward pass runs forward in s; each component is then the
    exact negation of the outward one.  The closure works on Python floats
    and returns a tuple, since a shot evaluates it a few thousand times.
    """
    k = lam / (p - 1.0)
    c = (n - 1.0) / (p - 1.0)
    e = p - 2.0

    def outward(r, y):
        _, sig = y.tolist()
        core = k / abs(sig) ** e if sig != 0.0 else 0.0
        return (sig, core - sig * sig - c * sig / r)

    def inward_in_s(s, y):
        _, sig = y.tolist()
        core = k / abs(sig) ** e if sig != 0.0 else 0.0
        return (-sig, sig * sig - core - c * sig / s)

    return inward_in_s if inward else outward


def _classify_ratio(n, p, lam, r0, sigma0, sigma_up, sigma_floor, r_cap,
                    rtol=1e-9):
    """Side on which a trial ratio trajectory leaves the decaying corridor.

    'up' is definitive growth (sigma above the decaying branch can only rise:
    once u' >= 0 the flux stays positive and u grows to the overflow barrier);
    'down' is definitive vanishing (sigma below the branch dives to -inf,
    i.e. u crosses zero at finite radius).
    """
    if sigma0 >= sigma_up:
        return "up"
    if sigma0 <= sigma_floor:
        return "down"
    rhs = _ratio_rhs(n, p, lam)

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


def radial_exterior_eigen(n, p, lam, r0, r_max, grid_points=800) -> ShootResult:
    """Decaying positive exterior solution of the radial eigen-equation.

    One inward LSODA pass of the ratio flow sigma = u'/u, seeded with the
    far-field limit sigma = -alpha at r_start = r_max + 35/(p*alpha).  Going
    inward the decaying branch attracts the flow at rate exp(p*alpha*(r_start
    - r)), so the seed's error is damped by about e^-35 before r_max and the
    profile on [r0, r_max] is the branch to integrator precision.  The same
    attraction makes the pass stiff: an explicit Runge-Kutta method must keep
    |h| below about 6/(p*alpha) for stability whatever the accuracy asked,
    while LSODA switches to a BDF method and takes steps limited only by the
    smoothness of sigma ~ -alpha - c/r.

    The pass is scipy's odeint, ODEPACK's LSODA with the step loop and the
    output interpolation in compiled code, at rtol = 3e-14 and atol = 1e-16
    with its full internally generated Jacobian.  It runs in s = -r, because
    odeint honours a critical point only for increasing output times:
    tcrit = -r0 keeps every step inside [r0, r_start].  The profile lives on
    a log-spaced grid and is normalized to u(r0) = 1; shoot_param is the
    realized initial ratio u'(r0)/u(r0) and nfev is ODEPACK's count of RHS
    evaluations.  Raises StepFailure with ODEPACK's message if the pass
    stops early.
    """
    if r0 <= 0.0:
        raise DomainError("r0 must be positive")
    if r_max < 10.0 * r0:
        raise DomainError("r_max must be at least 10*r0")
    alpha = eigen_rate_alpha(lam, p)
    r_start = r_max + 35.0 / (p * alpha)
    r_grid = np.geomspace(r0, r_max, grid_points)
    s_out = np.concatenate(([-r_start], -r_grid[::-1]))
    with warnings.catch_warnings():
        # a failed pass is reported below from the message in `info`
        warnings.simplefilter("ignore", ODEintWarning)
        y, info = odeint(_ratio_rhs(n, p, lam, inward=True), [0.0, -alpha],
                         s_out, rtol=3e-14, atol=1e-16, tcrit=[-r0],
                         mxstep=_INWARD_MXSTEP, full_output=True, tfirst=True)
    if info["message"] != _ODEINT_SUCCESS:
        raise StepFailure(info["message"])
    # row 0 is the seed at r_start; the rest run from r_max down to r0
    log_u = y[:0:-1, 0].copy()
    sigma = y[:0:-1, 1].copy()
    log_u -= log_u[0]  # normalize u(r0) = 1

    shoot_param = float(sigma[0])
    with np.errstate(under="ignore"):
        u = np.exp(log_u)
    meta = {"kind": "radial_exterior_eigen", "n": n, "p": p, "lam": lam,
            "r0": r0, "r_max": r_max, "alpha": alpha,
            "shoot_param": shoot_param}
    profile = RadialProfile(r=r_grid, u=u, du=sigma * u, meta=meta,
                            log_u=log_u, ratio=sigma)
    return ShootResult(profile=profile, shoot_param=shoot_param,
                       bisection_iters=0, classification=ShootClass.DECAYING,
                       nfev=int(info["nfe"][-1]))


def hardy_power_residual(n, p, a, mu, gamma, r_samples) -> float:
    """Normalized residual of u = r^(-gamma) in the weighted radial equation.

    Evaluates -(r^(n-1-ap)|u'|^(p-2)u')' - mu r^(n-1-(a+1)p) u^(p-1) from the
    closed-form derivative at each sample and divides by the common power
    r^(n-1-(a+1)p-(p-1)gamma); the result is |f(gamma) - mu| up to rounding.
    """
    r = np.asarray(r_samples, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError("r_samples must be positive")
    pm1 = p - 1.0
    if gamma == 0.0:
        flux_coef = 0.0
    else:
        flux_coef = -abs(gamma) ** (p - 2.0) * gamma  # |u'|^(p-2) u' = c * r^...
    e_flux = n - 1.0 - a * p - (gamma + 1.0) * pm1
    lhs = -flux_coef * e_flux * np.power(r, e_flux - 1.0)
    e_rhs = n - 1.0 - (a + 1.0) * p - gamma * pm1
    rhs = mu * np.power(r, e_rhs)
    norm = np.power(r, e_rhs)
    return float(np.max(np.abs((lhs - rhs) / norm)))


def series_start_radius(params: ProblemParams, c=1.0, rel=1e-8) -> float:
    """Inner radius where the non-leading terms fall below `rel` relatively.

    Near the origin the singular solution is c*r^(-gamma1) to leading order;
    the eigenvalue and source terms perturb the balance by factors
    lam*r^p/mu and (A c^(q-p)/mu) r^(p-(q-p)*gamma1).
    """
    if params.mu <= 0.0:
        raise DomainError("start-radius rule needs mu > 0")
    g1 = indicial_roots(params).gamma1
    r_in = math.inf
    if params.lam > 0.0:
        r_in = min(r_in, (rel * params.mu / params.lam) ** (1.0 / params.p))
    if params.nonlinearity is not None:
        q, amp = params.nonlinearity.q, params.nonlinearity.amplitude
        expo = params.p - (q - params.p) * g1
        if amp > 0.0 and expo > 0.0:
            r_in = min(r_in, (rel * params.mu / (amp * c ** (q - params.p)))
                       ** (1.0 / expo))
    if not math.isfinite(r_in):
        raise DomainError("no perturbation terms active; choose r_in directly")
    return r_in


def shoot_singular_profile(params: ProblemParams, r_in, r_out, c=1.0,
                           grid_points=600) -> ShootResult:
    """Outward integration of the singular radial problem from a power series.

    Solves the radial form of the perturbed equation
        -(r^(n-1)|u'|^(p-2)u')' = r^(n-1) [mu r^(-p) u^(p-1) - lam u^(p-1)
                                           + A u^(q-1)]
    in log-radius with the divergence-form flux m = r^(n-1)|u'|^(p-2)u' as a
    state variable, starting from u = c r^(-gamma1), u' = -gamma1 c
    r^(-gamma1-1) at r_in.  Classification is BLOW_UP/HIT_ZERO at the
    1e150 / 1e-150 barriers, DECAYING when r_out is reached.
    """
    if not r_in < r_out:
        raise DomainError("r_in must be < r_out")
    if params.a != 0.0:
        raise DomainError("singular shoot is posed for the unweighted case a = 0")
    mu_bar = ((params.n - params.p) / params.p) ** params.p
    if not (0.0 <= params.mu < mu_bar):
        raise DomainError("mu must lie in [0, mu_bar)")
    n, p, mu, lam = params.n, params.p, params.mu, params.lam
    pm1 = p - 1.0
    g1 = indicial_roots(params).gamma1

    amp, q = 0.0, 0.0
    if params.nonlinearity is not None:
        amp, q = params.nonlinearity.amplitude, params.nonlinearity.q

    def rhs(t, y):
        u, m = y
        r = math.exp(t)
        du_dt = math.copysign(abs(m) ** (1.0 / pm1), m) * r ** (1.0 - (n - 1.0) / pm1)
        zero_order = lam * u ** pm1 - mu * r ** (-p) * u ** pm1
        if amp:
            zero_order -= amp * u ** (q - 1.0)
        return [du_dt, r ** n * zero_order]

    def overflow(_t, y):
        return y[0] - OVERFLOW_BARRIER
    overflow.terminal = True
    overflow.direction = 1

    def vanish(_t, y):
        return y[0] - ZERO_BARRIER
    vanish.terminal = True
    vanish.direction = -1

    t_in, t_out = math.log(r_in), math.log(r_out)
    u_in = c * r_in ** (-g1)
    m_in = -((g1 * c) ** pm1) * r_in ** (n - 1.0 - (g1 + 1.0) * pm1) if g1 > 0.0 else 0.0
    t_eval = np.linspace(t_in, t_out, grid_points)
    sol = solve_ivp(rhs, (t_in, t_out), [u_in, m_in], method="DOP853",
                    rtol=1e-10, atol=1e-12, t_eval=t_eval,
                    events=(overflow, vanish))
    if sol.t_events[0].size:
        cls = ShootClass.BLOW_UP
    elif sol.t_events[1].size:
        cls = ShootClass.HIT_ZERO
    elif sol.success:
        cls = ShootClass.DECAYING
    else:
        raise StepFailure(sol.message)

    ts, u, m = sol.t, sol.y[0], sol.y[1]
    r = np.exp(ts)
    du = np.sign(m) * np.abs(m) ** (1.0 / pm1) * r ** (-(n - 1.0) / pm1)
    meta = {"kind": "shoot_singular_profile", "n": n, "p": p, "mu": mu,
            "lam": lam, "a": params.a, "q": q or None, "amplitude": amp or None,
            "gamma1": g1, "c": c, "r_in": r_in, "r_out": r_out}
    profile = RadialProfile(r=r, u=u, du=du, meta=meta)
    return ShootResult(profile=profile, shoot_param=c, bisection_iters=0,
                       classification=cls, nfev=int(sol.nfev))


def fit_decay_exponents(profile: RadialProfile, alpha=None, window=None) -> DecayFit:
    """Least-squares fit of ln u = -rate*r - power*ln r + c on a radial window.

    The window defaults to the outer half [r_max/2, r_max].  `alpha` is the
    reference exponential rate carried through for reporting; it does not
    enter the fit.  Raises IllConditioned when fewer than 10 samples fall in
    the window.
    """
    if window is None:
        window = (0.5 * profile.r_max, profile.r_max)
    w0, w1 = window
    mask = (profile.r >= w0) & (profile.r <= w1)
    if int(mask.sum()) < 10:
        raise IllConditioned(f"only {int(mask.sum())} samples in window {window}")
    r = profile.r[mask]
    log_u = profile.log_values()[mask]
    design = np.column_stack([-r, -np.log(r), np.ones_like(r)])
    coef, *_ = np.linalg.lstsq(design, log_u, rcond=None)
    resid = design @ coef - log_u
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return DecayFit(rate=float(coef[0]), power=float(coef[1]),
                    log_scale=float(coef[2]), rms=rms)


def gradient_ratio_curve(profile: RadialProfile, mode="scaled") -> np.ndarray:
    """Pairs (r, ratio) with ratio = r|u'|/u ('scaled') or |u'|/u ('plain')."""
    ratio = np.abs(profile.ratio_values())
    if mode == "scaled":
        ratio = profile.r * ratio
    elif mode != "plain":
        raise DomainError("mode must be 'scaled' or 'plain'")
    return np.column_stack([profile.r, ratio])
