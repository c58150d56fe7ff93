"""Translation and dilation rescaling limits of radial profiles.

Realizes the limit objects behind the asymptotic arguments: the far-field
kernel ratio u(x - t*xi)/u(-t*xi), the origin blow-up u(R s)/u(R) against a
pure power, and the far-field translate u(t + s)/u(t) against a pure
exponential.
Profiles are interpolated with a monotone cubic in the coordinates where
each limit family is exactly linear: (ln r, ln u) for dilations and the
kernel ratio, (r, ln u) for translations.  The interpolant is one kernel
here, `_pchip_slopes` and `_hermite`: Fritsch and Carlson's shape-preserving
slopes ("Monotone piecewise cubic interpolation", SIAM J. Numer. Anal. 17,
1980) in scipy's PCHIP variant, and the cubic Hermite evaluation of
scipy's piecewise polynomials, in the same floating-point order, so that
its values and derivatives equal scipy's bit for bit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, OutOfRange
from .grid_pde import _check_unit
from .radial_ode import RadialProfile

ORIGIN_WINDOW = 10.0      # dilations are compared on s in [1/10, 10]
WINDOW_SAMPLES = 201      # points of s on each rescaled window


class RescaleReport(NamedTuple):
    """Per-scale sup-norm distances of a rescaled family to its limit."""

    scales: np.ndarray
    sup_distance: np.ndarray
    grad_distance: np.ndarray


def _check_finite(value, name):
    if not -math.inf < value < math.inf:  # NaN fails it too
        raise DomainError(f"{name} must be finite, got {value!r}")


def _check_radius(profile: RadialProfile, r, what):
    if not profile.r_min <= r <= profile.r_max:  # NaN fails it too
        raise OutOfRange(
            f"{what}: radius {r:g} outside sampled span "
            f"[{profile.r_min:g}, {profile.r_max:g}]"
        )


def _same_sign(a, b):
    """np.sign(a) == np.sign(b) for floats: both positive, both negative or
    both zero, and False if either is NaN."""
    return a > 0.0 < b or a < 0.0 > b or a == 0.0 == b


def _end_slope(h0, h1, m0, m1):
    """One-sided three-point slope at an end whose secant is m0 over h0,
    next to the secant m1 over h1, with PCHIP's two shape-preserving clamps."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if not _same_sign(d, m0):
        return 0.0
    if not _same_sign(m0, m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_slopes(x, y):
    """Node slopes of the monotone cubic through (x, y), x increasing.

    Scipy's PCHIP rule: an interior slope is 0 where the two secants beside
    it differ in sign or one is 0, and otherwise their harmonic mean
    weighted by w1 = 2h_k + h_(k-1), w2 = h_k + 2h_(k-1).  Each end takes
    the one-sided three-point slope, set to 0 when its sign differs from
    the end secant's and to 3 times that secant when the first two secants
    differ in sign and it is larger still.  Two nodes take the secant at
    both ends.  Raises DomainError on fewer than two nodes.
    """
    if x.size < 2:
        raise DomainError("interpolation needs at least 2 nodes, "
                          f"got {x.size}")
    h = x[1:] - x[:-1]
    m = (y[1:] - y[:-1]) / h
    if x.size == 2:
        return np.array([m[0], m[0]])
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    sm = np.sign(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    inner = np.where(sm[1:] * sm[:-1] > 0.0, mean, 0.0)
    h0, h1, hn, hn1 = h[[0, 1, -1, -2]].tolist()
    m0, m1, mn, mn1 = m[[0, 1, -1, -2]].tolist()
    return np.concatenate(([_end_slope(h0, h1, m0, m1)], inner,
                           [_end_slope(hn, hn1, mn, mn1)]))


def _hermite(x, y, d, xq):
    """Values and x-derivatives at xq of the cubic Hermite interpolant with
    node slopes d, in the operation order of scipy's piecewise polynomials.

    xq in [x[k], x[k+1]) falls in interval k, xq = x[-1] in the last one,
    and points outside [x[0], x[-1]] extrapolate the end cubics.
    """
    k = np.clip(np.searchsorted(x, xq, "right") - 1, 0, x.size - 2)
    k1 = k + 1
    xk, yk, dk = x[k], y[k], d[k]
    h = x[k1] - xk
    s = xq - xk
    m = (y[k1] - yk) / h
    t = (dk + d[k1] - 2 * m) / h
    c0 = t / h
    c1 = (m - dk) / h - t
    ss = s * s
    value = ((yk + dk * s) + c1 * ss) + c0 * (ss * s)
    slope = (dk + (2 * c1) * s) + (3 * c0) * ss
    return value, slope


def martin_kernel_estimate(profile: RadialProfile, x, xi, t) -> float:
    """Far-field kernel ratio u(|x - t*xi|)/u(t) from a radial profile.
    Raises DomainError unless x and the unit vector xi have one shape."""
    x = np.asarray(x, dtype=float)
    xi = _check_unit(xi)
    if x.shape != xi.shape:
        raise DomainError(f"x has shape {x.shape} and xi {xi.shape}: "
                          "they must be points of one space")
    t = float(t)
    r1 = float(np.linalg.norm(x - t * xi))
    _check_radius(profile, r1, "martin_kernel_estimate")
    _check_radius(profile, t, "martin_kernel_estimate")
    log_r = np.log(profile.r)
    log_u, _ = _hermite(log_r, profile.log_u,
                        _pchip_slopes(log_r, profile.log_u),
                        np.array([math.log(r1), math.log(t)]))
    return float(math.exp(log_u[0] - log_u[1]))


def rescale_near_zero(profile: RadialProfile, scales, gamma1) -> RescaleReport:
    """Dilation family u(R s)/u(R) against the pure power s^(-gamma1).

    For each R in `scales`, the normalized dilate is evaluated on the fixed
    window s in [1/ORIGIN_WINDOW, ORIGIN_WINDOW] and its sup-distance (and
    the distance of its s-derivative) to the power limit is recorded.
    Raises DomainError if gamma1 is not finite.
    """
    _check_finite(gamma1, "gamma1")
    scales = np.asarray(list(scales), dtype=float)
    s = np.geomspace(1.0 / ORIGIN_WINDOW, ORIGIN_WINDOW, WINDOW_SAMPLES)
    target = s ** (-gamma1)
    dtarget = -gamma1 * s ** (-gamma1 - 1.0)
    log_r = np.log(profile.r)
    d = _pchip_slopes(log_r, profile.log_u)
    sup_d = np.empty(scales.size)
    grad_d = np.empty(scales.size)
    for k, R in enumerate(scales):
        _check_radius(profile, R / ORIGIN_WINDOW, "rescale_near_zero")
        _check_radius(profile, R * ORIGIN_WINDOW, "rescale_near_zero")
        log_u, dlog_u = _hermite(log_r, profile.log_u, d,
                                 np.append(np.log(R * s), math.log(R)))
        u_k = np.exp(log_u[:-1] - log_u[-1])
        du_k = u_k * dlog_u[:-1] / s
        sup_d[k] = np.max(np.abs(u_k - target))
        grad_d[k] = np.max(np.abs(du_k - dtarget))
    return RescaleReport(scales=scales, sup_distance=sup_d, grad_distance=grad_d)


def translate_rescale_at_infinity(profile: RadialProfile, shifts, alpha,
                                  window) -> RescaleReport:
    """Translation family u(t + s)/u(t) against the pure exponential e^(-alpha s).

    For each t in `shifts`, the normalized translate on s in [-window, window]
    is compared with exp(-alpha*s) in sup norm, together with its s-derivative.
    Interpolation is in (r, ln u) rather than log-log: the exponential limit
    family is exactly linear there, so the fixed point is exact to rounding.
    Raises DomainError if alpha is not finite.
    """
    _check_finite(alpha, "alpha")
    shifts = np.asarray(list(shifts), dtype=float)
    s = np.linspace(-window, window, WINDOW_SAMPLES)
    target = np.exp(-alpha * s)
    dtarget = -alpha * target
    d = _pchip_slopes(profile.r, profile.log_u)
    sup_d = np.empty(shifts.size)
    grad_d = np.empty(shifts.size)
    for k, t in enumerate(shifts):
        _check_radius(profile, t - window, "translate_rescale_at_infinity")
        _check_radius(profile, t + window, "translate_rescale_at_infinity")
        log_u, dlog_u = _hermite(profile.r, profile.log_u, d,
                                 np.append(t + s, t))
        v_k = np.exp(log_u[:-1] - log_u[-1])
        dv_k = v_k * dlog_u[:-1]
        sup_d[k] = np.max(np.abs(v_k - target))
        grad_d[k] = np.max(np.abs(dv_k - dtarget))
    return RescaleReport(scales=shifts, sup_distance=sup_d, grad_distance=grad_d)
