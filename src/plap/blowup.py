"""Translation and dilation rescaling limits of radial profiles.

Realizes the limit objects behind the asymptotic arguments: the far-field
kernel ratio u(x - t*xi)/u(-t*xi), the origin blow-up u(R s)/u(R) against a
pure power, and the far-field translate u(t + s)/u(t) against a pure
exponential.
Profiles are interpolated with a monotone cubic in the coordinates where
each limit family is exactly linear: (ln r, ln u) for dilations and the
kernel ratio, (r, ln u) for translations.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.interpolate import PchipInterpolator

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


def martin_kernel_estimate(profile: RadialProfile, x, xi, t) -> float:
    """Far-field kernel ratio u(|x - t*xi|)/u(t) from a radial profile."""
    x = np.asarray(x, dtype=float)
    xi = _check_unit(xi)
    t = float(t)
    r1 = float(np.linalg.norm(x - t * xi))
    _check_radius(profile, r1, "martin_kernel_estimate")
    _check_radius(profile, t, "martin_kernel_estimate")
    interp = profile.log_interp()
    return float(math.exp(interp(math.log(r1)) - interp(math.log(t))))


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
    interp = profile.log_interp()
    dinterp = interp.derivative()
    sup_d = np.empty(scales.size)
    grad_d = np.empty(scales.size)
    for k, R in enumerate(scales):
        _check_radius(profile, R / ORIGIN_WINDOW, "rescale_near_zero")
        _check_radius(profile, R * ORIGIN_WINDOW, "rescale_near_zero")
        log_r = np.log(R * s)
        u_k = np.exp(interp(log_r) - interp(math.log(R)))
        du_k = u_k * dinterp(log_r) / s
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
    interp = PchipInterpolator(profile.r, profile.log_u)
    dinterp = interp.derivative()
    sup_d = np.empty(shifts.size)
    grad_d = np.empty(shifts.size)
    for k, t in enumerate(shifts):
        _check_radius(profile, t - window, "translate_rescale_at_infinity")
        _check_radius(profile, t + window, "translate_rescale_at_infinity")
        r = t + s
        v_k = np.exp(interp(r) - interp(t))
        dv_k = v_k * dinterp(r)
        sup_d[k] = np.max(np.abs(v_k - target))
        grad_d[k] = np.max(np.abs(dv_k - dtarget))
    return RescaleReport(scales=shifts, sup_distance=sup_d, grad_distance=grad_d)
