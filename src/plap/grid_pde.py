"""2-D finite-difference solver and diagnostics for the quasi-linear eigen-equation.

Discretization is the standard 5-point divergence form: face-centered
gradients (normal component by direct difference, transverse component by
averaging the four neighboring centered differences), nonlinear diffusivity
|grad v|^(p-2) evaluated per face, divergence by face-flux differences.  A
flat face (grad v = 0 there) carries no flux: its diffusivity is taken as 0
at p < 2, where |grad v|^(p-2) is inf, since the flux |grad v|^(p-2) grad v
tends to 0 with grad v for every p > 1.  The formally linearized operator
uses the same face geometry with the rank-one tensor correction, which makes
the damped Newton iteration and the second-order (Bochner) identity check
share one discretization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import DomainError, NoConvergence
from .indicial import ProblemParams, eigen_rate_alpha

DAMPING_FLOOR = 2.0 ** -30
# Newton steps solve_dirichlet takes before it raises NoConvergence
MAX_NEWTON_ITERS = 40
# refinement of a Newton step by V-cycles stops once a correction is
# within this many float64 ulps of the field the step updates, at every
# node: the update v + theta * delta rounds the rest away
REFINE_ULPS = 4.0
# a correction that fails to halve the one before is the rounding floor
# when within this many float64 ulps of the step, else the V-cycle has
# failed.  The floor reached (the stalled correction over ulp(max|x|))
# measured at most 29 at h = 1/32, 198 at h = 1/256 and 319 at h = 1/512
# with float32 levels, on 320, 112 and 16 draws like the benchmark's
# grid_fine ones
STALL_ULPS = 1024.0
# refinement of a Newton step also stops once its float64 residual
# max|rhs - A x| is within this share of solve_dirichlet's tol (inexact
# Newton: Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982).
# The rest of tol covers the step's quadratic remainder and the rounding
# of the residual of the updated field, which the Newton test reads
LINEAR_TOL_SHARE = 0.25
# multigrid V-cycle of a Newton step: damped Jacobi smoothing with this
# weight and sweep counts, coarsening while both axes have more than
# COARSEST_NODES nodes.  The cycle contracts the error by 0.08-0.15 for
# p in {1.5, 2.7, 4}; undamped Jacobi gives 0.91
JACOBI_OMEGA = 0.8
PRE_SWEEPS = 3
POST_SWEEPS = 3
COARSEST_NODES = 16
# SuperLU column ordering of the coarsest level and of the float64
# fallback: minimum degree on A^T + A suits the 9-point stencil
DIRECT_ORDERING = "MMD_AT_PLUS_A"
EPS64 = float(np.finfo(np.float64).eps)
# nodes per axis that bochner_residual's nested stencils need: the identity
# is compared on nodes 2..nx-3
NESTED_STENCIL_NODES = 7
# largest grid, nx * ny nodes, that _grid_shape accepts: a Dirichlet solve
# (n = 5, p = 2.5, lam = 1.5, xi = (0.6, 0.8), tol 1e-8, one Newton step)
# raised the peak RSS 196 B per node above the import baseline at
# h = 1/512 and at 1/1024 (263 169 and 1 050 625 nodes), so 2^22 nodes take
# about 0.82 GB above it
MAX_GRID_NODES = 2 ** 22


@dataclass
class Field2D:
    """Positive scalar grid function on a rectangle with uniform spacing h.

    values[i, j] sits at (origin[0] + i*h, origin[1] + j*h); the grid has
    nx by ny nodes, the shape of values.
    """

    h: float
    origin: tuple
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise DomainError("values must be a 2-D array")
        _check_spacing(self.h)
        if not _positive_finite(self.values):
            raise DomainError("field values must be positive and finite")
        origin = np.asarray(self.origin, dtype=float)
        if origin.shape != (2,):
            raise DomainError("origin must be two numbers, got shape "
                              f"{origin.shape}")
        self.origin = (float(origin[0]), float(origin[1]))
        if not all(map(math.isfinite, self.origin)):
            raise DomainError("origin must be finite")

    @property
    def nx(self) -> int:
        return self.values.shape[0]

    @property
    def ny(self) -> int:
        return self.values.shape[1]

    def x_coords(self) -> np.ndarray:
        return self.origin[0] + self.h * np.arange(self.nx)

    def y_coords(self) -> np.ndarray:
        return self.origin[1] + self.h * np.arange(self.ny)


@dataclass(frozen=True)
class SolveStats:
    newton_iters: int
    final_residual: float
    damping_events: int
    # corrections plus fallback solves, and float64 factorizations made
    # because the V-cycles failed (see _solve_refined)
    linear_solves: int
    float64_refactors: int


def _check_unit(vec):
    """vec as a float array; a direction must have norm 1 within 1e-14."""
    vec = np.asarray(vec, dtype=float)
    if not abs(float(np.linalg.norm(vec)) - 1.0) <= 1e-14:  # NaN fails it
        raise DomainError("direction must be a unit vector")
    return vec


def _grid_direction(vec):
    """vec as a unit vector of the plane of the grids, of shape (2,)."""
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (2,):
        raise DomainError(f"a grid direction has shape (2,), got {vec.shape}")
    return _check_unit(vec)


def _positive_finite(values) -> bool:
    # `values > 0` alone lets +inf through
    return bool(np.all((values > 0.0) & np.isfinite(values)))


def _check_spacing(h):
    if not (h > 0.0 and math.isfinite(h)):
        raise DomainError("h must be positive and finite")


def _grid_shape(rect, h):
    _check_spacing(h)
    x0, y0, x1, y1 = (float(c) for c in rect)
    if not all(map(math.isfinite, (x0, y0, x1, y1))):
        raise DomainError("rectangle corners must be finite")
    if not (x1 > x0 and y1 > y0):
        raise DomainError("rectangle must have positive extent")
    # the node counts in floating point first: a span too wide for h is
    # inf there, which int() cannot convert
    nx, ny = round((x1 - x0) / h, 0) + 1.0, round((y1 - y0) / h, 0) + 1.0
    if nx * ny > MAX_GRID_NODES:
        raise DomainError(f"grid of nx={nx:.10g} by ny={ny:.10g} nodes "
                          f"exceeds the cap of {MAX_GRID_NODES} nodes")
    nx, ny = int(nx), int(ny)
    if abs(x0 + (nx - 1) * h - x1) > 1e-9 * max(1.0, abs(x1)) or \
       abs(y0 + (ny - 1) * h - y1) > 1e-9 * max(1.0, abs(y1)):
        raise DomainError("h must divide the rectangle extents")
    if nx < 3 or ny < 3:
        raise DomainError("grid needs at least one interior node per axis")
    return x0, y0, nx, ny


def _exponential_sum(rate, atoms, rect, h, what="field") -> Field2D:
    """Field sum_i w_i exp(rate <x, xi_i>) of the (xi, w) atoms, each w > 0,
    on the rectangle grid.  Checks the rate and directions, then the grid,
    then the range: OverflowError names the values, `what`, overflowing or
    underflowing to 0, which Field2D would reject without naming why."""
    if not math.isfinite(rate):
        raise DomainError(f"rate must be finite, got {rate!r}")
    directions = [_grid_direction(xi) for xi, _ in atoms]
    x0, y0, nx, ny = _grid_shape(rect, h)
    x = x0 + h * np.arange(nx)
    y = y0 + h * np.arange(ny)
    # a phase that overflows times a zero rate is NaN: named an overflow
    with np.errstate(over="ignore", invalid="ignore"):
        values = sum(w * np.exp(rate * (xi[0] * x[:, None] + xi[1] * y[None, :]))
                     for xi, (_, w) in zip(directions, atoms))
    if not _positive_finite(values):
        how = "underflows to 0" if np.isfinite(values).all() else "overflows"
        raise OverflowError(f"{what} exp({rate:g} <x, xi>) {how} on the "
                            "rectangle")
    return Field2D(h=h, origin=(x0, y0), values=values)


def exponential_field(alpha, xi, rect, h) -> Field2D:
    """Field exp(alpha*<x, xi>) sampled on the rectangle grid.  Raises
    DomainError on an alpha that is not finite, and OverflowError when the
    field overflows or underflows to 0 there."""
    return _exponential_sum(alpha, [(xi, 1.0)], rect, h)


# --- face machinery -------------------------------------------------------

def _face_gradients(v, h):
    """Normal and transverse gradient components on x- and y-faces."""
    dvx = (v[1:, 1:-1] - v[:-1, 1:-1]) / h                       # (nx-1, ny-2)
    dvy_x = (v[:-1, 2:] - v[:-1, :-2] + v[1:, 2:] - v[1:, :-2]) / (4.0 * h)
    dvy = (v[1:-1, 1:] - v[1:-1, :-1]) / h                       # (nx-2, ny-1)
    dvx_y = (v[2:, :-1] - v[:-2, :-1] + v[2:, 1:] - v[:-2, 1:]) / (4.0 * h)
    return dvx, dvy_x, dvy, dvx_y


def _centered_grad(w, h):
    """Centred differences (w_x, w_y) at the interior nodes of w.  Raises
    DomainError when w has fewer than 3 nodes on an axis, so no interior."""
    if min(w.shape) < 3:
        raise DomainError(f"{w.shape[0]} x {w.shape[1]} nodes, centred "
                          "differences need at least 3 per axis")
    return ((w[2:, 1:-1] - w[:-2, 1:-1]) / (2.0 * h),
            (w[1:-1, 2:] - w[1:-1, :-2]) / (2.0 * h))


def p_laplace_residual(field: Field2D, p, lam) -> np.ndarray:
    """Interior residual of -div(|grad v|^(p-2) grad v) + lam v^(p-1).

    Returns an (nx-2, ny-2) array over the interior nodes; O(h^2) consistent
    for smooth positive fields away from critical points.  A flat face
    carries no flux, so a node whose four faces are flat has residual
    lam v^(p-1) at every p.
    """
    v, h = field.values, field.h
    return _residual(v, p, lam, h, _face_terms(v, p, h))


def _face_terms(v, p, h):
    """(bn, bt, s2, k) on the x- and y-faces of v: normal and transverse
    gradient, s2 = bn^2 + bt^2, k = s2^((p-2)/2), and k = 0 where s2 = 0 at
    p < 2, so that a flat face's flux k bn is 0 rather than inf * 0."""

    def terms(bn, bt):
        s2 = bn ** 2 + bt ** 2
        with np.errstate(divide="ignore"):  # k = inf where s2 = 0 at p < 2
            k = s2 ** ((p - 2.0) / 2.0)
        if p < 2.0:
            k[s2 == 0.0] = 0.0
        return bn, bt, s2, k

    dvx, dvy_x, dvy, dvx_y = _face_gradients(v, h)
    return terms(dvx, dvy_x), terms(dvy, dvx_y)


def _residual(v, p, lam, h, faces):
    """p_laplace_residual of the values v from their _face_terms."""
    (dvx, _, _, kx), (dvy, _, _, ky) = faces
    fx, fy = kx * dvx, ky * dvy
    return (-((fx[1:, :] - fx[:-1, :]) / h + (fy[:, 1:] - fy[:, :-1]) / h)
            + lam * v[1:-1, 1:-1] ** (p - 1.0))


def _linearized_face_coeffs(faces, p):
    """Per-face coefficients of the linearized diffusion tensor of a field
    whose _face_terms are faces.  On each face the linearized flux in
    direction g is c1 * (normal dg) + c2 * (transverse dg), with
    c1 = k (1 + (p-2) bn^2/s2) and c2 = k (p-2) bn bt / s2.
    """
    pm2 = p - 2.0

    def coeffs(bn, bt, s2, k):
        with np.errstate(divide="ignore", invalid="ignore"):
            c1 = k * (1.0 + pm2 * bn ** 2 / s2)
            c2 = k * pm2 * bn * bt / s2
        flat = s2 == 0.0
        if np.any(flat):
            c1 = np.where(flat, 0.0, c1)
            c2 = np.where(flat, 0.0, c2)
        return c1, c2

    (c1x, c2x), (c1y, c2y) = (coeffs(*terms) for terms in faces)
    return c1x, c2x, c1y, c2y


def _apply_linearized(base, g, p, h):
    """Matrix-free action of the linearized divergence operator on g (interior)."""
    c1x, c2x, c1y, c2y = _linearized_face_coeffs(_face_terms(base, p, h), p)
    dgx, dgy_x, dgy, dgx_y = _face_gradients(g, h)
    gx = c1x * dgx + c2x * dgy_x
    gy = c1y * dgy + c2y * dgx_y
    return (gx[1:, :] - gx[:-1, :]) / h + (gy[:, 1:] - gy[:, :-1]) / h


def _newton_stencil(v, p, lam, h, coeffs):
    """Stencil arrays of delta -> -L_v(delta) + (p-1) lam v^(p-2) delta,
    from coeffs, the _linearized_face_coeffs of v's _face_terms.

    Returns a (3, 3, mi, mj) array over the mi x mj interior nodes:
    sten[di + 1, dj + 1, k, l] couples node (k, l) to node (k + di, l + dj).
    Couplings to boundary nodes are zeroed, so the arrays hold the operator
    on the interior alone.  They are stored as their own DIA data
    (_stencil_storage).  An entry that leaves the double range (c2's
    product k (p-2) bn bt overflows before its division by s2) is left
    inf or NaN, and named by _solve_refined if its float64 LU is reached.
    solve_dirichlet frees the face terms before this call and the four
    coefficient arrays after it, so the nine arrays are filled with no
    face term alive beside them.
    """
    c1x, c2x, c1y, c2y = coeffs
    e1, e2 = c1x[1:, :], c2x[1:, :]  # east face of each interior node
    w1, w2 = c1x[:-1, :], c2x[:-1, :]
    n1, n2 = c1y[:, 1:], c2y[:, 1:]
    s1, s2 = c1y[:, :-1], c2y[:, :-1]
    h2 = h * h
    sten = _stencil_storage(v.shape[0] - 2, v.shape[1] - 2, np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        # the Newton operator is -L_v + mass, L_v's stencil negated
        sten[1, 1] = ((p - 1.0) * lam * v[1:-1, 1:-1] ** (p - 2.0)
                      + (e1 + w1 + n1 + s1) / h2)
        ns, ew = 0.25 * (n2 - s2), 0.25 * (e2 - w2)
        sten[2, 1] = -(e1 + ns) / h2
        sten[0, 1] = -(w1 - ns) / h2
        sten[1, 2] = -(n1 + ew) / h2
        sten[1, 0] = -(s1 - ew) / h2
        sten[2, 2] = -0.25 * (e2 + n2) / h2
        sten[0, 0] = -0.25 * (w2 + s2) / h2
        sten[2, 0] = 0.25 * (e2 + s2) / h2
        sten[0, 2] = 0.25 * (w2 + n2) / h2
    sten[2, :, -1] = 0.0
    sten[0, :, 0] = 0.0
    sten[:, 2, :, -1] = 0.0
    sten[:, 0, :, 0] = 0.0
    return sten


def _stencil_layout(mi, mj):
    """(buffer length, strides in elements) of _stencil_storage's arrays."""
    width = mi * mj + mj + 1
    return 9 * width + mj + 1, (3 * width + mj, width + 1, mj, 1)


def _stencil_storage(mi, mj, dtype):
    """(3, 3, mi, mj) stencil arrays, not yet filled, stored as their own
    DIA data.

    With W = mi * mj + mj + 1, entry (a, b, k, l) sits at element
    a * (3W + mj) + b * (W + 1) + k * mj + l of a C-contiguous buffer of
    9W + mj + 1 elements, the arrays' base.  Row 3a + b of the (9, W)
    array buffer[mj + 1:] is then the data of diagonal
    (a - 1) * mj + b - 1, and entry (a, b, k, l) lies in the column of the
    node it couples to, as the DIA format places it.  The nine arrays do
    not overlap; the buffer's elements between them lie outside the
    matrix and are zeroed.
    """
    length, steps = _stencil_layout(mi, mj)
    buffer = np.empty(length, dtype)
    starts = [a * steps[0] + b * steps[1] for a, b in np.ndindex(3, 3)]
    for start, following in zip(starts, starts[1:]):
        buffer[start + mi * mj:following] = 0
    return np.ndarray((3, 3, mi, mj), dtype, buffer,
                      strides=[buffer.itemsize * n for n in steps])


def _stencil_matrix(sten):
    """DIA matrix of the (3, 3, mi, mj) stencil arrays sten.

    Node (k, l) is row and column k * mj + l, so stencil entry (di, dj) lies
    on diagonal di * mj + dj.  sten must come from _stencil_storage, whose
    buffer is the matrix's data, shared without a copy; other arrays raise
    ValueError.  Arrays that share a diagonal (mj <= 2) are summed, since a
    DIA matrix holds each diagonal once.  Its products add each row's terms
    in ascending column order, bit for bit as with its CSR form, which
    leaves exact zeros out.
    """
    mi, mj = sten.shape[2:]
    length, steps = _stencil_layout(mi, mj)
    buffer = sten.base
    if not (isinstance(buffer, np.ndarray) and buffer.dtype == sten.dtype
            and buffer.shape == (length,)
            and sten.strides == tuple(sten.itemsize * n for n in steps)
            and sten.ctypes.data == buffer.ctypes.data):
        raise ValueError("stencil arrays must be stored by _stencil_storage")
    data = buffer[mj + 1:].reshape(9, -1)
    offsets = np.array([(a - 1) * mj + b - 1 for a, b in np.ndindex(3, 3)])
    if mj <= 2:
        diagonals = np.unique(offsets)
        data = np.stack([data[offsets == off].sum(axis=0)
                         for off in diagonals])
        offsets = diagonals
    return sparse.dia_matrix((data, offsets), shape=(mi * mj, mi * mj))


# Coarse node I of an axis of m fine nodes sits on fine node 2I + 1 and
# interpolates to fine nodes 2I, 2I + 1 and 2I + 2 with weights 1/2, 1 and
# 1/2; the boundary beyond either end is zero, so odd and even axes both
# coarsen to m // 2 nodes.

def _coarsen_axis(sten, axis):
    """Galerkin product P^T S P of the stencil arrays sten along node axis
    0 or 1, where P interpolates linearly from the m // 2 coarse nodes.

    Along the axis, coarse entry D at node K sums w_a w_b S_d[2K + 1 + a]
    over the offsets a, d, b in {-1, 0, 1} with a + d = 2D + b, where
    w_0 = 1 and w_-1 = w_1 = 1/2; the other axis is left as it is.  Entries
    that point past either end are zeroed.  The result is stored as its own
    DIA data (_stencil_storage).
    """
    # the coarsened axis first: its offsets on axis 0, its nodes on axis 2
    s = sten.transpose(1, 0, 3, 2) if axis else sten
    n = s.shape[2] // 2
    if s.shape[2] % 2 == 0:  # the boundary node beyond an even axis
        s = np.concatenate(
            [s, np.zeros(s.shape[:2] + (1,) + s.shape[3:], s.dtype)], axis=2)
    lo, mid, hi = s[:, :, 0:2 * n:2], s[:, :, 1::2], s[:, :, 2::2]
    out = _stencil_storage(*((s.shape[3], n) if axis else (n, s.shape[3])),
                           s.dtype)
    coarse = out.transpose(1, 0, 3, 2) if axis else out
    coarse[0] = 0.5 * (lo[0] + mid[0]) + 0.25 * lo[1]
    coarse[1] = (mid[1] + 0.25 * (lo[1] + hi[1])
                 + 0.5 * (lo[2] + mid[0] + mid[2] + hi[0]))
    coarse[2] = 0.5 * (mid[2] + hi[2]) + 0.25 * hi[1]
    coarse[0, :, 0] = 0.0
    coarse[2, :, -1] = 0.0
    return out


def _prolong(c, mi, mj):
    """P c: the (mi, mj) linear interpolation of the (mi // 2, mj // 2)
    array c, in c's dtype and C order."""
    return _by_axes(_linear_axis, c, mi, mj)


def _interpolate_cubic(c, mi, mj):
    """The (mi, mj) cubic interpolation of the (mi // 2, mj // 2) array c,
    both axes at least 6 nodes, in c's dtype and C order."""
    return _by_axes(_cubic_axis, c, mi, mj)


def _by_axes(fill, c, mi, mj):
    """The (mi, mj) C-ordered array that fill(coarse, fine) interpolates
    from c along axis 0 and then along axis 1, where fill writes the
    (m, k) array fine from the (m // 2, k) array coarse.  The only array
    besides the result is the (mi, mj // 2) one between the passes."""
    rows = np.empty((mi, c.shape[1]), c.dtype)
    fill(c, rows)
    out = np.empty((mi, mj), c.dtype)
    fill(rows.T, out.T)
    return out


def _linear_axis(c, fine):
    """fine from c along axis 0 with weights 1/2, 1, 1/2."""
    n = len(c)
    half = 0.5 * c
    fine[1::2] = c
    fine[0] = half[0]
    np.add(half[:-1], half[1:], out=fine[2:2 * n:2])
    if len(fine) % 2:
        fine[-1] = half[-1]


def _cubic_axis(c, fine):
    """fine from c along axis 0 by cubic Lagrange interpolation, the zero
    boundary counted as a node beyond either end.

    Coarse node I sits on fine node 2I + 1 and the boundary on fine nodes
    -1 and m, so a fine node 2I between coarse nodes I - 1 and I takes
    (-c[I-2] + 9 c[I-1] + 9 c[I] - c[I+1]) / 16, with c[-1] the left
    boundary and, on an odd axis, c[n] the right one.  Fine node 0 and, on
    an odd axis, fine node m - 1 lie between the boundary and an end node:
    they take the one-sided weights (5, 15, -5, 1) / 16 of the boundary
    and the three nearest coarse nodes.  On an even axis fine node m - 2
    lies between the last two coarse nodes with the boundary one fine step
    past the last: it takes the weights (-1, 10, 15, -4) / 20 of the last
    three coarse nodes and the boundary.
    """
    m, n = len(fine), len(c)
    fine[1::2] = c
    # fine nodes 2I for I = 1 .. last - 1, centred between coarse nodes
    last = n if m % 2 else n - 1
    mid = fine[2:2 * last:2]
    np.add(c[:last - 1], c[1:last], out=mid)
    mid *= 9.0
    mid[1:] -= c[:last - 2]
    mid[:n - 2] -= c[2:]
    mid *= 1.0 / 16.0
    fine[0] = (15.0 * c[0] - 5.0 * c[1] + c[2]) / 16.0
    if m % 2:
        fine[-1] = (15.0 * c[-1] - 5.0 * c[-2] + c[-3]) / 16.0
    else:
        fine[-2] = (15.0 * c[-1] + 10.0 * c[-2] - c[-3]) / 20.0


def _restrict(r):
    """P^T r: the (mi // 2, mj // 2) array whose node (I, J) weights the
    (mi, mj) array r about node (2I + 1, 2J + 1) as _prolong does."""
    for _ in range(2):
        n = r.shape[0] // 2
        coarse = r[1::2] + 0.5 * r[0:2 * n:2]
        tail = r[2::2]  # n rows on an odd axis, n - 1 on an even one
        coarse[:len(tail)] += 0.5 * tail
        r = coarse.T  # the next pass restricts the other axis
    return r


def _binary_exponent(a):
    """e such that 2^-e a has its largest magnitude in [0.5, 1) (0 when a
    is all zeros or not finite)."""
    return int(np.frexp(np.max(np.abs(a)))[1])


def _multigrid_hierarchy(sten):
    """float32 Galerkin levels of the float64 stencil arrays sten, or None.

    The levels hold 2^-shift sten, shift = _binary_exponent(sten[1, 1]),
    so that the largest centre entry lies in [0.5, 1): the power-of-two
    scale is exact, and a system whose magnitudes fit float64 also fits
    float32's range unless its own entries spread wider than that range.
    Level k holds (A_k, JACOBI_OMEGA / diag(A_k), (mi, mj)), where A_k is
    the DIA matrix (_stencil_matrix) of the level's float32 stencil arrays
    on its mi x mj interior, its diagonal is their centre array, and the
    next level's arrays are the Galerkin product P_k^T A_k P_k, formed by
    _coarsen_axis along both axes since P_k interpolates kron-wise from the
    (mi // 2, mj // 2) grid below.  Every level's arrays are stored as
    their own DIA data (_stencil_storage): the scaled float32 arrays are
    written into that layout and _coarsen_axis coarsens into it, so each
    A_k wraps its arrays without a copy.  Coarsening stops once an axis
    has at most COARSEST_NODES nodes; that level is factored by splu in
    float32.  Returns (levels, coarsest factor, shift), or None when a
    Jacobi weight is not finite (a centre entry is zero, or underflows
    float32) or the coarsest matrix is exactly singular.
    """
    shift = _binary_exponent(sten[1, 1])
    # scaled in float64, stored in float32: an entry beyond float32's range
    # becomes inf, and one below it zero, an infinite Jacobi weight
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sten = np.ldexp(sten, -shift,
                        out=_stencil_storage(*sten.shape[2:], np.float32))
        levels = []
        while min(sten.shape[2:]) > COARSEST_NODES:
            weight = JACOBI_OMEGA / sten[1, 1].ravel()
            if not np.all(np.isfinite(weight)):
                return None
            levels.append((_stencil_matrix(sten), weight, sten.shape[2:]))
            sten = _coarsen_axis(_coarsen_axis(sten, 0), 1)
    try:
        return (levels, splu(_stencil_matrix(sten).tocsc(),
                             permc_spec=DIRECT_ORDERING), shift)
    except RuntimeError:  # exactly singular
        return None


def _defect(mat, x, rhs):
    """rhs - mat @ x, computed in the product's own array."""
    prod = mat @ x
    return np.subtract(rhs, prod, out=prod)


def _jacobi_sweep(mat, weight, rhs, x):
    """x += weight * (rhs - mat @ x) in place, through one temporary."""
    step = _defect(mat, x, rhs)
    step *= weight
    x += step


def _vcycle(levels, coarsest, rhs):
    """One V-cycle from a zero guess for levels[0]'s matrix: PRE_SWEEPS
    damped Jacobi sweeps, the coarse-grid correction, POST_SWEEPS sweeps.
    The residual goes down by _restrict and the correction comes up by
    _prolong, on the level's (mi, mj) node array.  Runs in the levels'
    float32, on a float32 rhs."""
    if not levels:
        return coarsest.solve(rhs)
    mat, weight, (mi, mj) = levels[0]
    x = weight * rhs  # the first sweep from zero
    for _ in range(PRE_SWEEPS - 1):
        _jacobi_sweep(mat, weight, rhs, x)
    coarse = _vcycle(levels[1:], coarsest,
                     _restrict(_defect(mat, x, rhs).reshape(mi, mj)).ravel())
    x += _prolong(coarse.reshape(mi // 2, mj // 2), mi, mj).ravel()
    for _ in range(POST_SWEEPS):
        _jacobi_sweep(mat, weight, rhs, x)
    return x


def _fmg(levels, coarsest, rhs):
    """Full multigrid for levels[0]'s matrix: the coarsest LU solve, then on
    each finer level the cubic interpolation of the coarse solution
    (_interpolate_cubic) plus one V-cycle.  The start interpolates to a
    higher order than the discretization's second, as full multigrid needs
    to reach discretization accuracy (Trottenberg, Oosterlee & Schueller,
    Multigrid, 2001, sec. 2.6); the V-cycles' coarse-grid corrections keep
    the linear _prolong, whose transpose _restrict forms the Galerkin
    levels.  Runs in float32, as _vcycle does."""
    if not levels:
        return coarsest.solve(rhs)
    mat, _, (mi, mj) = levels[0]
    coarse = _fmg(levels[1:], coarsest, _restrict(rhs.reshape(mi, mj)).ravel())
    x = _interpolate_cubic(coarse.reshape(mi // 2, mj // 2), mi, mj).ravel()
    x += _vcycle(levels, coarsest, _defect(mat, x, rhs))
    return x


def _correction(cycle, hierarchy, resid):
    """The float64 correction that cycle (_fmg or _vcycle) on the float32
    levels of hierarchy gives for the float64 residual resid.  resid is
    scaled by the power of two that puts its largest magnitude in [0.5, 1)
    before the cast to float32, and the cycle's result is scaled back by it
    and by the levels' shift, both exactly."""
    levels, coarsest, shift = hierarchy
    scale = _binary_exponent(resid)
    y = cycle(levels, coarsest, np.ldexp(resid, -scale).astype(np.float32))
    return np.ldexp(y, scale - shift, dtype=np.float64)


def _solve_refined(sten, rhs, interior, tol):
    """Newton step x solving A x = rhs, by float32 multigrid corrections
    refined in float64, where A is the matrix of the stencil arrays sten.

    interior holds the (mi, mj) positive interior values of the field the
    step updates, and sten the Newton operator's (3, 3, mi, mj) stencil
    arrays on those nodes (_newton_stencil), node (k, l) being row
    k * mj + l of the float64 DIA matrix A = _stencil_matrix(sten).  The
    arrays of _newton_stencil are stored as A's DIA data
    (_stencil_storage), so A shares them without a copy.  The Galerkin
    hierarchy (_multigrid_hierarchy) is built once from sten, in float32,
    in the same layout.  The first correction is one full-multigrid pass
    (_fmg, which starts each finer level from the cubic interpolation of
    the coarser one's solution) on rhs, and each later one is one V-cycle
    (_vcycle) on the float64 residual rhs - A @ x (Brandt, Math. Comp. 31,
    1977; Trottenberg, Oosterlee & Schueller, Multigrid, 2001, ch. 2),
    each scaled by a power of two and cast to float32 and back by
    _correction.  The cycles only have to contract the error, and float32
    suffices for that, since x, A and the residual that decide the answer
    stay float64: mixed-precision iterative refinement (Goeddeke, Strzodka
    & Turek, IJPEDS 22, 2007; Carson & Higham, SIAM J. Sci. Comput. 40,
    2018).  Refinement stops once a
    correction is within REFINE_ULPS float64 ulps of the field at every
    node, |corr| <= REFINE_ULPS * eps * interior: the update interior + x
    rounds finer digits of x away, so x is accurate to a few ulps of the
    field, not of itself (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, ch. 12).  It also stops when a correction fails to
    halve the one before while within STALL_ULPS ulps of x: that is the
    rounding floor of x.  And it stops once the float64 residual formed for
    the next correction has max|rhs - A x| <= LINEAR_TOL_SHARE * tol, tol
    being solve_dirichlet's (inexact Newton): such a step lies within
    ||A^-1||_inf * tol / 4 of the exact one, any other within a few ulps of
    the field as above.  On grid_fine's 640 draws of seeds 1011-1030, one
    call per Newton step, that stop takes the corrections from 3413 with
    tol 0 to 2489, and the failing draws from 20 to 19.  With tol = 0 that
    stop is reached only on an exactly zero residual, whose next correction
    would be zero, so x is the same.  x comes from one float64 LU of A
    instead when the hierarchy cannot be built (a Jacobi weight is not
    finite or the coarsest matrix is singular), or a correction is not
    finite or fails to halve the one before above STALL_ULPS ulps of x.
    No hierarchy outlives the call, and it is freed before the float64 LU
    is made.  Raises OverflowError instead of that LU when sten is not
    finite.  The refinement holds x, the residual, the current correction
    and the stop bound once each: x and each residual are updated in place,
    the correction's array becomes its sizes and then the next residual,
    and the V-cycles' Jacobi sweeps take one temporary each
    (_jacobi_sweep).  rhs is not written.

    Returns (x, corrections plus fallback solves, float64 factorizations).
    """
    mat = _stencil_matrix(sten)
    hierarchy = _multigrid_hierarchy(sten)
    done = (REFINE_ULPS * EPS64 * interior).ravel()
    linear_tol = LINEAR_TOL_SHARE * tol
    x = np.zeros_like(rhs)
    resid, cycles, last = rhs, 0, math.inf
    while hierarchy is not None:
        # a correction that overflows is not finite and goes to the fallback
        with np.errstate(invalid="ignore", over="ignore"):
            corr = _correction(_vcycle if cycles else _fmg, hierarchy, resid)
        cycles += 1
        # x is discarded if the correction is not finite
        x += corr
        size = np.abs(corr, out=corr)
        step = float(np.max(size))
        if not math.isfinite(step):
            break
        if np.all(size <= done):
            return x, cycles, 0
        if step > 0.5 * last:
            # stalled: at the rounding floor, or above it because the
            # cycle does not contract on this matrix
            if step <= STALL_ULPS * EPS64 * float(np.max(np.abs(x))):
                return x, cycles, 0
            break
        last = step
        # in the array of the sizes, so no correction outlives its check
        resid = np.subtract(rhs, mat @ x, out=size)
        if max(-float(resid.min()), float(resid.max())) <= linear_tol:
            return x, cycles, 0
    hierarchy = None  # freed before the float64 LU is made
    if not np.isfinite(sten).all():
        raise OverflowError("Newton stencil is not finite: its face "
                            "coefficients leave the double range")
    return (splu(mat.tocsc(), permc_spec=DIRECT_ORDERING).solve(rhs),
            cycles + 1, 1)


def solve_dirichlet(params: ProblemParams, xi, rect, h, tol=1e-10,
                    scale=1.0):
    """Damped Newton solve with boundary data scale*exp(alpha <x, xi>).

    The initial guess is the extension of the boundary data to the whole
    rectangle.  The residual is p_laplace_residual's, in which a flat face
    carries no flux; its linearized coefficients are 0 too.  Raises
    DomainError when tol is negative or not finite or scale is not positive
    and finite, OverflowError when the boundary data overflow or underflow
    to 0, their initial residual or a squared face gradient is not finite,
    or a step's stencil is not finite where it needs the float64 LU, and
    NoConvergence when MAX_NEWTON_ITERS steps or the damping floor are
    exhausted before final_residual <= tol.

    Each Newton step assembles the Jacobian as its nine stencil arrays
    (_newton_stencil), from the coefficients (_linearized_face_coeffs) of
    the face terms of the residual that accepted v, and solves it with
    _solve_refined: a full-multigrid pass that starts each finer level
    from the cubic interpolation of the coarser solution, then V-cycles,
    in float32 on a hierarchy coarsened from those arrays scaled to
    float32, each on the float64 residual, until a correction is within
    REFINE_ULPS ulps of the interior of v, the field the step updates, or
    the step's linearized residual is within LINEAR_TOL_SHARE * tol, or
    one float64 LU when they fail.  v, its residual and the returned field
    are float64.  A step ended by the tol share lies within
    ||J^-1||_inf * tol / 4 of an exact step, J the Newton matrix, since
    final_residual <= tol is all the solve promises.  Any other step
    updates the field to within a few ulps of the one an exact step gives,
    while the step itself may be accurate only to those ulps of v rather
    than to its own.  Each step is solved once, and the damping search
    judges it as refinement left it, so a step ended by the share can cost
    a Newton step that an exact one would not (README).  A step holds each
    grid-sized array once: the face terms are freed once their four
    coefficient arrays are formed, and those once the stencil arrays are;
    the residual is negated in place into the right-hand side; the stencil
    arrays and the step's multigrid hierarchy are freed when _solve_refined
    returns, before the damping trials compute their face terms.
    SolveStats counts the corrections and fallback solves (linear_solves;
    the full-multigrid pass counts as one correction) and the float64
    fallbacks (float64_refactors).

    Only params.p and params.lam enter; the grid realization is 2-D
    regardless of params.n.
    """
    if not 0.0 <= tol < math.inf:  # NaN fails it too
        raise DomainError("tol must be finite and >= 0")
    if not 0.0 < scale < math.inf:
        raise DomainError("scale must be finite and > 0")
    p, lam = params.p, params.lam
    alpha = eigen_rate_alpha(lam, p)
    start = _exponential_sum(alpha, [(xi, scale)], rect, h, "boundary data")
    v = start.values

    with np.errstate(over="ignore", invalid="ignore"):
        faces = _face_terms(v, p, h)
        resid = _residual(v, p, lam, h, faces)
    res = float(np.max(np.abs(resid)))
    # at p < 2 a face whose s2 overflows gets k = 0, a finite wrong flux
    s2_max = max(float(faces[0][2].max()), float(faces[1][2].max()))
    if not math.isfinite(res + s2_max):
        raise OverflowError("the boundary data exceed the range of the "
                            "discrete operator: squared face gradients reach "
                            f"{s2_max:g}, the initial residual {res:g}")
    iters = damping_events = linear_solves = float64_refactors = 0
    # `not res <= tol` also keeps iterating on a NaN residual
    while not res <= tol:
        if iters >= MAX_NEWTON_ITERS:
            raise NoConvergence(
                f"residual {res:g} > tol {tol:g} after {iters} iterations")
        # the residual becomes the right-hand side in place
        rhs = np.negative(resid, out=resid).ravel()
        with np.errstate(over="ignore"):  # left inf, as _newton_stencil says
            coeffs = _linearized_face_coeffs(faces, p)
        faces = None
        sten = _newton_stencil(v, p, lam, h, coeffs)
        coeffs = None
        x, solves, refactors = _solve_refined(sten, rhs, v[1:-1, 1:-1], tol)
        sten = None  # freed before the damping trials
        delta = x.reshape(resid.shape)
        linear_solves += solves
        float64_refactors += refactors
        theta = 1.0
        while True:
            if theta < DAMPING_FLOOR:
                raise NoConvergence("damping floor reached without residual decrease")
            v_try = v.copy()
            v_try[1:-1, 1:-1] = v[1:-1, 1:-1] + theta * delta
            # rounding is monotone: once theta * delta rounds away at every
            # node it does so for every smaller theta, and the residual
            # can never fall
            if np.array_equal(v_try, v):
                raise NoConvergence("damping floor reached without residual decrease")
            if _positive_finite(v_try):
                faces = _face_terms(v_try, p, h)
                resid_try = _residual(v_try, p, lam, h, faces)
                res_try = float(np.max(np.abs(resid_try)))
                if res_try < res or res_try <= tol:
                    break
            theta *= 0.5
            damping_events += 1
        v = v_try
        resid, res = resid_try, res_try
        iters += 1
    stats = SolveStats(newton_iters=iters, final_residual=res,
                       damping_events=damping_events,
                       linear_solves=linear_solves,
                       float64_refactors=float64_refactors)
    return Field2D(h, start.origin, v), stats


def gradient_log_sup(field: Field2D, via="log") -> float:
    """Max over interior nodes of |grad log v| by centered differences.

    via='log' differences ln(v) directly (exact for exponential data);
    via='ratio' forms |grad v|/v with differences on v itself, which carries
    the usual O(h^2) stencil error.
    """
    v, h = field.values, field.h
    if via == "log":
        w = np.log(v)
        wx, wy = _centered_grad(w, h)
    elif via == "ratio":
        vx, vy = _centered_grad(v, h)
        wx = vx / v[1:-1, 1:-1]
        wy = vy / v[1:-1, 1:-1]
    else:
        raise DomainError("via must be 'log' or 'ratio'")
    return float(np.max(np.sqrt(wx ** 2 + wy ** 2)))


def directional_range(field: Field2D, nu):
    """(min, max) over interior nodes of <grad log v, nu> for a unit nu."""
    nu = _grid_direction(nu)
    w = np.log(field.values)
    h = field.h
    wx, wy = _centered_grad(w, h)
    d = nu[0] * wx + nu[1] * wy
    return float(d.min()), float(d.max())


def kappa(p, lam) -> float:
    """Sharp bound ((p-1)^(p-1) lam)^(2/p) on |grad(-(p-1) log v)|^2.
    Raises DomainError unless 1 < p < inf and 0 <= lam < inf."""
    if not (1.0 < p < math.inf and 0.0 <= lam < math.inf):  # NaN fails it
        raise DomainError("kappa needs 1 < p < inf and 0 <= lam < inf, got "
                          f"p={p!r}, lam={lam!r}")
    return ((p - 1.0) ** (p - 1.0) * lam) ** (2.0 / p)


def kappa_bound_check(field: Field2D, p, lam):
    """(max of f, kappa) where f = |grad w|^2, w = -(p-1) log v.  Raises
    DomainError on the p and lam that kappa rejects."""
    kap = kappa(p, lam)
    w = -(p - 1.0) * np.log(field.values)
    h = field.h
    wx, wy = _centered_grad(w, h)
    f = wx ** 2 + wy ** 2
    return float(f.max()), kap


def bochner_residual(field: Field2D, p, lam) -> float:
    """Max pointwise gap in the second-order identity for f = |grad w|^2.

    With w = -(p-1) log v the identity reads
        L_w(f) = 2 f^(p/2-1) w_ij^2 + (p/2-1) |grad f|^2 f^(p/2-2)
                 + p f^(p/2-1) <grad w, grad f>.
    Both sides are discretized (third derivatives by nested centered
    second-order stencils, which stay O(h^2) nested) and compared where
    f > 1e-6 * kappa.  Measured refinement ratios of the result from
    h = 1/16 to 1/128: 3.995-3.999 on criterion 05's p = 2 oracle field
    e^x + e^y, and 4.01, 3.55 and 3.34 on solved p = 3 fields (n = 4,
    lam = 2, xi = (0.6, 0.8), unit square, tol 1e-9), whose residual is the
    solve's error, since the exact exponential field gives 4e-8 at
    h = 1/128; at xi = (1, 0) the ratios are about 10.
    Returns 0 when that mask is empty.  Raises DomainError on the p and lam
    that kappa rejects and on a grid with fewer than NESTED_STENCIL_NODES
    nodes per axis.
    """
    kap = kappa(p, lam)
    v, h = field.values, field.h
    nodes = min(v.shape)
    if nodes < NESTED_STENCIL_NODES:
        raise DomainError(f"{nodes} nodes per axis, the checks need at least "
                          f"{NESTED_STENCIL_NODES} for the nested stencils")
    w = -(p - 1.0) * np.log(v)

    wx, wy = _centered_grad(w, h)                      # nodes [1..nx-2]
    f_int = wx ** 2 + wy ** 2                          # shape (nx-2, ny-2)
    # L_w(f) at nodes [2..nx-3] reads w and f at nodes [1..nx-2] only
    lhs = _apply_linearized(w[1:-1, 1:-1], f_int, p, h)

    wxx = (w[2:, 1:-1] - 2.0 * w[1:-1, 1:-1] + w[:-2, 1:-1]) / h ** 2
    wyy = (w[1:-1, 2:] - 2.0 * w[1:-1, 1:-1] + w[1:-1, :-2]) / h ** 2
    wxy = (w[2:, 2:] - w[2:, :-2] - w[:-2, 2:] + w[:-2, :-2]) / (4.0 * h ** 2)
    wij2 = (wxx ** 2 + 2.0 * wxy ** 2 + wyy ** 2)[1:-1, 1:-1]

    fx, fy = _centered_grad(f_int, h)
    grad_f2 = fx ** 2 + fy ** 2
    wf_dot = wx[1:-1, 1:-1] * fx + wy[1:-1, 1:-1] * fy

    f = f_int[1:-1, 1:-1]
    mask = f > 1e-6 * kap
    if not np.any(mask):
        return 0.0
    fm = f[mask]
    rhs = (2.0 * fm ** (p / 2.0 - 1.0) * wij2[mask]
           + (p / 2.0 - 1.0) * grad_f2[mask] * fm ** (p / 2.0 - 2.0)
           + p * fm ** (p / 2.0 - 1.0) * wf_dot[mask])
    return float(np.max(np.abs(lhs[mask] - rhs)))


def representation_field(atoms, lam, rect, h) -> Field2D:
    """Superposition sum_i w_i exp(sqrt(lam) <x, xi_i>) of (xi, w) atoms on
    the rectangle grid; it solves -Lap v + lam v = 0, the p = 2 equation.
    The atoms are a positive measure on the directions: raises DomainError
    when there is none or a weight is not positive and finite, and
    OverflowError when the values overflow or underflow to 0."""
    if not 0.0 <= lam < math.inf:  # NaN fails it too
        raise DomainError(f"lam must be finite and >= 0, got {lam!r}")
    atoms = list(atoms)
    if not atoms or not all(0.0 < w < math.inf for _, w in atoms):
        raise DomainError("atoms must be one or more, each weight positive "
                          "and finite")
    # math.sqrt, not eigen_rate_alpha: its lam ** 0.5 differs from sqrt in
    # the last bit at some lam (e.g. 2.315)
    return _exponential_sum(math.sqrt(lam), atoms, rect, h)
