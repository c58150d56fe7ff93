"""2-D finite-difference solver and diagnostics for the quasi-linear eigen-equation.

Discretization is the standard 5-point divergence form: face-centered
gradients (normal component by direct difference, transverse component by
averaging the four neighboring centered differences), nonlinear diffusivity
(|grad v|^2 + eps^2)^((p-2)/2) evaluated per face, divergence by face-flux
differences.  The formally linearized operator uses the same face geometry
with the rank-one tensor correction, which makes the damped Newton iteration
and the second-order (Bochner) identity check share one discretization.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import DomainError, NoConvergence
from .indicial import ProblemParams, eigen_rate_alpha

PLF2_MAGIC = b"PLF2"
DAMPING_FLOOR = 2.0 ** -30
# refinement of a Newton step from its float32 factor stops once a
# correction is within this many float64 ulps of the step
REFINE_ULPS = 4.0
# a correction that fails to halve the one before is the rounding floor
# when within this many float64 ulps of the step, else the float32 factor
# has failed.  The floor reached (the stalled correction over ulp(max|x|))
# measured at most 16 at h = 1/32, 123 at h = 1/256 and 189 at h = 1/512
# on the grid_fine draws of the benchmark
STALL_ULPS = 1024.0
EPS64 = float(np.finfo(np.float64).eps)
# nodes per axis that bochner_residual's nested stencils need: the identity
# is compared on nodes 2..nx-3
NESTED_STENCIL_NODES = 7


@dataclass
class Field2D:
    """Positive scalar grid function on a rectangle with uniform spacing h.

    values[i, j] sits at (origin[0] + i*h, origin[1] + j*h).
    """

    nx: int
    ny: int
    h: float
    origin: tuple
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.nx, self.ny):
            raise DomainError("values must have shape (nx, ny)")
        if self.h <= 0.0:
            raise DomainError("h must be positive")
        if not np.all(self.values > 0.0):
            raise DomainError("field values must be positive")
        self.origin = (float(self.origin[0]), float(self.origin[1]))

    def x_coords(self) -> np.ndarray:
        return self.origin[0] + self.h * np.arange(self.nx)

    def y_coords(self) -> np.ndarray:
        return self.origin[1] + self.h * np.arange(self.ny)


@dataclass(frozen=True)
class SolveStats:
    newton_iters: int
    final_residual: float
    damping_events: int
    epsilon: float
    # triangular solves, refinement included, and float64 factorizations
    # made because a float32 one failed (see _solve_refined)
    linear_solves: int
    float64_refactors: int


def _check_unit(vec):
    vec = np.asarray(vec, dtype=float)
    if abs(float(np.linalg.norm(vec)) - 1.0) > 1e-14:
        raise DomainError("direction must be a unit vector")
    return vec


def _grid_shape(rect, h):
    x0, y0, x1, y1 = (float(c) for c in rect)
    if not (x1 > x0 and y1 > y0):
        raise DomainError("rectangle must have positive extent")
    nx = int(round((x1 - x0) / h)) + 1
    ny = int(round((y1 - y0) / h)) + 1
    if abs(x0 + (nx - 1) * h - x1) > 1e-9 * max(1.0, abs(x1)) or \
       abs(y0 + (ny - 1) * h - y1) > 1e-9 * max(1.0, abs(y1)):
        raise DomainError("h must divide the rectangle extents")
    if nx < 3 or ny < 3:
        raise DomainError("grid needs at least one interior node per axis")
    return x0, y0, nx, ny


def exponential_field(alpha, xi, rect, h, scale=1.0) -> Field2D:
    """Field scale*exp(alpha*<x, xi>) sampled on the rectangle grid."""
    xi = _check_unit(xi)
    x0, y0, nx, ny = _grid_shape(rect, h)
    x = x0 + h * np.arange(nx)
    y = y0 + h * np.arange(ny)
    phase = alpha * (xi[0] * x[:, None] + xi[1] * y[None, :])
    return Field2D(nx=nx, ny=ny, h=h, origin=(x0, y0), values=scale * np.exp(phase))


def field_from_values(values, rect, h) -> Field2D:
    x0, y0, nx, ny = _grid_shape(rect, h)
    return Field2D(nx=nx, ny=ny, h=h, origin=(x0, y0), values=values)


# --- face machinery -------------------------------------------------------

def _face_gradients(v, h):
    """Normal and transverse gradient components on x- and y-faces."""
    dvx = (v[1:, 1:-1] - v[:-1, 1:-1]) / h                       # (nx-1, ny-2)
    dvy_x = (v[:-1, 2:] - v[:-1, :-2] + v[1:, 2:] - v[1:, :-2]) / (4.0 * h)
    dvy = (v[1:-1, 1:] - v[1:-1, :-1]) / h                       # (nx-2, ny-1)
    dvx_y = (v[2:, :-1] - v[:-2, :-1] + v[2:, 1:] - v[:-2, 1:]) / (4.0 * h)
    return dvx, dvy_x, dvy, dvx_y


def _centered_grad(w, h):
    """Centred differences (w_x, w_y) at the interior nodes of w."""
    return ((w[2:, 1:-1] - w[:-2, 1:-1]) / (2.0 * h),
            (w[1:-1, 2:] - w[1:-1, :-2]) / (2.0 * h))


def p_laplace_residual(field: Field2D, p, lam, epsilon=0.0) -> np.ndarray:
    """Interior residual of -div((|grad v|^2+eps^2)^((p-2)/2) grad v) + lam v^(p-1).

    Returns an (nx-2, ny-2) array over the interior nodes; O(h^2) consistent
    for smooth positive fields away from critical points when epsilon = 0.
    """
    v, h = field.values, field.h
    dvx, dvy_x, dvy, dvx_y = _face_gradients(v, h)
    kx = (dvx ** 2 + dvy_x ** 2 + epsilon ** 2) ** ((p - 2.0) / 2.0)
    ky = (dvy ** 2 + dvx_y ** 2 + epsilon ** 2) ** ((p - 2.0) / 2.0)
    fx = kx * dvx
    fy = ky * dvy
    div = (fx[1:, :] - fx[:-1, :]) / h + (fy[:, 1:] - fy[:, :-1]) / h
    return -div + lam * v[1:-1, 1:-1] ** (p - 1.0)


def _linearized_face_coeffs(base, p, h, epsilon):
    """Per-face coefficients of the linearized diffusion tensor at `base`.

    On each face the linearized flux in direction g is
        c1 * (normal dg) + c2 * (transverse dg)
    with c1 = k (1 + (p-2) bn^2/s2), c2 = k (p-2) bn bt / s2,
    k = s2^((p-2)/2), s2 = |grad base|^2 + eps^2 at the face.
    """
    dbx, dby_x, dby, dbx_y = _face_gradients(base, h)
    pm2 = p - 2.0

    def coeffs(bn, bt):
        s2 = bn ** 2 + bt ** 2 + epsilon ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            k = s2 ** (pm2 / 2.0)
            c1 = k * (1.0 + pm2 * bn ** 2 / s2)
            c2 = k * pm2 * bn * bt / s2
        flat = s2 == 0.0
        if np.any(flat):
            c1 = np.where(flat, 0.0, c1)
            c2 = np.where(flat, 0.0, c2)
        return c1, c2

    c1x, c2x = coeffs(dbx, dby_x)
    c1y, c2y = coeffs(dby, dbx_y)
    return c1x, c2x, c1y, c2y


def _apply_linearized(base, g, p, h, epsilon):
    """Matrix-free action of the linearized divergence operator on g (interior)."""
    c1x, c2x, c1y, c2y = _linearized_face_coeffs(base, p, h, epsilon)
    dgx, dgy_x, dgy, dgx_y = _face_gradients(g, h)
    gx = c1x * dgx + c2x * dgy_x
    gy = c1y * dgy + c2y * dgx_y
    return (gx[1:, :] - gx[:-1, :]) / h + (gy[:, 1:] - gy[:, :-1]) / h


def _stencil_coefficients(base, p, h, epsilon):
    """3x3 stencil of the linearized operator at each interior node."""
    c1x, c2x, c1y, c2y = _linearized_face_coeffs(base, p, h, epsilon)
    e1, e2 = c1x[1:, :], c2x[1:, :]      # east face of each interior node
    w1, w2 = c1x[:-1, :], c2x[:-1, :]
    n1, n2 = c1y[:, 1:], c2y[:, 1:]
    s1, s2 = c1y[:, :-1], c2y[:, :-1]
    h2 = h * h
    sten = {
        (0, 0): -(e1 + w1 + n1 + s1) / h2,
        (1, 0): (e1 + 0.25 * (n2 - s2)) / h2,
        (-1, 0): (w1 - 0.25 * (n2 - s2)) / h2,
        (0, 1): (n1 + 0.25 * (e2 - w2)) / h2,
        (0, -1): (s1 - 0.25 * (e2 - w2)) / h2,
        (1, 1): 0.25 * (e2 + n2) / h2,
        (-1, -1): 0.25 * (w2 + s2) / h2,
        (1, -1): -0.25 * (e2 + s2) / h2,
        (-1, 1): -0.25 * (w2 + n2) / h2,
    }
    return sten


# blocks of at most this many nodes are numbered in natural order
DISSECTION_LEAF = 16


@functools.lru_cache(maxsize=None)
def _dissection_rank(mi, mj):
    """Nested-dissection position of each node of an (mi, mj) grid.

    George's nested dissection of a regular grid: a block splits across its
    longer side along one grid line, which also separates the 9-point
    stencil, both halves are numbered recursively and the separator line
    after them; blocks of at most DISSECTION_LEAF nodes keep natural order.
    Returns a read-only (mi, mj) int array, cached per shape.
    """
    rank = np.empty((mi, mj), dtype=np.intp)
    count = 0

    def number(i0, i1, j0, j1):
        """Number block [i0, i1) x [j0, j1) from position `count` on."""
        nonlocal count
        if (i1 - i0) * (j1 - j0) > DISSECTION_LEAF:
            # number both halves, then narrow the block to the separator
            if i1 - i0 >= j1 - j0:
                mid = (i0 + i1) // 2
                number(i0, mid, j0, j1)
                number(mid + 1, i1, j0, j1)
                i0, i1 = mid, mid + 1
            else:
                mid = (j0 + j1) // 2
                number(i0, i1, j0, mid)
                number(i0, i1, mid + 1, j1)
                j0, j1 = mid, mid + 1
        size = (i1 - i0) * (j1 - j0)
        rank[i0:i1, j0:j1] = np.arange(count, count + size).reshape(
            i1 - i0, j1 - j0)
        count += size

    number(0, mi, 0, mj)
    rank.setflags(write=False)
    return rank


# the 3x3 stencil offsets (di, dj), in _stencil_coefficients' order
STENCIL_OFFSETS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1),
                   (1, 1), (-1, -1), (1, -1), (-1, 1))


def _stencil_block(mi, mj, di, dj):
    """Slices of the interior nodes (k, l) whose neighbour (k+di, l+dj) is
    interior too, and of those neighbours."""
    ks = slice(max(0, -di), mi - max(0, di))
    ls = slice(max(0, -dj), mj - max(0, dj))
    return (ks, ls), (slice(ks.start + di, ks.stop + di),
                      slice(ls.start + dj, ls.stop + dj))


@functools.lru_cache(maxsize=4)
def _newton_pattern(mi, mj):
    """CSC pattern of the Newton matrix on an mi x mj interior, numbered by
    _dissection_rank.

    Returns read-only (indices, indptr, order): the matrix data is the
    concatenation of the stencil blocks in STENCIL_OFFSETS order, gathered
    by `order`.  The mass term rides on the (0, 0) block, so no entry
    repeats.
    """
    rank = _dissection_rank(mi, mj)
    rows, cols = [], []
    for off in STENCIL_OFFSETS:
        nodes, neighbours = _stencil_block(mi, mj, *off)
        rows.append(rank[nodes].ravel())
        cols.append(rank[neighbours].ravel())
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.lexsort((rows, cols))
    indices = rows[order].astype(np.int32)
    indptr = np.zeros(mi * mj + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=mi * mj), out=indptr[1:])
    for arr in (indices, indptr, order):
        arr.setflags(write=False)
    return indices, indptr, order


def _newton_matrix(v, p, lam, h, epsilon):
    """Sparse matrix of delta -> -L_v(delta) + (p-1) lam v^(p-2) delta (interior).

    Unknowns are numbered by _dissection_rank: interior node (k, l) is row
    and column rank[k, l].  The values fill the cached _newton_pattern,
    bit for bit the entries a COO build summing the (0, 0) block and the
    mass diagonal gives.  The matrix holds its own copies of the index
    arrays: splu rewrites those of a matrix not flagged canonical in place,
    and that must never reach the cache.
    """
    nx, ny = v.shape
    mi, mj = nx - 2, ny - 2
    sten = _stencil_coefficients(v, p, h, epsilon)
    indices, indptr, order = _newton_pattern(mi, mj)
    mass = (p - 1.0) * lam * v[1:-1, 1:-1] ** (p - 2.0)
    # Newton operator is -L_v + mass
    vals = [(mass - sten[0, 0]).ravel()]
    vals += [-sten[off][_stencil_block(mi, mj, *off)[0]].ravel()
             for off in STENCIL_OFFSETS[1:]]
    return sparse.csc_matrix((np.concatenate(vals)[order], indices.copy(),
                              indptr.copy()), shape=(mi * mj, mi * mj))


def _solve_refined(mat, rhs):
    """Solution of mat @ x = rhs from one float32 LU, refined in float64.

    mat / max|mat| is factored in single precision by SuperLU in natural
    order, and each correction solves the float64 residual rhs - mat @ x,
    scaled to unit size before the cast (Langou et al., SC 2006; Carson &
    Higham, SIAM J. Sci. Comput. 40, 2018).  Refinement stops once a
    correction is within REFINE_ULPS float64 ulps of x, or when it fails
    to halve the one before while within STALL_ULPS ulps of x: that is
    the rounding floor.  x comes from one float64 LU of mat instead when
    the float32 factor is exactly singular, or a correction is not finite
    or fails to halve the one before above STALL_ULPS ulps of x.  No factor
    outlives the call, and the float32 one is freed before the float64 one
    is made.

    Returns (x, triangular solves, float64 factorizations).
    """
    scale = float(np.max(np.abs(mat.data)))
    single = sparse.csc_matrix(
        ((mat.data / scale).astype(np.float32), mat.indices, mat.indptr),
        shape=mat.shape)
    try:
        lu = splu(single, permc_spec="NATURAL")
    except RuntimeError:  # exactly singular in float32
        lu = None
    x = np.zeros_like(rhs)
    resid, solves, last = rhs, 0, math.inf
    while lu is not None:
        size = float(np.max(np.abs(resid)))
        if size == 0.0:
            return x, solves, 0
        corr = (size / scale) * lu.solve(
            (resid / size).astype(np.float32)).astype(np.float64)
        solves += 1
        step = float(np.max(np.abs(corr)))
        if not math.isfinite(step):
            break
        x += corr
        x_size = float(np.max(np.abs(x)))
        if step <= REFINE_ULPS * EPS64 * x_size:
            return x, solves, 0
        if step > 0.5 * last:
            # stalled: at the rounding floor, or above it because the
            # float32 factor is too inaccurate to converge
            if step <= STALL_ULPS * EPS64 * x_size:
                return x, solves, 0
            break
        last = step
        resid = rhs - mat @ x
    lu = None  # the float32 factor is freed before the float64 one is made
    return splu(mat, permc_spec="NATURAL").solve(rhs), solves + 1, 1


def solve_dirichlet(params: ProblemParams, xi, rect, h, tol=1e-10,
                    max_iters=40, scale=1.0):
    """Damped Newton solve with boundary data scale*exp(alpha <x, xi>).

    The initial guess is the extension of the boundary data to the whole
    rectangle.  Regularization eps = 1e-8 * alpha * max(boundary data) is
    kept under |grad v| throughout.  Raises DomainError when the boundary
    data or the initial residual are not finite, and NoConvergence when
    max_iters or the damping floor is exhausted before final_residual <= tol.

    Each Newton step assembles the Jacobian into the cached CSC pattern of
    its grid shape and solves it with _solve_refined: one float32 LU,
    refined in float64 until a correction reaches rounding, or one float64
    LU when that fails.  The step's factor is freed before the next one is
    made.  SolveStats counts the triangular solves (linear_solves) and the
    float64 fallbacks (float64_refactors).

    Only params.p and params.lam enter; the grid realization is 2-D
    regardless of params.n.
    """
    xi = _check_unit(xi)
    p, lam = params.p, params.lam
    if lam <= 0.0:
        raise DomainError("lam must be positive")
    alpha = eigen_rate_alpha(lam, p)
    with np.errstate(over="ignore"):
        fld = exponential_field(alpha, xi, rect, h, scale=scale)
    v = fld.values
    if not np.all(np.isfinite(v)):
        raise DomainError(f"boundary data exp({alpha:g} <x, xi>) overflows "
                          "on the rectangle")
    epsilon = 1e-8 * alpha * float(v.max())

    def res_norm(arr):
        return float(np.max(np.abs(arr)))

    with np.errstate(over="ignore", invalid="ignore"):
        try:
            resid = p_laplace_residual(fld, p, lam, epsilon)
            res = res_norm(resid)
        except OverflowError:  # epsilon**2 beyond the largest double
            res = math.inf
    if not math.isfinite(res):
        raise DomainError(f"initial residual is {res:g}: the boundary data "
                          "exceed the range of the discrete operator")
    rank = _dissection_rank(*resid.shape)
    rhs = np.empty(resid.size)
    iters = damping_events = linear_solves = float64_refactors = 0
    # `not res <= tol` also keeps iterating on a NaN residual
    while not res <= tol:
        if iters >= max_iters:
            raise NoConvergence(
                f"residual {res:g} > tol {tol:g} after {iters} iterations "
                "(h too coarse or damping floor hit)"
            )
        rhs[rank] = -resid
        # the matrix is assembled in nested-dissection order, so SuperLU
        # does no ordering work; at h = 1/256 its float32 LU has 5.24M
        # nonzeros, as the float64 one has, against 5.51M under minimum
        # degree on A^T + A (MMD_AT_PLUS_A)
        x, solves, refactors = _solve_refined(
            _newton_matrix(v, p, lam, fld.h, epsilon), rhs)
        delta = x[rank]
        linear_solves += solves
        float64_refactors += refactors
        theta = 1.0
        while True:
            if theta < DAMPING_FLOOR:
                raise NoConvergence("damping floor reached without residual decrease")
            v_try = v.copy()
            v_try[1:-1, 1:-1] = v[1:-1, 1:-1] + theta * delta
            if np.all(v_try > 0.0):
                try_field = Field2D(nx=fld.nx, ny=fld.ny, h=fld.h,
                                    origin=fld.origin, values=v_try)
                resid_try = p_laplace_residual(try_field, p, lam, epsilon)
                res_try = res_norm(resid_try)
                if res_try < res or res_try <= tol:
                    break
            theta *= 0.5
            damping_events += 1
        v = v_try
        fld = try_field
        resid, res = resid_try, res_try
        iters += 1
    stats = SolveStats(newton_iters=iters, final_residual=res,
                       damping_events=damping_events, epsilon=epsilon,
                       linear_solves=linear_solves,
                       float64_refactors=float64_refactors)
    return fld, stats


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
    nu = _check_unit(nu)
    w = np.log(field.values)
    h = field.h
    wx, wy = _centered_grad(w, h)
    d = nu[0] * wx + nu[1] * wy
    return float(d.min()), float(d.max())


def kappa(p, lam) -> float:
    """Sharp bound ((p-1)^(p-1) lam)^(2/p) on |grad(-(p-1) log v)|^2."""
    return ((p - 1.0) ** (p - 1.0) * lam) ** (2.0 / p)


def kappa_bound_check(field: Field2D, p, lam):
    """(max of f, kappa) where f = |grad w|^2, w = -(p-1) log v."""
    w = -(p - 1.0) * np.log(field.values)
    h = field.h
    wx, wy = _centered_grad(w, h)
    f = wx ** 2 + wy ** 2
    return float(f.max()), kappa(p, lam)


def bochner_residual(field: Field2D, p, lam, threshold=None) -> float:
    """Max pointwise gap in the second-order identity for f = |grad w|^2.

    With w = -(p-1) log v the identity reads
        L_w(f) = 2 f^(p/2-1) w_ij^2 + (p/2-1) |grad f|^2 f^(p/2-2)
                 + p f^(p/2-1) <grad w, grad f>.
    Both sides are discretized (third derivatives by nested second-order
    stencils, hence O(h) overall) and compared where f > threshold
    (default 1e-6 * kappa).  Returns 0 when the mask is empty.
    """
    if threshold is None:
        threshold = 1e-6 * kappa(p, lam)
    v, h = field.values, field.h
    nx, ny = v.shape
    if nx < NESTED_STENCIL_NODES or ny < NESTED_STENCIL_NODES:
        raise DomainError("grid too small for nested stencils")
    w = -(p - 1.0) * np.log(v)

    wx, wy = _centered_grad(w, h)                      # nodes [1..nx-2]
    f_int = wx ** 2 + wy ** 2                          # shape (nx-2, ny-2)
    # L_w(f) at nodes [2..nx-3] reads w and f at nodes [1..nx-2] only
    lhs = _apply_linearized(w[1:-1, 1:-1], f_int, p, h, 0.0)

    wxx = (w[2:, 1:-1] - 2.0 * w[1:-1, 1:-1] + w[:-2, 1:-1]) / h ** 2
    wyy = (w[1:-1, 2:] - 2.0 * w[1:-1, 1:-1] + w[1:-1, :-2]) / h ** 2
    wxy = (w[2:, 2:] - w[2:, :-2] - w[:-2, 2:] + w[:-2, :-2]) / (4.0 * h ** 2)
    wij2 = (wxx ** 2 + 2.0 * wxy ** 2 + wyy ** 2)[1:-1, 1:-1]

    fx, fy = _centered_grad(f_int, h)
    grad_f2 = fx ** 2 + fy ** 2
    wf_dot = wx[1:-1, 1:-1] * fx + wy[1:-1, 1:-1] * fy

    f = f_int[1:-1, 1:-1]
    mask = f > threshold
    if not np.any(mask):
        return 0.0
    fm = f[mask]
    rhs = (2.0 * fm ** (p / 2.0 - 1.0) * wij2[mask]
           + (p / 2.0 - 1.0) * grad_f2[mask] * fm ** (p / 2.0 - 2.0)
           + p * fm ** (p / 2.0 - 1.0) * wf_dot[mask])
    return float(np.max(np.abs(lhs[mask] - rhs)))


def representation_field(atoms, lam, rect, h) -> Field2D:
    """Superposition sum_i w_i exp(sqrt(lam) <x, xi_i>) of (xi, w) atoms on
    the rectangle grid; it solves -Lap v + lam v = 0, the p = 2 equation."""
    # math.sqrt, not eigen_rate_alpha: its lam ** 0.5 differs from sqrt in
    # the last bit at some lam (e.g. 2.315)
    alpha = math.sqrt(lam)
    values = sum(exponential_field(alpha, xi, rect, h, scale=w).values
                 for xi, w in atoms)
    return field_from_values(values, rect, h)


# --- serialization --------------------------------------------------------

def write_field_csv(field: Field2D, path):
    """Columns x,y,v in row-major node order."""
    x = field.x_coords()
    y = field.y_coords()
    with open(path, "w", newline="") as fh:
        fh.write(f"# nx={field.nx} ny={field.ny} h={field.h:.17g} "
                 f"origin=({field.origin[0]:.17g},{field.origin[1]:.17g})\n")
        fh.write("x,y,v\n")
        for i in range(field.nx):
            for j in range(field.ny):
                fh.write(f"{x[i]:.17g},{y[j]:.17g},{field.values[i, j]:.17g}\n")


def write_field_plf2(field: Field2D, path):
    """Compact binary grid: magic 'PLF2', uint32 nx, ny, f64 h, ox, oy, then
    nx*ny little-endian f64 values row-major."""
    header = PLF2_MAGIC + struct.pack("<IIddd", field.nx, field.ny, field.h,
                                      field.origin[0], field.origin[1])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(field.values.astype("<f8").tobytes(order="C"))


def read_field_plf2(path) -> Field2D:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != PLF2_MAGIC:
            raise DomainError(f"bad magic {magic!r}; not a PLF2 grid file")
        nx, ny, h, ox, oy = struct.unpack("<IIddd", fh.read(32))
        data = np.frombuffer(fh.read(8 * nx * ny), dtype="<f8")
    return Field2D(nx=nx, ny=ny, h=h, origin=(ox, oy),
                   values=data.reshape(nx, ny).copy())
