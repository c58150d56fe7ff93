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

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import DomainError, NoConvergence
from .indicial import ProblemParams, eigen_rate_alpha

DAMPING_FLOOR = 2.0 ** -30
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
# peaked at 220 MB at h = 1/512 (263 169 nodes), about 840 B per node, so
# 2^22 nodes take about 3.5 GB
MAX_GRID_NODES = 2 ** 22


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
        _check_spacing(self.h)
        if not _positive_finite(self.values):
            raise DomainError("field values must be positive and finite")
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
    # corrections plus fallback solves, and float64 factorizations made
    # because the V-cycles failed (see _solve_refined)
    linear_solves: int
    float64_refactors: int


def _check_unit(vec):
    """vec as a float array; a direction must have norm 1 within 1e-14."""
    vec = np.asarray(vec, dtype=float)
    if abs(float(np.linalg.norm(vec)) - 1.0) > 1e-14:
        raise DomainError("direction must be a unit vector")
    return vec


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
    nx = int(round((x1 - x0) / h)) + 1
    ny = int(round((y1 - y0) / h)) + 1
    if abs(x0 + (nx - 1) * h - x1) > 1e-9 * max(1.0, abs(x1)) or \
       abs(y0 + (ny - 1) * h - y1) > 1e-9 * max(1.0, abs(y1)):
        raise DomainError("h must divide the rectangle extents")
    if nx < 3 or ny < 3:
        raise DomainError("grid needs at least one interior node per axis")
    if nx * ny > MAX_GRID_NODES:
        raise DomainError(f"grid of nx={nx} by ny={ny} nodes exceeds the cap "
                          f"of {MAX_GRID_NODES} nodes")
    return x0, y0, nx, ny


def _exponential_values(alpha, xi, rect, h, scale=1.0) -> np.ndarray:
    """Values scale*exp(alpha*<x, xi>) at the rectangle grid's nodes."""
    xi = _check_unit(xi)
    x0, y0, nx, ny = _grid_shape(rect, h)
    x = x0 + h * np.arange(nx)
    y = y0 + h * np.arange(ny)
    phase = alpha * (xi[0] * x[:, None] + xi[1] * y[None, :])
    return scale * np.exp(phase)


def exponential_field(alpha, xi, rect, h) -> Field2D:
    """Field exp(alpha*<x, xi>) sampled on the rectangle grid."""
    return field_from_values(_exponential_values(alpha, xi, rect, h), rect, h)


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
    return _residual(v, p, lam, h, _face_terms(v, p, h, epsilon))


def _face_terms(v, p, h, epsilon):
    """(bn, bt, s2, k) on the x- and y-faces of v: normal and transverse
    gradient, s2 = bn^2 + bt^2 + eps^2, k = s2^((p-2)/2)."""
    dvx, dvy_x, dvy, dvx_y = _face_gradients(v, h)
    s2x = dvx ** 2 + dvy_x ** 2 + epsilon ** 2
    s2y = dvy ** 2 + dvx_y ** 2 + epsilon ** 2
    with np.errstate(divide="ignore"):  # k = inf on a flat face at p < 2
        return ((dvx, dvy_x, s2x, s2x ** ((p - 2.0) / 2.0)),
                (dvy, dvx_y, s2y, s2y ** ((p - 2.0) / 2.0)))


def _residual(v, p, lam, h, faces):
    """p_laplace_residual of the values v from their _face_terms."""
    (dvx, _, _, kx), (dvy, _, _, ky) = faces
    fx, fy = kx * dvx, ky * dvy
    div = (fx[1:, :] - fx[:-1, :]) / h + (fy[:, 1:] - fy[:, :-1]) / h
    return -div + lam * v[1:-1, 1:-1] ** (p - 1.0)


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


def _apply_linearized(base, g, p, h, epsilon):
    """Matrix-free action of the linearized divergence operator on g (interior)."""
    c1x, c2x, c1y, c2y = _linearized_face_coeffs(
        _face_terms(base, p, h, epsilon), p)
    dgx, dgy_x, dgy, dgx_y = _face_gradients(g, h)
    gx = c1x * dgx + c2x * dgy_x
    gy = c1y * dgy + c2y * dgx_y
    return (gx[1:, :] - gx[:-1, :]) / h + (gy[:, 1:] - gy[:, :-1]) / h


def _newton_stencil(v, p, lam, h, faces):
    """Stencil arrays of delta -> -L_v(delta) + (p-1) lam v^(p-2) delta,
    from faces, the _face_terms of v.

    Returns a (3, 3, mi, mj) array over the mi x mj interior nodes:
    sten[di + 1, dj + 1, k, l] couples node (k, l) to node (k + di, l + dj).
    Couplings to boundary nodes are zeroed, so the arrays hold the operator
    on the interior alone.
    """
    c1x, c2x, c1y, c2y = _linearized_face_coeffs(faces, p)
    e1, e2 = c1x[1:, :], c2x[1:, :]      # east face of each interior node
    w1, w2 = c1x[:-1, :], c2x[:-1, :]
    n1, n2 = c1y[:, 1:], c2y[:, 1:]
    s1, s2 = c1y[:, :-1], c2y[:, :-1]
    h2 = h * h
    mass = (p - 1.0) * lam * v[1:-1, 1:-1] ** (p - 2.0)
    # the Newton operator is -L_v + mass, L_v's stencil negated
    sten = np.empty((3, 3) + mass.shape)
    sten[1, 1] = mass + (e1 + w1 + n1 + s1) / h2
    sten[2, 1] = -(e1 + 0.25 * (n2 - s2)) / h2
    sten[0, 1] = -(w1 - 0.25 * (n2 - s2)) / h2
    sten[1, 2] = -(n1 + 0.25 * (e2 - w2)) / h2
    sten[1, 0] = -(s1 - 0.25 * (e2 - w2)) / h2
    sten[2, 2] = -0.25 * (e2 + n2) / h2
    sten[0, 0] = -0.25 * (w2 + s2) / h2
    sten[2, 0] = 0.25 * (e2 + s2) / h2
    sten[0, 2] = 0.25 * (w2 + n2) / h2
    sten[2, :, -1] = 0.0
    sten[0, :, 0] = 0.0
    sten[:, 2, :, -1] = 0.0
    sten[:, 0, :, 0] = 0.0
    return sten


def _stencil_matrix(sten):
    """DIA matrix of the (3, 3, mi, mj) stencil arrays sten.

    Node (k, l) is row and column k * mj + l, so stencil entry (di, dj) lies
    on diagonal di * mj + dj.  Arrays that share a diagonal (mj <= 2) are
    summed.  Its products add each row's terms in ascending column order,
    bit for bit as with its CSR form, which leaves exact zeros out.
    """
    mi, mj = sten.shape[2:]
    size = mi * mj
    diagonals = {}
    for a, b in np.ndindex(3, 3):
        off = (a - 1) * mj + b - 1
        if abs(off) >= size:  # no interior pair on it (mi = 1)
            continue
        flat = sten[a, b].ravel()
        diag = flat[:size - off] if off >= 0 else flat[-off:]
        diagonals[off] = diagonals[off] + diag if off in diagonals else diag
    return sparse.diags(list(diagonals.values()), list(diagonals),
                        shape=(size, size), format="dia")


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
    that point past either end are zeroed.
    """
    # the coarsened axis first: its offsets on axis 0, its nodes on axis 2
    s = sten.transpose(1, 0, 3, 2) if axis else sten
    n = s.shape[2] // 2
    if s.shape[2] % 2 == 0:  # the boundary node beyond an even axis
        s = np.concatenate(
            [s, np.zeros(s.shape[:2] + (1,) + s.shape[3:], s.dtype)], axis=2)
    lo, mid, hi = s[:, :, 0:2 * n:2], s[:, :, 1::2], s[:, :, 2::2]
    coarse = np.empty((3,) + mid.shape[1:], s.dtype)
    coarse[0] = 0.5 * (lo[0] + mid[0]) + 0.25 * lo[1]
    coarse[1] = (mid[1] + 0.25 * (lo[1] + hi[1])
                 + 0.5 * (lo[2] + mid[0] + mid[2] + hi[0]))
    coarse[2] = 0.5 * (mid[2] + hi[2]) + 0.25 * hi[1]
    coarse[0, :, 0] = 0.0
    coarse[2, :, -1] = 0.0
    return coarse.transpose(1, 0, 3, 2) if axis else coarse


def _prolong(c, mi, mj):
    """P c: the (mi, mj) linear interpolation of the (mi // 2, mj // 2)
    array c, one axis at a time, in c's dtype."""
    for m in (mi, mj):
        n = c.shape[0]
        fine = np.empty((m,) + c.shape[1:], c.dtype)
        half = 0.5 * c
        fine[1::2] = c
        fine[0] = half[0]
        np.add(half[:-1], half[1:], out=fine[2:2 * n:2])
        if m % 2:
            fine[-1] = half[-1]
        c = fine.T  # the next pass interpolates the other axis
    return c


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
    (mi // 2, mj // 2) grid below.  Coarsening stops once an axis has at
    most COARSEST_NODES nodes; that level is factored by splu in float32.
    Returns (levels, coarsest factor, shift), or None when a Jacobi weight
    is not finite (a centre entry is zero, or underflows float32) or the
    coarsest matrix is exactly singular.
    """
    shift = _binary_exponent(sten[1, 1])
    # scaled in float64, stored in float32: an entry beyond float32's range
    # becomes inf, and one below it zero, an infinite Jacobi weight
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sten = np.ldexp(sten, -shift, out=np.empty(sten.shape, np.float32))
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
        x += weight * (rhs - mat @ x)
    coarse = _vcycle(levels[1:], coarsest,
                     _restrict((rhs - mat @ x).reshape(mi, mj)).ravel())
    x += _prolong(coarse.reshape(mi // 2, mj // 2), mi, mj).ravel()
    for _ in range(POST_SWEEPS):
        x += weight * (rhs - mat @ x)
    return x


def _fmg(levels, coarsest, rhs):
    """Full multigrid for levels[0]'s matrix: the coarsest LU solve, then on
    each finer level the prolonged coarse solution plus one V-cycle.  Runs
    in float32, as _vcycle does."""
    if not levels:
        return coarsest.solve(rhs)
    mat, _, (mi, mj) = levels[0]
    coarse = _fmg(levels[1:], coarsest, _restrict(rhs.reshape(mi, mj)).ravel())
    x = _prolong(coarse.reshape(mi // 2, mj // 2), mi, mj).ravel()
    return x + _vcycle(levels, coarsest, rhs - mat @ x)


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


def _solve_refined(sten, rhs, interior):
    """Newton step x solving A x = rhs, by float32 multigrid corrections
    refined in float64, where A is the matrix of the stencil arrays sten.

    interior holds the (mi, mj) positive interior values of the field the
    step updates, and sten the Newton operator's (3, 3, mi, mj) stencil
    arrays on those nodes (_newton_stencil), node (k, l) being row
    k * mj + l of the float64 DIA matrix A = _stencil_matrix(sten).  The
    Galerkin hierarchy (_multigrid_hierarchy) is built once from sten, in
    float32.  The first correction is one full-multigrid pass (_fmg) on
    rhs, and each later one is one V-cycle (_vcycle) on the float64
    residual rhs - A @ x (Brandt, Math. Comp. 31, 1977; Trottenberg,
    Oosterlee & Schueller, Multigrid, 2001, ch. 2), each cast to float32
    and back by _correction.  The cycles only have to contract the error,
    and float32 suffices for that, since x, A and the residual that
    decide the answer stay float64: mixed-precision iterative refinement
    (Goeddeke, Strzodka & Turek, IJPEDS 22, 2007; Carson & Higham, SIAM J.
    Sci. Comput. 40, 2018).  Refinement stops once a correction is within
    REFINE_ULPS float64 ulps of the field at every node,
    |corr| <= REFINE_ULPS * eps * interior: the update interior + x rounds
    finer digits of x away, so x is accurate to a few ulps of the field,
    not of itself (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, ch. 12).  It also stops when a correction fails to halve the one
    before while within STALL_ULPS ulps of x: that is the rounding floor
    of x.  x comes from one float64 LU of A instead when the hierarchy
    cannot be built (a Jacobi weight is not finite or the coarsest matrix
    is singular), or a correction is not finite or fails to halve the one
    before above STALL_ULPS ulps of x.  No hierarchy outlives the call, and
    it is freed before the float64 LU is made.

    Returns (x, corrections plus fallback solves, float64 factorizations).
    """
    mat = _stencil_matrix(sten)
    hierarchy = _multigrid_hierarchy(sten)
    done = REFINE_ULPS * EPS64 * interior.ravel()
    x = np.zeros_like(rhs)
    resid, cycles, last = rhs, 0, math.inf
    while hierarchy is not None:
        if not np.any(resid):
            return x, cycles, 0
        # a correction that overflows is not finite and goes to the fallback
        with np.errstate(invalid="ignore", over="ignore"):
            corr = _correction(_vcycle if cycles else _fmg, hierarchy, resid)
        cycles += 1
        size = np.abs(corr)
        step = float(np.max(size))
        if not math.isfinite(step):
            break
        x += corr
        if np.all(size <= done):
            return x, cycles, 0
        if step > 0.5 * last:
            # stalled: at the rounding floor, or above it because the
            # cycle does not contract on this matrix
            if step <= STALL_ULPS * EPS64 * float(np.max(np.abs(x))):
                return x, cycles, 0
            break
        last = step
        resid = rhs - mat @ x
    hierarchy = None  # freed before the float64 LU is made
    return (splu(mat.tocsc(), permc_spec=DIRECT_ORDERING).solve(rhs),
            cycles + 1, 1)


def solve_dirichlet(params: ProblemParams, xi, rect, h, tol=1e-10,
                    max_iters=40, scale=1.0):
    """Damped Newton solve with boundary data scale*exp(alpha <x, xi>).

    The initial guess is the extension of the boundary data to the whole
    rectangle.  Regularization eps = 1e-8 * alpha * max(boundary data) is
    kept under |grad v| throughout.  Raises DomainError when tol is
    negative or when tol, the boundary data or the initial residual are
    not finite, and NoConvergence when max_iters or the damping floor
    is exhausted before final_residual <= tol.

    Each Newton step assembles the Jacobian as its nine stencil arrays
    (_newton_stencil), from the face terms of the residual that accepted
    v, and solves it with _solve_refined: a full-multigrid pass, then
    V-cycles, in float32 on a hierarchy coarsened from a float32 copy of
    those arrays, each on the float64 residual, until a correction is
    within REFINE_ULPS ulps of the interior of v, the field the step
    updates, or one float64 LU when they fail.  v, its residual and the
    returned field are float64.  The updated field is then within a few ulps of the one an exact step
    gives, while the step itself may be accurate only to those ulps of v
    rather than to its own.  The step's multigrid hierarchy is freed
    before the next one is built.  SolveStats counts the corrections and
    fallback solves (linear_solves; the full-multigrid pass counts as one
    correction) and the float64 fallbacks (float64_refactors).

    Only params.p and params.lam enter; the grid realization is 2-D
    regardless of params.n.
    """
    if not 0.0 <= tol < math.inf:  # NaN fails it too
        raise DomainError("tol must be finite and >= 0")
    p, lam = params.p, params.lam
    alpha = eigen_rate_alpha(lam, p)
    with np.errstate(over="ignore"):
        v = _exponential_values(alpha, xi, rect, h, scale=scale)
    # checked before Field2D, which rejects the overflow without naming it
    if not np.all(np.isfinite(v)):
        raise DomainError(f"boundary data exp({alpha:g} <x, xi>) overflows "
                          "on the rectangle")
    field_from_values(v, rect, h)  # rejects data that are not positive
    epsilon = 1e-8 * alpha * float(v.max())

    with np.errstate(over="ignore", invalid="ignore"):
        try:
            faces = _face_terms(v, p, h, epsilon)
            resid = _residual(v, p, lam, h, faces)
            res = float(np.max(np.abs(resid)))
        except OverflowError:  # epsilon**2 beyond the largest double
            res = math.inf
    if not math.isfinite(res):
        raise DomainError(f"initial residual is {res:g}: the boundary data "
                          "exceed the range of the discrete operator")
    iters = damping_events = linear_solves = float64_refactors = 0
    # `not res <= tol` also keeps iterating on a NaN residual
    while not res <= tol:
        if iters >= max_iters:
            raise NoConvergence(
                f"residual {res:g} > tol {tol:g} after {iters} iterations "
                "(h too coarse or damping floor hit)"
            )
        sten = _newton_stencil(v, p, lam, h, faces)
        faces = None  # freed before the step's hierarchy is built
        x, solves, refactors = _solve_refined(sten, -resid.ravel(),
                                              v[1:-1, 1:-1])
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
                faces = _face_terms(v_try, p, h, epsilon)
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
    return field_from_values(v, rect, h), stats


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


def bochner_residual(field: Field2D, p, lam) -> float:
    """Max pointwise gap in the second-order identity for f = |grad w|^2.

    With w = -(p-1) log v the identity reads
        L_w(f) = 2 f^(p/2-1) w_ij^2 + (p/2-1) |grad f|^2 f^(p/2-2)
                 + p f^(p/2-1) <grad w, grad f>.
    Both sides are discretized (third derivatives by nested second-order
    stencils, hence O(h) overall) and compared where f > 1e-6 * kappa.
    Returns 0 when that mask is empty.
    """
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
    mask = f > 1e-6 * kappa(p, lam)
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
    values = sum(_exponential_values(alpha, xi, rect, h, scale=w)
                 for xi, w in atoms)
    return field_from_values(values, rect, h)

