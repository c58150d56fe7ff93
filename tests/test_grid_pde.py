import math
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse
from scipy.sparse.linalg import splu, spsolve

from plap import cli, grid_pde
from plap.errors import DomainError, NoConvergence
from plap.grid_pde import (Field2D, _apply_linearized, _face_terms,
                           _newton_stencil, _stencil_matrix, bochner_residual,
                           directional_range, exponential_field,
                           gradient_log_sup, kappa,
                           kappa_bound_check, p_laplace_residual,
                           representation_field, solve_dirichlet)
from plap.indicial import ProblemParams, eigen_rate_alpha

RECT = (0.0, 0.0, 1.0, 1.0)
XI = np.array([0.6, 0.8])
# a refined Newton step updates the field to within this many ulps of the
# field an exact step gives: its last correction is within REFINE_ULPS *
# eps * v <= 2 * REFINE_ULPS ulps of v at every node, the correction norms
# at least halve, so the error left is no larger, and both updates round
# to whole ulps (measured: 1 ulp at an exact start, 4 at noise 0.01)
FIELD_ULPS = 2 * grid_pde.REFINE_ULPS


def field_gap_ulps(base, step, expected):
    """Largest gap between base + step and base + expected, in ulps of
    base."""
    return float(np.max(np.abs((base + step) - (base + expected))
                        / np.spacing(base)))


def two_exp_field(h, lam=1.0):
    """e^(a x) + e^(a y) with a = sqrt(lam): exact p=2 eigenfield."""
    a = math.sqrt(lam)
    x = np.arange(int(round(1 / h)) + 1) * h
    vals = np.exp(a * x)[:, None] + np.exp(a * x)[None, :]
    return Field2D(h=h, origin=(0.0, 0.0), values=vals)


def laplace_mass_solve(h, lam, xi):
    """Independent 5-point oracle for the p=2 Dirichlet problem."""
    n = int(round(1 / h)) + 1
    x = np.arange(n) * h
    bdata = np.exp(xi[0] * x[:, None] + xi[1] * x[None, :])  # alpha = 1
    m = n - 2
    idx = np.arange(m * m).reshape(m, m)
    main = np.full(m * m, 4.0 / h ** 2 + lam)
    mat = sparse.lil_matrix((m * m, m * m))
    mat.setdiag(main)
    rhs = np.zeros((m, m))
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        for k in range(m):
            for l in range(m):
                ni, nj = k + di, l + dj
                if 0 <= ni < m and 0 <= nj < m:
                    mat[idx[k, l], idx[ni, nj]] = -1.0 / h ** 2
                else:
                    rhs[k, l] += bdata[k + di + 1, l + dj + 1] / h ** 2
    sol = spsolve(mat.tocsr(), rhs.ravel()).reshape(m, m)
    full = bdata.copy()
    full[1:-1, 1:-1] = sol
    return full


class TestField2D:
    def test_validation(self):
        with pytest.raises(DomainError):
            Field2D(h=0.5, origin=(0, 0), values=np.zeros((3, 3)))
        with pytest.raises(DomainError):
            Field2D(h=-0.5, origin=(0, 0), values=np.ones((3, 3)))
        with pytest.raises(DomainError, match="values must be a 2-D array"):
            Field2D(h=0.5, origin=(0, 0), values=np.ones(9))

    def test_shape_is_the_values_shape(self):
        # nx and ny are read from values, so a reassigned values cannot
        # leave them stale, and they cannot be set apart from it
        f = exponential_field(1.0, XI, RECT, 0.25)
        assert (f.nx, f.ny) == (5, 5)
        f.values = np.ones((4, 6))
        assert (f.nx, f.ny) == (4, 6)
        assert f.x_coords().shape == (4,) and f.y_coords().shape == (6,)
        with pytest.raises(AttributeError):
            f.nx = 5

    @pytest.mark.parametrize("h, value, message", [
        (math.nan, 1.0, "h must be positive and finite"),
        (math.inf, 1.0, "h must be positive and finite"),
        (0.5, math.inf, "field values must be positive and finite"),
        (0.5, math.nan, "field values must be positive and finite"),
    ])
    def test_rejects_non_finite(self, h, value, message):
        values = np.ones((3, 3))
        values[1, 2] = value
        with pytest.raises(DomainError, match=message):
            Field2D(h=h, origin=(0, 0), values=values)

    @pytest.mark.parametrize("origin", [(math.nan, 0.0), (0.0, math.inf),
                                        (-math.inf, math.nan)])
    def test_rejects_non_finite_origin(self, origin):
        # the corners of a rectangle grid are checked by _grid_shape; a
        # field built directly once kept a NaN origin and all-NaN x_coords
        with pytest.raises(DomainError, match="origin must be finite"):
            Field2D(h=0.5, origin=origin, values=np.ones((3, 3)))

    @pytest.mark.parametrize("origin", [(0.0,), (0.0, 0.0, 0.0), 0.0,
                                        ((0.0, 0.0),)])
    def test_rejects_origin_not_two_numbers(self, origin):
        # one number raised a bare IndexError and three were cut to two
        with pytest.raises(DomainError, match="origin must be two numbers"):
            Field2D(h=0.5, origin=origin, values=np.ones((3, 3)))

    def test_coords(self):
        f = exponential_field(1.0, XI, RECT, 0.25)
        assert np.allclose(f.x_coords(), [0, 0.25, 0.5, 0.75, 1.0])

    # plap grid on a 6 x 9 grid whose origin is off zero
    GRID_CONFIG = {"params": {"n": 4, "p": 3.0, "lam": 2.0},
                   "rect": [0.5, -1.0, 1.75, 1.0], "h": 0.25, "tol": 1e-9}

    def test_csv_roundtrip(self, tmp_path):
        # the field artifact reads back as the solved field, bit for bit
        cli.run_grid(self.GRID_CONFIG, tmp_path)
        fld, _ = solve_dirichlet(ProblemParams(n=4, p=3.0, lam=2.0), XI,
                                 self.GRID_CONFIG["rect"], 0.25, tol=1e-9)
        lines = (tmp_path / "dirichlet_field.csv").read_text().splitlines()
        head = re.fullmatch(r"# nx=(\d+) ny=(\d+) h=(\S+) origin=\((\S+),(\S+)\)",
                            lines[0])
        nx, ny = int(head[1]), int(head[2])
        assert (nx, ny, float(head[3])) == (fld.nx, fld.ny, fld.h)
        assert (float(head[4]), float(head[5])) == fld.origin
        data = np.array([[float(v) for v in line.split(",")]
                         for line in lines[2:]])
        assert np.array_equal(data[:, 2].reshape(nx, ny), fld.values)
        assert np.array_equal(data[:, 0].reshape(nx, ny)[:, 0], fld.x_coords())
        assert np.array_equal(data[:, 1].reshape(nx, ny)[0], fld.y_coords())

    def test_csv_layout(self, tmp_path):
        cli.run_grid(self.GRID_CONFIG, tmp_path)
        lines = (tmp_path / "dirichlet_field.csv").read_text().splitlines()
        assert lines[0].startswith("# nx=6 ny=9 h=0.25 origin=(0.5,-1)")
        assert lines[1] == "x,y,v"
        assert len(lines) == 2 + 54
        # row-major node order: y runs fastest
        assert lines[2].startswith("0.5,-1,") and lines[3].startswith("0.5,-0.75,")


class TestPLaplaceResidual:
    def test_p2_second_order(self):
        errs = []
        for h in (1 / 16, 1 / 32):
            f = exponential_field(1.0, np.array([1.0, 0.0]), RECT, h)
            errs.append(float(np.max(np.abs(p_laplace_residual(f, 2.0, 1.0)))))
        assert errs[0] / errs[1] >= 3.0
        assert errs[1] <= 1e-2

    def test_p3_exact_exponential(self):
        # (p-1) alpha^p = lam with alpha = 1, lam = 2
        errs = []
        for h in (1 / 16, 1 / 32):
            f = exponential_field(1.0, np.array([1.0, 0.0]), RECT, h)
            errs.append(float(np.max(np.abs(p_laplace_residual(f, 3.0, 2.0)))))
        assert errs[0] / errs[1] >= 3.0

    def test_constant_field_p_harmonic(self):
        f = Field2D(h=1 / 8, origin=(0.0, 0.0), values=np.ones((9, 9)))
        resid = p_laplace_residual(f, 3.0, 0.0)
        assert np.max(np.abs(resid)) == 0.0

    @pytest.mark.parametrize("p", [1.2, 1.5])
    @pytest.mark.parametrize("kind", ["constant", "patches"])
    def test_flat_faces_carry_no_flux(self, p, kind):
        # at p < 2 |grad v|^(p-2) is inf on a flat face, whose flux is
        # taken as its limit 0, not inf * 0 = NaN: a node whose 3 x 3
        # neighbourhood is constant has residual lam v^(p-1), and every
        # node a finite one
        levels = np.random.default_rng(9).choice([1.0, 2.0, 3.5], (4, 5))
        v = {"constant": np.full((20, 25), 2.5),
             "patches": np.kron(levels, np.ones((5, 5)))}[kind]
        lam = 1.7
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resid = p_laplace_residual(Field2D(1 / 16, (0.0, 0.0), v), p, lam)
        blocks = np.lib.stride_tricks.sliding_window_view(v, (3, 3))
        flat = blocks.min(axis=(2, 3)) == blocks.max(axis=(2, 3))
        assert flat.any() and (kind == "constant" or not flat.all())
        assert np.array_equal(resid[flat],
                              lam * v[1:-1, 1:-1][flat] ** (p - 1.0))
        assert np.isfinite(resid).all()


class TestSolveDirichlet:
    def test_p2_matches_direct_linear_solve(self):
        h = 1 / 64
        params = ProblemParams(n=3, p=2.0, lam=1.0)
        fld, stats = solve_dirichlet(params, np.array([1.0, 0.0]), RECT, h,
                                     tol=1e-11)
        oracle = laplace_mass_solve(h, 1.0, np.array([1.0, 0.0]))
        assert float(np.max(np.abs(fld.values - oracle))) <= 1e-8
        assert stats.final_residual <= 1e-11

    def test_p3_second_order_against_exponential(self):
        params = ProblemParams(n=4, p=3.0, lam=2.0)
        errs = []
        for h in (1 / 16, 1 / 32):
            fld, _ = solve_dirichlet(params, XI, RECT, h, tol=1e-9)
            exact = exponential_field(1.0, XI, RECT, h)
            errs.append(float(np.max(np.abs(fld.values - exact.values))))
        assert errs[0] / errs[1] >= 3.0

    @pytest.mark.parametrize("p, lam, xi", [
        (1.02, 1.0, (0.6, 0.8)),
        (1.05, 1.0, (0.6, 0.8)),
        (1.05, 1.0, (math.cos(0.3), math.sin(0.3))),
        (1.05, 2.0, (0.6, 0.8)),
        (1.1, 2.0, (0.6, 0.8)),
        (1.2, 5.0, (0.6, 0.8)),
    ])
    def test_error_falls_at_second_order_near_p_1(self, p, lam, xi):
        # alpha = 14.6 to 46.3: the data span e^20 to e^65, so |grad v| =
        # alpha v at the low corner lies below 1e-8 of its largest value,
        # where a flux regularized on the scale of max(v) solves another
        # equation and the error no longer falls with h
        alpha = eigen_rate_alpha(lam, p)
        errs = []
        for h in (1 / 32, 1 / 64):
            fld, _ = solve_dirichlet(ProblemParams(n=4, p=p, lam=lam), xi,
                                     RECT, h, tol=1e-9)
            exact = exponential_field(alpha, xi, RECT, h).values
            errs.append(float(np.max(np.abs(fld.values - exact) / exact)))
        assert errs[0] / errs[1] >= 3.0

    def test_no_convergence_with_one_iteration(self, monkeypatch):
        params = ProblemParams(n=4, p=3.0, lam=2.0)
        monkeypatch.setattr(grid_pde, "MAX_NEWTON_ITERS", 1)
        with pytest.raises(NoConvergence, match="after 1 iterations"):
            solve_dirichlet(params, XI, RECT, 1 / 16, tol=1e-12)

    def test_damping_floor_raises(self, monkeypatch):
        # with the floor above theta = 1 the first trial step is already
        # below it
        monkeypatch.setattr(grid_pde, "DAMPING_FLOOR", 2.0)
        with pytest.raises(NoConvergence, match="damping floor reached"):
            solve_dirichlet(ProblemParams(n=4, p=3.0, lam=2.0), XI, RECT,
                            1 / 16, tol=1e-9)

    @pytest.mark.parametrize("lam, xi, message", [
        # alpha = 678.6: exp(alpha <x, xi>) overflows where <x, xi> > 1.05
        (500.0, XI, "boundary data exp(678.604 <x, xi>) overflows"),
        # finite data up to e^678.6, but |grad v|^2 overflows; at p < 2
        # such a face would get k = 0 and a finite, wrong residual
        (500.0, [1.0, 0.0], "squared face gradients reach inf"),
        (300.0, XI, "squared face gradients reach inf"),
    ])
    def test_non_finite_data_raises(self, lam, xi, message):
        # a NaN residual fails `res > tol`, so the solve once returned the
        # overflowed field as converged after 0 iterations
        params = ProblemParams(n=3, p=1.2, lam=lam)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=re.escape(message)):
                solve_dirichlet(params, xi, RECT, 0.125)

    def test_underflowing_data_raises(self):
        # exp(<x, xi>) is 0 in float64 on x in [-1000, -999]: valid input
        # whose data leave the double range, once Field2D's unnamed "field
        # values must be positive and finite" DomainError
        with pytest.raises(OverflowError, match=re.escape(
                "boundary data exp(1 <x, xi>) underflows to 0")):
            solve_dirichlet(ProblemParams(n=3, p=2.0, lam=1.0), [1.0, 0.0],
                            (-1000.0, 0.0, -999.0, 1.0), 0.125)

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_bad_scale_raises(self, scale):
        with pytest.raises(DomainError, match="scale must be finite and > 0"):
            solve_dirichlet(ProblemParams(n=3, p=2.0, lam=1.0), XI, RECT,
                            0.125, scale=scale)

    @pytest.mark.parametrize("h", [math.nan, math.inf, -0.125])
    def test_bad_spacing_raises(self, h):
        # round(nan) in _grid_shape once raised a bare ValueError
        with pytest.raises(DomainError, match="h must be positive and finite"):
            solve_dirichlet(ProblemParams(n=3, p=2.0, lam=1.0), XI, RECT, h)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
    def test_bad_tol_raises(self, tol):
        # a NaN tol once ran Newton steps until the damping floor
        with pytest.raises(DomainError, match="tol must be finite and >= 0"):
            solve_dirichlet(ProblemParams(n=3, p=2.0, lam=1.0), XI, RECT,
                            0.125, tol=tol)

    @pytest.mark.parametrize("rect", [(0, 0, math.inf, 1), (0, 0, 1, math.nan),
                                      (-math.inf, 0, 1, 1)])
    def test_non_finite_corner_raises(self, rect):
        # int(round(inf)) in _grid_shape once raised OverflowError
        with pytest.raises(DomainError, match="corners must be finite"):
            exponential_field(1.0, [1, 0], rect, 0.1)

    def test_zero_lam_raises(self):
        # eigen_rate_alpha owns the rule lam > 0; ProblemParams admits 0
        with pytest.raises(DomainError, match="rate defined for lam > 0 only"):
            solve_dirichlet(ProblemParams(n=3, p=2.0, lam=0.0), XI, RECT, 0.125)

    @pytest.mark.parametrize("rect, h, counts", [
        ((0, 0, 1e300, 1), 1e-10, "nx=inf by ny=1e+10"),
        ((0, 0, 1, 1e300), 1e-3, "nx=1001 by ny=1e+303"),
        ((-1e308, 0, 1e308, 1), 0.5, "nx=inf by ny=3"),
    ])
    def test_span_too_wide_for_h_raises(self, rect, h, counts):
        # int(round(inf)) in _grid_shape once raised OverflowError on a
        # span that h divides into more nodes than a double holds
        with pytest.raises(DomainError, match=re.escape(
                f"grid of {counts} nodes exceeds the cap")):
            exponential_field(1.0, [1, 0], rect, h)

    def test_scaling_covariance(self):
        # the equation is (p-1)-homogeneous: C * data -> C * solution
        params = ProblemParams(n=4, p=3.0, lam=2.0)
        c = 3.7
        f1, _ = solve_dirichlet(params, XI, RECT, 1 / 16, tol=1e-9)
        f2, _ = solve_dirichlet(params, XI, RECT, 1 / 16, tol=1e-9 * c ** 2,
                                scale=c)
        assert np.max(np.abs(f2.values - c * f1.values)) <= 1e-7 * c

    def test_rotation_covariance(self):
        params = ProblemParams(n=4, p=3.0, lam=2.0)
        h = 1 / 16
        xi_rot = np.array([-XI[1], XI[0]])  # 90-degree rotation of XI
        f1, _ = solve_dirichlet(params, XI, RECT, h, tol=1e-10)
        f2, _ = solve_dirichlet(params, xi_rot, RECT, h, tol=1e-10)
        center = np.array([0.5, 0.5])
        scale = math.exp(center @ xi_rot - center @ XI)  # alpha = 1
        expected = scale * np.rot90(f1.values)
        assert np.max(np.abs(f2.values - expected)) <= 1e-8 * np.max(f2.values)

    def test_non_square_shifted_rect(self):
        rect = (1.0, -0.5, 3.0, 0.5)
        params = ProblemParams(n=4, p=3.0, lam=2.0)
        fld, _ = solve_dirichlet(params, XI, rect, 1 / 32, tol=1e-8)
        exact = exponential_field(1.0, XI, rect, 1 / 32)
        assert fld.values.shape == (65, 33)
        assert float(np.max(np.abs(fld.values - exact.values))) <= 5e-4
        assert abs(gradient_log_sup(fld) - 1.0) <= 5e-3

    def test_barrier_sanity(self):
        params = ProblemParams(n=4, p=3.0, lam=2.0)
        fld, _ = solve_dirichlet(params, XI, RECT, 1 / 16, tol=1e-9)
        bdata = exponential_field(1.0, XI, RECT, 1 / 16).values
        bmin = min(bdata[0].min(), bdata[-1].min(), bdata[:, 0].min(),
                   bdata[:, -1].min())
        bmax = max(bdata[0].max(), bdata[-1].max(), bdata[:, 0].max(),
                   bdata[:, -1].max())
        diam = math.sqrt(2.0)
        assert np.all(fld.values >= bmin * math.exp(-diam) - 1e-12)
        assert np.all(fld.values <= bmax * math.exp(diam) + 1e-12)


class SpyLU:
    """Stands in for grid_pde.splu: records the dtype and shape of each
    matrix it factors and, at each call, how many factors it returned
    before are still alive."""

    def __init__(self):
        self.calls = 0
        self.dtypes = []
        self.shapes = []
        self.alive_at_call = []
        self._factors = []

    def __call__(self, mat, **kwargs):
        self.calls += 1
        self.dtypes.append(mat.dtype)
        self.shapes.append(mat.shape)
        self.alive_at_call.append(
            sum(ref() is not None for ref in self._factors))
        factor = Factor(splu(mat, **kwargs))
        self._factors.append(weakref.ref(factor))
        return factor


class Factor:
    """Weakly referenceable stand-in for a SuperLU factor."""

    def __init__(self, lu):
        self.solve = lu.solve


def stencil_coefficients(v, p, h):
    """3x3 stencil of the linearized operator L_v at each interior node,
    by offset (di, dj), from the face coefficients of the flux."""
    c1x, c2x, c1y, c2y = grid_pde._linearized_face_coeffs(
        _face_terms(v, p, h), p)
    e1, e2 = c1x[1:, :], c2x[1:, :]      # east face of each interior node
    w1, w2 = c1x[:-1, :], c2x[:-1, :]
    n1, n2 = c1y[:, 1:], c2y[:, 1:]
    s1, s2 = c1y[:, :-1], c2y[:, :-1]
    h2 = h * h
    return {
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


def coo_newton_matrix(v, p, lam, h):
    """The Newton matrix built through COO, each stencil block and the mass
    diagonal as separate triplets that tocsr sums.  Interior node (k, l) is
    numbered k * mj + l."""
    mi, mj = v.shape[0] - 2, v.shape[1] - 2
    sten = stencil_coefficients(v, p, h)
    idx = np.arange(mi * mj).reshape(mi, mj)
    rows, cols, vals = [idx.ravel()], [idx.ravel()], [
        ((p - 1.0) * lam * v[1:-1, 1:-1] ** (p - 2.0)).ravel()]
    for (di, dj), coef in sten.items():
        k_lo, k_hi = max(0, -di), mi - max(0, di)
        l_lo, l_hi = max(0, -dj), mj - max(0, dj)
        rows.append(idx[k_lo:k_hi, l_lo:l_hi].ravel())
        cols.append(idx[k_lo + di:k_hi + di, l_lo + dj:l_hi + dj].ravel())
        vals.append(-coef[k_lo:k_hi, l_lo:l_hi].ravel())
    return sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mi * mj, mi * mj)).tocsr()


def newton_stencil(v, p, lam, h):
    """_newton_stencil from the face coefficients of v, formed as
    solve_dirichlet forms them."""
    with np.errstate(over="ignore"):
        coeffs = grid_pde._linearized_face_coeffs(_face_terms(v, p, h), p)
    return _newton_stencil(v, p, lam, h, coeffs)


def newton_matrix(v, p, lam, h):
    """The Newton matrix that _solve_refined builds from the stencil, in
    CSR."""
    return _stencil_matrix(newton_stencil(v, p, lam, h)).tocsr()


def prolongation(m):
    """Linear interpolation from m // 2 coarse nodes to m fine ones.

    Coarse node I sits on fine node 2I + 1 and gives weight 1/2 to fine
    nodes 2I and 2I + 2; the boundary beyond either end is zero.  Returns
    a CSR (m, m // 2) matrix; the 2-D interpolation is its kron product.
    """
    coarse = np.arange(m // 2)
    rows = np.concatenate([2 * coarse + 1, 2 * coarse, 2 * coarse + 2])
    cols = np.tile(coarse, 3)
    vals = np.repeat([1.0, 0.5, 0.5], m // 2)
    inside = rows < m
    return sparse.csr_matrix((vals[inside], (rows[inside], cols[inside])),
                             shape=(m, m // 2))


def transfer_matrices(mi, mj):
    """The matrices of _prolong and _restrict on an mi x mj grid, read off
    their action on unit vectors."""
    ni, nj = mi // 2, mj // 2
    prol = np.column_stack([grid_pde._prolong(e.reshape(ni, nj), mi, mj).ravel()
                            for e in np.eye(ni * nj)])
    restr = np.column_stack([grid_pde._restrict(e.reshape(mi, mj)).ravel()
                             for e in np.eye(mi * mj)])
    return prol, restr


def newton_field(p, h, lam=2.0, rect=RECT, noise=0.01, xi=XI):
    """solve_dirichlet's boundary data extended to the rectangle, perturbed
    by up to `noise` relative at each node."""
    v = exponential_field(eigen_rate_alpha(lam, p), xi, rect, h).values
    return v * (1.0 + noise * np.random.default_rng(7).random(v.shape))


def newton_system(p, h, lam=2.0, rect=RECT, noise=0.01):
    """Newton stencil arrays, right-hand side and the interior of
    newton_field, the field the step updates (noise = 0 gives the first
    Newton step of solve_dirichlet)."""
    v = newton_field(p, h, lam, rect, noise)
    resid = p_laplace_residual(Field2D(h, rect[:2], v), p, lam)
    return (newton_stencil(v, p, lam, h), -resid.ravel(),
            v[1:-1, 1:-1])


def direct_solve(mat, rhs):
    """The float64 LU solve that _solve_refined falls back to."""
    return splu(mat.tocsc(), permc_spec=grid_pde.DIRECT_ORDERING).solve(rhs)


def spy_corrections(monkeypatch):
    """The corrections _solve_refined takes, in order: the float64 values
    that _correction returns from the float32 cycles of _fmg and _vcycle.
    Copies: _solve_refined reuses each correction's array once it has added
    it to the step."""
    corrections = []

    def spy(cycle, hierarchy, resid):
        corr = correction(cycle, hierarchy, resid)
        corrections.append(corr.copy())
        return corr

    correction = grid_pde._correction
    monkeypatch.setattr(grid_pde, "_correction", spy)
    return corrections


def random_inputs(shape):
    """newton_stencil arguments at a random positive field of the given
    shape, for p in 1.5, 3 and 4."""
    v = np.exp(np.random.default_rng(11).random(shape))
    return [(v, p, 2.0, 1 / 64) for p in (1.5, 3.0, 4.0)]


def field_inputs(p, h, rect=RECT, noise=0.0, xi=XI):
    """newton_stencil arguments at newton_field with lam = 2."""
    return [(newton_field(p, h, 2.0, rect, noise, xi), p, 2.0, h)]


def edge_inputs(kind, p):
    """newton_stencil arguments on a 19 x 24 field that is flat
    (two levels, so s2 = 0 on many faces) or overflowing (its face
    coefficients leave the double range as inf and NaN)."""
    r = np.random.default_rng(9).random((19, 24))
    v = np.where(r < 0.5, 1.0, 2.0) if kind == "flat" else np.exp(400.0 * r)
    return [(v, p, 1.7, 1 / 16)]


class TestNewtonStep:
    @pytest.mark.parametrize("h", [1 / 128, 1 / 256])
    def test_traced_peak_per_node(self, h):
        # each grid array of a Newton step is held once: the face terms
        # give way to their coefficients and those to the stencil arrays,
        # which are freed before the damping trials, and the refinement
        # updates in place.  The campaign's grid problem peaked at 184
        # (h = 1/128) and 183 B/node (1/256), against 211 and 207 while
        # the face terms, the stencil and duplicate vectors overlapped
        params = ProblemParams(n=4, p=3.0, lam=2.0)
        solve_dirichlet(params, XI, RECT, 1 / 32, tol=1e-9)  # first calls
        tracemalloc.start()
        try:
            solve_dirichlet(params, XI, RECT, h, tol=1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / round(1 / h + 1) ** 2 <= 190.0

    def test_newton_step_matches_natural_spsolve(self, monkeypatch):
        # one step on a non-square rectangle against the natural-order
        # Jacobian solved by spsolve.  At tol 1e-6 the solve's step ends
        # on its linearized residual (2633 ulps of the field from spsolve's
        # step); refined with tol 0 it ends at the field's rounding
        params = ProblemParams(n=4, p=3.0, lam=2.0)
        h, rect, tol = 1 / 32, (0.0, 0.0, 2.0, 1.0), 1e-6
        alpha = eigen_rate_alpha(params.lam, params.p)
        start = exponential_field(alpha, XI, rect, h)
        resid = p_laplace_residual(start, params.p, params.lam)
        mat = coo_newton_matrix(start.values, params.p, params.lam, h)
        expected = spsolve(mat, -resid.ravel()).reshape(resid.shape)
        solutions = []

        def spy(sten, rhs, interior, tol):
            out = solve_refined(sten, rhs, interior, tol)
            solutions.append(out[0])
            return out

        solve_refined = grid_pde._solve_refined
        monkeypatch.setattr(grid_pde, "_solve_refined", spy)
        monkeypatch.setattr(grid_pde, "MAX_NEWTON_ITERS", 1)
        fld, stats = solve_dirichlet(params, XI, rect, h, tol=tol)
        assert (stats.newton_iters, stats.damping_events) == (1, 0)
        step = solutions[0]
        linearized = np.max(np.abs(-resid.ravel() - mat @ step))
        assert linearized <= grid_pde.LINEAR_TOL_SHARE * tol
        base = start.values[1:-1, 1:-1]
        assert np.array_equal(fld.values[1:-1, 1:-1],
                              base + step.reshape(resid.shape))
        x, _, refactors = solve_refined(
            newton_stencil(start.values, params.p, params.lam, h),
            -resid.ravel(), base, 0.0)
        assert refactors == 0
        assert field_gap_ulps(base.ravel(), x, expected.ravel()) <= FIELD_ULPS

    def test_steps_take_the_accepted_fields_face_terms(self, monkeypatch):
        # each step's stencil and right-hand side come from the face terms
        # of the residual that accepted the field, bit for bit those of
        # the field itself; here a step rejects a positive trial whose
        # residual grew before it accepts a damped one
        p, lam, h = 1.05, 1.0, 1 / 4
        xi = np.array([math.cos(0.3), math.sin(0.3)])
        alpha = eigen_rate_alpha(lam, p)
        start = exponential_field(alpha, xi, RECT, h).values
        steps = []

        def spy(sten, rhs, interior, tol):
            v = start.copy()
            v[1:-1, 1:-1] = interior
            resid = p_laplace_residual(Field2D(h, RECT[:2], v), p, lam)
            assert np.array_equal(sten, newton_stencil(v, p, lam, h))
            assert np.array_equal(rhs, -resid.ravel())
            steps.append(interior)
            return solve_refined(sten, rhs, interior, tol)

        solve_refined = grid_pde._solve_refined
        monkeypatch.setattr(grid_pde, "_solve_refined", spy)
        _, stats = solve_dirichlet(ProblemParams(n=4, p=p, lam=lam), xi, RECT,
                                   h, tol=1e-9)
        assert stats.newton_iters == len(steps) > 1
        assert stats.damping_events > 0

    @pytest.mark.parametrize("scale", [0.0, 1e-30])
    def test_unchanged_field_ends_the_damping_search(self, monkeypatch, scale):
        # a step that rounds away at every node leaves the field and its
        # residual unchanged at every smaller theta too, so the search
        # stops at its first trial instead of halving theta down to
        # DAMPING_FLOOR; the start's residual is the only face-terms call
        calls = []
        face_terms = grid_pde._face_terms

        def counting(*args):
            calls.append(args)
            return face_terms(*args)

        monkeypatch.setattr(grid_pde, "_face_terms", counting)
        monkeypatch.setattr(grid_pde, "_solve_refined",
                            lambda sten, rhs, interior, tol: (scale * rhs, 1, 0))
        with pytest.raises(NoConvergence, match="damping floor reached"):
            solve_dirichlet(ProblemParams(n=4, p=3.0, lam=2.0), XI, RECT,
                            1 / 16, tol=1e-9)
        assert len(calls) == 1

    @pytest.mark.parametrize("p", [1.5, 2.5, 3.0, 4.0])
    def test_solve_matches_spsolve_newton(self, p):
        # Newton from the same start with every step from spsolve, stopped
        # by the same residual test; no step is damped on either side
        params = ProblemParams(n=5, p=p, lam=2.0)
        h, tol = 1 / 32, 1e-10
        fld, stats = solve_dirichlet(params, XI, RECT, h, tol=tol)
        alpha = eigen_rate_alpha(params.lam, p)
        ref = exponential_field(alpha, XI, RECT, h)
        iters = 0
        resid = p_laplace_residual(ref, p, params.lam)
        while np.max(np.abs(resid)) > tol and iters <= stats.newton_iters:
            mat = coo_newton_matrix(ref.values, p, params.lam, h)
            step = spsolve(mat, -resid.ravel()).reshape(resid.shape)
            values = ref.values.copy()
            values[1:-1, 1:-1] += step
            ref = Field2D(h, ref.origin, values)
            resid = p_laplace_residual(ref, p, params.lam)
            iters += 1
        assert (stats.newton_iters, stats.damping_events) == (iters, 0)
        assert iters >= 1
        # the last step may end on its linearized residual, within
        # LINEAR_TOL_SHARE * tol, so within ||J^-1||_inf times that of the
        # exact step, J the last step's Newton matrix; other steps update
        # the field to within FIELD_ULPS of an exact one
        inverse_norm = np.max(np.sum(np.abs(np.linalg.inv(mat.toarray())),
                                     axis=1))
        allowed = (FIELD_ULPS * np.spacing(ref.values)
                   + inverse_norm * grid_pde.LINEAR_TOL_SHARE * tol)
        assert np.all(np.abs(fld.values - ref.values) <= allowed)

    def test_splu_called_once_per_newton_step(self, monkeypatch):
        # the benchmark's tracer times grid_pde.splu by rebinding that name;
        # each step factors its coarsest multigrid level once
        runs = []
        for p, rect, h, tol in ((3.0, (0.0, 0.0, 2.0, 1.0), 1 / 32, 1e-6),
                                (1.1, RECT, 1 / 4, 1e-9)):
            spy = SpyLU()
            monkeypatch.setattr(grid_pde, "splu", spy)
            _, stats = solve_dirichlet(ProblemParams(n=4, p=p, lam=2.0), XI,
                                       rect, h, tol=tol)
            assert spy.calls == stats.newton_iters
            runs.append((stats.newton_iters, stats.damping_events))
        (iters_1, damped_1), (iters_2, damped_2) = runs
        assert (iters_1, damped_1) == (1, 0)
        assert iters_2 > 1 and damped_2 > 0

    @staticmethod
    def solve_draws(seed, count, h=1 / 64, tol=1e-9):
        """(Newton iterations, damping events) of solve_dirichlet, or
        "NoConvergence", on `count` draws from the grid_fine benchmark's
        ranges: p in [1.5, 4], lam in [0.5, 3], xi uniform on the circle,
        the unit square."""
        rng = np.random.default_rng(seed)
        outcomes = []
        for _ in range(count):
            p, lam = 1.5 + 2.5 * rng.random(), 0.5 + 2.5 * rng.random()
            angle = 2.0 * math.pi * rng.random()
            try:
                _, stats = solve_dirichlet(
                    ProblemParams(n=5, p=p, lam=lam),
                    (math.cos(angle), math.sin(angle)), RECT, h, tol=tol)
                outcomes.append((stats.newton_iters, stats.damping_events))
            except NoConvergence:
                outcomes.append("NoConvergence")
        return outcomes

    def test_linear_tol_share_costs_one_newton_step_in_64_draws(
            self, monkeypatch):
        # 64 draws at h = 1/64, with the rule and with refinement to the
        # field's rounding: the same failures and damping events, and the
        # same Newton iterations but on draw 44, whose step ended on its
        # linearized residual leaves 1.007 tol where the exact step leaves
        # 0.856 tol, so it takes a second step
        with_share = self.solve_draws(4, 64)
        monkeypatch.setattr(grid_pde, "LINEAR_TOL_SHARE", 0.0)
        exact = self.solve_draws(4, 64)
        assert (with_share[44], exact[44]) == ((2, 0), (1, 0))
        with_share[44] = exact[44]
        assert with_share == exact

    def test_each_newton_step_is_solved_once(self, monkeypatch):
        # draw 44 of the set above: its first step ends on the tol share and
        # is judged as it is, one _solve_refined call with the solve's tol
        # per Newton step
        params = ProblemParams(n=5, p=3.5829091416707226,
                               lam=1.38447965904892)
        xi = (math.cos(3.9830037047223485), math.sin(3.9830037047223485))
        solves = []

        def spy(sten, rhs, interior, tol):
            solves.append(tol)
            return solve_refined(sten, rhs, interior, tol)

        solve_refined = grid_pde._solve_refined
        monkeypatch.setattr(grid_pde, "_solve_refined", spy)
        _, stats = solve_dirichlet(params, xi, RECT, 1 / 64, tol=1e-9)
        assert (stats.newton_iters, stats.damping_events) == (2, 0)
        assert solves == [1e-9] * stats.newton_iters
        assert stats.final_residual <= 1e-9


class TestNewtonLinearLayer:
    @pytest.mark.parametrize("inputs, dropped", [
        *(pytest.param(random_inputs(shape), 0, id=f"shape{k}")
          for k, shape in enumerate([(3, 3), (3, 9), (9, 4), (17, 12),
                                     (66, 34), (9, 3)])),
        pytest.param(field_inputs(3.0, 1 / 8, (0.0, 0.0, 2.0, 1.0), 0.1), 0,
                     id="rect_2x1"),
        # c2 = 0 on every face, so the four corner couplings are exact
        # zeros, left out of the matrix
        pytest.param(field_inputs(3.0, 1 / 16, xi=(1.0, 0.0)), 784,
                     id="xi_1_0"),
        pytest.param(field_inputs(2.0, 1 / 16), 784, id="p_2"),
        # c1 = c2 = 0 on the flat faces, left out as exact zeros
        pytest.param(edge_inputs("flat", 1.5) + edge_inputs("flat", 3.0), 735,
                     id="flat"),
        # inf and NaN entries stay in the matrix; at p = 1.5 the overflowed
        # s2 gives k = 0 and exact zeros
        pytest.param(edge_inputs("overflowing", 1.5), 669,
                     id="overflowing_p1.5"),
        pytest.param(edge_inputs("overflowing", 3.0), 0, id="overflowing_p3"),
    ])
    def test_matrix_matches_coo_build_bit_for_bit(self, inputs, dropped):
        for args in inputs:
            with np.errstate(over="ignore", invalid="ignore"):
                new = newton_matrix(*args)
                ref = coo_newton_matrix(*args)
            assert ref.nnz - new.nnz == dropped
            ref.eliminate_zeros()
            assert np.array_equal(new.indptr, ref.indptr)
            assert np.array_equal(new.indices, ref.indices)
            # bit for bit, but for the sign of a NaN: a corner entry is
            # -0.25 (x + y) / h2, whose product keeps a NaN's sign, and the
            # reference negates 0.25 (x + y) / h2, which flips it
            nan = np.isnan(ref.data)
            assert np.array_equal(np.isnan(new.data), nan)
            assert new.data[~nan].tobytes() == ref.data[~nan].tobytes()

    @pytest.mark.parametrize("inputs", [
        *(pytest.param(random_inputs(shape), id=f"shape{k}")
          for k, shape in enumerate([(3, 3), (3, 9), (9, 4), (17, 12),
                                     (66, 34), (9, 3)])),
        pytest.param(field_inputs(3.0, 1 / 16, xi=(1.0, 0.0)), id="xi_1_0"),
    ])
    def test_dia_product_matches_csr_bit_for_bit(self, inputs):
        # every level's products are DIA ones; they add each row's terms in
        # the order the CSR product does, whose matrix leaves exact zeros
        # out (xi_1_0), on each level down to a single node on an axis
        x = np.random.default_rng(5).standard_normal(64 * 32)
        for args in inputs:
            sten = newton_stencil(*args)
            while True:
                mat = _stencil_matrix(sten)
                assert mat.format == "dia"
                y = x[:mat.shape[0]]
                assert np.array_equal(mat @ y, mat.tocsr() @ y)
                if min(sten.shape[2:]) < 2:
                    break
                sten = grid_pde._coarsen_axis(
                    grid_pde._coarsen_axis(sten, 0), 1)

    @pytest.mark.parametrize("m, expected", [
        (5, [[0.5, 0.0], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [0.0, 0.5]]),
        (4, [[0.5, 0.0], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]),
    ])
    def test_prolongation_weights(self, m, expected):
        # coarse node I sits on fine node 2I + 1; odd and even axes both
        # coarsen to m // 2 nodes, with a zero boundary beyond either end.
        # On either axis of a 2-D grid _prolong is the kron product with
        # the 3-node axis's weights, and _restrict its transpose
        assert np.array_equal(prolongation(m).toarray(), expected)
        three = prolongation(3).toarray()
        for mi, mj, kron in ((m, 3, np.kron(expected, three)),
                             (3, m, np.kron(three, expected))):
            prol, restr = transfer_matrices(mi, mj)
            assert np.array_equal(prol, kron)
            assert np.array_equal(restr, kron.T)

    @pytest.mark.parametrize("inputs", [
        pytest.param(random_inputs((65, 65)), id="63x63"),
        pytest.param(random_inputs((51, 76)), id="49x74"),
        pytest.param(random_inputs((36, 38)), id="34x36"),
        pytest.param(random_inputs((19, 35)), id="17x33"),
        pytest.param(field_inputs(3.0, 1 / 64, xi=(1.0, 0.0)), id="xi_1_0"),
        pytest.param(field_inputs(2.0, 1 / 64), id="p_2"),
    ])
    def test_coarsening_matches_galerkin_product(self, inputs):
        # each coarsening down to a single node on an axis, against P^T A P
        # with the kron prolongation: within a few ulps of each row's
        # largest entry, with the same entries once exact zeros are dropped
        for args in inputs:
            sten = newton_stencil(*args)
            while min(sten.shape[2:]) >= 2:
                mi, mj = sten.shape[2:]
                prol = sparse.kron(prolongation(mi), prolongation(mj),
                                   format="csr")
                ref = (prol.T @ _stencil_matrix(sten).tocsr() @ prol).tocsr()
                sten = grid_pde._coarsen_axis(
                    grid_pde._coarsen_axis(sten, 0), 1)
                assert sten.shape[2:] == (mi // 2, mj // 2)
                new = _stencil_matrix(sten).tocsr()
                row_max = abs(ref).max(axis=1).toarray()
                gap = abs(new - ref).max(axis=1).toarray()
                assert np.all(gap <= 8 * grid_pde.EPS64 * row_max)
                ref.eliminate_zeros()
                assert np.array_equal(new.indptr, ref.indptr)
                assert np.array_equal(new.indices, ref.indices)

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_refined_solve_matches_float64_lu(self, p, monkeypatch):
        sten, rhs, base = newton_system(p, 1 / 64)
        mat = _stencil_matrix(sten)
        expected = splu(mat.tocsc(), permc_spec="NATURAL").solve(rhs)
        spy = SpyLU()
        monkeypatch.setattr(grid_pde, "splu", spy)
        x, solves, refactors = grid_pde._solve_refined(sten, rhs, base, 0.0)
        # one float32 factor, of the coarsest level, and no fallback
        assert spy.dtypes == [np.float32] and refactors == 0
        assert spy.shapes[0][0] < mat.shape[0]
        assert solves >= 2
        assert np.max(np.abs(x - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_levels_are_float32_and_the_step_float64(self):
        # the levels, their Jacobi weights and the coarsest factor are
        # float32; the step and the solved field are float64
        sten, rhs, base = newton_system(2.7, 1 / 128)
        levels, coarsest, _ = grid_pde._multigrid_hierarchy(sten)
        assert len(levels) == 3  # 127, 63 and 31 nodes per axis
        for mat, weight, _ in levels:
            assert mat.format == "dia"
            assert mat.dtype == weight.dtype == np.float32
        assert coarsest.L.dtype == coarsest.U.dtype == np.float32
        x, _, refactors = grid_pde._solve_refined(sten, rhs, base, 0.0)
        assert x.dtype == np.float64 and refactors == 0
        fld, _ = solve_dirichlet(ProblemParams(n=4, p=2.7, lam=2.5), XI, RECT,
                                 1 / 64, tol=1e-9)
        assert fld.values.dtype == np.float64

    def test_matrices_share_the_stencil_arrays(self, monkeypatch):
        # every DIA matrix of a Newton step holds its stencil arrays as its
        # data, with no second copy: the fine float64 matrix of
        # _solve_refined and each float32 level of _multigrid_hierarchy,
        # the coarsest included
        built = []

        def spy(sten):
            mat = stencil_matrix(sten)
            built.append((sten, mat))
            return mat

        stencil_matrix = grid_pde._stencil_matrix
        monkeypatch.setattr(grid_pde, "_stencil_matrix", spy)
        sten, rhs, base = newton_system(2.7, 1 / 128)
        grid_pde._solve_refined(sten, rhs, base, 0.0)
        assert built[0][0] is sten
        assert [arrays.dtype for arrays, _ in built] == (
            [np.float64] + [np.float32] * 4)  # 127, 63, 31 and 15 nodes
        for arrays, mat in built:
            assert mat.format == "dia"
            assert np.shares_memory(arrays, mat.data)

    def test_matrix_of_other_arrays_raises(self):
        # a C-contiguous copy of the stencil arrays is not DIA data: it
        # raises rather than being copied into that layout
        sten, _, _ = newton_system(2.7, 1 / 16)
        with pytest.raises(ValueError, match="_stencil_storage"):
            _stencil_matrix(sten.copy())

    @pytest.mark.parametrize("a, b", [(150, -150), (-150, 150), (-200, -160),
                                      (170, 240)])
    @pytest.mark.parametrize("p", [1.5, 2.7, 4.0])
    def test_power_of_two_scaling_gives_the_scaled_step(self, p, a, b):
        # 2^a A y = 2^b rhs is solved by y = 2^(b-a) x exactly: the levels
        # and the residuals are scaled by powers of two into float32's
        # range, which an unscaled cast would overflow or flush to zero
        sten, rhs, base = newton_system(p, 1 / 64, lam=2.5, noise=0.0)
        x, solves, refactors = grid_pde._solve_refined(sten, rhs, base, 0.0)
        scaled = np.ldexp(sten, a, out=grid_pde._stencil_storage(
            *sten.shape[2:], np.float64))
        y, solves_y, refactors_y = grid_pde._solve_refined(
            scaled, np.ldexp(rhs, b), np.ldexp(base, b - a), 0.0)
        assert refactors == refactors_y == 0 and solves_y == solves
        assert np.array_equal(y, np.ldexp(x, b - a))

    @pytest.mark.parametrize("entry, power", [((1, 1, 0, 0), -200),
                                              ((2, 1, 5, 5), 200)])
    def test_stencil_wider_than_float32_falls_back_to_float64(self, entry,
                                                              power):
        # one centre entry 2^-200 of the others flushes to zero in float32
        # (an infinite Jacobi weight), and one coupling 2^200 above them
        # overflows it (infinite entries down to the coarsest level): both
        # systems take the float64 LU
        sten, rhs, base = newton_system(3.0, 1 / 64)
        sten[entry] = math.ldexp(sten[entry], power)
        expected = direct_solve(_stencil_matrix(sten), rhs)
        assert np.all(np.isfinite(expected))
        x, solves, refactors = grid_pde._solve_refined(sten, rhs, base, 0.0)
        assert refactors == 1 and solves >= 1
        assert np.array_equal(x, expected)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(3, 80), st.integers(3, 80), st.floats(1.2, 4.0),
           st.floats(0.5, 3.0))
    @example(49, 74, 1.5, 2.5)  # an even axis, coarsened by the m // 2 rule
    @example(63, 31, 4.0, 0.5)
    # the smallest interiors that coarsen, one axis odd and one even
    @example(17, 18, 2.5, 1.0)
    @example(18, 17, 2.5, 1.0)
    def test_refined_step_matches_spsolve(self, mi, mj, p, lam):
        # the first Newton step, which the V-cycles solve without fallback;
        # the step is 1e-7 to 1e-5 of the field, so its own digits below
        # the field's rounding are not resolved
        h = 1 / 64
        rect = (0.0, 0.0, (mi + 1) * h, (mj + 1) * h)
        sten, rhs, base = newton_system(p, h, lam, rect, noise=0.0)
        assert base.shape == (mi, mj)
        expected = spsolve(_stencil_matrix(sten).tocsr(), rhs)
        x, _, refactors = grid_pde._solve_refined(sten, rhs, base, 0.0)
        assert refactors == 0
        assert field_gap_ulps(base.ravel(), x, expected) <= FIELD_ULPS

    @pytest.mark.parametrize("p", [1.5, 2.7, 4.0])
    def test_refinement_stops_at_the_field_rounding(self, p, monkeypatch):
        # the returned step's last correction is the first within
        # REFINE_ULPS ulps of the field at every node; at this exact start
        # that takes 7-9 corrections (8-9 with the full-multigrid pass
        # started from linear interpolations, 9-10 V-cycles without it),
        # where stopping within REFINE_ULPS ulps of the step itself took
        # 14-16
        sten, rhs, base = newton_system(p, 1 / 64, lam=2.5, noise=0.0)
        corrections = spy_corrections(monkeypatch)
        x, solves, refactors = grid_pde._solve_refined(sten, rhs, base, 0.0)
        done = grid_pde.REFINE_ULPS * grid_pde.EPS64 * base.ravel()
        within = [bool(np.all(np.abs(c) <= done)) for c in corrections]
        assert within[-1] and not any(within[:-1])
        assert (solves, refactors) == (len(corrections), 0)
        assert solves <= 9
        total = np.zeros_like(x)
        for corr in corrections:
            total += corr
        assert np.array_equal(x, total)
        last = float(np.max(np.abs(corrections[-1])))
        assert last > grid_pde.REFINE_ULPS * grid_pde.EPS64 * np.max(np.abs(x))

    @pytest.mark.parametrize("p, lam", [(1.5, 0.5), (2.7, 2.5), (4.0, 3.0)])
    def test_refinement_stops_at_the_linear_tol_share(self, p, lam,
                                                      monkeypatch):
        # a first Newton step like grid_fine's (exact start, tol 1e-9) at
        # h = 1/64: refinement ends at the first correction after which
        # max|rhs - A x| <= LINEAR_TOL_SHARE * tol, in fewer corrections
        # than refinement to the field's rounding (3-7 against 6-9)
        tol = 1e-9
        sten, rhs, base = newton_system(p, 1 / 64, lam=lam, noise=0.0)
        mat = _stencil_matrix(sten)
        corrections = spy_corrections(monkeypatch)
        x, solves, refactors = grid_pde._solve_refined(sten, rhs, base, tol)
        assert (solves, refactors) == (len(corrections), 0)
        bound = grid_pde.LINEAR_TOL_SHARE * tol
        assert np.max(np.abs(rhs - mat @ x)) <= bound
        before = np.zeros_like(x)
        for corr in corrections[:-1]:
            before += corr
        assert np.max(np.abs(rhs - mat @ before)) > bound
        _, solves_exact, _ = grid_pde._solve_refined(sten, rhs, base, 0.0)
        assert solves < solves_exact

    @pytest.mark.parametrize("h", [1 / 64, 1 / 128])
    @pytest.mark.parametrize("p", [1.5, 2.7, 4.0])
    def test_full_multigrid_start_takes_fewer_corrections(self, p, h,
                                                          monkeypatch):
        # the first Newton step from the exact start, with the first
        # correction from _fmg and with plain V-cycles throughout
        sten, rhs, base = newton_system(p, h, lam=2.5, noise=0.0)
        expected = spsolve(_stencil_matrix(sten).tocsr(), rhs)
        runs = [grid_pde._solve_refined(sten, rhs, base, 0.0)]
        monkeypatch.setattr(grid_pde, "_fmg", grid_pde._vcycle)
        runs.append(grid_pde._solve_refined(sten, rhs, base, 0.0))
        (x, solves, refactors), (x_plain, solves_plain, refactors_plain) = runs
        assert refactors == refactors_plain == 0
        assert solves < solves_plain
        for step in (x, x_plain):
            assert field_gap_ulps(base.ravel(), step, expected) <= FIELD_ULPS

    @pytest.mark.parametrize("h", [1 / 64, 1 / 128])
    @pytest.mark.parametrize("p", [1.5, 2.7, 4.0])
    def test_cubic_start_shrinks_the_second_correction(self, p, h,
                                                        monkeypatch):
        # the full-multigrid pass started from cubic interpolations leaves
        # a smaller error for the first V-cycle than one started from the
        # linear _prolong, and takes no more corrections
        sten, rhs, base = newton_system(p, h, lam=2.5, noise=0.0)
        runs = []
        for start in (grid_pde._interpolate_cubic, grid_pde._prolong):
            monkeypatch.setattr(grid_pde, "_interpolate_cubic", start)
            corrections = spy_corrections(monkeypatch)
            _, solves, refactors = grid_pde._solve_refined(sten, rhs, base,
                                                           0.0)
            assert refactors == 0
            runs.append((float(np.max(np.abs(corrections[1]))), solves))
        (cubic, solves), (linear, solves_linear) = runs
        assert cubic <= 0.5 * linear
        assert solves <= solves_linear

    def test_full_multigrid_start_keeps_the_fallbacks(self, monkeypatch):
        # on 1%-perturbed fields the V-cycle contracts slowly at large p
        # and small lam, and the same solves fall back to the float64 LU
        # with the full-multigrid start as without it
        systems = [newton_system(p, 1 / 64, lam)
                   for p in (1.5, 2.7, 3.9, 4.0) for lam in (0.3, 0.5, 2.0)]

        def fallbacks():
            return [grid_pde._solve_refined(*system, 0.0)[2]
                    for system in systems]

        with_fmg = fallbacks()
        monkeypatch.setattr(grid_pde, "_fmg", grid_pde._vcycle)
        assert fallbacks() == with_fmg
        assert sum(with_fmg) == 4

    def test_zero_diagonal_falls_back_to_float64(self, monkeypatch):
        # a zero centre stencil entry makes its Jacobi weight infinite, so
        # no hierarchy is built and the step comes from one float64 LU
        sten, rhs, base = newton_system(3.0, 1 / 64)
        sten[1, 1, 0, 0] = 0.0
        mat = _stencil_matrix(sten)
        expected = direct_solve(mat, rhs)
        assert np.all(np.isfinite(expected))
        spy = SpyLU()
        monkeypatch.setattr(grid_pde, "splu", spy)
        x, solves, refactors = grid_pde._solve_refined(sten, rhs, base, 0.0)
        assert spy.dtypes == [np.float64] and spy.shapes == [mat.shape]
        assert (solves, refactors) == (1, 1)
        assert np.array_equal(x, expected)

    def test_stall_above_rounding_floor_falls_back_to_float64(
            self, monkeypatch):
        # corrections that take 90% of the remaining error for nine cycles
        # and 30% after: they stall at 2.1e-10 of |x|, above the rounding
        # floor
        sten, rhs, base = newton_system(3.0, 1 / 64)
        mat = _stencil_matrix(sten)
        expected = direct_solve(mat, rhs)
        exact = splu(mat.tocsc(), permc_spec="NATURAL")
        calls = []

        def slow_correction(cycle, hierarchy, resid):
            calls.append(resid)
            gain = 0.9 if len(calls) <= 9 else 0.3
            return gain * exact.solve(resid)

        spy = SpyLU()
        monkeypatch.setattr(grid_pde, "splu", spy)
        # the first correction as well as the later ones
        monkeypatch.setattr(grid_pde, "_correction", slow_correction)
        x, solves, refactors = grid_pde._solve_refined(sten, rhs, base, 0.0)
        # the coarsest level's float32 factor, then the float64 fallback
        # after it is freed
        assert spy.dtypes == [np.float32, np.float64]
        assert spy.alive_at_call == [0, 0]
        assert (solves, refactors) == (11 + 1, 1)  # the fallback solves once
        assert np.array_equal(x, expected)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_correction_falls_back_to_float64(self, monkeypatch,
                                                         bad):
        # a correction that overflows is not added to the step: the step
        # comes from one float64 LU, made after the hierarchy is freed
        sten, rhs, base = newton_system(3.0, 1 / 64)
        expected = direct_solve(_stencil_matrix(sten), rhs)
        spy = SpyLU()
        monkeypatch.setattr(grid_pde, "splu", spy)
        monkeypatch.setattr(grid_pde, "_correction",
                            lambda cycle, hierarchy, resid:
                            np.full_like(resid, bad))
        x, solves, refactors = grid_pde._solve_refined(sten, rhs, base, 0.0)
        assert spy.dtypes == [np.float32, np.float64]
        assert spy.alive_at_call == [0, 0]
        assert (solves, refactors) == (1 + 1, 1)
        assert np.array_equal(x, expected)

    def test_stall_at_rounding_floor_keeps_the_refined_step(self,
                                                            monkeypatch):
        # a field perturbed by up to 25% at p = 1.5, lam = 1: the
        # corrections stop halving a few ulps of x above the field's
        # rounding, which is x's own floor, so the step is kept and no
        # float64 LU is made
        sten, rhs, base = newton_system(1.5, 1 / 64, lam=1.0, noise=0.25)
        corrections = spy_corrections(monkeypatch)
        spy = SpyLU()
        monkeypatch.setattr(grid_pde, "splu", spy)
        x, solves, refactors = grid_pde._solve_refined(sten, rhs, base, 0.0)
        assert spy.dtypes == [np.float32]
        assert (solves, refactors) == (len(corrections), 0)
        before, last = (float(np.max(np.abs(c))) for c in corrections[-2:])
        done = grid_pde.REFINE_ULPS * grid_pde.EPS64 * base.ravel()
        assert not np.all(np.abs(corrections[-1]) <= done)
        assert 0.5 * before < last <= (grid_pde.STALL_ULPS * grid_pde.EPS64
                                       * float(np.max(np.abs(x))))
        total = np.zeros_like(x)
        for corr in corrections:
            total += corr
        assert np.array_equal(x, total)

    def test_one_factor_alive_at_a_time(self, monkeypatch):
        for h in (1 / 4, 1 / 32):
            spy = SpyLU()
            monkeypatch.setattr(grid_pde, "splu", spy)
            _, stats = solve_dirichlet(ProblemParams(n=4, p=1.1, lam=2.0),
                                       XI, RECT, h, tol=1e-9)
            assert spy.calls == stats.newton_iters > 1
            assert spy.alive_at_call == [0] * spy.calls
            assert stats.float64_refactors == 0
            # a step may end on its full-multigrid pass, whose linearized
            # residual can already be within LINEAR_TOL_SHARE * tol
            assert stats.linear_solves >= stats.newton_iters


def expression_residual(v, p, lam, h, faces):
    (dvx, _, _, kx), (dvy, _, _, ky) = faces
    fx, fy = kx * dvx, ky * dvy
    div = (fx[1:, :] - fx[:-1, :]) / h + (fy[:, 1:] - fy[:, :-1]) / h
    return -div + lam * v[1:-1, 1:-1] ** (p - 1.0)


def boundary_quadratic(m):
    """(x + 1)(m - x) on the m nodes of an axis: a quadratic that vanishes
    on the boundary nodes -1 and m, sampled at the coarse nodes too."""
    x = np.arange(m, dtype=float)
    return (x + 1.0) * (m - x)


class TestInPlaceAssembly:
    """The residual's order of operations, pinned against one reference
    expression, and the face coefficients on flat faces."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0, 2.7])
    @pytest.mark.parametrize("kind", ["smooth", "flat", "overflowing"])
    def test_matches_the_expressions_bit_for_bit(self, p, kind):
        # the residual keeps the order of operations of the reference
        # expression, so its bytes, through flat faces (s2 = 0, k = 0 at
        # p < 2) and values whose products overflow to inf and NaN
        rng = np.random.default_rng(9)
        v = {"smooth": np.exp(rng.random((19, 24))),
             "flat": np.where(rng.random((19, 24)) < 0.5, 1.0, 2.0),
             "overflowing": np.exp(400.0 * rng.random((19, 24)))}[kind]
        h, lam = 1 / 16, 1.7
        with np.errstate(all="ignore"):
            faces = _face_terms(v, p, h)
            assert (grid_pde._residual(v, p, lam, h, faces).tobytes()
                    == expression_residual(v, p, lam, h, faces).tobytes())

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_coefficients_vanish_on_flat_faces(self, p):
        # s2 == 0 makes the formulas 0/0; the coefficients are exactly 0
        # there, finite elsewhere, and no floating-point warning escapes
        rng = np.random.default_rng(9)
        v = np.where(rng.random((19, 24)) < 0.5, 1.0, 2.0)
        faces = _face_terms(v, p, 1 / 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coeffs = grid_pde._linearized_face_coeffs(faces, p)
        for (_, _, s2, _), c1, c2 in zip(faces, coeffs[::2], coeffs[1::2]):
            flat = s2 == 0.0
            assert flat.any() and not flat.all()
            for c in (c1, c2):
                assert np.all(c[flat] == 0.0)
                assert np.isfinite(c[~flat]).all()


class TestGridTransfers:
    @pytest.mark.parametrize("mi, mj", [(255, 255), (49, 74), (18, 17)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_prolong_is_c_ordered_and_bit_for_bit(self, mi, mj, dtype):
        # the V-cycle ravels each prolonged correction: a C-ordered result
        # ravels to a view, not a copy.  Each fine value sums at most two
        # halved coarse ones per axis, as the kron product does
        c = np.random.default_rng(2).standard_normal((mi // 2, mj // 2))
        x = grid_pde._prolong(c.astype(dtype), mi, mj)
        assert x.dtype == dtype and x.flags.c_contiguous
        assert np.shares_memory(x, x.ravel())
        if dtype == np.float64:
            rows = prolongation(mi) @ c
            expected = (prolongation(mj) @ rows.T).T
            assert x.tobytes() == np.ascontiguousarray(expected).tobytes()

    @pytest.mark.parametrize("mi, mj", [(6, 7), (7, 6), (17, 18), (34, 33),
                                        (255, 254)])
    def test_cubic_reproduces_boundary_quadratics(self, mi, mj):
        # coarse node I sits on fine node 2I + 1 and the zero boundary on
        # fine nodes -1 and m of each axis: a quadratic vanishing there is
        # reproduced on odd and even axes, the even axis's last interval
        # by its non-uniform end weights
        q = np.outer(boundary_quadratic(mi), boundary_quadratic(mj))
        x = grid_pde._interpolate_cubic(q[1::2, 1::2], mi, mj)
        assert np.max(np.abs(x - q)) <= 4 * grid_pde.EPS64 * np.max(q)

    def test_cubic_error_is_fourth_order(self):
        # on a smooth field that does not vanish on the boundary the error
        # away from it falls by about 2^4 each time the coarse spacing
        # halves
        errors = []
        for m in (31, 63, 127, 255):
            t = np.arange(1, m + 1) / (m + 1)
            f = np.exp(0.6 * t[:, None] + 0.8 * t[None, :]) \
                * np.sin(3.0 * t[:, None] + 1.0)
            x = grid_pde._interpolate_cubic(f[1::2, 1::2], m, m)
            inner = slice(m // 4, m - m // 4)
            errors.append(float(np.max(np.abs(x - f)[inner, inner])))
        ratios = np.divide(errors[:-1], errors[1:])
        assert np.all((14.0 <= ratios) & (ratios <= 17.0))

    def test_cubic_output_and_working_set(self):
        # the result is C-ordered in the coarse array's dtype, and the only
        # array besides it is the half-size one between the axis passes
        # (numpy's ufunc buffers add under 0.1 MB): the traced peak of a
        # solve sits in the full-multigrid pass
        mi, mj = 1023, 1023
        c = np.ones((mi // 2, mj // 2), np.float32)
        grid_pde._interpolate_cubic(c, mi, mj)  # first calls
        tracemalloc.start()
        try:
            x = grid_pde._interpolate_cubic(c, mi, mj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.dtype == np.float32 and x.flags.c_contiguous
        assert np.shares_memory(x, x.ravel())
        assert peak <= 1.6 * x.nbytes

    @pytest.mark.parametrize("special", [False, True])
    def test_correction_casts_the_scaled_residual_as_before(self, special):
        # the residual is scaled in float64 and then cast to float32:
        # entries that fall below float32's normal range become subnormal
        # or zero, and with inf or NaN entries (no scaling) the ones beyond
        # its range overflow
        rng = np.random.default_rng(4)
        resid = (rng.standard_normal(200_000)
                 * 10.0 ** rng.uniform(-60.0, 0.0, 200_000))
        if special:
            resid[::7] *= 1e300
            resid[::89] = math.inf
            resid[::97] = math.nan
        cycles = []

        def cycle(levels, coarsest, rhs):
            cycles.append(rhs)
            return rhs

        with np.errstate(over="ignore", invalid="ignore"):
            corr = grid_pde._correction(cycle, ([], None, 3), resid)
            scale = grid_pde._binary_exponent(resid)
            cast = np.ldexp(resid, -scale).astype(np.float32)
        assert (scale == 0) == special
        assert np.any(np.isinf(cast)) == special
        assert np.any((cast != 0) & (np.abs(cast) < np.finfo(np.float32).tiny))
        assert cycles[0].dtype == np.float32
        assert cycles[0].tobytes() == cast.tobytes()
        assert corr.tobytes() == np.ldexp(cast, scale - 3,
                                          dtype=np.float64).tobytes()


class TestLinearizedApply:
    def test_partial_derivative_solves_linearization(self):
        # g = dv/dx1 satisfies L_v(g) = (p-1) lam v^(p-2) g for exact v
        p, lam = 3.0, 2.0
        gaps = []
        for h in (1 / 16, 1 / 32):
            f = exponential_field(1.0, np.array([1.0, 0.0]), RECT, h)
            g = 1.0 * f.values  # d/dx1 of e^(x1)
            out = _apply_linearized(f.values, g, p, f.h)
            resid = -out + (p - 1) * lam * f.values[1:-1, 1:-1] ** (p - 2) \
                * g[1:-1, 1:-1]
            gaps.append(float(np.max(np.abs(resid))))
        assert gaps[0] / gaps[1] >= 3.0

    def test_field_itself_solves_linearization(self):
        p, lam = 3.0, 2.0
        gaps = []
        for h in (1 / 16, 1 / 32):
            f = exponential_field(1.0, XI, RECT, h)
            out = _apply_linearized(f.values, f.values, p, f.h)
            resid = -out + (p - 1) * lam * f.values[1:-1, 1:-1] ** (p - 1)
            gaps.append(float(np.max(np.abs(resid))))
        assert gaps[0] / gaps[1] >= 3.0

    def test_zero_direction(self):
        f = exponential_field(1.0, XI, RECT, 1 / 8)
        out = _apply_linearized(f.values, np.zeros_like(f.values), 3.0, f.h)
        assert np.max(np.abs(out)) == 0.0

    def test_newton_matrix_matches_apply(self):
        # the assembled stencil and the matrix-free path share one algebra
        rng = np.random.default_rng(3)
        h = 1 / 8
        f = exponential_field(1.0, XI, RECT, h)
        g = np.zeros_like(f.values)
        g[1:-1, 1:-1] = rng.normal(size=g[1:-1, 1:-1].shape)
        p, lam = 3.0, 2.0
        direct = (-_apply_linearized(f.values, g, p, h)
                  + (p - 1) * lam * f.values[1:-1, 1:-1] ** (p - 2)
                  * g[1:-1, 1:-1])
        mat = newton_matrix(f.values, p, lam, h)
        # the matrix numbers interior node (k, l) as k * mj + l
        via_matrix = (mat @ g[1:-1, 1:-1].ravel()).reshape(direct.shape)
        assert np.max(np.abs(direct - via_matrix)) <= 1e-9 * np.max(np.abs(direct))


def no_interior_field(shape):
    """A positive field with fewer than 3 nodes on an axis."""
    return Field2D(h=1 / 8, origin=(0.0, 0.0), values=np.full(shape, 2.5))


class TestGradientLogSup:
    def test_exponential_equality_case(self):
        f = exponential_field(1.0, XI, RECT, 1 / 64)
        assert abs(gradient_log_sup(f) - 1.0) <= 1e-10

    def test_constant(self):
        f = Field2D(h=1 / 8, origin=(0.0, 0.0), values=np.full((9, 9), 2.5))
        assert gradient_log_sup(f) == 0.0

    def test_ratio_path_second_order(self):
        errs = []
        for h in (1 / 16, 1 / 32, 1 / 64):
            f = exponential_field(1.0, XI, RECT, h)
            errs.append(abs(gradient_log_sup(f, via="ratio") - 1.0))
        assert errs[0] / errs[1] >= 3.5
        assert errs[1] / errs[2] >= 3.5

    def test_rejects_unknown_via(self):
        f = exponential_field(1.0, XI, RECT, 1 / 8)
        with pytest.raises(DomainError, match="via must be 'log' or 'ratio'"):
            gradient_log_sup(f, via="exp")

    @pytest.mark.parametrize("shape, via", [((2, 5), "log"), ((1, 1), "log"),
                                            ((5, 2), "ratio")])
    def test_rejects_grid_without_interior(self, shape, via):
        # not numpy's zero-size reduction error
        f = no_interior_field(shape)
        with pytest.raises(DomainError, match=rf"{shape[0]} x {shape[1]} "
                                              "nodes, centred differences"):
            gradient_log_sup(f, via=via)


class TestDirectionalRange:
    def test_aligned(self):
        f = exponential_field(1.0, np.array([0.0, 1.0]), RECT, 1 / 16)
        lo, hi = directional_range(f, [0.0, 1.0])
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        f = exponential_field(1.0, np.array([0.0, 1.0]), RECT, 1 / 16)
        lo, hi = directional_range(f, [1.0, 0.0])
        assert abs(lo) <= 1e-13 and abs(hi) <= 1e-13

    def test_diagonal(self):
        f = exponential_field(1.0, np.array([0.0, 1.0]), RECT, 1 / 16)
        s = math.sqrt(0.5)
        lo, hi = directional_range(f, [s, s])
        assert lo == pytest.approx(s, abs=1e-12)
        assert hi == pytest.approx(s, abs=1e-12)

    @pytest.mark.parametrize("shape", [(2, 5), (1, 1)])
    def test_rejects_grid_without_interior(self, shape):
        with pytest.raises(DomainError, match="need at least 3 per axis"):
            directional_range(no_interior_field(shape), [1.0, 0.0])

    def test_solve_output_range(self):
        params = ProblemParams(n=4, p=3.0, lam=2.0)
        h = 1 / 32
        fld, _ = solve_dirichlet(params, XI, RECT, h, tol=1e-9)
        exact = exponential_field(1.0, XI, RECT, h)
        sup_err = float(np.max(np.abs(fld.values - exact.values)))
        for nu in (XI, np.array([1.0, 0.0]), np.array([-XI[1], XI[0]])):
            lo, hi = directional_range(fld, nu)
            target = float(nu @ XI)
            tol_h = 5.0 * sup_err / h
            assert abs(lo - target) <= tol_h
            assert abs(hi - target) <= tol_h


class TestBochnerResidual:
    def test_exponential_field_near_zero(self):
        # both sides vanish identically; the discrete value is rounding
        # noise from the log/exp round trip amplified by nested stencils
        f = exponential_field(1.0, XI, RECT, 1 / 32)
        assert bochner_residual(f, 3.0, 2.0) <= 1e-8

    def test_p2_oracle_refinement_trend(self):
        resid = [bochner_residual(two_exp_field(h), 2.0, 1.0)
                 for h in (1 / 8, 1 / 16, 1 / 32)]
        assert resid[0] / resid[1] >= 1.5
        assert resid[1] / resid[2] >= 1.5

    @pytest.mark.parametrize("rect", [(0.0, 0.0, 1.0, 1.0),
                                      (0.0, 0.0, 1.5, 1.0)])
    def test_rejects_grid_below_nested_stencil_nodes(self, rect):
        # 5 x 5 and 7 x 5 nodes at h = 0.25: an axis has fewer than 7
        f = exponential_field(1.0, XI, rect, 0.25)
        with pytest.raises(DomainError, match="5 nodes per axis, the checks "
                                              "need at least 7"):
            bochner_residual(f, 3.0, 2.0)

    def test_threshold_masks_everything(self):
        # a flat field has f = 0 at every node, below the 1e-6 * kappa mask
        f = exponential_field(0.0, XI, RECT, 1 / 16)
        assert bochner_residual(f, 3.0, 2.0) == 0.0

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_matches_nan_border_version(self, p):
        # bochner_residual as written before L_w(f) was taken over the
        # interior only: f padded with a NaN border, L_w applied on the
        # whole grid and the border of the result dropped
        def nan_border_residual(field, p, lam):
            v, h = field.values, field.h
            w = -(p - 1.0) * np.log(v)
            wx = (w[2:, 1:-1] - w[:-2, 1:-1]) / (2.0 * h)
            wy = (w[1:-1, 2:] - w[1:-1, :-2]) / (2.0 * h)
            f_int = wx ** 2 + wy ** 2
            f_full = np.full_like(w, np.nan)
            f_full[1:-1, 1:-1] = f_int
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                lhs = _apply_linearized(w, f_full, p, h)[1:-1, 1:-1]
            wxx = (w[2:, 1:-1] - 2.0 * w[1:-1, 1:-1] + w[:-2, 1:-1]) / h ** 2
            wyy = (w[1:-1, 2:] - 2.0 * w[1:-1, 1:-1] + w[1:-1, :-2]) / h ** 2
            wxy = (w[2:, 2:] - w[2:, :-2] - w[:-2, 2:] + w[:-2, :-2]) / (
                4.0 * h ** 2)
            wij2 = (wxx ** 2 + 2.0 * wxy ** 2 + wyy ** 2)[1:-1, 1:-1]
            fx = (f_int[2:, 1:-1] - f_int[:-2, 1:-1]) / (2.0 * h)
            fy = (f_int[1:-1, 2:] - f_int[1:-1, :-2]) / (2.0 * h)
            grad_f2 = fx ** 2 + fy ** 2
            wf_dot = wx[1:-1, 1:-1] * fx + wy[1:-1, 1:-1] * fy
            f = f_int[1:-1, 1:-1]
            mask = f > 1e-6 * kappa(p, lam)
            fm = f[mask]
            rhs = (2.0 * fm ** (p / 2.0 - 1.0) * wij2[mask]
                   + (p / 2.0 - 1.0) * grad_f2[mask] * fm ** (p / 2.0 - 2.0)
                   + p * fm ** (p / 2.0 - 1.0) * wf_dot[mask])
            return float(np.max(np.abs(lhs[mask] - rhs)))

        atoms = [((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0)]
        fields = [(representation_field(atoms, lam, RECT, h), lam)
                  for lam in (1.0, 2.315) for h in (1 / 8, 1 / 32)]
        fields += [(solve_dirichlet(ProblemParams(n=5, p=p, lam=lam), xi,
                                    RECT, 1 / 16, tol=1e-9)[0], lam)
                   for lam, xi in ((0.5, XI), (2.0, np.array([1.0, 0.0])))]
        for field, lam in fields:
            assert bochner_residual(field, p, lam) == nan_border_residual(
                field, p, lam)


class TestKappaBound:
    def test_exact_exponential_saturates(self):
        for p, lam in ((2.0, 1.0), (3.0, 2.0), (1.5, 0.5)):
            alpha = (lam / (p - 1)) ** (1 / p)
            f = exponential_field(alpha, XI, RECT, 1 / 32)
            max_f, kap = kappa_bound_check(f, p, lam)
            assert max_f / kap == pytest.approx(1.0, abs=1e-12)

    def test_constant_below_bound(self):
        f = Field2D(h=1 / 8, origin=(0.0, 0.0), values=np.full((9, 9), 3.0))
        max_f, kap = kappa_bound_check(f, 2.0, 1.0)
        assert max_f == 0.0 and max_f <= kap

    def test_kappa_value_p2(self):
        assert kappa(2.0, 1.0) == 1.0

    @pytest.mark.parametrize("p, lam", [
        (0.5, 1.0), (1.0, 1.0), (math.inf, 1.0), (math.nan, 1.0),
        (2.0, -1.0), (2.0, math.inf), (2.0, math.nan)])
    def test_rejects_p_and_lam_out_of_range(self, p, lam):
        # kappa(0.5, 1) was (4+9.8e-16j) and kappa(2, -1) was -1, and both
        # checks passed such values on
        f = exponential_field(1.0, XI, RECT, 1 / 8)
        for check in (kappa, lambda p, lam: kappa_bound_check(f, p, lam),
                      lambda p, lam: bochner_residual(f, p, lam)):
            with pytest.raises(DomainError, match="kappa needs 1 < p < inf "
                                                  "and 0 <= lam < inf"):
                check(p, lam)

    @pytest.mark.parametrize("shape", [(2, 5), (1, 1)])
    def test_rejects_grid_without_interior(self, shape):
        with pytest.raises(DomainError, match="need at least 3 per axis"):
            kappa_bound_check(no_interior_field(shape), 2.0, 1.0)


class TestExponentialField:
    @pytest.mark.parametrize("rect, how", [
        ((1000.0, 0.0, 1001.0, 1.0), "overflows"),
        ((-1000.0, 0.0, -999.0, 1.0), "underflows to 0"),
    ])
    def test_out_of_range_raises_without_warning(self, rect, how):
        # e^1000 is beyond the largest double and e^-1000 rounds to 0:
        # valid input, so an ArithmeticError that names which, not
        # Field2D's unnamed DomainError after numpy's overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=re.escape(
                    f"field exp(1 <x, xi>) {how} on the rectangle")):
                exponential_field(1.0, [1, 0], rect, 0.5)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_raises(self, alpha):
        with pytest.raises(DomainError, match="rate must be finite"):
            exponential_field(alpha, XI, RECT, 0.25)

    def test_checks_direction_then_grid_then_range(self):
        with pytest.raises(DomainError, match="unit vector"):
            exponential_field(1.0, [1, 1], (0, 0, math.nan, 1), 0.5)
        with pytest.raises(DomainError, match="corners must be finite"):
            exponential_field(1.0, [1, 0], (1000, 0, math.nan, 1), 0.5)

    def test_matches_representation_and_start(self):
        # the three builders of an exponential field agree bit for bit:
        # one atom of weight 1 at sqrt(lam) = 1, and solve_dirichlet's
        # start, returned unchanged when it already meets tol
        f = exponential_field(1.0, XI, RECT, 0.125)
        g = representation_field([(XI, 1.0)], 1.0, RECT, 0.125)
        s, stats = solve_dirichlet(ProblemParams(n=3, p=2.0, lam=1.0), XI,
                                   RECT, 0.125, tol=1.0)
        assert stats.newton_iters == 0
        for other in (g, s):
            assert np.array_equal(other.values, f.values)
            assert (other.h, other.origin) == (f.h, f.origin)


@pytest.mark.parametrize("xi", [[0.0, 0.0, 1.0], [[0.6], [0.8]], [1.0], 1.0],
                         ids=["3-vector", "column", "1-vector", "scalar"])
@pytest.mark.parametrize("call", [
    lambda xi: exponential_field(1.0, xi, RECT, 0.25),
    lambda xi: representation_field([(xi, 1.0)], 1.0, RECT, 0.25),
    lambda xi: solve_dirichlet(ProblemParams(n=4, p=3.0, lam=2.0), xi, RECT,
                               0.25),
    lambda xi: directional_range(exponential_field(1.0, XI, RECT, 0.25), xi),
], ids=["exponential_field", "representation_field", "solve_dirichlet",
        "directional_range"])
def test_grid_direction_has_shape_2(call, xi):
    # each has norm 1, and the grid read its first two coordinates:
    # (0, 0, 1) gave the constant field 1 and a directional range (0, 0)
    with pytest.raises(DomainError,
                       match=r"a grid direction has shape \(2,\)"):
        call(xi)


class TestRepresentationField:
    def test_single_atom(self):
        xi = np.array([1.0, 0.0])
        f = representation_field([(xi, 1.0)], 1.0, RECT, 0.1)
        assert f.values[3, 4] == pytest.approx(math.exp(0.3), rel=1e-15)

    def test_antipodal_pair_solves_p2(self):
        atoms = [(np.array([1.0, 0.0]), 1.0), (np.array([-1.0, 0.0]), 1.0)]
        errs = []
        for h in (1 / 16, 1 / 32):
            f = representation_field(atoms, 1.0, (-0.5, -0.5, 0.5, 0.5), h)
            errs.append(float(np.max(np.abs(p_laplace_residual(f, 2.0, 1.0)))))
        assert errs[0] / errs[1] >= 3.0

    @pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
    def test_rejects_bad_lam(self, lam):
        # lam = -1 once raised a bare math domain error, and NaN or inf
        # a RuntimeWarning before the positivity check of the values
        with pytest.raises(DomainError, match="lam must be finite and >= 0"):
            representation_field([(np.array([1.0, 0.0]), 1.0)], lam, RECT,
                                 0.25)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(DomainError):
            representation_field([(np.array([1.0, 0.0]), -1.0)], 1.0, RECT,
                                 0.25)

    @pytest.mark.parametrize("atoms", [[], [((1.0, 0.0), 0.0)],
                                       [((1.0, 0.0), math.nan)],
                                       [((1.0, 0.0), math.inf)]],
                             ids=["none", "zero", "nan", "inf"])
    def test_rejects_bad_atoms(self, atoms):
        with pytest.raises(DomainError, match="each weight positive and "
                                              "finite"):
            representation_field(atoms, 1.0, RECT, 0.25)

    def test_underflow_raises(self):
        # exp(-1000 x) is 0 in float64 at x = 0.75 and 1: valid input whose
        # values leave the double range, named rather than rejected by
        # Field2D as non-positive
        with pytest.raises(OverflowError, match=re.escape(
                "field exp(1000 <x, xi>) underflows to 0")):
            representation_field([((-1.0, 0.0), 1.0)], 1e6, RECT, 0.25)

    def test_overflow_raises_without_warning(self):
        # e^1000 is beyond the largest double: valid input, so an
        # ArithmeticError rather than a DomainError, and numpy stays quiet
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=re.escape(
                    "field exp(1000 <x, xi>) overflows")):
                representation_field(cli.BOCHNER_ATOMS, 1e6, RECT, 0.25)
