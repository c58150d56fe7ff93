import math
import re
import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu, spsolve

from plap import grid_pde
from plap.errors import DomainError, NoConvergence
from plap.grid_pde import (Field2D, _apply_linearized, _dissection_rank,
                           _newton_matrix, bochner_residual, directional_range,
                           exponential_field, field_from_values,
                           gradient_log_sup, kappa, kappa_bound_check,
                           p_laplace_residual, read_field_plf2,
                           representation_field, representation_quadrature,
                           solve_dirichlet, write_field_csv, write_field_plf2)
from plap.indicial import ProblemParams, eigen_rate_alpha

RECT = (0.0, 0.0, 1.0, 1.0)
XI = np.array([0.6, 0.8])


def two_exp_field(h, lam=1.0):
    """e^(a x) + e^(a y) with a = sqrt(lam): exact p=2 eigenfield."""
    a = math.sqrt(lam)
    x = np.arange(int(round(1 / h)) + 1) * h
    vals = np.exp(a * x)[:, None] + np.exp(a * x)[None, :]
    return field_from_values(vals, RECT, h)


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
            Field2D(nx=3, ny=3, h=0.5, origin=(0, 0), values=np.zeros((3, 3)))
        with pytest.raises(DomainError):
            Field2D(nx=3, ny=3, h=-0.5, origin=(0, 0), values=np.ones((3, 3)))
        with pytest.raises(DomainError):
            Field2D(nx=4, ny=3, h=0.5, origin=(0, 0), values=np.ones((3, 3)))

    def test_coords(self):
        f = exponential_field(1.0, XI, RECT, 0.25)
        assert np.allclose(f.x_coords(), [0, 0.25, 0.5, 0.75, 1.0])

    def test_plf2_roundtrip(self, tmp_path):
        f = exponential_field(1.3, XI, RECT, 1 / 8)
        path = tmp_path / "field.plf2"
        write_field_plf2(f, path)
        g = read_field_plf2(path)
        assert g.nx == f.nx and g.ny == f.ny and g.h == f.h
        assert g.origin == f.origin
        assert np.array_equal(g.values, f.values)

    def test_plf2_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.plf2"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(DomainError):
            read_field_plf2(path)

    def test_csv_layout(self, tmp_path):
        f = exponential_field(1.0, XI, RECT, 0.5)
        path = tmp_path / "field.csv"
        write_field_csv(f, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# nx=3 ny=3")
        assert lines[1] == "x,y,v"
        assert len(lines) == 2 + 9


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
        f = field_from_values(np.ones((9, 9)), RECT, 1 / 8)
        resid = p_laplace_residual(f, 3.0, 0.0)
        assert np.max(np.abs(resid)) == 0.0


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

    def test_no_convergence_with_one_iteration(self):
        params = ProblemParams(n=4, p=3.0, lam=2.0)
        with pytest.raises(NoConvergence):
            solve_dirichlet(params, XI, RECT, 1 / 16, tol=1e-12, max_iters=1)

    @pytest.mark.parametrize("lam, xi, message", [
        # alpha = 678.6: exp(alpha <x, xi>) overflows where <x, xi> > 1.05
        (500.0, XI, "boundary data exp(678.604 <x, xi>) overflows"),
        # finite data up to e^678.6, but |grad v|^2 overflows
        (500.0, [1.0, 0.0], "initial residual is inf"),
        (300.0, XI, "initial residual is inf"),
    ])
    def test_non_finite_data_raises(self, lam, xi, message):
        # a NaN residual fails `res > tol`, so the solve once returned the
        # overflowed field as converged after 0 iterations
        params = ProblemParams(n=3, p=1.2, lam=lam)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=re.escape(message)):
                solve_dirichlet(params, xi, RECT, 0.125)

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


def natural_newton_matrix(v, p, lam, h, eps, monkeypatch):
    """_newton_matrix with interior node (k, l) numbered k * mj + l."""
    with monkeypatch.context() as m:
        m.setattr(grid_pde, "_dissection_rank",
                  lambda mi, mj: np.arange(mi * mj).reshape(mi, mj))
        return _newton_matrix(v, p, lam, h, eps)


class SpyLU:
    """Stands in for grid_pde.splu: counts factorizations and keeps the
    vector each factor's solve returns."""

    def __init__(self):
        self.calls = 0
        self.solutions = []

    def __call__(self, mat, **kwargs):
        self.calls += 1
        lu = splu(mat, **kwargs)
        spy = self

        class Factor:
            def solve(self, rhs):
                out = lu.solve(rhs)
                spy.solutions.append(out)
                return out

        return Factor()


class TestDissectionOrder:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (2, 3), (7, 7),
                                       (31, 63), (255, 255)])
    def test_rank_is_a_bijection(self, shape):
        rank = _dissection_rank(*shape)
        assert rank.shape == shape
        assert not rank.flags.writeable
        assert np.array_equal(np.sort(rank.ravel()),
                              np.arange(shape[0] * shape[1]))

    def test_matrix_is_symmetric_permutation_of_natural(self, monkeypatch):
        h, rect = 1 / 8, (0.0, 0.0, 2.0, 1.0)
        v = exponential_field(1.0, XI, rect, h).values
        v = v * (1.0 + 0.1 * np.random.default_rng(5).random(v.shape))
        p, lam, eps = 3.0, 2.0, 1e-8
        natural = natural_newton_matrix(v, p, lam, h, eps, monkeypatch)
        dissected = _newton_matrix(v, p, lam, h, eps)
        # natural row k * mj + l is dissected row rank[k, l]
        old_of_new = np.argsort(_dissection_rank(15, 7).ravel())
        permuted = natural[old_of_new][:, old_of_new]
        assert dissected.shape == permuted.shape == (105, 105)
        assert (dissected != permuted).nnz == 0

    def test_newton_step_matches_natural_spsolve(self, monkeypatch):
        # one step on a non-square rectangle against the natural-order
        # Jacobian solved by spsolve
        params = ProblemParams(n=4, p=3.0, lam=2.0)
        h, rect = 1 / 32, (0.0, 0.0, 2.0, 1.0)
        alpha = eigen_rate_alpha(params.lam, params.p)
        start = exponential_field(alpha, XI, rect, h)
        eps = 1e-8 * alpha * float(start.values.max())
        resid = p_laplace_residual(start, params.p, params.lam, eps)
        mat = natural_newton_matrix(start.values, params.p, params.lam, h,
                                    eps, monkeypatch)
        expected = spsolve(mat.tocsr(), -resid.ravel()).reshape(resid.shape)
        spy = SpyLU()
        monkeypatch.setattr(grid_pde, "splu", spy)
        fld, stats = solve_dirichlet(params, XI, rect, h, tol=1e-6,
                                     max_iters=1)
        assert (stats.newton_iters, stats.damping_events) == (1, 0)
        step = spy.solutions[0][_dissection_rank(*resid.shape)]
        assert np.max(np.abs(step - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert np.array_equal(fld.values[1:-1, 1:-1],
                              start.values[1:-1, 1:-1] + step)

    def test_splu_called_once_per_newton_step(self, monkeypatch):
        # the benchmark's tracer times grid_pde.splu by rebinding that name
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


class TestLinearizedApply:
    def test_partial_derivative_solves_linearization(self):
        # g = dv/dx1 satisfies L_v(g) = (p-1) lam v^(p-2) g for exact v
        p, lam = 3.0, 2.0
        gaps = []
        for h in (1 / 16, 1 / 32):
            f = exponential_field(1.0, np.array([1.0, 0.0]), RECT, h)
            g = 1.0 * f.values  # d/dx1 of e^(x1)
            out = _apply_linearized(f.values, g, p, f.h, 0.0)
            resid = -out + (p - 1) * lam * f.values[1:-1, 1:-1] ** (p - 2) \
                * g[1:-1, 1:-1]
            gaps.append(float(np.max(np.abs(resid))))
        assert gaps[0] / gaps[1] >= 3.0

    def test_field_itself_solves_linearization(self):
        p, lam = 3.0, 2.0
        gaps = []
        for h in (1 / 16, 1 / 32):
            f = exponential_field(1.0, XI, RECT, h)
            out = _apply_linearized(f.values, f.values, p, f.h, 0.0)
            resid = -out + (p - 1) * lam * f.values[1:-1, 1:-1] ** (p - 1)
            gaps.append(float(np.max(np.abs(resid))))
        assert gaps[0] / gaps[1] >= 3.0

    def test_zero_direction(self):
        f = exponential_field(1.0, XI, RECT, 1 / 8)
        out = _apply_linearized(f.values, np.zeros_like(f.values), 3.0, f.h, 0.0)
        assert np.max(np.abs(out)) == 0.0

    def test_newton_matrix_matches_apply(self):
        # the assembled stencil and the matrix-free path share one algebra
        rng = np.random.default_rng(3)
        h = 1 / 8
        f = exponential_field(1.0, XI, RECT, h)
        g = np.zeros_like(f.values)
        g[1:-1, 1:-1] = rng.normal(size=g[1:-1, 1:-1].shape)
        p, lam, eps = 3.0, 2.0, 1e-8
        direct = (-_apply_linearized(f.values, g, p, h, eps)
                  + (p - 1) * lam * f.values[1:-1, 1:-1] ** (p - 2)
                  * g[1:-1, 1:-1])
        mat = _newton_matrix(f.values, p, lam, h, eps)
        # the matrix numbers interior node (k, l) as rank[k, l]
        rank = _dissection_rank(*direct.shape)
        vec = np.empty(direct.size)
        vec[rank] = g[1:-1, 1:-1]
        via_matrix = (mat @ vec)[rank]
        assert np.max(np.abs(direct - via_matrix)) <= 1e-9 * np.max(np.abs(direct))


class TestGradientLogSup:
    def test_exponential_equality_case(self):
        f = exponential_field(1.0, XI, RECT, 1 / 64)
        assert abs(gradient_log_sup(f) - 1.0) <= 1e-10

    def test_constant(self):
        f = field_from_values(np.full((9, 9), 2.5), RECT, 1 / 8)
        assert gradient_log_sup(f) == 0.0

    def test_ratio_path_second_order(self):
        errs = []
        for h in (1 / 16, 1 / 32, 1 / 64):
            f = exponential_field(1.0, XI, RECT, h)
            errs.append(abs(gradient_log_sup(f, via="ratio") - 1.0))
        assert errs[0] / errs[1] >= 3.5
        assert errs[1] / errs[2] >= 3.5


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

    def test_threshold_masks_everything(self):
        f = exponential_field(1.0, XI, RECT, 1 / 16)
        assert bochner_residual(f, 3.0, 2.0, threshold=1e9) == 0.0


class TestKappaBound:
    def test_exact_exponential_saturates(self):
        for p, lam in ((2.0, 1.0), (3.0, 2.0), (1.5, 0.5)):
            alpha = (lam / (p - 1)) ** (1 / p)
            f = exponential_field(alpha, XI, RECT, 1 / 32)
            max_f, kap = kappa_bound_check(f, p, lam)
            assert max_f / kap == pytest.approx(1.0, abs=1e-12)

    def test_constant_below_bound(self):
        f = field_from_values(np.full((9, 9), 3.0), RECT, 1 / 8)
        max_f, kap = kappa_bound_check(f, 2.0, 1.0)
        assert max_f == 0.0 and max_f <= kap

    def test_kappa_value_p2(self):
        assert kappa(2.0, 1.0) == 1.0


class TestRepresentationQuadrature:
    def test_single_atom(self):
        xi = np.array([1.0, 0.0])
        val = representation_quadrature([(xi, 1.0)], 1.0, [0.3, 0.4])
        assert val == pytest.approx(math.exp(0.3), rel=1e-15)

    def test_antipodal_pair_solves_p2(self):
        atoms = [(np.array([1.0, 0.0]), 1.0), (np.array([-1.0, 0.0]), 1.0)]
        errs = []
        for h in (1 / 16, 1 / 32):
            f = representation_field(atoms, 1.0, (-0.5, -0.5, 0.5, 0.5), h)
            errs.append(float(np.max(np.abs(p_laplace_residual(f, 2.0, 1.0)))))
        assert errs[0] / errs[1] >= 3.0

    def test_empty_atoms_warns(self):
        with pytest.warns(UserWarning):
            val = representation_quadrature([], 1.0, [0.0, 0.0])
        assert val == 0.0

    def test_rejects_p_not_2(self):
        with pytest.raises(DomainError):
            representation_quadrature([(np.array([1.0, 0.0]), 1.0)], 1.0,
                                      [0.0, 0.0], p=3.0)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(DomainError):
            representation_quadrature([(np.array([1.0, 0.0]), -1.0)], 1.0,
                                      [0.0, 0.0])
