"""Operator assembly, exact eigenvalue counting, Green solves, log-field algebra.

The eigvalsh-based count is the oracle for the eigenvalue counter; assembly
is pinned against hand-computed matrices; the walk expansion and the
boundary-correction identity cross-check the solve-based Green function.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rsolab.field import BetaField, exact_field, sample_beta_batch
from rsolab.graphs import WeightedGraph, build_box, build_grid
from rsolab.operators import (
    DENSE_CUTOFF,
    GREEN_RESIDUAL_TOL,
    MATRIX_DUMP_HEADER,
    FactorizationError,
    OperatorMatrix,
    assemble,
    beta_from_u,
    count_eigenvalues_leq,
    count_eigenvalues_many,
    dump_matrix,
    finite_volume_ids,
    green_column,
    green_matrix,
    operator_from_two_beta,
    path_sum_green,
    resolvent_identity_residual,
    schur_y_and_a,
    sturm_counts_batch,
    u_field,
)
from rsolab.rng import philox_stream


def count_oracle(dense: np.ndarray, energy: float) -> int:
    """Independent count via full diagonalization (<= semantics)."""
    return int(np.sum(np.linalg.eigvalsh(dense) <= energy))


def path_field(n: int, w: float, beta_value: float, boundary="wired") -> BetaField:
    g = build_grid((n,), w, boundary=boundary)
    return BetaField(graph=g, beta=np.full(n, beta_value))


class TestAssembly:
    def test_simple_three_path(self):
        f = path_field(3, 1.0, 1.0)
        m = assemble(f, bc="simple")
        assert np.array_equal(m.diag, [2.0, 2.0, 2.0])
        assert np.array_equal(m.offdiag, [-1.0, -1.0])
        want = np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], dtype=float)
        assert np.array_equal(m.to_dense(), want)

    def test_dirichlet_adds_missing_neighbor_weight(self):
        # endpoints of a 1d path miss one of their 2d = 2 lattice neighbors
        f = path_field(3, 1.0, 1.0)
        m = assemble(f, bc="dirichlet")
        assert np.array_equal(m.diag, [3.0, 2.0, 3.0])
        assert np.array_equal(m.offdiag, [-1.0, -1.0])

    def test_scaled_divides_by_weight(self):
        f = path_field(3, 2.0, 1.5)
        m = assemble(f, bc="simple", scaled=True)
        assert np.allclose(m.diag, 1.5)
        assert np.allclose(m.offdiag, -1.0)

    def test_matvec_matches_dense(self):
        g = build_grid((3, 3), 0.7)
        f = exact_field(g, philox_stream(5))
        m = assemble(f)
        rng = np.random.default_rng(0)
        x = rng.normal(size=g.n_vertices)
        assert np.allclose(m.matvec(x), m.to_dense() @ x, atol=1e-12)

    def test_rejects_bad_inputs(self):
        g = build_grid((3,), 1.0)
        with pytest.raises(ValueError):
            operator_from_two_beta(g, np.ones(2))
        with pytest.raises(ValueError):
            operator_from_two_beta(g, np.ones(3), bc="periodic")
        hand = WeightedGraph(2, np.array([[0, 1]]), np.array([1.0]), np.zeros(2))
        with pytest.raises(ValueError):
            operator_from_two_beta(hand, np.ones(2), bc="dirichlet")

    def test_tridiagonal_requires_path(self):
        g = build_grid((2, 2), 1.0)
        m = assemble(exact_field(g, philox_stream(0)))
        with pytest.raises(ValueError):
            _ = m.tridiagonal

    def test_arrays_read_only(self):
        m = assemble(path_field(3, 1.0, 1.0))
        with pytest.raises(ValueError):
            m.diag[0] = 5.0

    def test_tilted_fields_accepted(self):
        # two_beta may be nonpositive: the assembly must not require positivity
        g = build_grid((3,), 1.0)
        m = operator_from_two_beta(g, np.array([0.0, -1.0, 2.0]))
        assert np.array_equal(m.diag, [0.0, -1.0, 2.0])


class TestCounting:
    def test_tie_counted_as_leq(self):
        # 2-path, beta = 1: eigenvalues exactly {1, 3}
        m = assemble(path_field(2, 1.0, 1.0, boundary="zero"))
        assert count_eigenvalues_leq(m, 1.0) == 1
        assert count_eigenvalues_leq(m, 1.0 - 1e-9) == 0
        assert count_eigenvalues_leq(m, 3.0) == 2
        assert count_eigenvalues_leq(m, 0.0) == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_methods_agree_with_oracle_on_paths(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        w = float(rng.uniform(0.2, 3.0))
        g = build_grid((n,), w, boundary="wired")
        beta = sample_beta_batch(g, 1, philox_stream(seed + 100))[0]
        m = assemble(BetaField(graph=g, beta=beta))
        dense = m.to_dense()
        for energy in rng.uniform(-1.0, 8.0, size=5):
            assert count_eigenvalues_leq(m, energy) == count_oracle(dense, energy)

    @pytest.mark.parametrize("seed", range(4))
    def test_methods_agree_with_oracle_on_grids(self, seed):
        rng = np.random.default_rng(seed + 50)
        shape = tuple(rng.integers(2, 5, size=2))
        g = build_grid(shape, float(rng.uniform(0.3, 2.0)))
        beta = sample_beta_batch(g, 1, philox_stream(seed + 200))[0]
        m = assemble(BetaField(graph=g, beta=beta))
        dense = m.to_dense()
        for energy in rng.uniform(-1.0, 8.0, size=5):
            assert count_eigenvalues_leq(m, energy) == count_oracle(dense, energy)

    def test_many_matches_scalar(self):
        g = build_grid((3, 3), 1.0)
        m = assemble(exact_field(g, philox_stream(7)))
        energies = np.linspace(-0.5, 9.0, 13)
        many = count_eigenvalues_many(m, energies)
        scalar = [count_eigenvalues_leq(m, e) for e in energies]
        assert np.array_equal(many, scalar)
        assert np.all(np.diff(many) >= 0)  # counting function is nondecreasing

    def test_batch_sturm_matches_eigvalsh(self):
        n, b = 12, 7
        g = build_grid((n,), 1.0)
        betas = sample_beta_batch(g, b, philox_stream(11))
        energies = np.array([0.1, 1.0, 2.5, 4.0])
        off = -g.weights
        counts = sturm_counts_batch(2.0 * betas, off, energies)
        assert counts.shape == (b, energies.size)
        for k in range(b):
            dense = assemble(BetaField(graph=g, beta=betas[k])).to_dense()
            for c, e in zip(counts[k], energies):
                assert c == count_oracle(dense, e)

    def test_dirichlet_counts_never_exceed_simple(self):
        # the Dirichlet correction adds a nonnegative diagonal, pushing every
        # eigenvalue up, so its counting function sits below the simple one
        g = build_box(2, 2, w=1.0, boundary="wired")
        betas = sample_beta_batch(g, 20, philox_stream(23))
        energies = np.linspace(0.0, 6.0, 7)
        for beta in betas:
            f = BetaField(graph=g, beta=beta)
            ns = count_eigenvalues_many(assemble(f, bc="simple"), energies)
            nd = count_eigenvalues_many(assemble(f, bc="dirichlet"), energies)
            assert np.all(nd <= ns)

    def test_finite_volume_ids_normalization(self):
        m = assemble(path_field(5, 1.0, 1.0))
        assert finite_volume_ids(m, -1.0) == 0.0
        assert finite_volume_ids(m, 100.0) == 1.0
        mid = finite_volume_ids(m, 2.0)
        assert 0.0 <= mid <= 1.0
        assert mid == count_eigenvalues_leq(m, 2.0) / 5


class TestGreen:
    def test_green_column_residual(self):
        g = build_grid((4, 4), 1.0)
        f = exact_field(g, philox_stream(13))
        m = assemble(f)
        for j in (0, 7, 15):
            col = green_column(m, j)
            e = np.zeros(g.n_vertices)
            e[j] = 1.0
            assert np.max(np.abs(m.matvec(col) - e)) <= GREEN_RESIDUAL_TOL

    def test_green_matrix_is_inverse(self):
        g = build_grid((3, 3), 0.5)
        m = assemble(exact_field(g, philox_stream(17)))
        gm = green_matrix(m)
        assert np.allclose(gm, gm.T, atol=0)
        assert np.max(np.abs(m.to_dense() @ gm - np.eye(m.n))) < 1e-9

    def test_banded_path_solve_beyond_dense_cutoff(self):
        n = DENSE_CUTOFF + 16
        g = build_grid((n,), 1.0, boundary="zero", max_vertices=n)
        m = assemble(BetaField(graph=g, beta=np.ones(n)))
        col = green_column(m, n // 2)
        e = np.zeros(n)
        e[n // 2] = 1.0
        assert np.max(np.abs(m.matvec(col) - e)) <= GREEN_RESIDUAL_TOL

    def test_not_positive_definite_raises(self):
        g = build_grid((2,), 4.0, boundary="zero")
        m = assemble(BetaField(graph=g, beta=np.array([0.5, 0.5])))
        with pytest.raises(FactorizationError):
            green_matrix(m)
        with pytest.raises(FactorizationError):
            green_column(m, 0)
        # a path longer than the dense cutoff fails with the same error type
        n = DENSE_CUTOFF + 16
        g = build_grid((n,), 4.0, boundary="zero", max_vertices=n)
        m = assemble(BetaField(graph=g, beta=np.full(n, 0.5)))
        with pytest.raises(FactorizationError):
            green_column(m, n // 2)

    def test_column_index_validated(self):
        m = assemble(path_field(3, 1.0, 1.0))
        with pytest.raises(ValueError):
            green_column(m, 3)


class TestLogField:
    def test_round_trip(self):
        g = build_grid((3, 3), 1.0, boundary="wired")
        f = exact_field(g, philox_stream(19))
        u = u_field(f)
        assert np.max(np.abs(beta_from_u(u, g) - f.beta)) < 1e-10

    def test_requires_boundary_mass(self):
        g = build_grid((3,), 1.0, boundary="zero")
        f = BetaField(graph=g, beta=np.ones(3))
        with pytest.raises(ValueError):
            u_field(f)

    def test_beta_from_u_shape_check(self):
        g = build_grid((3,), 1.0)
        with pytest.raises(ValueError):
            beta_from_u(np.zeros(2), g)

    def test_single_vertex_closed_form(self):
        # one wired vertex with eta = a: 2 beta = a e^{-u}, e^u = a / (2 beta)
        g = WeightedGraph(1, np.empty((0, 2), dtype=np.int64), np.empty(0), np.array([1.5]))
        f = BetaField(graph=g, beta=np.array([0.8]))
        u = u_field(f)
        assert abs(u[0] - math.log(1.5 / 1.6)) < 1e-12


class TestSchur:
    def test_two_routes_agree_and_match_green(self):
        g = build_grid((3, 3), 1.0, boundary="wired")
        f = exact_field(g, philox_stream(29))
        gm = green_matrix(assemble(f))
        for j in (0, 4, 8):
            y, a = schur_y_and_a(f, j)  # raises internally if routes disagree
            assert abs(y - 1.0 / gm[j, j]) < 1e-9
            assert abs(a - float(gm[j] @ g.eta) / gm[j, j]) < 1e-9 * max(1.0, abs(a))

    def test_single_vertex(self):
        g = WeightedGraph(1, np.empty((0, 2), dtype=np.int64), np.empty(0), np.array([2.0]))
        f = BetaField(graph=g, beta=np.array([0.9]))
        y, a = schur_y_and_a(f, 0)
        assert abs(y - 1.8) < 1e-12
        assert abs(a - 2.0) < 1e-12


class TestPathSumGreen:
    @pytest.mark.parametrize("i,j", [(0, 0), (0, 2), (1, 1)])
    def test_converges_to_solve(self, i, j):
        g = build_grid((3,), 0.5, boundary="wired")
        f = BetaField(graph=g, beta=np.ones(3))
        gm = green_matrix(assemble(f))
        val = path_sum_green(g, f.beta, i, j, max_len=120)
        assert abs(val - gm[i, j]) < 1e-8

    def test_truncation_error_decreases(self):
        g = build_grid((3,), 0.8, boundary="wired")
        f = exact_field(g, philox_stream(31))
        gm = green_matrix(assemble(f))
        errs = [abs(path_sum_green(g, f.beta, 0, 2, max_len=m) - gm[0, 2]) for m in (10, 40, 160, 640)]
        assert errs[-1] <= errs[0]
        assert errs[-1] < 1e-8


class TestResolventIdentity:
    @pytest.mark.parametrize("seed,d,half", [(0, 1, 6), (1, 2, 2), (2, 2, 3)])
    def test_residual_tiny(self, seed, d, half):
        g = build_box(d, half, w=1.0, boundary="wired")
        f = exact_field(g, philox_stream(seed + 300))
        assert resolvent_identity_residual(f) < 1e-10


class TestDump:
    def test_dump_matches_dense(self):
        m = assemble(path_field(3, 1.0, 1.25))
        text = dump_matrix(m)
        lines = text.strip().split("\n")
        assert lines[0] == MATRIX_DUMP_HEADER
        dense = np.zeros((3, 3))
        for line in lines[1:]:
            i, j, v = line.split()
            dense[int(i), int(j)] = float(v)
            dense[int(j), int(i)] = float(v)
        assert np.array_equal(dense, m.to_dense())


class TestOperatorMatrixValidation:
    def test_shape_mismatches(self):
        g = build_grid((3,), 1.0)
        with pytest.raises(ValueError):
            OperatorMatrix(g, np.ones(2), -g.weights, "simple", False, 1.0)
        with pytest.raises(ValueError):
            OperatorMatrix(g, np.ones(3), -np.ones(3), "simple", False, 1.0)


@given(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 24),
    energy=st.floats(min_value=-2.0, max_value=10.0),
)
def test_counting_methods_always_agree(seed, n, energy):
    g = build_grid((n,), 1.0, boundary="wired")
    beta = sample_beta_batch(g, 1, philox_stream(seed))[0]
    m = assemble(BetaField(graph=g, beta=beta))
    assert count_eigenvalues_leq(m, energy) == count_oracle(m.to_dense(), energy)


@given(seed=st.integers(0, 2**16))
def test_green_diag_positive(seed):
    g = build_grid((2, 2), 1.0, boundary="wired")
    f = exact_field(g, philox_stream(seed))
    gm = green_matrix(assemble(f))
    assert np.all(np.diag(gm) > 0)
