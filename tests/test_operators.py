"""Operator assembly, exact eigenvalue counting, Green solves, log-field algebra.

The eigvalsh-based count is the oracle for the eigenvalue counter; assembly
is pinned against hand-computed matrices; the walk expansion and the
boundary-correction identity cross-check the solve-based Green function.
The log-field, Schur, walk-expansion and boundary-identity oracles live in
``tests/oracles.py``, since no command runs them.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rsolab import operators
from rsolab.field import BetaField, exact_field, fresh_green, log_density, sample_beta_batch
from rsolab.graphs import DENSE_MAX, WeightedGraph, build_box, build_grid
from rsolab.operators import (
    BAND_COUNT_MAX,
    GREEN_RESIDUAL_TOL,
    PIVMIN,
    FactorizationError,
    OperatorMatrix,
    assemble,
    count_eigenvalues_leq,
    count_eigenvalues_many,
    green_column,
    operator_from_two_beta,
    sturm_counts_batch,
    _band_counts,
    _superlu_counts,
)
from rsolab.rng import philox_stream

from oracles import beta_from_u, path_sum_green, resolvent_identity_residual, schur_y_and_a, u_field


def count_oracle(dense: np.ndarray, energy: float) -> int:
    """Independent count via full diagonalization (<= semantics)."""
    return int(np.sum(np.linalg.eigvalsh(dense) <= energy))


def frozen_sturm_counts(diag: np.ndarray, off: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """Frozen copy of ``sturm_counts_batch`` as it was before the in-place sweep."""
    diag = np.asarray(diag, dtype=float)
    energies = np.asarray(energies, dtype=float).reshape(-1)
    off = np.asarray(off, dtype=float)
    b, n = diag.shape
    q = diag[:, 0, None] - energies[None, :]
    q = np.where(np.abs(q) < PIVMIN, -PIVMIN, q)
    counts = (q < 0).astype(np.int64)
    for k in range(1, n):
        o2 = off[k - 1] * off[k - 1]
        q = (diag[:, k, None] - energies[None, :]) - o2 / q
        q = np.where(np.abs(q) < PIVMIN, -PIVMIN, q)
        counts += q < 0
    return counts


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

    @pytest.mark.filterwarnings("error")  # an unreplaced zero pivot divides by zero
    @pytest.mark.parametrize("off_ndim", [1], ids=["shared-off"])  # one (n-1,) vector for the batch
    def test_batch_sturm_matches_frozen_reference(self, off_ndim):
        rng = np.random.default_rng(17)
        b, n = 9, 60
        energies = np.linspace(-1.0, 5.0, 7)  # -1, 0, 1, ..., 5: all exact
        diag = rng.uniform(0.0, 4.0, size=(b, n))
        off = -rng.uniform(0.2, 1.5, size=(n - 1,) * off_ndim)
        # exact zero pivots, replaced by -PIVMIN: at site 0 of sample 0 for
        # E = 2, and at site 1 of sample 1 for E = 1, where
        # q_1 = (1.5 - 1) - 1^2 / (3 - 1) = 0
        diag[0, 0] = 2.0
        diag[1, :2] = [3.0, 1.5]
        off[0] = -1.0
        assert diag[0, 0] - energies[3] == 0.0
        assert (diag[1, 1] - energies[2]) - 1.0 / (diag[1, 0] - energies[2]) == 0.0
        counts = sturm_counts_batch(diag, off, energies)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, frozen_sturm_counts(diag, off, energies))

    def test_non_path_tie_raises(self):
        # 2x2 zero-boundary box (a 4-cycle), beta = 1: H = 2 - A has the
        # eigenvalues {0, 2, 2, 4}; H - E is singular at each of them, and at
        # E = 2 its diagonal is zero too
        g = build_grid((2, 2), 1.0, boundary="zero")
        m = assemble(BetaField(graph=g, beta=np.ones(4)))
        for energy in (0.0, 2.0, 4.0):
            with pytest.raises(FactorizationError, match="singular"):
                count_eigenvalues_leq(m, energy)
        assert list(count_eigenvalues_many(m, [-1e-9, 1e-9, 2.0 - 1e-9, 2.0 + 1e-9, 5.0])) == [0, 1, 1, 3, 4]

    def test_non_path_zero_diagonal_raises(self):
        # 2x3 zero-boundary box, beta = 1: H - 2 = -A is invertible but has a
        # zero diagonal, so its LDL^T needs a row interchange
        g = build_grid((2, 3), 1.0, boundary="zero")
        m = assemble(BetaField(graph=g, beta=np.ones(6)))
        assert np.min(np.abs(np.linalg.eigvalsh(m.to_dense()) - 2.0)) > 0.4
        with pytest.raises(FactorizationError, match="row interchange"):
            count_eigenvalues_many(m, [1.5, 2.0])

    def test_graphs_without_edges(self):
        empty = np.empty((0, 2), dtype=np.int64)
        one = WeightedGraph(1, empty, np.empty(0), np.zeros(1))
        m = operator_from_two_beta(one, np.array([0.5]))
        assert list(count_eigenvalues_many(m, [0.0, 0.5, 1.0])) == [0, 1, 1]
        isolated = WeightedGraph(3, empty, np.empty(0), np.zeros(3))
        assert not isolated.is_path
        m = operator_from_two_beta(isolated, np.array([0.5, -1.0, 2.0]))
        energies = [-2.0, -0.5, 0.75, 1.0, 3.0]
        want = [count_oracle(m.to_dense(), e) for e in energies]
        assert list(count_eigenvalues_many(m, energies)) == want == [0, 1, 2, 2, 3]

    @pytest.mark.parametrize("half_side,samples", [(5, 3), (7, 1)])
    def test_3d_box_matches_oracle(self, half_side, samples):
        # strong disorder (W = 0.05): the scaled Dirichlet operator has a
        # few eigenvalues in the Lifshitz-tail window [1e-3, 0.1]
        w = 0.05
        g = build_box(3, half_side, w=w, boundary="wired")
        energies = np.geomspace(1e-3, 0.1, 8)
        total = 0
        for beta in sample_beta_batch(g, samples, philox_stream(41 + half_side)):
            m = operator_from_two_beta(g, 2.0 * beta, bc="dirichlet", scaled=True, w=w)
            eigs = np.linalg.eigvalsh(m.to_dense())
            counts = count_eigenvalues_many(m, energies)
            assert np.array_equal(counts, np.searchsorted(eigs, energies, side="right"))
            total += int(counts[-1])
        assert total > 0

    def test_counts_beyond_the_dense_limit(self):
        # a 2100 x 2 ladder has n = 4200 > DENSE_MAX; its counts rise from 0
        # below every Gershgorin disc to n above all of them
        g = build_grid((2100, 2), 1.0, boundary="wired")
        assert not g.is_path and g.n_vertices > DENSE_MAX
        beta = sample_beta_batch(g, 1, philox_stream(67))[0]
        m = assemble(BetaField(graph=g, beta=beta))
        lo, hi = m.diag - g.degree_w, m.diag + g.degree_w
        energies = np.concatenate(([lo.min() - 1e-3], np.linspace(lo.min(), hi.max(), 9), [hi.max() + 1e-3]))
        counts = count_eigenvalues_many(m, energies)
        assert counts[0] == 0 and counts[-1] == g.n_vertices
        assert np.all(np.diff(counts) >= 0)
        assert 0 < counts[4] < g.n_vertices

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

    @pytest.mark.parametrize("bc", ["simple", "dirichlet"])
    @pytest.mark.parametrize("d,half_side", [(2, 2), (2, 4), (2, 8), (3, 1)])
    def test_band_counts_match_oracle_and_superlu(self, d, half_side, bc):
        # the boxes the band sweep counts, b = 5, 9, 17 and 9, on the scaled
        # operator of estimate_ids, at energies from below its spectrum to
        # above it and on ids_box's grid
        w = 1.0
        g = build_box(d, half_side, w=w, boundary="wired")
        assert not g.is_path and g.bandwidth <= BAND_COUNT_MAX
        energies = np.concatenate((np.geomspace(0.05, 1.0, 10), np.linspace(-1.0, 4 * d + 4, 13)))
        for beta in sample_beta_batch(g, 3, philox_stream(59 + half_side)):
            m = operator_from_two_beta(g, 2.0 * beta, bc=bc, scaled=True, w=w)
            band, suspect = _band_counts(g, m.diag[None, :], m.offdiag, energies)
            dense = m.to_dense()
            want = [count_oracle(dense, e) for e in energies]
            assert not suspect.any()
            assert list(band) == list(_superlu_counts(m, energies)) == want
            assert list(count_eigenvalues_many(m, energies)) == want

    def test_band_counts_do_not_depend_on_the_chunking(self, monkeypatch):
        # three samples x ten energies are 30 lanes, in one chunk at the
        # slice budget and in chunks of 7 lanes below it
        g = build_box(2, 4, w=1.0, boundary="wired")
        diag = 2.0 * sample_beta_batch(g, 3, philox_stream(61))
        off = -g.weights
        energies = np.linspace(0.0, 8.0, 10)
        whole = _band_counts(g, diag, off, energies)
        n, b = g.n_vertices, g.bandwidth
        monkeypatch.setattr(operators, "SLICE_SCALARS", 7 * (n + b) * (2 * b + 1))
        chunked = _band_counts(g, diag, off, energies)
        assert np.array_equal(whole[0], chunked[0]) and np.array_equal(whole[1], chunked[1])
        for row, d in zip(whole[0].reshape(3, -1), diag):
            assert list(row) == [count_oracle(operator_from_two_beta(g, d).to_dense(), e) for e in energies]

    def test_finite_volume_ids_normalization(self):
        m = assemble(path_field(5, 1.0, 1.0))
        assert count_eigenvalues_leq(m, -1.0) == 0
        assert count_eigenvalues_leq(m, 100.0) == 5
        assert 0 <= count_eigenvalues_leq(m, 2.0) <= 5


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

    def test_fresh_green_is_inverse(self):
        g = build_grid((3, 3), 0.5)
        f = exact_field(g, philox_stream(17))
        m = assemble(f)
        gm = fresh_green(g, f.beta)
        assert np.allclose(gm, gm.T, atol=0)
        assert np.max(np.abs(m.to_dense() @ gm - np.eye(m.n))) < 1e-9

    def test_banded_path_solve_beyond_dense_cutoff(self):
        n = DENSE_MAX + 16
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
            green_column(m, 0)
        # a path longer than the dense cutoff fails with the same error type
        n = DENSE_MAX + 16
        g = build_grid((n,), 4.0, boundary="zero", max_vertices=n)
        m = assemble(BetaField(graph=g, beta=np.full(n, 0.5)))
        with pytest.raises(FactorizationError):
            green_column(m, n // 2)

    def test_column_index_validated(self):
        m = assemble(path_field(3, 1.0, 1.0))
        with pytest.raises(ValueError):
            green_column(m, 3)

    def test_dense_forms_refused_above_dense_max(self):
        n = DENSE_MAX + 1
        g = build_grid((n,), 1.0, boundary="zero", max_vertices=n)
        f = BetaField(graph=g, beta=np.ones(n))
        m = assemble(f)
        for dense_form in (m.to_dense, lambda: fresh_green(g, f.beta), lambda: log_density(f), g.weight_matrix):
            with pytest.raises(ValueError, match="refused"):
                dense_form()


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
        gm = fresh_green(g, f.beta)
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
        gm = fresh_green(g, f.beta)
        val = path_sum_green(g, f.beta, i, j, max_len=120)
        assert abs(val - gm[i, j]) < 1e-8

    def test_truncation_error_decreases(self):
        g = build_grid((3,), 0.8, boundary="wired")
        f = exact_field(g, philox_stream(31))
        gm = fresh_green(g, f.beta)
        errs = [abs(path_sum_green(g, f.beta, 0, 2, max_len=m) - gm[0, 2]) for m in (10, 40, 160, 640)]
        assert errs[-1] <= errs[0]
        assert errs[-1] < 1e-8


class TestResolventIdentity:
    @pytest.mark.parametrize("seed,d,half", [(0, 1, 6), (1, 2, 2), (2, 2, 3)])
    def test_residual_tiny(self, seed, d, half):
        g = build_box(d, half, w=1.0, boundary="wired")
        f = exact_field(g, philox_stream(seed + 300))
        assert resolvent_identity_residual(f) < 1e-10


class TestOperatorMatrixValidation:
    def test_shape_mismatches(self):
        g = build_grid((3,), 1.0)
        with pytest.raises(ValueError):
            OperatorMatrix(g, np.ones(2), -g.weights)
        with pytest.raises(ValueError):
            OperatorMatrix(g, np.ones(3), -np.ones(3))


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
    gm = fresh_green(g, f.beta)
    assert np.all(np.diag(gm) > 0)
