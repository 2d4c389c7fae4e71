"""Field measure: density, closed-form Laplace transform, exact and Gibbs samplers.

Layered verification: the quadrature oracle weighs its nodes by the density
formula alone (its pivot change of variables is checked against dense
inverses); the closed-form Laplace transform is checked against it; both
samplers are then checked against the closed form and against the exact
one-site marginal (2*beta at any vertex of a wired box follows the
reciprocal-inverse-Gaussian law with parameter = weighted degree + eta).
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import kstest

from rsolab import field
from rsolab.field import (
    BetaField,
    PositivityLossError,
    QuadratureBudgetError,
    SamplerConfig,
    exact_field,
    fresh_green,
    gibbs_chain,
    gibbs_update_site,
    initial_beta,
    laplace_exact,
    log_density,
    quadrature_oracle,
    sample_beta_batch,
)
from rsolab.graphs import DENSE_MAX, WeightedGraph, attach_delta, build_box, build_grid
from rsolab.operators import FactorizationError
from rsolab.rig import rig_cdf, sample_rig
from rsolab.rng import philox_stream

from oracles import extended_gibbs_chain, in_place_gibbs_chain


def single_vertex(eta: float) -> WeightedGraph:
    return WeightedGraph(1, np.empty((0, 2), dtype=np.int64), np.empty(0), np.array([eta]))


def two_path(w: float, eta=(0.0, 0.0)) -> WeightedGraph:
    return WeightedGraph(2, np.array([[0, 1]]), np.array([w]), np.array(eta))


# Frozen copies of the two exact samplers that the banded sampler replaced:
# an O(n) path recursion and a dense O(n^3) Green-matrix bordering.  They are
# the references the banded sampler is held to on the same random stream.


def _reference_path_batch(g: WeightedGraph, n_samples: int, rng) -> np.ndarray:
    n = g.n_vertices
    eta = g.eta
    w = g.weights  # edge k is (k, k+1)
    beta = np.empty((n_samples, n))
    g_run = np.zeros(n_samples)
    t_run = np.zeros(n_samples)
    for k in range(n - 1, -1, -1):
        eta_a = eta[k] + (w[k - 1] if k >= 1 else 0.0)
        if k == n - 1:
            s_term = 0.0
            a = np.full(n_samples, eta_a)
        else:
            s_term = (w[k] * w[k]) * g_run
            a = eta_a + w[k] * t_run
        y = sample_rig(a, rng)
        beta[:, k] = 0.5 * (y + s_term)
        if k > 0:
            t_run = (eta[k] + (w[k] * t_run if k < n - 1 else 0.0)) / y
            g_run = 1.0 / y
    return beta


def _reference_general_batch(g: WeightedGraph, n_samples: int, rng) -> np.ndarray:
    n = g.n_vertices
    wmat = g.weight_matrix()
    # eta_eff[k] = eta + sum of weight rows of vertices < k
    eta_eff = np.empty((n, n))
    acc = g.eta.astype(float).copy()
    for k in range(n):
        eta_eff[k] = acc
        acc += wmat[k]
    beta = np.empty((n_samples, n))
    green = np.zeros((n_samples, n, n))
    for k in range(n - 1, -1, -1):
        if k == n - 1:
            a = np.full(n_samples, eta_eff[k, k])
            s_term = 0.0
            u = None
        else:
            wk = wmat[k, k + 1 :]
            u = green[:, k + 1 :, k + 1 :] @ wk
            s_term = u @ wk
            a = eta_eff[k, k] + u @ eta_eff[k, k + 1 :]
        y = sample_rig(a, rng)
        beta[:, k] = 0.5 * (y + s_term)
        piv = 1.0 / y
        green[:, k, k] = piv
        if u is not None:
            pu = piv[:, None] * u
            green[:, k, k + 1 :] = pu
            green[:, k + 1 :, k] = pu
            green[:, k + 1 :, k + 1 :] += pu[:, :, None] * u[:, None, :]
    return beta


class TestLogDensity:
    def test_single_vertex_closed_form(self):
        # density: exp(eta - beta - eta^2 G / 2) / sqrt(pi G^{-1} ... ) reduces
        # for n = 1, eta = 0 to e^{-beta} / sqrt(pi beta)
        f = BetaField(graph=single_vertex(0.0), beta=np.array([0.7]))
        expected = -0.7 - 0.5 * math.log(math.pi * 0.7)
        assert abs(log_density(f) - expected) < 1e-12

    def test_out_of_support_is_minus_inf(self):
        g = two_path(4.0)
        f = BetaField(graph=g, beta=np.array([0.5, 0.5]))  # 2b = 1 < w: not PD
        assert log_density(f) == -np.inf

    def test_density_integrates_to_one(self):
        for g in (
            single_vertex(0.0),
            single_vertex(1.5),
            two_path(1.0, (0.5, 0.0)),
            build_grid((3,), 0.8, boundary="wired"),
            build_grid((3,), 1.0, boundary="zero"),
        ):
            mass = quadrature_oracle(g, lambda b: np.ones(b.shape[0]), tol=1e-8)
            assert abs(mass - 1.0) < 1e-8


class TestLaplaceExact:
    def test_zero_lambda_is_one(self):
        for g in (single_vertex(2.0), two_path(0.5, (1.0, 0.0)), build_grid((2, 2), 1.0)):
            assert abs(laplace_exact(g, np.zeros(g.n_vertices)) - 1.0) < 1e-14

    def test_single_vertex_closed_form(self):
        lam = 0.9
        assert abs(laplace_exact(single_vertex(0.0), [lam]) - 1.0 / math.sqrt(1 + lam)) < 1e-14
        a = 2.5
        expect = math.exp(-a * (math.sqrt(1 + lam) - 1.0)) / math.sqrt(1 + lam)
        assert abs(laplace_exact(single_vertex(a), [lam]) - expect) < 1e-14

    @pytest.mark.parametrize(
        "g",
        [
            single_vertex(1.0),
            two_path(1.0, (0.5, 0.25)),
            two_path(2.0),
            build_grid((3,), 0.5, boundary="wired"),
        ],
    )
    def test_matches_quadrature(self, g):
        lam = 0.3 + 0.2 * np.arange(g.n_vertices)
        quad_val = quadrature_oracle(g, lambda b: np.exp(-(b @ lam)), tol=1e-9)
        assert abs(laplace_exact(g, lam) - quad_val) < 1e-8

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            laplace_exact(two_path(1.0), [0.1])


class TestBetaField:
    def test_validation(self):
        g = two_path(1.0)
        with pytest.raises(ValueError):
            BetaField(graph=g, beta=np.array([1.0]))
        with pytest.raises(ValueError):
            BetaField(graph=g, beta=np.array([1.0, -0.5]))

    def test_beta_read_only_and_w_inferred(self):
        g = two_path(0.75)
        f = BetaField(graph=g, beta=np.array([1.0, 2.0]))
        assert f.w == 0.75
        with pytest.raises(ValueError):
            f.beta[0] = 3.0


class TestExactSampler:
    def test_deterministic_given_seed(self):
        g = build_grid((2, 2), 1.0)
        a = sample_beta_batch(g, 5, philox_stream(3))
        b = sample_beta_batch(g, 5, philox_stream(3))
        assert np.array_equal(a, b)
        c = sample_beta_batch(g, 5, philox_stream(4))
        assert not np.array_equal(a, c)

    def test_samples_in_support(self):
        g = build_grid((3, 3), 1.0)
        betas = sample_beta_batch(g, 50, philox_stream(0))
        assert np.all(betas > 0)
        wm = g.weight_matrix()
        for beta in betas:
            m = np.diag(2.0 * beta) - wm
            assert np.linalg.eigvalsh(m)[0] > 0

    @pytest.mark.parametrize("vertex", (0, 4, 8))
    def test_one_site_wired_marginal_is_rig(self, vertex):
        g = build_grid((3, 3), 1.0, boundary="wired")
        betas = sample_beta_batch(g, 100_000, philox_stream(17))
        a = float(g.degree_w[vertex] + g.eta[vertex])
        assert a == 4.0  # every vertex of a wired box has the same parameter
        stat = kstest(2.0 * betas[:, vertex], lambda t: rig_cdf(a, t)).statistic
        assert stat < 2.0 / math.sqrt(betas.shape[0])

    def test_interior_moments(self):
        d, w = 2, 1.0
        g = build_box(d, 2, w=w, boundary="wired")
        betas = sample_beta_batch(g, 100_000, philox_stream(29))
        y = 2.0 * betas[:, g.center_index]
        n = y.size
        se_mean = y.std(ddof=1) / math.sqrt(n)
        assert abs(y.mean() - (2 * d * w + 1.0)) <= 4.0 * se_mean
        centered = y - y.mean()
        var = centered @ centered / (n - 1)
        se_var = math.sqrt(max(np.mean(centered**4) - var * var, 0.0) / n)
        assert abs(var - (2 * d * w + 2.0)) <= 4.0 * se_var

    def test_single_site_zero_eta_is_gamma_half(self):
        from scipy.special import gammainc

        g = single_vertex(0.0)
        betas = sample_beta_batch(g, 100_000, philox_stream(31))[:, 0]
        stat = kstest(betas, lambda t: gammainc(0.5, t)).statistic
        assert stat < 2.0 / math.sqrt(betas.size)

    @pytest.mark.parametrize(
        "g",
        [
            single_vertex(0.6),
            WeightedGraph(
                4, np.array([[0, 1], [1, 2], [2, 3]]), np.array([0.5, 1.5, 0.8]),
                np.array([0.3, 0.0, 1.2, 0.4]),
            ),
            build_grid((4,), 0.75, boundary="wired"),
            build_grid((3, 4), 1.0, boundary="zero"),
            build_grid((3, 3), 1.0, boundary="wired"),
            build_box(3, 1, 0.9, boundary="wired"),
            attach_delta(build_grid((3, 3), 0.7, boundary="wired")),
        ],
        ids=["vertex", "path-eta", "path-wired", "grid-zero", "grid-wired", "box-d3", "ghost"],
    )
    def test_matches_frozen_reference_samplers(self, g):
        # same Philox stream, so the draws agree up to round-off; the zero
        # boundary grid is where a subtracted conditional parameter would
        # cancel below zero, and the ghost vertex makes the band b = n - 1
        new = sample_beta_batch(g, 300, philox_stream(61))
        refs = [_reference_general_batch]
        if g.is_path:
            refs.append(_reference_path_batch)
        for ref in refs:
            old = ref(g, 300, philox_stream(61))
            assert np.max(np.abs(new - old) / old) <= 1e-12

    def test_samples_beyond_the_dense_limit(self):
        # a 2100 x 2 ladder has n = 4200 > DENSE_MAX but bandwidth 2; its
        # operator is checked positive definite in banded storage
        from scipy.linalg import cholesky_banded

        g = build_grid((2100, 2), 1.0, boundary="wired")
        assert g.n_vertices > DENSE_MAX
        betas = sample_beta_batch(g, 3, philox_stream(67))
        assert betas.shape == (3, g.n_vertices)
        i, j = g.edges[:, 0], g.edges[:, 1]
        band = int(np.max(j - i))
        for beta in betas:
            ab = np.zeros((band + 1, g.n_vertices))
            ab[band] = 2.0 * beta
            ab[band + i - j, j] = -g.weights
            cholesky_banded(ab)

    @pytest.mark.parametrize(
        "g", [build_grid((30,), 1.0, boundary="wired"), build_box(2, 3, 1.0, boundary="wired")],
        ids=["path", "box-d2"],
    )
    def test_draws_go_through_the_module_global(self, g, monkeypatch):
        # the benchmark stamps its set-up time and times each draw by
        # wrapping rsolab.field.sample_rig; a draw bound elsewhere would
        # escape both, so the wrapper must see every element, and the
        # quadrature oracle, which reads its pivots, none
        drawn = []

        def counting(a, rng, size=None):
            y = sample_rig(a, rng, size)
            drawn.append(np.size(y))
            return y

        monkeypatch.setattr(field, "sample_rig", counting)
        sample_beta_batch(g, 37, philox_stream(5))
        assert sum(drawn) == g.n_vertices * 37
        drawn.clear()
        quadrature_oracle(two_path(1.0), lambda b: np.ones(b.shape[0]))
        assert drawn == []

    def test_laplace_transform_match(self):
        g = build_grid((2, 2), 1.0, boundary="wired")
        lam = np.array([0.4, 0.1, 0.0, 0.7])
        betas = sample_beta_batch(g, 100_000, philox_stream(53))
        vals = np.exp(-(betas @ lam))
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - laplace_exact(g, lam)) <= 4.0 * se


#: The graphs of the frozen Gibbs references.
REFERENCE_GRAPHS = [
    build_grid((2, 2), 1.0, boundary="wired"),
    build_grid((3,), 1.0, boundary="zero"),
    build_box(2, 2, w=0.3),
]
REFERENCE_IDS = ["box2x2-wired", "path3-zero", "box-d2-L2"]


class TestGibbsSampler:
    def test_stream_and_config_determinism(self):
        g = build_grid((2, 2), 1.0)
        cfg = SamplerConfig(seed=7, burn_in=10, thinning=2)
        a = gibbs_chain(g, cfg, 4)
        b = gibbs_chain(g, cfg, 4)
        assert np.array_equal(a, b)
        c = gibbs_chain(g, cfg, 4, chain=1)
        assert not np.array_equal(a, c)

    def test_initial_beta_is_positive_definite(self):
        g = build_grid((3, 3), 2.0, boundary="wired")
        beta = initial_beta(g)
        m = np.diag(2.0 * beta) - g.weight_matrix()
        assert np.linalg.eigvalsh(m)[0] > 0

    def test_positivity_loss_raises(self):
        g = two_path(4.0)
        with pytest.raises(PositivityLossError):
            fresh_green(g, np.array([0.5, 0.5]))

    def test_stationary_marginal_matches_rig(self):
        # after burn-in, the chain's one-site law must match the exact
        # wired-box marginal (weighted degree + eta = 2 + 2 for a 2x2 box at W=1)
        g = build_grid((2, 2), 1.0, boundary="wired")
        cfg = SamplerConfig(seed=13, burn_in=300, thinning=5)
        betas = gibbs_chain(g, cfg, 4_000)
        a = float(g.degree_w[0] + g.eta[0])
        stat = kstest(2.0 * betas[:, 0], lambda t: rig_cdf(a, t)).statistic
        # thinned MCMC retains some autocorrelation; allow 2x the iid band
        assert stat < 4.0 / math.sqrt(betas.shape[0])

    @pytest.mark.parametrize("g", REFERENCE_GRAPHS, ids=REFERENCE_IDS)
    @pytest.mark.parametrize("burn_in, thinning", [(0, 1), (3, 3), (10, 2)])
    @pytest.mark.parametrize("chain", [0, 1])
    def test_gibbs_chain_matches_frozen_sweep_reference(self, g, burn_in, thinning, chain):
        cfg = SamplerConfig(seed=4, burn_in=burn_in, thinning=thinning)
        want = _reference_gibbs_chain(g, cfg, 5, chain)
        assert np.array_equal(gibbs_chain(g, cfg, 5, chain=chain), want)

    def test_gibbs_chain_rejects_no_samples(self):
        with pytest.raises(ValueError, match="n_samples"):
            gibbs_chain(build_grid((2,), 1.0), SamplerConfig(), 0)

    @pytest.mark.parametrize("g", REFERENCE_GRAPHS, ids=REFERENCE_IDS)
    @pytest.mark.parametrize("chain", [0, 1])
    def test_gibbs_chain_matches_the_in_place_sweep(self, g, chain):
        # the delayed updates reorder the old per-site rank-one updates of the
        # full Green matrix, and the refresh is NumPy's inverse, not a Cholesky
        # solve: on the same stream the fields agree to 1e-12 relative, plus
        # ten times the round-off that the chain itself amplifies, which is
        # the old chain's distance to the same chain in extended precision
        # (path3-zero, chain 0: about 1e-10 after 20 sweeps)
        cfg = SamplerConfig(seed=4, burn_in=10, thinning=2)
        want = in_place_gibbs_chain(g, cfg, 5, chain)
        exact = extended_gibbs_chain(g, cfg, 5, chain)
        amplified = float(np.max(np.abs(want - exact) / exact))
        got = gibbs_chain(g, cfg, 5, chain=chain)
        assert np.max(np.abs(got - want) / want) <= 1e-12 + 10.0 * amplified

    @pytest.mark.parametrize(
        "g",
        [build_box(2, 4, w=1.0, boundary="wired"), build_grid((3,), 1.0, boundary="zero")],
        ids=["box9x9-wired", "path3-zero"],
    )
    def test_sweep_of_updates_matches_fresh_green(self, g):
        beta = initial_beta(g)
        green = fresh_green(g, beta)
        rows, c = np.empty_like(green), np.empty_like(beta)
        rng = philox_stream(21)
        for j in range(g.n_vertices):
            gibbs_update_site(beta, green, g.eta, j, rng, rows, c)
        want = fresh_green(g, beta)
        got = green - rows.T @ (c[:, None] * rows)  # G0 - U C U'
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "layout",
        [np.ascontiguousarray, np.asfortranarray, lambda m: np.repeat(m, 2, axis=1)[:, ::2]],
        ids=["c", "fortran", "sliced"],
    )
    def test_update_only_reads_the_sweep_start_green(self, layout):
        # a read-only G0 in any layout: a write would raise, and the sweep
        # draws the same bits as from a C-contiguous G0
        g = build_box(2, 2, w=0.3)
        beta0 = initial_beta(g)
        green = fresh_green(g, beta0)
        fields = []
        for g0 in (green, layout(green.copy())):
            g0.setflags(write=False)
            beta, rows, c = beta0.copy(), np.empty_like(green), np.empty_like(beta0)
            rng = philox_stream(5)
            for j in range(g.n_vertices):
                gibbs_update_site(beta, g0, g.eta, j, rng, rows, c)
            assert np.array_equal(g0, green)
            fields.append(beta)
        assert np.array_equal(fields[0], fields[1])

    @pytest.mark.parametrize("j", [0, 2, 8])
    def test_update_writes_only_its_row_and_weight(self, j):
        g = build_box(2, 1, w=1.0, boundary="wired")
        n = g.n_vertices
        beta = initial_beta(g)
        green = fresh_green(g, beta)
        rows, c = np.full((n, n), np.nan), np.full(n, np.nan)
        rng = philox_stream(8)
        for i in range(j):
            gibbs_update_site(beta, green, g.eta, i, rng, rows, c)
        before = beta.copy(), rows.copy(), c.copy()
        current = fresh_green(g, beta)[j]
        y, _ = gibbs_update_site(beta, green, g.eta, j, rng, rows, c)
        others = np.arange(n) != j
        for after, old in zip((beta, rows, c), before):
            np.testing.assert_array_equal(after[others], old[others])
        # row j is the current Green row, and c_j its rank-one weight
        np.testing.assert_allclose(rows[j], current, rtol=0, atol=1e-12 * np.abs(current).max())
        want, updated = fresh_green(g, beta)[j], current - c[j] * current[j] * current
        np.testing.assert_allclose(updated, want, rtol=0, atol=1e-12 * want.max())
        assert beta[j] == pytest.approx(0.5 * (y + 2.0 * before[0][j] - 1.0 / current[j]), rel=1e-12)


def _reference_gibbs_chain(g, cfg, n_samples, chain):
    """Frozen copy of the generator-and-sweep Gibbs chain that gibbs_chain replaced.

    A stream of BetaFields: burn in, then yield every thinning-th sweep; each
    sweep copies beta, updates every site in vertex order against the Green
    matrix of the last refresh and refreshes it after every n site updates.
    """
    n = g.n_vertices
    rows, c = np.empty((n, n)), np.empty(n)

    def sweep(f, state, rng):
        beta = f.beta.copy()
        for j in range(n):
            field.gibbs_update_site(beta, state["green"], g.eta, j, rng, rows, c)
            state["since_refresh"] += 1
            if state["since_refresh"] >= n:
                state["green"] = field.fresh_green(g, beta)
                state["since_refresh"] = 0
        return BetaField(graph=g, beta=beta, w=f.w)

    def stream():
        rng = philox_stream(cfg.seed, chain)
        beta = initial_beta(g)
        f = BetaField(graph=g, beta=beta)
        state = {"green": fresh_green(g, beta), "since_refresh": 0}
        for _ in range(cfg.burn_in):
            f = sweep(f, state, rng)
        while True:
            for _ in range(cfg.thinning):
                f = sweep(f, state, rng)
            yield BetaField(graph=g, beta=f.beta, w=f.w)

    fields = stream()
    return np.array([next(fields).beta for _ in range(n_samples)])


def _meshgrid_eval_grid(g, integrand, nodes_1d, weights_1d):
    """Frozen copy of the quadrature grid that built every node before chunking."""
    n = g.n_vertices
    grids = np.meshgrid(*([nodes_1d] * n), indexing="ij")
    s_pts = np.stack([a.ravel() for a in grids], axis=1)
    wgrids = np.meshgrid(*([weights_1d] * n), indexing="ij")
    w_pts = np.prod(np.stack([a.ravel() for a in wgrids], axis=1), axis=1)
    total = 0.0
    for start in range(0, s_pts.shape[0], field._QUAD_CHUNK):
        s = s_pts[start : start + field._QUAD_CHUNK]
        wq = w_pts[start : start + field._QUAD_CHUNK]
        beta, q_eta = field._pivots_to_field(g, s * s)
        logrho = field._log_density_batch(g, beta, q_eta, 2.0 * np.sum(np.log(s), axis=1))
        total += float(np.sum(integrand(beta) * np.exp(logrho) * np.prod(s, axis=1) * wq))
    return total


class TestQuadratureOracle:
    def test_chunked_grid_matches_full_grid_in_bounded_memory(self, monkeypatch):
        g = two_path(1.0, (0.5, 0.0))

        def f(b):
            return np.exp(-b.sum(axis=1))

        monkeypatch.setattr(field, "_QUAD_CHUNK", 1000)
        tracemalloc.start()
        try:
            chunked = quadrature_oracle(g, f, tol=1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(field, "_eval_grid", _meshgrid_eval_grid)
        assert chunked == quadrature_oracle(g, f, tol=1e-8)
        # the finer order's 336^2 node coordinates alone take 1.8 MB
        assert peak < 336**2 * 2 * 8

    def test_integrand_errors_propagate(self):
        calls = []

        def failing(b):
            calls.append(b.shape)
            raise FactorizationError("singular operator in a sampled slice")

        with pytest.raises(FactorizationError, match="singular operator"):
            quadrature_oracle(two_path(1.0), failing)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "g",
        [
            build_grid((3, 4), 1.0, boundary="wired"),
            build_box(3, 1, 0.9, boundary="wired"),
            attach_delta(build_grid((3, 3), 0.7, boundary="wired")),
        ],
        ids=["grid-wired", "box-d3", "ghost"],
    )
    def test_pivot_map_matches_dense_reference(self, g):
        # the oracle's change of variables holds for any n: each pivot comes
        # back as y_k = 1 / [(M_{>=k})^-1]_kk, and q = <eta, M^-1 eta>.
        # Pivots at least the weighted degree + eta keep M well conditioned,
        # so the dense inverses are accurate references; much smaller ones
        # let the Schur terms, and with them beta, grow without bound.
        n = g.n_vertices
        y = (g.degree_w + g.eta) * np.random.default_rng(29).uniform(1.0, 2.0, size=(10, n))
        beta, q = field._pivots_to_field(g, y)
        for row, y_row, q_row in zip(beta, y, q):
            m = np.diag(2.0 * row) - g.weight_matrix()
            back = [1.0 / np.linalg.inv(m[k:, k:])[0, 0] for k in range(n)]
            np.testing.assert_allclose(back, y_row, rtol=1e-12, atol=0)
            want = float(g.eta @ np.linalg.solve(m, g.eta))
            assert abs(q_row - want) <= 1e-12 * abs(want)

    def test_rejects_large_graphs(self):
        with pytest.raises(ValueError):
            quadrature_oracle(build_grid((2, 2), 1.0), lambda b: np.ones(b.shape[0]))

    def test_budget_error_when_tol_unreachable(self):
        g = build_grid((2,), 0.5, boundary="wired")

        def rough(b):
            return np.sqrt(0.25 / (4.0 * b[:, 0] * b[:, 1] - 0.25))

        with pytest.raises(QuadratureBudgetError):
            quadrature_oracle(g, rough, tol=1e-12)

    def test_scalar_integrand_refused(self):
        # the integrand is called once per chunk of grid nodes, so it must
        # return one value per row of its (M, n) beta array
        with pytest.raises(ValueError, match="integrand returned shape"):
            quadrature_oracle(single_vertex(0.5), lambda b: 1.0, tol=1e-8)


def test_exact_field_wrapper():
    g = build_grid((3,), 1.0)
    f = exact_field(g, philox_stream(0))
    assert isinstance(f, BetaField)
    assert np.all(f.beta > 0)


@given(
    w=st.floats(min_value=0.05, max_value=5.0),
    eta0=st.floats(min_value=0.0, max_value=4.0),
    lam=st.floats(min_value=0.0, max_value=10.0),
)
def test_laplace_bounded_and_monotone(w, eta0, lam):
    g = two_path(w, (eta0, 0.0))
    v1 = laplace_exact(g, [lam, 0.0])
    v2 = laplace_exact(g, [lam + 0.5, 0.0])
    assert 0.0 < v2 <= v1 <= 1.0 + 1e-12


@given(seed=st.integers(0, 2**16), n=st.integers(1, 6))
def test_sampler_beta_positive(seed, n):
    g = build_grid((n,), 1.0, boundary="wired")
    betas = sample_beta_batch(g, 8, philox_stream(seed))
    assert betas.shape == (8, n)
    assert np.all(betas > 0)
