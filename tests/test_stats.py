"""Monte-Carlo estimators and audits: exact replication, bounds, determinism.

The spectral estimators are replicated sample-for-sample with a full
diagonalization oracle (the stream protocol makes that exact, not
statistical); audits are exercised on synthetic curves with known outcomes
and on live runs at pinned seeds.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided

from rsolab import field, stats
from rsolab.field import _pivots_to_field, quadrature_oracle, sample_beta_batch, slice_size
from rsolab.graphs import build_box, build_grid, integrate_out, subbox_indices
from rsolab.operators import FactorizationError, _green_solve, operator_from_two_beta
from rsolab.rng import philox_stream
from rsolab.stats import (
    SE_SLACK,
    DecayFit,
    EstimateWithCI,
    IdsCurve,
    MonteCarloConfig,
    _chain_sizes,
    _chain_slices,
    _green_ratio,
    batch_means,
    bound_audit,
    decay_moment_fit,
    estimate_ids,
    fit_loglog_slope,
    gamma_marginal_test,
    laplace_audit,
    martingale_check,
    monotonicity_check,
    wegner_audit,
)


def synthetic_curve(energies, values, ses, w=1.0, d=1) -> IdsCurve:
    ests = tuple(
        EstimateWithCI(value=float(v), std_error=float(s), n_samples=1000, seed=0)
        for v, s in zip(values, ses)
    )
    return IdsCurve(
        energies=np.asarray(energies, dtype=float),
        estimates=ests,
        bc="dirichlet",
        w=w,
        d=d,
        half_side=10,
    )


class TestPlumbing:
    def test_chain_sizes(self):
        assert _chain_sizes(10, 3) == [4, 3, 3]
        assert _chain_sizes(3, 5) == [1, 1, 1, 0, 0]
        assert sum(_chain_sizes(1_000_001, 7)) == 1_000_001

    def test_chains_run_without_a_pool(self):
        # chains run serially: a thread or process pool over GIL-bound
        # per-vertex loops only made runs slower
        import ast
        import inspect

        import rsolab.stats

        tree = ast.parse(inspect.getsource(rsolab.stats))
        imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
        imported |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module}
        pools = {"concurrent", "multiprocessing", "threading"}
        assert not {m for m in imported if m.split(".")[0] in pools}

    @pytest.mark.parametrize("rho", [0.0, 0.9])
    def test_batch_means_se_tracks_autocorrelation(self, rho):
        # AR(1) with coefficient rho: the SE of the mean exceeds the i.i.d.
        # one by sqrt((1 + rho) / (1 - rho)) for long chains
        rng = np.random.default_rng(17)
        chains = []
        for _ in range(4):
            x = np.empty(40_000)
            x[0] = rng.standard_normal() / math.sqrt(1.0 - rho * rho)
            noise = rng.standard_normal(x.size)
            for i in range(1, x.size):
                x[i] = rho * x[i - 1] + noise[i]
            chains.append(x)
        pooled = np.concatenate(chains)
        iid_se = pooled.std(ddof=1) / math.sqrt(pooled.size)
        mean, se = batch_means(chains)
        # 40,000 = 200 batches of 200: no draw is dropped
        assert mean == pytest.approx(pooled.mean(), abs=1e-12)
        assert se / iid_se == pytest.approx(math.sqrt((1.0 + rho) / (1.0 - rho)), rel=0.2)

    @pytest.mark.parametrize("d, half_side", [(1, 40), (2, 8), (3, 3)])
    def test_estimator_slices_are_the_sampler_draws(self, d, half_side):
        # slices and sampler chunks share one rule, so a chain's slices join
        # into exactly what one sample_beta_batch call draws on its stream.
        # Every slice reuses one workspace, so each is copied as it is drawn:
        # nothing of a slice may leak into the next, and each chain ends in a
        # partial slice that must still be sites-first
        g = build_box(d, half_side, w=1.0, boundary="wired")
        n_chain = slice_size(g) + 1
        cfg = MonteCarloConfig(n_samples=2 * n_chain, seed=7, chains=2)
        blocks = {0: [], 1: []}
        for chain, block in _chain_slices(g, cfg):
            assert block.T.flags.c_contiguous
            blocks[chain].append(block.copy())
        for chain, parts in blocks.items():
            assert [p.shape[0] for p in parts] == [n_chain - 1, 1]
            want = sample_beta_batch(g, n_chain, philox_stream(cfg.seed, chain))
            assert np.concatenate(parts).tobytes() == want.tobytes()

    def test_estimators_hold_one_slice(self, monkeypatch):
        # draws are sites-first views, and the next slice is drawn only after
        # the last one is dropped, so the traced peak is one slice plus the
        # evaluation's small working set
        import tracemalloc

        monkeypatch.setattr(field, "SLICE_SCALARS", 1 << 18)
        g = build_box(1, 200, w=1.0, boundary="wired")
        size = slice_size(g)
        assert sample_beta_batch(g, size, philox_stream(0)).T.flags.c_contiguous
        slice_bytes = size * g.n_vertices * 8
        cfg = MonteCarloConfig(n_samples=2 * size, seed=0)
        runs = [
            lambda: estimate_ids(1, 200, 1.0, "dirichlet", [0.01, 0.1, 1.0], cfg),
            lambda: stats._collect_values(g, cfg, lambda betas: betas[:, 0].copy()),
        ]
        for run in runs:
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * slice_bytes

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MonteCarloConfig(n_samples=0)
        with pytest.raises(ValueError):
            MonteCarloConfig(n_samples=10, chains=0)
        with pytest.raises(TypeError):
            MonteCarloConfig(n_samples=10, sampler="gibbs")



class TestEstimateIds:
    def test_replicates_diagonalization_oracle_path(self):
        # same stream, same slices: the Sturm path must reproduce the
        # eigvalsh-based average exactly, not just statistically
        d, half, w, n = 1, 2, 1.0, 200
        energies = np.array([0.1, 0.5, 1.0, 2.0, 4.0])
        cfg = MonteCarloConfig(n_samples=n, seed=5)
        curve = estimate_ids(d, half, w, "simple", energies, cfg)

        g = build_box(d, half, w=w, boundary="wired")
        betas = sample_beta_batch(g, n, philox_stream(5, 0))
        counts = np.empty((n, energies.size))
        wm = g.weight_matrix()
        for i, beta in enumerate(betas):
            eigs = np.linalg.eigvalsh((np.diag(2.0 * beta) - wm) / w)
            counts[i] = np.sum(eigs[:, None] <= energies[None, :], axis=0)
        # mirror the estimator's arithmetic order exactly: per-sample
        # normalization first, then one sum over the slice, then the mean
        want = (counts / g.n_vertices).sum(axis=0) / n
        assert np.array_equal(curve.values(), want)

    def test_replicates_diagonalization_oracle_dirichlet_grid(self):
        d, half, w, n = 2, 1, 0.8, 100
        energies = np.array([0.25, 1.0, 3.0])
        cfg = MonteCarloConfig(n_samples=n, seed=8)
        curve = estimate_ids(d, half, w, "dirichlet", energies, cfg)

        g = build_box(d, half, w=w, boundary="wired")
        betas = sample_beta_batch(g, n, philox_stream(8, 0))
        wm = g.weight_matrix()
        corr = w * (2 * d - g.degree)
        counts = np.empty((n, energies.size))
        for i, beta in enumerate(betas):
            dense = (np.diag(2.0 * beta + corr) - wm) / w
            eigs = np.linalg.eigvalsh(dense)
            counts[i] = np.sum(eigs[:, None] <= energies[None, :], axis=0)
        want = (counts / g.n_vertices).sum(axis=0) / n
        assert np.array_equal(curve.values(), want)

    def test_trivial_energy_limits(self):
        cfg = MonteCarloConfig(n_samples=50, seed=2)
        curve = estimate_ids(1, 3, 1.0, "simple", [-1.0, 0.0, 1e6], cfg)
        v = curve.values()
        assert v[0] == 0.0 and v[1] == 0.0  # the operator is positive definite
        assert v[2] == 1.0  # double-precision tails end long before 1e6

    def test_dirichlet_below_simple_same_seed(self):
        energies = np.geomspace(0.05, 5.0, 8)
        cfg = MonteCarloConfig(n_samples=300, seed=11)
        vs = estimate_ids(1, 10, 1.0, "simple", energies, cfg).values()
        vd = estimate_ids(1, 10, 1.0, "dirichlet", energies, cfg).values()
        assert np.all(vd <= vs + 1e-15)

    def test_monotone_violations_zero_on_real_run(self):
        cfg = MonteCarloConfig(n_samples=400, seed=12)
        curve = estimate_ids(1, 20, 1.0, "dirichlet", np.geomspace(0.01, 2.0, 9), cfg)
        assert curve.monotone_violations() == 0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            estimate_ids(1, 2, 1.0, "simple", [], MonteCarloConfig(n_samples=10))

    @pytest.mark.parametrize("d,half", [(1, 4), (2, 1)])  # Sturm path, sparse-inertia box
    def test_bc_is_checked_on_both_counters(self, d, half):
        energies = [0.5, 2.0]
        cfg = MonteCarloConfig(n_samples=20, seed=3)
        curve = estimate_ids(d, half, 1.0, "Dirichlet", energies, cfg)
        assert curve.bc == "dirichlet"
        want = estimate_ids(d, half, 1.0, "dirichlet", energies, cfg)
        assert np.array_equal(curve.values(), want.values())
        with pytest.raises(ValueError, match="boundary condition"):
            estimate_ids(d, half, 1.0, "dirichet", energies, cfg)


class TestSlopeFit:
    def test_exact_power_law(self):
        e = np.geomspace(1e-4, 1e-2, 10)
        fit = fit_loglog_slope(synthetic_curve(e, 3.0 * np.sqrt(e), np.zeros(10)))
        assert abs(fit["slope"] - 0.5) < 1e-12
        assert abs(fit["intercept"] - math.log(3.0)) < 1e-12
        assert fit["r_squared"] > 1 - 1e-12
        assert fit["n_points"] == 10

    def test_needs_two_positive_points(self):
        e = np.array([0.1, 0.2, 0.4])
        with pytest.raises(ValueError):
            fit_loglog_slope(synthetic_curve(e, [0.0, 0.0, 0.1], np.zeros(3)))


class TestBoundAudit:
    def test_upper_bound_decision(self):
        e = np.geomspace(1e-3, 0.5, 6)
        ok = bound_audit(synthetic_curve(e, 0.5 * np.sqrt(e), np.zeros(6)))
        assert ok["upper_ok"] and ok["upper_margin_min"] > 0
        bad = bound_audit(synthetic_curve(e, 2.0 * np.sqrt(e), np.zeros(6)))
        assert not bad["upper_ok"]  # 2 > 2 sqrt(1/pi) = 1.128...

    def test_sub_unit_floor_constant(self):
        e = np.array([0.01, 0.09, 0.25])
        rep = bound_audit(synthetic_curve(e, np.sqrt(e), np.zeros(3), d=1))
        want = min(math.sqrt(x) * abs(math.log(x)) / math.sqrt(x) for x in e)
        assert abs(rep["c_lower"] - want) < 1e-12
        sup = bound_audit(synthetic_curve([2.0, 4.0], [0.5, 0.9], [0.0, 0.0]))
        assert sup["c_lower"] is None

    def test_ratio_to_energy(self):
        rep = bound_audit(synthetic_curve([0.5, 2.0], [0.25, 0.5], [0.0, 0.0]))
        assert np.allclose(rep["ratio_to_energy"], [0.5, 0.25])


class TestWegner:
    def test_small_run_passes(self):
        cfg = MonteCarloConfig(n_samples=400, seed=7)
        rep = wegner_audit(1, 30, 1.0, "dirichlet", 0.5, [0.1, 0.05], cfg)
        assert rep["all_passed"]
        for row in rep["rows"]:
            assert row["estimate"] >= 0.0
            assert row["bound"] == 4.0 * math.sqrt(1.0 / (2 * math.pi)) * math.sqrt(row["epsilon"])
            assert row["passed"]

    def test_std_error_is_that_of_the_per_sample_increment(self):
        # both counts come from the same fields, so the SE of their
        # difference is the per-sample increment's, not the hypot of two SEs
        half, w, energy, epsilons, n = 2, 1.0, 0.5, [0.1, 0.05, 0.01], 400
        cfg = MonteCarloConfig(n_samples=n, seed=3)
        rep = wegner_audit(2, half, w, "simple", energy, epsilons, cfg)
        g = build_box(2, half, w=w, boundary="wired")
        wm = g.weight_matrix()
        betas = sample_beta_batch(g, n, philox_stream(3, 0))
        eigs = np.array([np.linalg.eigvalsh((np.diag(2.0 * beta) - wm) / w) for beta in betas])
        for row, eps in zip(rep["rows"], epsilons):
            inc = np.sum((eigs > energy - eps) & (eigs <= energy + eps), axis=1) / g.n_vertices
            assert inc.std() > 0
            assert row["estimate"] == pytest.approx(inc.mean(), rel=1e-12)
            assert row["std_error"] == pytest.approx(inc.std(ddof=1) / math.sqrt(n), rel=1e-12)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            wegner_audit(1, 5, 1.0, "simple", 0.5, [0.1, 0.0], MonteCarloConfig(n_samples=10))


class TestDecayFit:
    def test_ratio_moment_at_distance_zero_is_one(self):
        cfg = MonteCarloConfig(n_samples=300, seed=21)
        fit = decay_moment_fit(1, 6, 1.0, "ratio", cfg)
        assert isinstance(fit, DecayFit)
        assert np.array_equal(fit.distances, np.arange(7))
        assert fit.log_moments[0] == 0.0
        assert fit.decay_rate > 0
        assert 0.0 <= fit.r_squared <= 1.0

    def test_quarter_moment_decays(self):
        cfg = MonteCarloConfig(n_samples=300, seed=22)
        fit = decay_moment_fit(1, 6, 0.5, "quarter", cfg)
        assert fit.decay_rate > 0
        assert np.all(np.diff(fit.log_moments) < 0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            decay_moment_fit(1, 4, 1.0, "cubic", MonteCarloConfig(n_samples=10))

    def test_log_moment_std_errors(self):
        fits = [decay_moment_fit(1, 5, 1.0, "ratio", MonteCarloConfig(n_samples=400, seed=s))
                for s in (31, 32)]
        for fit in fits:
            assert fit.log_moment_std_errors.shape == fit.log_moments.shape
            assert fit.log_moment_std_errors[0] == 0.0
            assert np.all(fit.log_moment_std_errors[1:] > 0)
        a, b = fits
        combined = math.hypot(a.log_moment_std_errors[1], b.log_moment_std_errors[1])
        assert abs(a.log_moments[1] - b.log_moments[1]) <= 4.0 * combined


def _dense_stack(g, betas: np.ndarray) -> np.ndarray:
    """Dense operators of a (B, n) slice of fields, one (n, n) matrix per row."""
    return np.array([operator_from_two_beta(g, 2.0 * beta).to_dense() for beta in betas])


def _exact_solve(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """m^{-1} rhs in exact rational arithmetic (Gauss-Jordan on Fractions)."""
    n, k = rhs.shape
    a = [[Fraction(v) for v in m[i]] + [Fraction(v) for v in rhs[i]] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        a[c] = [v / a[c][c] for v in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                a[r] = [v - a[r][c] * u for v, u in zip(a[r], a[c])]
    return np.array([[float(v) for v in row[n:]] for row in a])


def _frozen_cofactor_ratio(mats: np.ndarray, s: int, t: int) -> np.ndarray:
    """Frozen copy of the n <= 3 cofactor formula for G(s,t)/G(s,s) that the
    quadrature integrand used before the Green-ratio solve replaced it."""
    n = mats.shape[1]
    if n == 1 or s == t:
        return np.ones(mats.shape[0])
    idx = list(range(n))

    def minor_det(i: int, j: int) -> np.ndarray:
        rows = [r for r in idx if r != i]
        cols = [c for c in idx if c != j]
        sub = mats[:, rows][:, :, cols]
        if n == 2:
            return sub[:, 0, 0]
        return sub[:, 0, 0] * sub[:, 1, 1] - sub[:, 0, 1] * sub[:, 1, 0]

    sign = -1.0 if (s + t) % 2 else 1.0
    return sign * minor_det(s, t) / minor_det(s, s)


def _frozen_green_solve(g, diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Frozen copy of the batch Green solve from before it factored through the
    shared banded LDL^T kernel: per-vertex windows, forward substitution fused
    into the elimination.  The package must reproduce it bit for bit."""
    n_samples, n = diag.shape
    b = g.bandwidth
    lo, hi = g.edges[:, 0], g.edges[:, 1]
    band = np.zeros((n, 2 * b + 1, n_samples))
    band[:, b] = diag.T
    band[lo, b + hi - lo] = -g.weights[:, None]
    x = np.empty((n, rhs.shape[1], n_samples))
    x[:] = rhs[:, :, None]
    s0, s1, s2 = band.strides
    for k in range(n):
        piv = band[k, b]
        assert piv.min() > 0
        m = min(b, n - 1 - k)
        if m == 0:
            continue
        u = band[k, b + 1 : b + 1 + m]
        mult = u * (1.0 / piv)
        window = as_strided(band[k + 1, b:], shape=(m, m, n_samples), strides=(s0 - s1, s1, s2))
        window -= mult[:, None] * u[None]
        x[k + 1 : k + 1 + m] -= mult[:, None] * x[k]
        u[...] = mult
    for k in range(n - 1, -1, -1):
        x[k] /= band[k, b]
        m = min(b, n - 1 - k)
        if m:
            x[k] -= np.einsum("jb,jrb->rb", band[k, b + 1 : b + 1 + m], x[k + 1 : k + 1 + m])
    return x.transpose(2, 0, 1)


def _spy_eval_slices(monkeypatch, runner: str) -> list:
    """Record (betas, statistic) for every slice the named stats runner evaluates."""
    seen = []
    original = getattr(stats, runner)

    def spy(g, cfg, eval_slice, *args, **kwargs):
        def recorded(betas):
            out = eval_slice(betas)
            seen.append((betas.copy(), out))
            return out

        return original(g, cfg, recorded, *args, **kwargs)

    monkeypatch.setattr(stats, runner, spy)
    return seen


class TestGreenSolves:
    @pytest.mark.parametrize("shape", [(1,), (2,), (3,), (4,), (5,), (6,), (3, 3)])
    def test_green_ratio_matches_full_inverse(self, shape):
        g = build_grid(shape, 0.7, boundary="wired")
        betas = sample_beta_batch(g, 40, philox_stream(len(shape) * 10 + shape[0]))
        inv = np.linalg.inv(_dense_stack(g, betas))
        for s in range(g.n_vertices):
            keep = np.arange(g.n_vertices) != s
            for t in range(g.n_vertices):
                want = np.sqrt(inv[:, s, t] / inv[:, s, s])
                np.testing.assert_allclose(_green_ratio(g, s, t)[1](betas[:, keep]), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("w", [0.5, 1.0, 2.0])
    def test_green_ratio_matches_frozen_cofactor_ratio(self, w):
        # Pivots y are the quadrature oracle's variables.  Both formulas
        # first assemble 2 beta_k = y_k + (Schur coupling), which cancels
        # when two pivots are small, so the relative tolerance grows with
        # w^2 / (y_i y_j), the condition of the solved two-vertex block.
        # Pairs with y_i y_j below 1e-13 are left out: the oracle's smallest
        # node pivot is 5.2e-7, so its grid stays above 2.7e-13.
        eps = np.finfo(float).eps
        for n in (1, 2, 3):
            g = build_grid((n,), w, boundary="wired")
            y = np.array(list(itertools.product(np.logspace(-12, 1, 14), repeat=n)))
            ys = np.sort(y, axis=1)
            if n == 3:
                pair = ys[:, 0] * ys[:, 1]
                y, cond = y[pair >= 1e-13], 1.0 + w * w / pair[pair >= 1e-13]
            else:
                cond = np.ones(y.shape[0])
            betas, _ = _pivots_to_field(g, y)
            mats = _dense_stack(g, betas)
            for s in range(n):
                keep = np.arange(n) != s
                for t in range(n):
                    want = np.sqrt(_frozen_cofactor_ratio(mats, s, t))
                    got = _green_ratio(g, s, t)[1](betas[:, keep])
                    assert np.all(np.abs(got - want) <= 8.0 * eps * cond * want)

    def test_singular_slice_raises_factorization_error(self):
        # w = 1, beta = (1/2, 1/2): M = [[1, -1], [-1, 1]] has a zero second
        # pivot; beta = (1/4, 1/4) makes it negative
        g = build_grid((2,), 1.0, boundary="zero")
        for bad in ([0.5, 0.5], [0.25, 0.25]):
            betas = np.array([[2.0, 2.0], bad])
            with pytest.raises(FactorizationError, match="singular operator"):
                _green_solve(g, 2.0 * betas, np.ones((2, 1)))

    @pytest.mark.parametrize(
        "g",
        [
            build_grid((60,), 0.7, boundary="wired"),
            build_box(2, 4, w=1.0, boundary="wired"),
            build_box(3, 2, w=1.0, boundary="wired"),
            integrate_out(build_grid((2,), 0.5, boundary="wired"), 1),
        ],
        ids=["path", "d2_L4", "d3_L2", "one_vertex"],
    )
    def test_green_solve_bits_match_frozen_solve(self, g):
        # the tolerance tests below would not see a change in the last bits,
        # which moves the CSVs of decay, martingale and monotonicity
        betas = sample_beta_batch(g, 30, philox_stream(g.n_vertices))
        rhs = np.random.default_rng(g.n_vertices).uniform(0.0, 1.0, size=(g.n_vertices, 3))
        assert np.array_equal(_green_solve(g, 2.0 * betas, rhs), _frozen_green_solve(g, 2.0 * betas, rhs))

    @pytest.mark.parametrize("n, removed", [(1, None), (2, None), (3, None), (3, 1)])
    def test_green_solve_matches_exact_inverse(self, n, removed):
        # well-conditioned draws: a diagonal of 1.5 to 3 times the weighted
        # degree plus one dominates the couplings
        g = build_grid((n,), 0.8, boundary="wired")
        if removed is not None:
            g = integrate_out(g, removed)
        rng = np.random.default_rng(n)
        diag = (g.degree_w + 1.0) * rng.uniform(1.5, 3.0, size=(25, g.n_vertices))
        rhs = rng.uniform(-1.0, 1.0, size=(g.n_vertices, 2))
        got = _green_solve(g, diag, rhs)
        assert got.shape == (25, g.n_vertices, 2)
        for d, x in zip(diag, got):
            m = -g.weight_matrix() + np.diag(d)
            np.testing.assert_allclose(x, _exact_solve(m, rhs), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("d, half_side, removed", [(2, 8, None), (3, 2, None), (2, 3, "center")])
    def test_green_solve_matches_dense_solve(self, d, half_side, removed):
        g = build_box(d, half_side, w=1.0, boundary="wired")
        betas = sample_beta_batch(g, 20, philox_stream(d * 10 + half_side))
        if removed is not None:
            keep = np.arange(g.n_vertices) != g.center_index
            g, betas = integrate_out(g, g.center_index), betas[:, keep]
        rhs = np.random.default_rng(d).uniform(0.0, 1.0, size=(g.n_vertices, 3))
        want = np.linalg.solve(_dense_stack(g, betas), np.broadcast_to(rhs, (20, *rhs.shape)))
        np.testing.assert_allclose(_green_solve(g, 2.0 * betas, rhs), want, rtol=1e-12, atol=0)

    def test_gamma_statistic_matches_full_inverse(self, monkeypatch):
        g = build_grid((3,), 1.0, boundary="zero")
        seen = _spy_eval_slices(monkeypatch, "_collect_values")
        gamma_marginal_test(g, MonteCarloConfig(n_samples=500, seed=5), vertex=1)
        assert sum(b.shape[0] for b, _ in seen) == 500
        for betas, out in seen:
            inv = np.linalg.inv(_dense_stack(g, betas))
            np.testing.assert_allclose(out, 0.5 / inv[:, 1, 1], rtol=1e-12, atol=0)


class TestGammaMarginal:
    def test_three_path_zero_eta(self):
        g = build_grid((3,), 1.0, boundary="zero")
        rep = gamma_marginal_test(g, MonteCarloConfig(n_samples=4000, seed=31))
        assert rep["mean_dev_se"] <= 5.0
        assert rep["var_dev_se"] <= 5.0
        assert rep["ks_distance"] < 0.05

    def test_requires_zero_eta(self):
        g = build_grid((3,), 1.0, boundary="wired")
        with pytest.raises(ValueError):
            gamma_marginal_test(g, MonteCarloConfig(n_samples=10))

    def test_vertex_range(self):
        g = build_grid((3,), 1.0, boundary="zero")
        with pytest.raises(ValueError):
            gamma_marginal_test(g, MonteCarloConfig(n_samples=10), vertex=3)


class TestLaplaceAudit:
    def test_wired_square(self):
        g = build_grid((2, 2), 1.0, boundary="wired")
        lams = [[0.5, 0.5, 0.5, 0.5], [1.0, 0.0, 0.0, 0.0], [0.1, 0.2, 0.3, 0.4]]
        rep = laplace_audit(g, lams, MonteCarloConfig(n_samples=20000, seed=35))
        assert rep["all_passed"]
        for row in rep["rows"]:
            assert row["dev_se"] <= SE_SLACK

    def test_zero_lambda_is_noise_free(self):
        g = build_grid((2,), 1.0, boundary="wired")
        rep = laplace_audit(g, [[0.0, 0.0]], MonteCarloConfig(n_samples=100, seed=36))
        row = rep["rows"][0]
        assert row["estimate"].value == 1.0
        assert row["estimate"].std_error == 0.0
        assert row["dev_se"] == 0.0
        assert row["passed"]

    def test_nearly_constant_statistic_keeps_its_standard_error(self):
        # exp(-1e-9 beta_0) varies only in its ninth digit: raw second
        # moments cancel to zero there, centred ones keep the SE.  2 beta_0
        # is RIG(4) on the wired square, so the SE is 1e-9 sqrt(1.5 / n).
        g = build_grid((2, 2), 1.0, boundary="wired")
        n = 10_000
        rep = laplace_audit(g, [[1e-9, 0.0, 0.0, 0.0]], MonteCarloConfig(n_samples=n, seed=0))
        row = rep["rows"][0]
        assert abs(row["estimate"].std_error / (1e-9 * math.sqrt(1.5 / n)) - 1.0) < 0.1
        assert row["dev_se"] <= SE_SLACK
        assert rep["all_passed"]

    def test_shape_validation(self):
        g = build_grid((2,), 1.0)
        with pytest.raises(ValueError):
            laplace_audit(g, [[0.1, 0.2, 0.3]], MonteCarloConfig(n_samples=10))

    @pytest.mark.parametrize("d,half_side,b,seed", [(2, 4, 9, 71), (3, 2, 25, 72)])
    def test_laplace_transform_at_large_bandwidth(self, d, half_side, b, seed):
        # the joint law of the banded sampler against the closed form on boxes
        # whose bordering windows are b wide; the slack is the 4 SE of
        # test_laplace_transform_match, fixed before the first run
        g = build_box(d, half_side, w=1.0, boundary="wired")
        assert g.bandwidth == b
        n = g.n_vertices
        centre = np.zeros(n)
        centre[g.center_index] = 1.0
        block = np.zeros(n)
        inner = subbox_indices(g, 1)
        block[inner] = 0.5 / inner.size
        lams = [
            np.full(n, 0.25 / n),
            centre,
            np.random.default_rng(7).uniform(0.0, 0.5 / n, n),
            block,
        ]
        rep = laplace_audit(g, lams, MonteCarloConfig(n_samples=20_000, seed=seed))
        assert max(row["dev_se"] for row in rep["rows"]) <= 4.0


class TestMartingale:
    def test_nested_boxes_one_dimension(self):
        cfg = MonteCarloConfig(n_samples=2000, seed=41)
        rep = martingale_check(1, 4, [1, 2], 1.0, cfg)
        assert rep["means_ok"] and rep["brackets_ok"]
        assert [r["half_side"] for r in rep["rows"]] == [1, 2]
        assert rep["bracket_pairs"][0]["half_sides"] == (1, 2)

    def test_inner_must_be_smaller(self):
        with pytest.raises(ValueError):
            martingale_check(1, 3, [3], 1.0, MonteCarloConfig(n_samples=10))

    def test_ward_moments_strong_coupling(self):
        # Disertori-Spencer-Zirnbauer: at strong coupling in d = 3 the pair
        # moment is at most 2 and the single-site moment at most 8
        rep = martingale_check(3, 2, [1], 20.0, MonteCarloConfig(n_samples=300, seed=37))
        pair, single = rep["rows"][0]["ward_pair"], rep["rows"][0]["ward_single"]
        assert 1.0 <= pair.value <= 2.0 + SE_SLACK * pair.std_error  # cosh^2 >= 1 pointwise
        assert 1.0 <= single.value <= 8.0 + SE_SLACK * single.std_error

    def test_ward_columns_match_dense_solve(self, monkeypatch):
        d, outer, inner, w = 2, 3, [0, 1, 2], 0.8
        seen = _spy_eval_slices(monkeypatch, "_run_chains")
        martingale_check(d, outer, inner, w, MonteCarloConfig(n_samples=150, seed=19))
        g = build_box(d, outer, w=w, boundary="wired")
        k = len(inner)
        ward = 2 * k + k * (k - 1) // 2
        for betas, out in seen:
            assert out.shape == (betas.shape[0], ward + 2 * k)
            for t, l_half in enumerate(inner):
                sub = build_box(d, l_half, w=w, boundary="wired")
                mats = _dense_stack(sub, betas[:, subbox_indices(g, l_half)])
                rhs = np.broadcast_to(sub.eta[:, None], (betas.shape[0], sub.n_vertices, 1))
                u = np.log(np.linalg.solve(mats, rhs)[:, :, 0])
                c = sub.center_index
                np.testing.assert_allclose(out[:, ward + k + t], np.cosh(u[:, c]) ** 2, rtol=1e-12)
                if l_half == 0:
                    assert np.all(np.isnan(out[:, ward + t]))
                    continue
                e = sub.vertex_at([1] + [0] * (d - 1))
                np.testing.assert_allclose(
                    out[:, ward + t], np.cosh(u[:, c] - u[:, e]) ** 2, rtol=1e-12
                )


class TestMonotonicity:
    def test_three_path_coupling_ordering(self):
        g_low = build_grid((3,), 0.5, boundary="wired")
        g_high = build_grid((3,), 1.0, boundary="wired")
        cfg = MonteCarloConfig(n_samples=5000, seed=43)
        rep = monotonicity_check(g_low, g_high, 0, 2, cfg)
        assert rep["ordering_ok"]
        assert rep["quad_gap"] > 0 and rep["quad_ordering_ok"]
        assert rep["mc_matches_quad"]
        assert rep["gap"] == rep["high"].value - rep["low"].value

    def test_gap_std_error_is_that_of_the_per_sample_difference(self):
        # both sides draw on the same streams, so the gap's SE is the SE of
        # the per-sample high - low, not the hypot of the two sides' SEs
        n, seed, chains = 2000, 0, 2
        g_low, g_high = (build_grid((4,), w, boundary="wired") for w in (0.5, 1.0))
        rep = monotonicity_check(g_low, g_high, 0, 3, MonteCarloConfig(n_samples=n, seed=seed, chains=chains))
        ratios = []
        for g in (g_low, g_high):
            wm = g.weight_matrix()
            betas = np.concatenate(
                [sample_beta_batch(g, n // chains, philox_stream(seed, c)) for c in range(chains)]
            )
            greens = np.linalg.inv(2.0 * betas[:, :, None] * np.eye(4) - wm)
            ratios.append(np.sqrt(greens[:, 0, 3] / greens[:, 0, 0]))
        diff = ratios[1] - ratios[0]
        for est, x in zip((rep["low"], rep["high"]), ratios):
            assert est.std_error == pytest.approx(x.std(ddof=1) / math.sqrt(n), rel=1e-12)
        assert rep["gap"] == pytest.approx(diff.mean(), rel=1e-12)
        assert rep["gap_std_error"] == pytest.approx(diff.std(ddof=1) / math.sqrt(n), rel=1e-12)
        assert rep["gap_std_error"] < math.hypot(rep["low"].std_error, rep["high"].std_error)

    @pytest.mark.parametrize(
        "n, w, s, t", [(2, 0.5, 0, 1), (2, 1.0, 0, 1), (3, 1.0, 1, 2)], ids=["path2-w0.5", "path2-w1", "path3-s1"]
    )
    def test_marginal_quadrature_matches_the_full_grid(self, n, w, s, t):
        # one dimension fewer: the statistic integrated against the law of
        # beta_{-s} on integrate_out(g, s) is its integral over all of beta
        g = build_grid((n,), w, boundary="wired")
        h, ratio = _green_ratio(g, s, t)
        keep = np.arange(n) != s
        marginal = quadrature_oracle(h, ratio, tol=1e-7)
        full = quadrature_oracle(g, lambda betas: ratio(betas[:, keep]), tol=1e-7)
        assert abs(marginal - full) <= 1e-12

    def test_quadrature_runs_on_the_marginal(self, monkeypatch):
        # monotonicity_check looks the oracle up on rsolab.field at call time
        sizes = []
        oracle = field.quadrature_oracle

        def spy(g, *args, **kwargs):
            sizes.append(g.n_vertices)
            return oracle(g, *args, **kwargs)

        monkeypatch.setattr(field, "quadrature_oracle", spy)
        for n in (2, 3, 4):
            g_low, g_high = (build_grid((n,), w, boundary="wired") for w in (0.5, 1.0))
            sizes.clear()
            rep = monotonicity_check(g_low, g_high, 0, n - 1, MonteCarloConfig(n_samples=200, seed=n))
            assert sizes == ([n - 1] * 2 if n <= 3 else [])
            assert ("quad_gap" in rep) == (n <= 3)

    def test_domination_validated(self):
        g_low = build_grid((3,), 1.0, boundary="wired")
        g_high = build_grid((3,), 0.5, boundary="wired")
        with pytest.raises(ValueError):
            monotonicity_check(g_low, g_high, 0, 2, MonteCarloConfig(n_samples=10))
        g_other = build_grid((4,), 1.0, boundary="wired")
        with pytest.raises(ValueError):
            monotonicity_check(g_low, g_other, 0, 2, MonteCarloConfig(n_samples=10))
