"""Monte-Carlo estimators and quantitative audits.

Every estimator follows the same protocol: draw exact i.i.d. fields chain by
chain, evaluate a per-sample statistic vector in fixed-size slices, and
reduce (count, sum, centred sum of squares) in slice and chain order.  The
draws are independent, so every reported standard error is valid by
construction; correlated Gibbs chains enter only :func:`gamma_chain_check`,
whose SE comes from :func:`batch_means`.  Slices are the exact sampler's,
sized by :func:`~rsolab.field.slice_size` from n*b alone (n vertices, b the
bandwidth), so a rerun with the same configuration and seed reproduces
every draw — and therefore every report — bit for bit.
Chains run one after another in chain order, so no output depends on the
machine's core count.

Audits compare estimates against closed-form bounds with a uniform 3-standard
-error slack and never mutate the underlying data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import groupby, starmap
from operator import itemgetter

import numpy as np

from .field import SliceWork, laplace_exact, sample_beta_batch, slice_size
from .graphs import WeightedGraph, build_box, integrate_out, subbox_indices
from .operators import (
    BAND_COUNT_MAX,
    FactorizationError,
    _boundary_shift,
    _checked_bc,
    _green_solve,
    _unit_columns,
    count_eigenvalues_many,
    operator_from_two_beta,
    sturm_counts_batch,
)
from .rng import philox_stream

__all__ = [
    "EstimateWithCI",
    "IdsCurve",
    "DecayFit",
    "MonteCarloConfig",
    "estimate_ids",
    "fit_loglog_slope",
    "bound_audit",
    "wegner_audit",
    "decay_moment_fit",
    "gamma_marginal_test",
    "gamma_chain_check",
    "batch_means",
    "laplace_audit",
    "martingale_check",
    "monotonicity_check",
]

#: Uniform statistical slack used by every audit.
SE_SLACK = 3.0


@dataclass(frozen=True)
class EstimateWithCI:
    """A Monte-Carlo mean with its standard error and provenance."""

    value: float
    std_error: float
    n_samples: int
    seed: int


@dataclass(frozen=True)
class IdsCurve:
    """Finite-volume integrated density of states on an energy grid."""

    energies: np.ndarray
    estimates: tuple[EstimateWithCI, ...]
    bc: str
    w: float
    d: int
    half_side: int

    def values(self) -> np.ndarray:
        return np.array([e.value for e in self.estimates])

    def std_errors(self) -> np.ndarray:
        return np.array([e.std_error for e in self.estimates])

    def monotone_violations(self) -> int:
        """Adjacent decreases beyond combined 3-SE noise (diagnostic only)."""
        v, s = self.values(), self.std_errors()
        gaps = v[:-1] - v[1:] - SE_SLACK * (s[:-1] + s[1:])
        return int(np.sum(gaps > 0))


@dataclass(frozen=True)
class DecayFit:
    """Log-linear fit of a Green-moment profile along a lattice axis.

    log_moment_std_errors are the delta-method SEs se/mean of the log
    moments.  The moments are correlated across distances, so no SE of the
    fitted rate follows from them.
    """

    distances: np.ndarray
    log_moments: np.ndarray
    log_moment_std_errors: np.ndarray
    decay_rate: float
    prefactor: float
    r_squared: float


@dataclass(frozen=True)
class MonteCarloConfig:
    """How estimators draw their samples: n_samples exact i.i.d. fields in all.

    The chains run serially in chain order, each on its own random stream.
    """

    n_samples: int
    seed: int = 0
    chains: int = 1

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")
        if self.chains < 1:
            raise ValueError("chains must be positive")


# ---------------------------------------------------------------------------
# Chain / slice plumbing
# ---------------------------------------------------------------------------


def _chain_sizes(total: int, chains: int) -> list[int]:
    base, extra = divmod(total, chains)
    return [base + (1 if c < extra else 0) for c in range(chains)]


def _chain_slices(g: WeightedGraph, cfg: MonteCarloConfig, pair: WeightedGraph | None = None):
    """Yield (chain, slice) pairs of exact (b, n) beta slices in chain order.

    Each chain draws on its own stream, in the sampler's own slices, so its
    slices join into what one ``sample_beta_batch`` call draws.  Every slice
    is a sites-first view of one :class:`~rsolab.field.SliceWork`, which the
    next slice overwrites and which goes when the generator does.  With a
    ``pair`` graph on g's vertices and edges, each slice is an iterator that
    draws g's slice, then the pair's on a copy of the chain's stream.
    """
    size = slice_size(g)
    sizes = _chain_sizes(cfg.n_samples, cfg.chains)
    work = SliceWork(g, min(size, max(sizes)))
    sides = [(g, work)] if pair is None else [(g, work), (pair, work.planned_for(pair))]
    for chain, n_chain in enumerate(sizes):
        rngs = [philox_stream(cfg.seed, chain) for _ in sides]
        for m in (min(size, n_chain - done) for done in range(0, n_chain, size)):
            draws = (sample_beta_batch(h, m, rng, work=w) for (h, w), rng in zip(sides, rngs))
            yield chain, next(draws) if pair is None else draws


def _run_chains(g: WeightedGraph, cfg: MonteCarloConfig, eval_slice, k: int, pair=None):
    """Mean and SE of a k-vector statistic; deterministic ordered reduction.

    eval_slice maps a (b, n) beta slice to a (b, k) statistic array that does
    not alias it, and may overwrite the slice: starmap evaluates each slice
    before the next one is drawn into the same buffers (given a ``pair``, it
    maps the iterator of two slices).  Slices merge into their chain's
    moments, and chains into the total, in order.
    """
    empty = (0, np.zeros(k), np.zeros(k))
    total = empty
    evaluated = starmap(lambda chain, block: (chain, eval_slice(block)), _chain_slices(g, cfg, pair))
    for _, values in groupby(evaluated, key=itemgetter(0)):
        acc = empty
        for _, vals in values:
            s = vals.sum(axis=0)
            centred = vals - s / vals.shape[0]
            acc = _merge_moments(acc, (vals.shape[0], s, (centred * centred).sum(axis=0)))
        total = _merge_moments(total, acc)
    n, s, m2 = total
    mean = s / n
    se = np.sqrt(m2 / (n - 1) / n) if n > 1 else np.zeros(k)
    return mean, se, n


def _merge_moments(a, b):
    """Chan-Golub-LeVeque (1983) pairwise update of (count, sum, M2).

    M2 is the sum of squared deviations from the mean, so a nearly constant
    statistic keeps the significant digits of its variance.
    """
    (na, sa, m2a), (nb, sb, m2b) = a, b
    if na == 0:
        return b
    if nb == 0:
        return a
    n = na + nb
    d = sa / na - sb / nb
    return n, sa + sb, m2a + m2b + d * d * (na * nb / n)


def _collect_values(g: WeightedGraph, cfg: MonteCarloConfig, eval_slice) -> np.ndarray:
    """All per-sample scalar values, in chain order (for KS-style tests); one slice alive at a time."""
    return np.concatenate(list(starmap(lambda _, block: eval_slice(block), _chain_slices(g, cfg))))


def batch_means(chains) -> tuple[float, float]:
    """Mean and standard error of correlated draws, by batch means.

    Each chain, in draw order, is cut into consecutive batches of
    floor(sqrt(n_chain)) draws, dropping a trailing partial batch; the batch
    means of all chains are then treated as independent (Geyer 1992; Flegal
    and Jones 2010), so autocorrelation within a batch enters the SE.
    """
    means = []
    for x in chains:
        size = math.isqrt(x.size)
        means.append(x[: x.size - x.size % size].reshape(-1, size).mean(axis=1))
    means = np.concatenate(means)
    return float(means.mean()), float(means.std(ddof=1) / math.sqrt(means.size))


def _pinning_rate(g: WeightedGraph, betas: np.ndarray, vertex: int) -> np.ndarray:
    """1/(2 G(v,v)) with G = (2 beta - W)^{-1}, one value per row of betas."""
    col = _unit_columns(g.n_vertices, vertex)
    return 0.5 / _green_solve(g, 2.0 * betas, col)[:, vertex, 0]


def _green_ratio(g: WeightedGraph, s: int, t: int):
    """h = integrate_out(g, s) and sqrt(G(s,t)/G(s,s)) as a statistic of beta_{-s}.

    G = (2 beta - W)^{-1}.  Column s of M G = I off row s reads M_{-s} G(., s)
    = W(., s) G(s,s), so the ratios are the solve of the vertex-s-deleted
    block against the couplings to s.  They read only beta_{-s}, whose law
    lives on h, and h serves as the block's graph: :func:`_green_solve` reads
    no eta.  Neither M^{-1} nor det M enters, so the quadrature integrand
    stays stable at the grid's near-singular corners.
    """
    h = integrate_out(g, s)
    if s == t:
        return h, lambda betas: np.ones(betas.shape[0])
    lo, hi = g.edges[:, 0], g.edges[:, 1]
    couplings = np.zeros(g.n_vertices)
    couplings[hi[lo == s]] = g.weights[lo == s]
    couplings[lo[hi == s]] = g.weights[hi == s]
    couplings, col = np.delete(couplings, s)[:, None], t - (t > s)
    return h, lambda betas: np.sqrt(_green_solve(h, 2.0 * betas, couplings)[:, col, 0])


# ---------------------------------------------------------------------------
# Integrated density of states
# ---------------------------------------------------------------------------


def _ids_counter(g: WeightedGraph, w: float, bc: str, energies: np.ndarray):
    """Slice evaluator: each field's eigenvalue counts of H^bc at the sorted energies, over n."""
    n = g.n_vertices
    if g.is_path:
        shift = _boundary_shift(g, bc)
        off = np.full(n - 1, -1.0)

        def eval_slice(betas: np.ndarray) -> np.ndarray:
            betas *= 2.0  # the diagonal 2 beta / w + shift, formed in the slice
            betas /= w
            betas += shift
            return sturm_counts_batch(betas, off, energies) / n
    else:
        if g.bandwidth > BAND_COUNT_MAX:
            g.fill_reducing_pattern  # SuperLU counts: import SciPy before the first draw

        def eval_slice(betas: np.ndarray) -> np.ndarray:
            out = np.empty((betas.shape[0], energies.size))
            for i, beta in enumerate(betas):
                m = operator_from_two_beta(g, 2.0 * beta, bc=bc, scaled=True, w=w)
                out[i] = count_eigenvalues_many(m, energies) / n
            return out

    return eval_slice


def estimate_ids(
    d: int,
    half_side: int,
    w: float,
    bc: str,
    energies,
    cfg: MonteCarloConfig,
) -> IdsCurve:
    """Average normalized eigenvalue counts of the scaled operator H^bc.

    Fields are drawn from the wired-boundary measure (the marginal of the
    larger lattice); bc selects the operator's boundary condition only.
    """
    bc = _checked_bc(bc)
    energies = np.sort(np.asarray(energies, dtype=float).reshape(-1))
    if energies.size == 0:
        raise ValueError("empty energy grid")
    g = build_box(d, half_side, w=w, boundary="wired")
    mean, se, n_tot = _run_chains(g, cfg, _ids_counter(g, w, bc, energies), energies.size)
    ests = tuple(
        EstimateWithCI(value=float(m), std_error=float(s), n_samples=n_tot, seed=cfg.seed)
        for m, s in zip(mean, se)
    )
    return IdsCurve(
        energies=energies, estimates=ests, bc=bc, w=w, d=d, half_side=half_side
    )


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line y = slope x + intercept, and its R^2 (1 for a flat y)."""
    a = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    ss_res = float(np.sum((y - a @ coef) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return float(coef[0]), float(coef[1]), 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def fit_loglog_slope(curve: IdsCurve) -> dict:
    """Least-squares slope of log(estimate) against log(energy) over the positive estimates."""
    v = curve.values()
    keep = v > 0
    if keep.sum() < 2:
        raise ValueError("need at least two positive points to fit a slope")
    slope, intercept, r2 = _line_fit(np.log(curve.energies[keep]), np.log(v[keep]))
    return {
        "slope": slope,
        "intercept": intercept,
        "r_squared": r2,
        "n_points": int(keep.sum()),
    }


def bound_audit(curve: IdsCurve) -> dict:
    """Check the square-root upper bound and report the log-corrected floor.

    The upper bound 2 sqrt(W/pi) sqrt(E) must hold at every grid point up to
    3 SE.  The lower-bound constant is reported as the largest c with
    estimate >= c |log E|^{-d} sqrt(E) - 3 SE over sub-unit energies (the
    constant itself is model-dependent and never asserted), and the ratio
    estimate/E is reported for higher-dimensional strong-coupling runs.
    """
    e = curve.energies
    v = curve.values()
    s = curve.std_errors()
    upper = 2.0 * math.sqrt(curve.w / math.pi) * np.sqrt(np.maximum(e, 0.0))
    upper_ok = bool(np.all(v <= upper + SE_SLACK * s))

    sub = (e > 0) & (e < 1.0)
    if np.any(sub):
        c_candidates = (v[sub] + SE_SLACK * s[sub]) * np.abs(np.log(e[sub])) ** curve.d / np.sqrt(e[sub])
        c_lower = float(np.min(c_candidates))
    else:
        c_lower = None

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(e > 0, v / e, np.nan)
    return {
        "upper_bound": upper,
        "upper_ok": upper_ok,
        "upper_margin_min": float(np.min(upper + SE_SLACK * s - v)),
        "c_lower": c_lower,
        "ratio_to_energy": ratio,
    }


# ---------------------------------------------------------------------------
# Wegner increments
# ---------------------------------------------------------------------------


def wegner_audit(
    d: int,
    half_side: int,
    w: float,
    bc: str,
    energy: float,
    epsilons,
    cfg: MonteCarloConfig,
) -> dict:
    """Spectral mass of (E - eps, E + eps] against 4 sqrt(W/(2 pi)) sqrt(eps).

    Also reports the increment/eps ratio (the Lipschitz regime's constant is
    not known in closed form, so the ratio is informational).
    """
    bc = _checked_bc(bc)
    epsilons = np.asarray(epsilons, dtype=float).reshape(-1)
    if epsilons.size == 0 or np.any(epsilons <= 0):
        raise ValueError("epsilons must be a nonempty list of positive values")
    k = epsilons.size
    grid = np.concatenate([energy - epsilons, energy + epsilons])
    order = np.argsort(grid, kind="stable")
    inverse = np.argsort(order, kind="stable")
    g = build_box(d, half_side, w=w, boundary="wired")
    count = _ids_counter(g, w, bc, grid[order])

    def increments(betas: np.ndarray) -> np.ndarray:
        counts = count(betas)[:, inverse]
        return counts[:, k:] - counts[:, :k]

    # the increment is reduced per sample, so the two counts' correlation enters its SE
    mean, se, _ = _run_chains(g, cfg, increments, k)
    rows = []
    for i, eps in enumerate(epsilons):
        est, se_i = float(mean[i]), float(se[i])
        bound = 4.0 * math.sqrt(w / (2.0 * math.pi)) * math.sqrt(eps)
        rows.append(
            {
                "epsilon": float(eps),
                "estimate": est,
                "std_error": se_i,
                "bound": bound,
                "passed": bool(est <= bound + SE_SLACK * se_i),
                "ratio_to_epsilon": est / eps,
            }
        )
    return {
        "energy": energy,
        "bc": bc,
        "rows": rows,
        "all_passed": all(r["passed"] for r in rows),
    }


# ---------------------------------------------------------------------------
# Green-moment decay
# ---------------------------------------------------------------------------


def decay_moment_fit(
    d: int,
    half_side: int,
    w: float,
    kind: str,
    cfg: MonteCarloConfig,
    boundary: str = "wired",
) -> DecayFit:
    """Fit exponential decay of a Green moment along the first lattice axis.

    kind "quarter": E[(M^{-1}(0, j))^{1/4}] for the unscaled operator M;
    kind "ratio":   E[sqrt(M^{-1}(0, j) / M^{-1}(0, 0))].
    Distances run from the center to the box face.
    """
    if kind not in ("quarter", "ratio"):
        raise ValueError(f"unknown moment kind {kind!r}")
    g = build_box(d, half_side, w=w, boundary=boundary)
    center = g.center_index
    targets = np.array(
        [g.vertex_at([t] + [0] * (d - 1)) for t in range(0, half_side + 1)], dtype=np.int64
    )
    k = targets.size
    rhs = _unit_columns(g.n_vertices, center)

    def eval_slice(betas: np.ndarray) -> np.ndarray:
        cols = _green_solve(g, 2.0 * betas, rhs)[:, :, 0]
        if not np.all(cols[:, targets] > 0):
            raise FactorizationError("Green column lost positivity in a slice")
        if kind == "quarter":
            return cols[:, targets] ** 0.25
        return np.sqrt(cols[:, targets] / cols[:, center, None])

    mean, se, _ = _run_chains(g, cfg, eval_slice, k)
    dists = np.arange(0, half_side + 1, dtype=np.int64)
    logm = np.log(mean)
    slope, intercept, r2 = _line_fit(dists.astype(float), logm)
    return DecayFit(
        distances=dists,
        log_moments=logm,
        log_moment_std_errors=se / mean,
        decay_rate=-slope,
        prefactor=float(np.exp(intercept)),
        r_squared=r2,
    )


# ---------------------------------------------------------------------------
# Distributional audits
# ---------------------------------------------------------------------------


def _gamma_ks(xs: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of xs from Gamma(1/2, 1)."""
    from scipy.special import gammainc
    from scipy.stats import kstest

    return float(kstest(xs, lambda t: gammainc(0.5, t)).statistic)


def gamma_marginal_test(g: WeightedGraph, cfg: MonteCarloConfig, vertex: int = 0) -> dict:
    """Distribution of the diagonal rate 1/(2 M^{-1}(v,v)) under zero eta.

    The law is Gamma(1/2, 1): mean 1/2, variance 1/2; the report carries
    deviations in SE units and the KS distance.
    """
    if np.any(g.eta != 0):
        raise ValueError("the Gamma-marginal statement needs a zero boundary field")
    if not 0 <= vertex < g.n_vertices:
        raise ValueError("vertex out of range")

    xs = _collect_values(g, cfg, partial(_pinning_rate, g, vertex=vertex))
    n = xs.size
    mean = float(xs.mean())
    se_mean = float(xs.std(ddof=1) / math.sqrt(n))
    centered = xs - mean
    var = float(np.sum(centered**2) / (n - 1))
    m4 = float(np.mean(centered**4))
    se_var = math.sqrt(max(m4 - var * var, 0.0) / n)
    return {
        "mean": EstimateWithCI(mean, se_mean, n, cfg.seed),
        "variance": EstimateWithCI(var, se_var, n, cfg.seed),
        "mean_dev_se": abs(mean - 0.5) / se_mean if se_mean > 0 else math.inf,
        "var_dev_se": abs(var - 0.5) / se_var if se_var > 0 else math.inf,
        "ks_distance": _gamma_ks(xs),
    }


def gamma_chain_check(g: WeightedGraph, chains) -> dict:
    """The Gamma(1/2, 1) law of 1/(2 M^{-1}(0,0)) on correlated chains of fields.

    g needs a zero boundary field, as in :func:`gamma_marginal_test`; chains
    holds one (n_k, n) array of fields per chain, in draw order, as
    :func:`~rsolab.field.gibbs_chain` returns them.  The mean's SE comes
    from :func:`batch_means`, so it stays valid under autocorrelation.
    """
    xs = [_pinning_rate(g, betas, 0) for betas in chains]
    mean, se = batch_means(xs)
    return {"mean_dev_se": abs(mean - 0.5) / se, "ks_distance": _gamma_ks(np.concatenate(xs))}


def laplace_audit(g: WeightedGraph, lam_vectors, cfg: MonteCarloConfig) -> dict:
    """MC joint Laplace transform against the closed form, per lambda vector."""
    lams = np.atleast_2d(np.asarray(lam_vectors, dtype=float))
    if lams.shape[1] != g.n_vertices:
        raise ValueError("lambda vectors must match the vertex count")

    def eval_slice(betas: np.ndarray) -> np.ndarray:
        return np.exp(-(betas @ lams.T))

    mean, se, n_tot = _run_chains(g, cfg, eval_slice, lams.shape[0])
    rows = []
    for i in range(lams.shape[0]):
        exact = laplace_exact(g, lams[i])
        if se[i] > 0:
            dev = abs(mean[i] - exact) / se[i]
        else:
            # a degenerate statistic (e.g. lambda = 0) has no noise at all:
            # it passes exactly or fails outright
            dev = 0.0 if mean[i] == exact else math.inf
        rows.append(
            {
                "lam": lams[i],
                "estimate": EstimateWithCI(float(mean[i]), float(se[i]), n_tot, cfg.seed),
                "exact": exact,
                "dev_se": float(dev),
                "passed": bool(dev <= SE_SLACK),
            }
        )
    return {"rows": rows, "all_passed": all(r["passed"] for r in rows)}


# ---------------------------------------------------------------------------
# Nested-box martingale
# ---------------------------------------------------------------------------


def martingale_check(
    d: int,
    outer_half_side: int,
    inner_half_sides,
    w: float,
    cfg: MonteCarloConfig,
) -> dict:
    """Check the boundary-mass martingale across nested boxes.

    For each inner box, psi = (M_inner^{-1} eta_inner^wired)(center) computed
    from the restriction of the outer wired sample.  E[psi] must be 1, and
    E[psi^2] - E[M_inner^{-1}(center, center)] (the compensator) must not
    depend on the inner size; differences are checked with paired errors.

    The same solve gives the sigma-model field u = log M_inner^{-1} eta, so
    u(center) = log psi.  Each row also reports the Ward moments
    ward_pair = E[cosh^2(u(center) - u(e))], with e the center's neighbour
    along the first axis, and ward_single = E[cosh^2 u(center)]; at strong
    coupling in d >= 3 they are bounded by 2 and 8.  Both are informational
    and never asserted; a box of half side 0 has no edge, so its ward_pair
    is None.
    """
    inner = sorted(int(x) for x in inner_half_sides)
    if not inner or inner[-1] >= outer_half_side:
        raise ValueError("inner boxes must be strictly smaller than the outer box")
    g = build_box(d, outer_half_side, w=w, boundary="wired")

    subs = []
    for l_half in inner:
        idx = subbox_indices(g, l_half)
        sub = build_box(d, l_half, w=w, boundary="wired")
        rhs = np.column_stack([sub.eta, _unit_columns(sub.n_vertices, sub.center_index)])
        edge_end = sub.vertex_at([1] + [0] * (d - 1)) if l_half > 0 else None
        subs.append((idx, sub, rhs, edge_end))

    k = len(inner)
    first, second = np.triu_indices(k, 1)
    n_pairs = first.size

    def eval_slice(betas: np.ndarray) -> np.ndarray:
        b = betas.shape[0]
        psi = np.empty((b, k))
        bracket = np.empty((b, k))
        ward_pair = np.full((b, k), np.nan)
        for t, (idx, sub, rhs, edge_end) in enumerate(subs):
            sol = _green_solve(sub, 2.0 * betas[:, idx], rhs)
            psi_t = sol[:, sub.center_index, 0]
            g00_t = sol[:, sub.center_index, 1]
            psi[:, t] = psi_t
            bracket[:, t] = psi_t * psi_t - g00_t
            if edge_end is not None:
                ward_pair[:, t] = np.cosh(np.log(psi_t) - np.log(sol[:, edge_end, 0])) ** 2
        diffs = bracket[:, first] - bracket[:, second]
        ward_single = np.cosh(np.log(psi)) ** 2
        return np.concatenate([psi, bracket, diffs, ward_pair, ward_single], axis=1)

    mean, se, n_tot = _run_chains(g, cfg, eval_slice, 4 * k + n_pairs)

    def estimate(i: int) -> EstimateWithCI:
        return EstimateWithCI(float(mean[i]), float(se[i]), n_tot, cfg.seed)

    ward = 2 * k + n_pairs
    rows = []
    for t, l_half in enumerate(inner):
        psi_est = estimate(t)
        rows.append(
            {
                "half_side": l_half,
                "mean": psi_est,
                "mean_dev_se": abs(psi_est.value - 1.0) / psi_est.std_error
                if psi_est.std_error > 0
                else math.inf,
                "bracket": estimate(k + t),
                "ward_pair": estimate(ward + t) if l_half > 0 else None,
                "ward_single": estimate(ward + k + t),
            }
        )
    pairs = []
    for p, (i, j) in enumerate(zip(first, second)):
        diff, dse = float(mean[2 * k + p]), float(se[2 * k + p])
        pairs.append(
            {
                "half_sides": (inner[i], inner[j]),
                "difference": diff,
                "std_error": dse,
                "ok": bool(abs(diff) <= SE_SLACK * dse),
            }
        )
    return {
        "rows": rows,
        "bracket_pairs": pairs,
        "means_ok": all(r["mean_dev_se"] <= SE_SLACK for r in rows),
        "brackets_ok": all(p["ok"] for p in pairs),
    }


# ---------------------------------------------------------------------------
# Coupling monotonicity
# ---------------------------------------------------------------------------


def monotonicity_check(
    g_low: WeightedGraph,
    g_high: WeightedGraph,
    source: int,
    target: int,
    cfg: MonteCarloConfig,
    quadrature_tol: float = 1e-6,
) -> dict:
    """Ordering of E[sqrt(G(s,t)/G(s,s))] between two comparable measures.

    g_low and g_high must share the edge set, with g_low's weights and
    boundary field dominated by g_high's; the expectation is nondecreasing
    under that domination.  The statistic reads beta_{-s} alone, so on graphs
    of two or three vertices both sides are also integrated over the law of
    beta_{-s} by deterministic quadrature, certified to a tenth of
    quadrature_tol (the MC/quadrature match tolerance).
    """
    if g_low.n_vertices != g_high.n_vertices or not np.array_equal(g_low.edges, g_high.edges):
        raise ValueError("graphs must share the vertex set and edge set")
    if np.any(g_low.weights > g_high.weights) or np.any(g_low.eta > g_high.eta):
        raise ValueError("g_low must be dominated by g_high (weights and eta)")

    from .field import quadrature_oracle

    sides = [_green_ratio(g, source, target) for g in (g_low, g_high)]
    (_, low_ratio), (_, high_ratio) = sides
    keep = np.arange(g_low.n_vertices) != source

    def paired(draws) -> np.ndarray:
        low = low_ratio(next(draws)[:, keep])
        vals = np.empty((low.size, 3), order="F")  # column-major: columns sum as 1-D arrays do
        vals[:, 0] = low
        vals[:, 1] = high_ratio(next(draws)[:, keep])
        np.subtract(vals[:, 1], low, out=vals[:, 2])
        return vals

    # both sides draw on the same streams, so high - low is reduced per sample
    mean, se, n = _run_chains(g_low, cfg, paired, 3, pair=g_high)
    low, high = (EstimateWithCI(float(mean[i]), float(se[i]), n, cfg.seed) for i in (0, 1))
    gap = high.value - low.value
    report = {"low": low, "high": high, "gap": gap, "gap_std_error": float(se[2])}
    report["ordering_ok"] = bool(gap >= -SE_SLACK * se[2])
    if 1 < g_low.n_vertices <= 3:
        tol = quadrature_tol / 10.0
        quad = [quadrature_oracle(h, stat, tol=tol) for h, stat in sides]
        report["quad_low"], report["quad_high"] = quad
        report["quad_gap"] = quad[1] - quad[0]
        report["mc_matches_quad"] = all(
            abs(est.value - q) <= quadrature_tol + SE_SLACK * est.std_error
            for est, q in zip((low, high), quad)
        )
        report["quad_ordering_ok"] = bool(report["quad_gap"] >= -quadrature_tol)
    return report
