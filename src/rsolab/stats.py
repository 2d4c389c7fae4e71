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

from .field import laplace_exact, sample_beta_batch, slice_size
from .graphs import WeightedGraph, build_box, remove_vertex, subbox_indices
from .operators import (
    BAND_COUNT_MAX,
    FactorizationError,
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
    "localization_event_probabilities",
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


def _chain_slices(g: WeightedGraph, cfg: MonteCarloConfig):
    """Yield (chain, slice) pairs of exact (b, n) beta slices in chain order.

    Each chain draws on its own stream, in the sampler's own slices, so its
    slices join into what one ``sample_beta_batch`` call draws.  Each slice
    is a fresh view of sites-first memory that nothing else holds.
    """
    size = slice_size(g)
    for chain, n_chain in enumerate(_chain_sizes(cfg.n_samples, cfg.chains)):
        rng = philox_stream(cfg.seed, chain)
        for done in range(0, n_chain, size):
            yield chain, sample_beta_batch(g, min(size, n_chain - done), rng)


def _run_chains(g: WeightedGraph, cfg: MonteCarloConfig, eval_slice, k: int):
    """Mean and SE of a k-vector statistic; deterministic ordered reduction.

    eval_slice maps a (b, n) beta slice to a (b, k) statistic array and may
    overwrite the slice: starmap drops each slice once it is evaluated, so one
    is alive at a time.  Slices merge into their chain's moments, and chains
    into the total, in order.
    """
    empty = (0, np.zeros(k), np.zeros(k))
    total = empty
    evaluated = starmap(lambda chain, block: (chain, eval_slice(block)), _chain_slices(g, cfg))
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


def _green_ratio(g: WeightedGraph, betas: np.ndarray, s: int, t: int) -> np.ndarray:
    """sqrt(G(s,t)/G(s,s)) with G = (2 beta - W)^{-1}, one value per row of betas.

    Column s of M G = I off row s reads M_{-s} G(., s) = W(., s) G(s,s), so
    the ratios are the solve of the vertex-s-deleted block against the
    couplings to s.  Neither M^{-1} nor det M enters, so the quadrature
    integrand stays stable at the grid's near-singular corners.
    """
    if s == t:
        return np.ones(betas.shape[0])
    keep = np.arange(g.n_vertices) != s
    lo, hi = g.edges[:, 0], g.edges[:, 1]
    couplings = np.zeros(g.n_vertices)
    couplings[hi[lo == s]] = g.weights[lo == s]
    couplings[lo[hi == s]] = g.weights[hi == s]
    x = _green_solve(remove_vertex(g, s), 2.0 * betas[:, keep], couplings[keep, None])
    return np.sqrt(x[:, t - (t > s), 0])


# ---------------------------------------------------------------------------
# Integrated density of states
# ---------------------------------------------------------------------------


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
    n = g.n_vertices
    k = energies.size

    if g.is_path:
        shift = (2 * g.d - g.degree).astype(float) if bc == "dirichlet" else 0.0
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
            out = np.empty((betas.shape[0], k))
            for i, beta in enumerate(betas):
                m = operator_from_two_beta(g, 2.0 * beta, bc=bc, scaled=True, w=w)
                out[i] = count_eigenvalues_many(m, energies) / n
            return out

    mean, se, n_tot = _run_chains(g, cfg, eval_slice, k)
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


def fit_loglog_slope(curve: IdsCurve, e_min: float | None = None, e_max: float | None = None) -> dict:
    """Least-squares slope of log(estimate) against log(energy)."""
    v = curve.values()
    keep = v > 0
    if e_min is not None:
        keep &= curve.energies >= e_min
    if e_max is not None:
        keep &= curve.energies <= e_max
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
    epsilons = np.asarray(epsilons, dtype=float).reshape(-1)
    if np.any(epsilons <= 0):
        raise ValueError("epsilons must be positive")
    grid = np.concatenate([energy - epsilons, energy + epsilons])
    order = np.argsort(grid, kind="stable")
    inverse = np.argsort(order, kind="stable")
    curve = estimate_ids(d, half_side, w, bc, grid[order], cfg)

    k = epsilons.size
    vals = curve.values()[inverse]
    ses = curve.std_errors()[inverse]
    rows = []
    for i, eps in enumerate(epsilons):
        lo, hi = vals[i], vals[k + i]
        # counts are per-sample ordered, so SEs are conservatively combined
        est = hi - lo
        se = float(math.hypot(ses[i], ses[k + i]))
        bound = 4.0 * math.sqrt(w / (2.0 * math.pi)) * math.sqrt(eps)
        rows.append(
            {
                "epsilon": float(eps),
                "estimate": est,
                "std_error": se,
                "bound": bound,
                "passed": bool(est <= bound + SE_SLACK * se),
                "ratio_to_epsilon": est / eps,
            }
        )
    return {
        "energy": energy,
        "bc": curve.bc,
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
# Localization events
# ---------------------------------------------------------------------------


def localization_event_probabilities(
    d: int,
    half_side: int,
    w: float,
    decay_rate: float,
    cfg: MonteCarloConfig,
    energy: float = 0.25,
) -> dict:
    """Probabilities of the boundary-decay and bounded-diagonal events.

    Events (all on the wired box, with L the half side and kappa the given
    decay rate):
      ratio_decay:          sqrt(M^{-1}(0,i)/M^{-1}(0,0)) <= e^{-kappa |i|/2}
                            for every boundary vertex i (unscaled M);
      diag_bounded:         (H^simple)^{-1}(0,0) <= e^{kappa L} (scaled);
      deleted_decay:        center-deleted M^{-1}(i,j) <= e^{-1.5 kappa L}
                            over neighbors i of the center and boundary j;
      localized = ratio_decay AND diag_bounded.

    Also audits the diagonal tail against the Gamma(1/2,1) integral bound and
    the per-sample implication from a large simple-boundary diagonal to a
    large Dirichlet diagonal at the given energy.
    """
    if not decay_rate > 0:
        raise ValueError("decay_rate must be positive")
    g = build_box(d, half_side, w=w, boundary="wired")
    n = g.n_vertices
    center = g.center_index
    boundary_idx = np.nonzero(np.max(np.abs(g.coords), axis=1) == half_side)[0]
    indptr, nbrs, _ = g.neighbor_lists
    center_nbrs = nbrs[indptr[center] : indptr[center + 1]]
    keep = np.ones(n, dtype=bool)
    keep[center] = False
    del_boundary = np.searchsorted(np.nonzero(keep)[0], boundary_idx[boundary_idx != center])
    del_nbrs = np.searchsorted(np.nonzero(keep)[0], center_nbrs)
    g_del = remove_vertex(g, center)
    center_col = _unit_columns(n, center)
    nbr_cols = _unit_columns(n - 1, del_nbrs)
    dirichlet_shift = w * (2 * g.d - g.degree)

    ratio_thresh = np.exp(-decay_rate * np.max(np.abs(g.coords[boundary_idx]), axis=1) / 2.0)
    diag_thresh = math.exp(decay_rate * half_side)
    deleted_thresh = math.exp(-1.5 * decay_rate * half_side)

    # every Green matrix here is symmetric, so a column solve gives the rows
    def eval_slice(betas: np.ndarray) -> np.ndarray:
        b = betas.shape[0]
        gc = _green_solve(g, 2.0 * betas, center_col)[:, :, 0]
        ratios = np.sqrt(gc[:, boundary_idx] / gc[:, center, None])
        ev_ratio = np.all(ratios <= ratio_thresh[None, :], axis=1)
        scaled_diag = w * gc[:, center]
        ev_diag = scaled_diag <= diag_thresh

        deleted = _green_solve(g_del, 2.0 * betas[:, keep], nbr_cols)[:, del_boundary, :]
        ev_deleted = np.all(deleted.reshape(b, -1) <= deleted_thresh, axis=1)

        # the scaled Dirichlet operator is the unscaled one over w
        diag_d = w * _green_solve(g, 2.0 * betas + dirichlet_shift, center_col)[:, center, 0]

        localized = ev_ratio & ev_diag
        big_simple = scaled_diag > 1.0 / energy
        big_dirichlet = diag_d > 1.0 / (2.0 * energy)
        implication_fail = localized & big_simple & ~big_dirichlet
        tail = scaled_diag > diag_thresh
        return np.column_stack(
            [ev_ratio, ev_diag, ev_deleted, localized, implication_fail, tail, localized & big_simple]
        ).astype(float)

    mean, se, n_tot = _run_chains(g, cfg, eval_slice, 7)
    from scipy.special import gammainc

    tail_bound = float(gammainc(0.5, w * math.exp(-decay_rate * half_side) / 2.0))
    names = [
        "ratio_decay",
        "diag_bounded",
        "deleted_decay",
        "localized",
        "implication_failure",
        "diag_tail",
        "localized_and_big_diag",
    ]
    out = {
        name: EstimateWithCI(float(m), float(s), n_tot, cfg.seed)
        for name, m, s in zip(names, mean, se)
    }
    return {
        "events": out,
        "tail_bound": tail_bound,
        "tail_ok": bool(out["diag_tail"].value <= tail_bound + SE_SLACK * out["diag_tail"].std_error),
        "energy": energy,
        "decay_rate": decay_rate,
        "half_side": half_side,
    }


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
    n_pairs = k * (k - 1) // 2

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
        diffs = np.empty((b, n_pairs))
        p = 0
        for i in range(k):
            for j in range(i + 1, k):
                diffs[:, p] = bracket[:, i] - bracket[:, j]
                p += 1
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
    p = 0
    for i in range(k):
        for j in range(i + 1, k):
            diff, dse = float(mean[2 * k + p]), float(se[2 * k + p])
            pairs.append(
                {
                    "half_sides": (inner[i], inner[j]),
                    "difference": diff,
                    "std_error": dse,
                    "ok": bool(abs(diff) <= SE_SLACK * dse),
                }
            )
            p += 1
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
    under that domination.  On graphs of at most three vertices both sides
    are also evaluated by deterministic quadrature certified to a tenth of
    quadrature_tol (the MC/quadrature match tolerance).
    """
    if g_low.n_vertices != g_high.n_vertices or not np.array_equal(g_low.edges, g_high.edges):
        raise ValueError("graphs must share the vertex set and edge set")
    if np.any(g_low.weights > g_high.weights) or np.any(g_low.eta > g_high.eta):
        raise ValueError("g_low must be dominated by g_high (weights and eta)")

    from .field import quadrature_oracle

    results, quad = {}, {}
    for name, g in (("low", g_low), ("high", g_high)):
        stat = partial(_green_ratio, g, s=source, t=target)
        vals = _collect_values(g, cfg, stat)
        n = vals.size
        results[name] = EstimateWithCI(
            float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n)), n, cfg.seed
        )
        if g.n_vertices <= 3:
            quad[name] = quadrature_oracle(g, stat, tol=quadrature_tol / 10.0)

    se_comb = math.hypot(results["low"].std_error, results["high"].std_error)
    gap = results["high"].value - results["low"].value
    report = {
        "low": results["low"],
        "high": results["high"],
        "gap": gap,
        "ordering_ok": bool(gap >= -SE_SLACK * se_comb),
    }
    if quad:
        report["quad_low"] = quad["low"]
        report["quad_high"] = quad["high"]
        report["quad_gap"] = quad["high"] - quad["low"]
        report["mc_matches_quad"] = bool(
            abs(results["low"].value - quad["low"])
            <= quadrature_tol + SE_SLACK * results["low"].std_error
            and abs(results["high"].value - quad["high"])
            <= quadrature_tol + SE_SLACK * results["high"].std_error
        )
        report["quad_ordering_ok"] = bool(report["quad_gap"] >= -quadrature_tol)
    return report
