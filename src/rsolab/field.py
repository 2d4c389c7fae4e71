"""The beta random field: exact density, Laplace transform, and samplers.

The field beta lives on a :class:`~rsolab.graphs.WeightedGraph` and its law is
determined by the edge weights and the boundary field eta.  Writing
M(beta) = 2*diag(beta) - W for the weighted operator, the law has density

    1_{M > 0} * exp(-(<1, M 1> + <eta, M^-1 eta> - 2<1, eta>)/2)
             * det(M)^{-1/2} * (2/pi)^{n/2}            (w.r.t. d beta)

and closed-form Laplace transform

    E[exp(-<lam, beta>)] = exp(-sum_edges w_ij (r_i r_j - t_i t_j)
                               - sum_i eta_i (r_i - t_i)) * prod_i t_i / r_i,

with r = sqrt(t^2 + lam) for any reference point t > 0; the package takes
t = 1 throughout.

Two samplers are provided:

* :func:`sample_beta_batch` — exact i.i.d. draws.  Integrating out a single
  vertex v yields the same family of laws on the remaining graph with
  boundary field eta_i + w_vi for the neighbors i of v, so eliminating
  vertices one at a time and sampling the reciprocal-inverse-Gaussian
  conditionals in reverse order is an exact one-pass scheme for any finite
  graph.  One banded bordering sampler runs it, vectorized across samples,
  in O(n b^2) per sample with b the largest index gap of an edge (b = 1 on
  a path).
* :func:`gibbs_chain` — Markov chain with exact single-site conditionals and
  delayed rank-one Green updates: a site reads its Green row as the
  sweep-start matrix's minus the earlier sites' weighted rows, and the
  matrix is refreshed per sweep, in NumPy.  It is kept for ``rso sample
  --sampler gibbs``, the batch-means cross-check in ``rso validate`` and the
  conditional-law test C4; no estimator uses it.

:func:`quadrature_oracle` integrates against the density on graphs of up
to three vertices, in the pivot variables y_k of the same elimination:
the exact sampler's bordering kernel, given the pivots instead of drawing
them, maps y to beta and to <eta, M^-1 eta>.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graphs import WeightedGraph
from .rig import sample_rig
from .rng import philox_stream

__all__ = [
    "BetaField",
    "SamplerConfig",
    "PositivityLossError",
    "QuadratureBudgetError",
    "log_density",
    "laplace_exact",
    "initial_beta",
    "fresh_green",
    "gibbs_update_site",
    "gibbs_chain",
    "slice_size",
    "sample_beta_batch",
    "exact_field",
    "quadrature_oracle",
]

LOG_2_OVER_PI = math.log(2.0 / math.pi)

#: Budget in n*b scalars and cap in samples of one slice (:func:`slice_size`).
SLICE_SCALARS = 1 << 22
MAX_SLICE = 1 << 16


class PositivityLossError(RuntimeError):
    """The maintained operator lost positive definiteness (round-off)."""


class QuadratureBudgetError(RuntimeError):
    """The small-graph quadrature oracle could not certify the tolerance."""


@dataclass(frozen=True)
class BetaField:
    """A beta configuration bound to the graph and boundary it was sampled under."""

    graph: WeightedGraph
    beta: np.ndarray
    w: float | None = None

    def __post_init__(self):
        beta = np.ascontiguousarray(np.asarray(self.beta, dtype=np.float64))
        if beta.shape != (self.graph.n_vertices,):
            raise ValueError("beta length does not match the graph")
        if not np.all(beta > 0):
            raise ValueError("beta must be strictly positive")
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        if self.w is None:
            object.__setattr__(self, "w", self.graph.uniform_weight)


@dataclass(frozen=True)
class SamplerConfig:
    """Gibbs chain configuration: seed, burn-in sweeps, sweeps between samples."""

    seed: int = 0
    burn_in: int = 500
    thinning: int = 10

    def __post_init__(self):
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")


def _dense_operator(g: WeightedGraph, beta: np.ndarray) -> np.ndarray:
    m = -g.weight_matrix()
    idx = np.arange(g.n_vertices)
    m[idx, idx] = 2.0 * beta
    return m


def log_density(f: BetaField) -> float:
    """Log of the field density at f.beta; -inf outside the support.

    One dense Cholesky factor supplies both the log-determinant and the
    boundary quadratic form; :func:`_log_density_batch` combines them.
    """
    g = f.graph
    if g.n_vertices == 0:
        raise ValueError("empty graph")
    from scipy.linalg import cho_factor, cho_solve

    m = _dense_operator(g, f.beta)
    try:
        c, lower = cho_factor(m, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        return -math.inf
    diag = np.diag(c)
    if not np.all(np.isfinite(diag)) or np.any(diag <= 0):
        return -math.inf
    logdet = 2.0 * float(np.sum(np.log(diag)))
    if np.any(g.eta):
        x = cho_solve((c, lower), g.eta, check_finite=False)
        q_eta = float(g.eta @ x)
    else:
        q_eta = 0.0
    return float(_log_density_batch(g, f.beta[None], q_eta, logdet)[0])


def laplace_exact(g: WeightedGraph, lam) -> float:
    """Closed-form E[exp(-<lam, beta>)] for the field on g (reference point t = 1)."""
    lam = np.asarray(lam, dtype=float).reshape(-1)
    if lam.shape[0] != g.n_vertices:
        raise ValueError("lambda length does not match the graph")
    if np.any(lam < 0):
        raise ValueError("lambda must be nonnegative")
    r = np.sqrt(1.0 + lam)
    i, j = g.edges[:, 0], g.edges[:, 1]
    edge_term = float(np.sum(g.weights * (r[i] * r[j] - 1.0)))
    eta_term = float(np.sum(g.eta * (r - 1.0)))
    return math.exp(-edge_term - eta_term - float(np.sum(np.log(r))))


# ---------------------------------------------------------------------------
# Gibbs sampler with maintained Green matrix
# ---------------------------------------------------------------------------


def initial_beta(g: WeightedGraph) -> np.ndarray:
    """Diagonally dominant start: beta_i = (weighted degree + eta_i + 1)/2."""
    return 0.5 * (g.degree_w + g.eta + 1.0)


def fresh_green(g: WeightedGraph, beta: np.ndarray) -> np.ndarray:
    """D inv(D M D) D, symmetrized, with D = diag(2 beta)^{-1/2}: the unit diagonal keeps
    badly scaled operators accurate, and a Cholesky factor of D M D checks positivity."""
    if not np.all(beta > 0):
        raise PositivityLossError("nonpositive beta at refresh; inspect the field")
    d = 1.0 / np.sqrt(2.0 * beta)
    m = d[:, None] * _dense_operator(g, beta) * d
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise PositivityLossError(
            "operator not positive definite at refresh; inspect the field"
        ) from exc
    green = d[:, None] * np.linalg.inv(m) * d
    return 0.5 * (green + green.T)


def gibbs_update_site(beta, green, eta, j, rng, rows, c) -> tuple[float, float]:
    """One exact conditional update at site j of a sweep in vertex order.

    Returns (y, a): the drawn Schur variable and its conditional parameter.
    ``green`` is G0, the Green matrix at the sweep's start, only read.  Each
    earlier site i left its Green row u_i in ``rows[i]`` and the weight c_i =
    delta_i / (1 + delta_i G_ii) = delta_i / (y_i G_ii) of its rank-one update
    in ``c[i]``, so row j is G0[j] - sum_{i<j} c_i u_i[j] u_i.  The step
    writes beta[j], rows[j] and c[j] only.
    """
    u = np.subtract(green[j], (c[:j] * rows[:j, j]) @ rows[:j], out=rows[j])
    gjj = float(u[j])
    a = float(u @ eta) / gjj
    s = 2.0 * float(beta[j]) - 1.0 / gjj
    y = sample_rig(a, rng)
    beta[j] = 0.5 * (y + s)
    delta = y - 1.0 / gjj  # change in the diagonal entry 2*beta_j
    c[j] = delta / (1.0 + delta * gjj)
    return y, a


def gibbs_chain(
    g: WeightedGraph, cfg: SamplerConfig, n_samples: int, chain: int = 0
) -> np.ndarray:
    """Thinned Gibbs configurations as an (n_samples, n) array.

    Each sweep updates every site once, in the fixed vertex order
    (reproducibility), against the Green matrix of the sweep's start, then
    recomputes it from a fresh factorization, which also detects any
    accumulated loss of positivity; no update touches the full matrix.
    Row k is the field after sweep ``burn_in + (k+1)*thinning``.
    Deterministic given (cfg.seed, chain).
    """
    if g.n_vertices == 0:
        raise ValueError("empty graph")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = philox_stream(cfg.seed, chain)
    beta = initial_beta(g)
    green, rows, c = fresh_green(g, beta), np.empty((beta.size,) * 2), np.empty(beta.size)
    out = np.empty((n_samples, g.n_vertices))
    for sweep in range(1, cfg.burn_in + n_samples * cfg.thinning + 1):
        for j in range(g.n_vertices):
            gibbs_update_site(beta, green, g.eta, j, rng, rows, c)
        green = fresh_green(g, beta)
        k, rest = divmod(sweep - cfg.burn_in, cfg.thinning)
        if k > 0 and rest == 0:
            out[k - 1] = beta
    return out


# ---------------------------------------------------------------------------
# Exact sequential sampler
# ---------------------------------------------------------------------------


def _band_plan(g: WeightedGraph):
    """Tables for :func:`_border_band`, vectorized over edges.

    Returns (b, nbrs, f, c, has_c): the bandwidth b = ``g.bandwidth``; per
    vertex k, its forward neighbors as (window slot j - k - 1, weight)
    pairs, with one of weight 0 standing in for none;
    f[k] = eta_k + sum_{m<k} w_mk; and c[k, i] = sum_{m<k} w_{m,k+1+i}.
    """
    n, b = g.n_vertices, g.bandwidth
    lo, hi = g.edges[:, 0], g.edges[:, 1]
    span = hi - lo
    f = (g.eta + np.bincount(hi, weights=g.weights, minlength=n)).tolist()
    # edge (m, j) adds w_mj to c[k, j - k - 1] for every m < k < j
    reps = span - 1
    e = np.repeat(np.arange(span.size), reps)
    k = lo[e] + 1 + np.arange(e.size) - np.repeat(np.cumsum(reps) - reps, reps)
    c = np.bincount(k * b + hi[e] - k - 1, weights=g.weights[e], minlength=n * b).reshape(n, b)
    pairs = list(zip((span - 1).tolist(), g.weights.tolist()))
    starts = np.searchsorted(lo, np.arange(n + 1)).tolist()
    nbrs = [pairs[starts[v] : starts[v + 1]] or [(0, 0.0)] for v in range(n)]
    return b, nbrs, f, c, c.any(axis=1).tolist()


def _forward_sum(rows: np.ndarray, nbrs, out=None) -> np.ndarray:
    """Sum of w * rows[i] over the (i, w) pairs in nbrs."""
    (i, w), *rest = nbrs
    out = np.multiply(rows[i], w, out=out)
    for i, w in rest:
        out += w * rows[i]
    return out


class SliceWork:
    """Flat buffers for exact draws of up to ``size`` samples on g.

    A draw of m <= size samples takes a contiguous prefix of each, so its
    beta block stays sites-first.  The estimators lend one to every slice of
    a run; other draws get their own.  ``rig`` adds :func:`sample_rig`'s six
    scratch rows, which only drawn pivots need.
    """

    def __init__(self, g: WeightedGraph, size: int, rig: bool = True):
        n, b = g.n_vertices, g.bandwidth
        self.plan, self.n = _band_plan(g), n
        # the green and t window pairs, ubuf, the per-vertex rows wt, a, s and ry
        self.shapes = [(2, b, b), (2, b), (b + 1,), (3,), (b,)]
        self.beta = np.empty(n * size)
        self.rows = np.empty(sum(math.prod(shape) for shape in self.shapes) * size)
        self.rig = np.empty(6 * size) if rig else None

    def planned_for(self, g: WeightedGraph) -> "SliceWork":
        """These buffers, planned for g, a graph with this one's vertices and edges."""
        work = copy.copy(self)
        work.plan = _band_plan(g)
        return work

    def views(self, m: int):
        """The beta block (n, m) and the window rows of a draw of m samples."""
        rows, start = [], 0
        for shape in self.shapes:
            rows.append(self.rows[start : start + math.prod(shape) * m].reshape(*shape, m))
            start += math.prod(shape) * m
        return self.beta[: self.n * m].reshape(self.n, m), rows


def _border_band(g: WeightedGraph, work: SliceWork, n_samples: int, pivot: Callable, q=None):
    """Banded bordering elimination: O(b^2) work per vertex, vectorized.

    Vertices are eliminated in index order, so the pivots y_k = 2 beta_k -
    w_k' G_{>k} w_k (the Schur complements) are visited from n-1 down, and
    ``pivot(k, a)`` supplies y_k as an array over the samples: the sampler
    draws it from the RIG law with parameter a_k, the quadrature reads it
    from its grid.  Every neighbor j > k of vertex k lies in the window
    k+1 .. k+b, so each sample carries only the window block ``green`` of
    the suffix Green matrix G_{>k} and the window part ``t`` of G_{>k} eta.
    With u = green w_k, the Schur term is w_k'u and a_k = f_k + w_k't +
    u'c_k is a sum of nonnegative terms (G_{>k} is entrywise nonnegative),
    so it never cancels below zero.  After taking y the window gains vertex
    k by bordering with pivot 1/y and drops vertex k+b.  At b = 1 this is
    the O(n) path recursion.  Returns beta (n_samples, n), a view of the
    sites-first block of ``work``, filled one contiguous row per vertex;
    when an array ``q`` is given, <eta, M^-1 eta> = sum_k s_k^2 / y_k, with
    s_k = eta_k + w_k't, is added into it.
    """
    b, nbrs, f, c, has_c = work.plan
    eta = g.eta.tolist()
    # samples on the last axis: every per-vertex step works on contiguous rows
    beta, ((green, green_next), (t, t_next), ubuf, (wt, a, s), ry) = work.views(n_samples)
    green.fill(0.0)
    t.fill(0.0)
    # r = [1, u_0 .. u_{b-2}] borders the shifted window: new block = shift + r r'/y
    ubuf[0] = 1.0
    u, r = ubuf[1:], ubuf[:-1]
    for k in range(g.n_vertices - 1, -1, -1):
        _forward_sum(green, nbrs[k], out=u)
        np.add(f[k], _forward_sum(t, nbrs[k], out=wt), out=a)
        if has_c[k]:
            a += np.matmul(c[k], u, out=s)  # s is free until it is set below
        y = pivot(k, a)
        np.add(y, _forward_sum(u, nbrs[k], out=beta[k]), out=beta[k])
        np.divide(r, y, out=ry)
        np.multiply(ry[:, None], r[None], out=green_next)
        np.add(eta[k], wt, out=s)
        np.multiply(ry, s, out=t_next)
        if q is not None:
            q += s * t_next[0]  # t_next[0] = s / y
        if b > 1:
            green_next[1:, 1:] += green[:-1, :-1]
            t_next[1:] += t[:-1]
        green, green_next = green_next, green
        t, t_next = t_next, t
    beta *= 0.5
    return beta.T


def slice_size(g: WeightedGraph) -> int:
    """Samples per slice of exact draws on g; this fixes the stream layout.

    :func:`sample_beta_batch` draws slices of this size, and the estimators of
    :mod:`rsolab.stats` evaluate them one at a time.  With n vertices and b =
    ``g.bandwidth``, a slice of S <= ``MAX_SLICE`` samples keeps S*n*b <=
    ``SLICE_SCALARS`` = 2^22 scalars (32 MB) unless one sample exceeds that:
    the beta block stays within it, the sampler's windows and a Green
    solve's band within about twice it.  The size depends on the graph
    alone, so reruns are byte-identical.
    """
    return min(MAX_SLICE, max(1, SLICE_SCALARS // (g.n_vertices * g.bandwidth)))


def sample_beta_batch(
    g: WeightedGraph, n_samples: int, rng: np.random.Generator, work: SliceWork | None = None
) -> np.ndarray:
    """Exact i.i.d. field samples, shape (n_samples, n_vertices).

    Drawn in slices of :func:`slice_size`, one after another on ``rng``, into
    sites-first memory: the result's transpose is C-contiguous.  Given a
    :class:`SliceWork` for g and at most its size in samples, the draw runs
    in its buffers, and the result is a view that the next draw overwrites.
    """
    if g.n_vertices == 0:
        raise ValueError("empty graph")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if work is not None:
        rig = work.rig[: 6 * n_samples].reshape(6, n_samples)
        # sample_rig is looked up in this module at every draw, so a wrapper
        # set on rsolab.field.sample_rig (the benchmark's timers) sees every element
        return _border_band(g, work, n_samples, lambda k, a: sample_rig(a, rng, work=rig))
    size = slice_size(g)
    parts = [
        _border_band(g, SliceWork(g, m, rig=False), m, lambda k, a: sample_rig(a, rng))
        for m in (min(size, n_samples - start) for start in range(0, n_samples, size))
    ]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def exact_field(g: WeightedGraph, rng: np.random.Generator) -> BetaField:
    """One exact sample wrapped as a BetaField."""
    return BetaField(graph=g, beta=sample_beta_batch(g, 1, rng)[0])


# ---------------------------------------------------------------------------
# Small-graph quadrature oracle
# ---------------------------------------------------------------------------

#: Gauss-Legendre panel edges in s = sqrt(y) coordinates, before scaling.
_PANEL_EDGES = np.array([0.0, 0.3, 0.6, 1.0, 1.4, 1.9, 2.5, 3.2, 4.0, 5.0, 6.5, 8.0, 10.0, 13.0, 16.0])
#: Grid nodes per chunk of :func:`_eval_grid`.  Each chunk adds one partial
#: sum, so this value fixes the last bits of every quadrature result: retuning
#: it moves the ``quadrature`` column of ``monotonicity.csv``.
_QUAD_CHUNK = 200_000


def _pivots_to_field(g: WeightedGraph, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map pivot variables y (M, n) to (beta, <eta, inverse(M) eta>).

    The change of variables is triangular — beta_k = (y_k + S_k(beta_{>k}))/2
    with S_k the Schur coupling through the suffix block — so its Jacobian is
    2^{-n}, y > 0 exactly parametrizes the positive-definiteness region, and
    det = prod_k y_k.  It is the sampler's bordering elimination with the
    pivots read instead of drawn, which stays finite even at grid corners
    where an LU factorization of the assembled matrix would be numerically
    singular (the huge quadratic form correctly drives the density weight
    to zero).
    """
    q = np.zeros(y.shape[0])
    m = y.shape[0]
    beta = _border_band(g, SliceWork(g, m, rig=False), m, lambda k, a: y[:, k], q)
    return beta, q


def _log_density_batch(
    g: WeightedGraph, beta: np.ndarray, q_eta: np.ndarray, log_pivots: np.ndarray
) -> np.ndarray:
    """Log-density of each row of beta, given <eta, M^-1 eta> and log det M."""
    q_ones = 2.0 * beta.sum(axis=1) - 2.0 * float(np.sum(g.weights))
    cross = 2.0 * float(np.sum(g.eta))
    n = beta.shape[1]
    return -0.5 * (q_ones + q_eta - cross) - 0.5 * log_pivots + 0.5 * n * LOG_2_OVER_PI


def _eval_grid(
    g: WeightedGraph,
    integrand: Callable,
    nodes_1d: np.ndarray,
    weights_1d: np.ndarray,
) -> float:
    """Tensor-product integral of integrand * density over the support."""
    n = g.n_vertices
    shape = (nodes_1d.size,) * n
    n_pts = nodes_1d.size**n
    log_nodes = np.log(nodes_1d)
    total = 0.0
    # each chunk's nodes come from its own flat index range, so memory is
    # bounded by _QUAD_CHUNK rather than by the whole tensor grid
    for start in range(0, n_pts, _QUAD_CHUNK):
        idx = np.unravel_index(np.arange(start, min(start + _QUAD_CHUNK, n_pts)), shape)
        s = np.stack([nodes_1d[i] for i in idx], axis=1)
        wq = np.prod(np.stack([weights_1d[i] for i in idx], axis=1), axis=1)
        y = s * s
        beta, q_eta = _pivots_to_field(g, y)
        log_piv = 2.0 * np.sum(np.stack([log_nodes[i] for i in idx], axis=1), axis=1)
        logrho = _log_density_batch(g, beta, q_eta, log_piv)
        vals = np.asarray(integrand(beta), dtype=float)
        if vals.shape != (beta.shape[0],):
            raise ValueError(f"integrand returned shape {vals.shape} on {beta.shape[0]} fields")
        # d beta = 2^{-n} dy and dy = prod(2 s_i) ds  =>  d beta = prod(s_i) ds
        total += float(np.sum(vals * np.exp(logrho) * np.prod(s, axis=1) * wq))
    return total


def quadrature_oracle(
    g: WeightedGraph,
    integrand: Callable,
    tol: float = 1e-8,
) -> float:
    """Integrate integrand(beta) * density over the support, |V| <= 3.

    ``integrand`` is vectorized: it maps an (M, n) beta array to (M,)
    values, and any other result shape raises ValueError.  Its exceptions
    propagate.  Adaptive in the sense of panelized Gauss-Legendre at two
    orders: if the refinement changes the value by more than ``tol``
    (absolute), the budget is deemed insufficient and
    :class:`QuadratureBudgetError` is raised.

    Independent of the samplers' draws: the weights come from the closed
    density formula; what it shares with the exact sampler is the change of
    variables, the same bordering kernel with the pivots read from the grid.
    """
    n = g.n_vertices
    if not 1 <= n <= 3:
        raise ValueError("quadrature oracle supports 1 to 3 vertices")
    scale = max(1.0, math.sqrt((2.0 + float(np.max(g.eta + g.degree_w))) / 3.0))
    edges = _PANEL_EDGES * scale
    results = []
    for order in (16, 24):
        x, w = np.polynomial.legendre.leggauss(order)
        nodes, wts = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            half = 0.5 * (hi - lo)
            nodes.append(lo + half * (x + 1.0))
            wts.append(half * w)
        results.append(_eval_grid(g, integrand, np.concatenate(nodes), np.concatenate(wts)))
    if not math.isfinite(results[1]) or abs(results[1] - results[0]) > tol:
        raise QuadratureBudgetError(
            f"quadrature did not certify tol={tol:g}: orders gave {results[0]!r}, {results[1]!r}"
        )
    return results[1]
