"""Conductance networks from the pinned Green surrogate.

On a centered box the normalized Green column h(i) = M^{-1}(0,i) / M^{-1}(0,0)
of the plain (simple-boundary) operator M = 2*beta - P^W is positive, equals 1
at the center, and becomes exactly harmonic for the *tilted* operator obtained
by lowering beta at the center by 1/(2 g00).  The h-transform of the tilted
Dirichlet operator on an inner sub-box is then the grounded Laplacian of an
electrical network whose conductances are W h(i) h(j), so the tilted Dirichlet
Green value at the center equals the network's effective resistance from the
center to the boundary sink.  This module builds the surrogate, the tilt, the
network, the two sides of that identity, and a Nash-Williams lower bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .field import BetaField, sample_beta_batch, slice_size
from .graphs import WeightedGraph, build_box
from .operators import (
    FactorizationError,
    green_column,
    operator_from_two_beta,
)
from .rng import philox_stream

__all__ = [
    "GreenSurrogate",
    "ConductanceNetwork",
    "IdentityReport",
    "NetworkError",
    "IdentityMismatchError",
    "subbox_indices",
    "build_surrogate",
    "tilted_field",
    "harmonic_residual",
    "build_network",
    "effective_resistance",
    "nash_williams_bound",
    "identity_check",
    "pinning_gamma_ks",
]

IDENTITY_RTOL = 1e-8
HARMONIC_TOL = 1e-10


class NetworkError(RuntimeError):
    """The conductance network cannot carry current from source to sink."""


class IdentityMismatchError(RuntimeError):
    """Resistance identity violated beyond tolerance (construction bug)."""


@dataclass(frozen=True)
class GreenSurrogate:
    """Normalized center Green column of the simple-boundary operator.

    Attributes:
        graph: the box the field lives on (must carry lattice metadata).
        h: (n,) normalized column, h[center] = 1, h > 0 everywhere.
        g00: Green value at the center (the normalization).
        center: index of the center vertex.
    """

    graph: WeightedGraph
    h: np.ndarray
    g00: float
    center: int


@dataclass(frozen=True)
class ConductanceNetwork:
    """Finite network on inner vertices plus one grounded sink.

    Attributes:
        n_inner: number of inner vertices.
        edges: (m, 2) inner-inner edges.
        cond: (m,) positive conductances for those edges.
        sink_cond: (n_inner,) conductance to the sink (0 = no sink edge).
        source: inner index of the current source.
    """

    n_inner: int
    edges: np.ndarray
    cond: np.ndarray
    sink_cond: np.ndarray
    source: int


@dataclass(frozen=True)
class IdentityReport:
    """One sample's resistance-identity comparison.

    lhs is the tilted Dirichlet Green value at the center, rhs the effective
    resistance of the conductance network; harmonic_residual is the max
    absolute component of the tilted operator applied to h; nash_williams is
    the network's cutset lower bound on rhs.
    """

    lhs: float
    rhs: float
    rel_err: float
    harmonic_residual: float
    nash_williams: float


def subbox_indices(g: WeightedGraph, half_side: int) -> np.ndarray:
    """Indices of vertices with sup-norm coordinate <= half_side.

    The result is in row-major order of the sub-box, i.e. it matches the
    vertex order of ``build_box(g.d, half_side, ...)``.
    """
    if g.coords is None or g.half_side is None:
        raise ValueError("sub-box extraction needs a centered box graph")
    if not 0 <= half_side <= g.half_side:
        raise ValueError("sub-box half_side out of range")
    inside = np.all(np.abs(g.coords) <= half_side, axis=1)
    return np.nonzero(inside)[0]


def build_surrogate(f: BetaField) -> GreenSurrogate:
    """Solve one Green column at the center of the simple-boundary operator."""
    g = f.graph
    center = g.center_index
    m = operator_from_two_beta(g, 2.0 * f.beta, bc="simple", scaled=False, w=f.w)
    col = green_column(m, center)
    g00 = float(col[center])
    if not np.all(col > 0):
        raise FactorizationError("Green column lost positivity")
    h = col / g00
    h.flags.writeable = False
    return GreenSurrogate(graph=g, h=h, g00=g00, center=center)


def tilted_field(f: BetaField, s: GreenSurrogate) -> np.ndarray:
    """beta lowered by 1/(2 g00) at the center only (may be <= 0 there)."""
    beta = f.beta.copy()
    beta[s.center] -= 0.5 / s.g00
    return beta


def harmonic_residual(f: BetaField, s: GreenSurrogate) -> float:
    """max_i |(M_tilted h)(i)|; zero in exact arithmetic."""
    two_beta = 2.0 * tilted_field(f, s)
    m = operator_from_two_beta(f.graph, two_beta, bc="simple", scaled=False, w=f.w)
    return float(np.max(np.abs(m.matvec(s.h))))


def build_network(s: GreenSurrogate, half_side: int, w: float | None = None) -> ConductanceNetwork:
    """Conductance network on the sub-box of the given half side.

    Inner-inner lattice edges get c(i,j) = W h(i) h(j); a vertex with lattice
    neighbors outside the sub-box gets a sink conductance
    sum over those neighbors of W (h(i) h(j) + h(i)^2).  Requires
    half_side < the surrogate box's half side so every such neighbor still
    carries an h value.
    """
    g = s.graph
    if g.half_side is None:
        raise ValueError("network construction needs a centered box graph")
    if not half_side < g.half_side:
        raise ValueError("need half_side < the surrogate box half side")
    if w is None:
        w = g.uniform_weight
        if w is None:
            raise ValueError("non-uniform weights: pass w explicitly")

    inner = subbox_indices(g, half_side)
    pos = np.full(g.n_vertices, -1, dtype=np.int64)
    pos[inner] = np.arange(inner.shape[0])
    h = s.h

    both_in = (pos[g.edges[:, 0]] >= 0) & (pos[g.edges[:, 1]] >= 0)
    ein = g.edges[both_in]
    edges = np.column_stack([pos[ein[:, 0]], pos[ein[:, 1]]])
    cond = w * h[ein[:, 0]] * h[ein[:, 1]]

    sink_cond = np.zeros(inner.shape[0])
    indptr, nbrs, _wts = g.neighbor_lists
    for k, i in enumerate(inner):
        for j in nbrs[indptr[i] : indptr[i + 1]]:
            if pos[j] < 0:
                sink_cond[k] += w * (h[i] * h[j] + h[i] * h[i])

    source = int(pos[s.center])
    if source < 0:
        raise ValueError("center vertex not inside the sub-box")
    return ConductanceNetwork(
        n_inner=int(inner.shape[0]),
        edges=edges,
        cond=cond,
        sink_cond=sink_cond,
        source=source,
    )


def _grounded_laplacian(net: ConductanceNetwork) -> np.ndarray:
    lap = np.zeros((net.n_inner, net.n_inner))
    i, j = net.edges[:, 0], net.edges[:, 1]
    np.add.at(lap, (i, i), net.cond)
    np.add.at(lap, (j, j), net.cond)
    np.subtract.at(lap, (i, j), net.cond)
    np.subtract.at(lap, (j, i), net.cond)
    lap[np.diag_indices_from(lap)] += net.sink_cond
    return lap


def effective_resistance(net: ConductanceNetwork) -> float:
    """Resistance from the source to the sink.

    Solves the Dirichlet problem (unit potential at the source, zero at the
    sink) through the sink-grounded Laplacian and returns one over the
    current leaving the source.
    """
    from scipy.linalg import cho_factor, cho_solve

    lap = _grounded_laplacian(net)
    rhs = np.zeros(net.n_inner)
    rhs[net.source] = 1.0
    try:
        x = cho_solve(cho_factor(lap, lower=True), rhs)
    except np.linalg.LinAlgError as exc:
        raise NetworkError("network is not connected to the sink") from exc
    if not x[net.source] > 0:
        raise NetworkError("no current path from source to sink")
    v = x / x[net.source]
    current = float(net.sink_cond[net.source])
    for (a, b), c in zip(net.edges, net.cond):
        if a == net.source:
            current += c * (1.0 - v[b])
        elif b == net.source:
            current += c * (1.0 - v[a])
    if not current > 0:
        raise NetworkError("no current path from source to sink")
    return 1.0 / current


def nash_williams_bound(net: ConductanceNetwork) -> float:
    """Cutset lower bound on the effective resistance.

    Uses breadth-first levels from the source: the edges joining level k-1
    to level k form disjoint source/sink-separating cutsets, and the bound
    is the sum over levels of the reciprocal cutset conductance.
    """
    sink = net.n_inner
    adj: list[list[int]] = [[] for _ in range(net.n_inner + 1)]
    for a, b in net.edges:
        adj[a].append(int(b))
        adj[b].append(int(a))
    for i, c in enumerate(net.sink_cond):
        if c > 0:
            adj[i].append(sink)
            adj[sink].append(i)

    level = np.full(net.n_inner + 1, -1, dtype=np.int64)
    level[net.source] = 0
    queue = deque([net.source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if level[v] < 0:
                level[v] = level[u] + 1
                queue.append(v)
    if level[sink] < 0:
        raise NetworkError("network is not connected to the sink")

    cut_cond = np.zeros(int(level[sink]))
    for (a, b), c in zip(net.edges, net.cond):
        la, lb = level[a], level[b]
        k = max(la, lb)
        if abs(la - lb) == 1 and k <= level[sink]:
            cut_cond[k - 1] += c
    for i, c in enumerate(net.sink_cond):
        if c > 0 and level[i] == level[sink] - 1:
            cut_cond[level[sink] - 1] += c
    return float(np.sum(1.0 / cut_cond))


def identity_check(
    f: BetaField,
    half_side: int,
    tol: float = IDENTITY_RTOL,
    check: bool = True,
) -> IdentityReport:
    """Compare the tilted Dirichlet Green value with the network resistance.

    Assembles the tilted operator restricted to the sub-box with Dirichlet
    correction, solves for its Green value at the center, and compares with
    the effective resistance of the conductance network built from the same
    surrogate.  The two agree exactly in exact arithmetic; with check=True a
    relative discrepancy beyond tol raises IdentityMismatchError.
    """
    g = f.graph
    if g.d is None:
        raise ValueError("identity check needs a centered box graph")
    s = build_surrogate(f)
    harm = harmonic_residual(f, s)

    net = build_network(s, half_side, w=f.w)
    rhs_val = effective_resistance(net)

    inner = subbox_indices(g, half_side)
    sub = build_box(g.d, half_side, w=f.w, boundary="zero")
    beta_t = tilted_field(f, s)
    m_d = operator_from_two_beta(sub, 2.0 * beta_t[inner], bc="dirichlet", scaled=False, w=f.w)
    lhs_val = float(green_column(m_d, sub.center_index)[sub.center_index])

    rel = abs(lhs_val - rhs_val) / max(abs(lhs_val), abs(rhs_val))
    report = IdentityReport(
        lhs=lhs_val,
        rhs=rhs_val,
        rel_err=rel,
        harmonic_residual=harm,
        nash_williams=nash_williams_bound(net),
    )
    if check and (rel > tol or harm > HARMONIC_TOL):
        raise IdentityMismatchError(
            f"resistance identity violated: lhs={lhs_val!r} rhs={rhs_val!r} "
            f"rel={rel:.3e} harmonic={harm:.3e}"
        )
    return report


def pinning_gamma_ks(
    d: int,
    w: float,
    k_values: list[int],
    n_samples: int,
    seed: int,
) -> list[dict]:
    """KS distance of 1/(2 g00) against Gamma(1/2, 1) for growing boxes.

    The center pinning rate converges in law to Gamma(1/2, 1) as the box
    grows (below the critical coupling); this reports the trend without
    asserting it.
    """
    from .stats import _gamma_ks, _pinning_rate  # stats imports this module

    rows = []
    for chain, k in enumerate(k_values):
        g = build_box(d, k, w=w, boundary="wired")
        betas = sample_beta_batch(g, n_samples, philox_stream(seed, chain))
        size = slice_size(g)
        vals = np.concatenate(
            [
                _pinning_rate(g, betas[i : i + size], g.center_index)
                for i in range(0, n_samples, size)
            ]
        )
        rows.append({"K": k, "ks_distance": _gamma_ks(vals), "n_samples": n_samples})
    return rows
