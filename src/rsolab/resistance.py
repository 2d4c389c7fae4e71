"""Conductance networks from the pinned Green surrogate.

On a centered box the normalized Green column h(i) = M^{-1}(0,i) / M^{-1}(0,0)
of the plain (simple-boundary) operator M = 2*beta - P^W is positive, equals 1
at the center, and becomes exactly harmonic for the *tilted* operator obtained
by lowering beta at the center by 1/(2 g00).  The h-transform of the tilted
Dirichlet operator on an inner sub-box is then the grounded Laplacian of an
electrical network whose conductances are W h(i) h(j), so the tilted Dirichlet
Green value at the center equals the network's effective resistance from the
center to the boundary sink.  The network is a :class:`WeightedGraph` on the
sub-box whose ``eta`` holds the conductances to the grounded sink, and both
sides of the identity are Green values solved by the same banded Cholesky.
This module builds the surrogate, the tilt, the network, the two sides of
that identity, and a Nash-Williams lower bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .field import BetaField
from .graphs import WeightedGraph, attach_delta, build_box, subbox_indices
from .operators import (
    FactorizationError,
    green_column,
    operator_from_two_beta,
)

__all__ = [
    "GreenSurrogate",
    "IdentityReport",
    "NetworkError",
    "build_surrogate",
    "tilted_field",
    "harmonic_residual",
    "build_network",
    "effective_resistance",
    "nash_williams_bound",
    "identity_check",
]

IDENTITY_RTOL = 1e-8
HARMONIC_TOL = 1e-10
_zero_box = lru_cache(partial(build_box, boundary="zero"))  # identity_check's sub-box; graphs are read-only


class NetworkError(RuntimeError):
    """The conductance network cannot carry current from source to sink."""


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


def build_network(s: GreenSurrogate, half_side: int, w: float | None = None) -> WeightedGraph:
    """Conductance network on the sub-box of the given half side.

    The result has the vertex order, edges and lattice metadata of
    ``build_box(d, half_side)``.  Its edge weights are the conductances
    c(i,j) = W h(i) h(j), and its ``eta`` is each vertex's conductance to the
    grounded sink: the sum over lattice neighbors j outside the sub-box of
    W (h(i) h(j) + h(i)^2).  Requires half_side < the surrogate box's half
    side so every such neighbor still carries an h value.
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
    lo, hi = g.edges[:, 0], g.edges[:, 1]
    lo_in, hi_in = pos[lo] >= 0, pos[hi] >= 0

    both = lo_in & hi_in
    edges = np.column_stack((pos[lo[both]], pos[hi[both]]))
    cond = w * h[lo[both]] * h[hi[both]]

    # g.edges is sorted, so each vertex meets its outside neighbors in index order
    cross = lo_in != hi_in
    i = np.where(lo_in, lo, hi)[cross]
    j = np.where(lo_in, hi, lo)[cross]
    eta = np.bincount(pos[i], weights=w * (h[i] * h[j] + h[i] * h[i]), minlength=inner.shape[0])

    return WeightedGraph(
        n_vertices=inner.shape[0],
        edges=edges,
        weights=cond,
        eta=eta,
        d=g.d,
        half_side=half_side,
        shape=(2 * half_side + 1,) * g.d,
        coords=g.coords[inner],
    )


def effective_resistance(net: WeightedGraph, source: int) -> float:
    """Resistance from the source to the sink that ``net.eta`` conducts to.

    Equals the source's diagonal entry of the inverse grounded Laplacian
    diag(degree_w + eta) - W, solved by banded Cholesky.
    """
    lap = operator_from_two_beta(net, net.degree_w + net.eta)
    try:
        return float(green_column(lap, source)[source])
    except FactorizationError as exc:
        raise NetworkError("network is not connected to the sink") from exc


def nash_williams_bound(net: WeightedGraph, source: int) -> float:
    """Cutset lower bound on the effective resistance.

    Uses breadth-first levels from the source, with the sink as the ghost
    vertex of ``attach_delta(net)``: the edges joining level k-1 to level k
    form disjoint source/sink-separating cutsets, and the bound is the sum
    over levels of the reciprocal cutset conductance.
    """
    if not np.any(net.eta > 0):
        raise NetworkError("network is not connected to the sink")
    aug = attach_delta(net)
    indptr, nbrs, _wts = aug.neighbor_lists
    level = np.full(aug.n_vertices, -1, dtype=np.int64)
    level[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in nbrs[indptr[u] : indptr[u + 1]].tolist():
            if level[v] < 0:
                level[v] = level[u] + 1
                queue.append(v)
    depth = int(level[aug.delta])
    if depth < 0:
        raise NetworkError("network is not connected to the sink")

    la, lb = level[aug.edges[:, 0]], level[aug.edges[:, 1]]
    k = np.maximum(la, lb)
    cut = (np.abs(la - lb) == 1) & (k <= depth)
    cut_cond = np.bincount(k[cut] - 1, weights=aug.weights[cut], minlength=depth)
    return float(np.sum(1.0 / cut_cond))


def identity_check(f: BetaField, half_side: int) -> IdentityReport:
    """Compare the tilted Dirichlet Green value with the network resistance.

    Assembles the tilted operator restricted to the sub-box with Dirichlet
    correction, solves for its Green value at the center, and compares with
    the effective resistance of the conductance network built from the same
    surrogate.  The two agree exactly in exact arithmetic; callers hold the
    report's ``rel_err`` to ``IDENTITY_RTOL`` and its ``harmonic_residual``
    to ``HARMONIC_TOL``.
    """
    g = f.graph
    if g.d is None:
        raise ValueError("identity check needs a centered box graph")
    s = build_surrogate(f)
    harm = harmonic_residual(f, s)

    net = build_network(s, half_side, w=f.w)
    rhs_val = effective_resistance(net, net.center_index)

    inner = subbox_indices(g, half_side)
    sub = _zero_box(g.d, half_side, w=f.w)
    beta_t = tilted_field(f, s)
    m_d = operator_from_two_beta(sub, 2.0 * beta_t[inner], bc="dirichlet", scaled=False, w=f.w)
    lhs_val = float(green_column(m_d, sub.center_index)[sub.center_index])

    return IdentityReport(
        lhs=lhs_val,
        rhs=rhs_val,
        rel_err=abs(lhs_val - rhs_val) / max(abs(lhs_val), abs(rhs_val)),
        harmonic_residual=harm,
        nash_williams=nash_williams_bound(net, net.center_index),
    )
