"""Finite weighted graphs: lattice boxes, boundary fields, ghost-vertex augmentation.

The central object is :class:`WeightedGraph`: a finite vertex set with
symmetric positive edge weights and a per-vertex nonnegative boundary field
``eta``.  Lattice boxes carry coordinate metadata so that operators built on
them know their ambient dimension (needed for the Dirichlet diagonal
correction) and estimators can locate the center vertex and boundary shells.

Graphs are immutable: derived graphs (ghost vertex attached, vertex integrated
out) are new values, so one graph can be shared freely across sampler chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence, Union

import numpy as np

__all__ = [
    "MAX_VERTICES_DEFAULT",
    "Pinned",
    "BoundaryKind",
    "WeightedGraph",
    "build_grid",
    "build_box",
    "subbox_indices",
    "attach_delta",
    "integrate_out",
    "dump_graph",
    "load_graph",
]

#: Desk-scale guard: constructors refuse larger vertex sets unless overridden.
MAX_VERTICES_DEFAULT = 65_536

#: Dense-matrix guard used by ``weight_matrix`` and downstream dense solvers.
DENSE_MAX = 4_096

GRAPH_DUMP_HEADER = "# rso-graph v1"


@dataclass(frozen=True)
class Pinned:
    """Boundary field concentrated at a single vertex: eta = strength * e_vertex."""

    vertex: int
    strength: float


#: How callers request a boundary field: the strings "zero" / "wired",
#: a :class:`Pinned` value, or an explicit nonnegative vector.
BoundaryKind = Union[str, Pinned, Sequence[float], np.ndarray]


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class WeightedGraph:
    """Immutable finite graph with positive edge weights and boundary field.

    Attributes:
        n_vertices: number of vertices, indexed densely 0..n-1.
        edges: (m, 2) int64 array, each row (i, j) with i < j, sorted
            lexicographically; each unordered pair stored once.
        weights: (m,) positive edge weights, aligned with ``edges``.
        eta: (n,) nonnegative boundary field.
        d: ambient lattice dimension when the graph is a box/grid in Z^d
            (None for hand-built graphs).
        half_side: radius L for symmetric boxes [-L, L]^d (None otherwise).
        shape: grid extents when built by :func:`build_grid` (None otherwise).
        coords: (n_lattice, d) integer coordinates of the lattice vertices;
            when a ghost vertex is attached it has no coordinate row, so
            ``coords`` may have fewer rows than ``n_vertices``.
        delta: index of the ghost sink vertex, if one was attached.
    """

    n_vertices: int
    edges: np.ndarray
    weights: np.ndarray
    eta: np.ndarray
    d: int | None = None
    half_side: int | None = None
    shape: tuple[int, ...] | None = None
    coords: np.ndarray | None = None
    delta: int | None = None

    def __post_init__(self):
        n = int(self.n_vertices)
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        eta = np.asarray(self.eta, dtype=np.float64).reshape(-1)
        if edges.shape[0] != weights.shape[0]:
            raise ValueError("edges and weights length mismatch")
        if eta.shape[0] != n:
            raise ValueError(f"eta must have length {n}, got {eta.shape[0]}")
        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                raise ValueError("edge endpoint out of range")
            if np.any(edges[:, 0] >= edges[:, 1]):
                raise ValueError("edges must be stored as (i, j) with i < j")
            order = np.lexsort((edges[:, 1], edges[:, 0]))
            edges = edges[order]
            weights = weights[order]
            same = np.all(edges[1:] == edges[:-1], axis=1)
            if np.any(same):
                raise ValueError("duplicate edge")
            if np.any(weights <= 0):
                raise ValueError("edge weights must be strictly positive")
        if np.any(eta < 0):
            raise ValueError("eta must be nonnegative")
        object.__setattr__(self, "n_vertices", n)
        object.__setattr__(self, "edges", _as_readonly(edges))
        object.__setattr__(self, "weights", _as_readonly(weights))
        object.__setattr__(self, "eta", _as_readonly(eta))
        if self.coords is not None:
            coords = np.asarray(self.coords, dtype=np.int64)
            object.__setattr__(self, "coords", _as_readonly(coords))

    # -- derived structure ------------------------------------------------

    @property
    def n_edges(self) -> int:
        return int(self.edges.shape[0])

    @cached_property
    def degree_w(self) -> np.ndarray:
        """Weighted degree: sum of incident edge weights per vertex."""
        deg = np.zeros(self.n_vertices)
        np.add.at(deg, self.edges[:, 0], self.weights)
        np.add.at(deg, self.edges[:, 1], self.weights)
        return _as_readonly(deg)

    @cached_property
    def degree(self) -> np.ndarray:
        """In-graph neighbor count per vertex."""
        return _as_readonly(np.bincount(self.edges.ravel(), minlength=self.n_vertices))

    @cached_property
    def uniform_weight(self) -> float | None:
        """The common edge weight if all edges share one, else None."""
        if self.n_edges == 0:
            return None
        w0 = float(self.weights[0])
        return w0 if np.all(self.weights == w0) else None

    @cached_property
    def is_path(self) -> bool:
        """True when the edge set is exactly {(k, k+1)} — tridiagonal operators."""
        n, m = self.n_vertices, self.n_edges
        if m != max(n - 1, 0):
            return False
        if m == 0:
            return n <= 1
        want = np.column_stack((np.arange(m), np.arange(1, m + 1)))
        return bool(np.array_equal(self.edges, want))

    @cached_property
    def bandwidth(self) -> int:
        """Largest index gap j - i over the edges (1 if there are none)."""
        return int((self.edges[:, 1] - self.edges[:, 0]).max()) if self.n_edges else 1

    @cached_property
    def fill_reducing_pattern(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """CSC pattern of P(D - W)P^T, with P SuperLU's MMD ordering on A^T + A.

        Returns ``(indptr, indices, diag_pos, edge_pos)``: the CSC index
        arrays (both triangles stored), then the positions in the CSC data
        of each vertex's diagonal entry, (n,), and of each edge's two
        entries, (2, m).  Any operator on the graph fills that data.
        ``estimate_ids`` builds it (importing SciPy) before its first draw above ``BAND_COUNT_MAX``.
        """
        from scipy.sparse import csc_array
        from scipy.sparse.linalg import splu

        n, m = self.n_vertices, self.n_edges
        lo, hi = self.edges[:, 0], self.edges[:, 1]
        rows = np.concatenate((np.arange(n), lo, hi))
        cols = np.concatenate((np.arange(n), hi, lo))
        # MMD reads the pattern only; these values factor without pivoting
        values = np.concatenate((self.degree + 1.0, np.full(2 * m, -1.0)))
        lu = splu(
            csc_array((values, (rows, cols)), shape=(n, n)),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
        r, c = lu.perm_c[rows], lu.perm_c[cols]  # perm_c maps old index -> new
        order = np.lexsort((r, c))
        pos = np.empty(order.size, dtype=np.int64)
        pos[order] = np.arange(order.size)
        indptr = np.searchsorted(c[order], np.arange(n + 1)).astype(np.intc)
        return (
            _as_readonly(indptr),
            _as_readonly(r[order].astype(np.intc)),
            _as_readonly(pos[:n]),
            _as_readonly(pos[n:].reshape(2, m)),
        )

    @cached_property
    def center_index(self) -> int:
        """Index of the coordinate origin (boxes) / middle vertex (odd grids)."""
        if self.shape is None:
            raise ValueError("center is defined only for lattice boxes/grids")
        if any(s % 2 == 0 for s in self.shape):
            raise ValueError("center requires all grid sides odd")
        idx = 0
        for s in self.shape:
            idx = idx * s + s // 2
        return idx

    def weight_matrix(self) -> np.ndarray:
        """Dense symmetric weight matrix W (zero diagonal)."""
        n = self.n_vertices
        if n > DENSE_MAX:
            raise ValueError(f"dense weight matrix refused for n={n} > {DENSE_MAX}")
        w = np.zeros((n, n))
        i, j = self.edges[:, 0], self.edges[:, 1]
        w[i, j] = self.weights
        w[j, i] = self.weights
        return w

    @cached_property
    def neighbor_lists(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR-style adjacency: (indptr, neighbor indices, edge weights)."""
        src = np.concatenate((self.edges[:, 0], self.edges[:, 1]))
        dst = np.concatenate((self.edges[:, 1], self.edges[:, 0]))
        wts = np.concatenate((self.weights, self.weights))
        order = np.lexsort((dst, src))
        src, dst, wts = src[order], dst[order], wts[order]
        indptr = np.zeros(self.n_vertices + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return _as_readonly(indptr), _as_readonly(dst), _as_readonly(wts)

    def vertex_at(self, coord: Sequence[int]) -> int:
        """Index of the lattice vertex with the given coordinate."""
        if self.coords is None or self.shape is None:
            raise ValueError("coordinate lookup requires lattice metadata")
        coord = np.asarray(coord, dtype=np.int64)
        origin = self.coords[0]
        idx = 0
        for k, s in enumerate(self.shape):
            c = int(coord[k] - origin[k])
            if not 0 <= c < s:
                raise ValueError(f"coordinate {tuple(coord)} outside the grid")
        for k, s in enumerate(self.shape):
            idx = idx * s + int(coord[k] - origin[k])
        return idx


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


def _resolve_boundary(boundary: BoundaryKind, outside_count: np.ndarray, w: float) -> np.ndarray:
    n = outside_count.shape[0]
    if isinstance(boundary, str):
        kind = boundary.lower()
        if kind == "zero":
            return np.zeros(n)
        if kind == "wired":
            return w * outside_count.astype(np.float64)
        raise ValueError(f"unknown boundary kind {boundary!r}")
    if isinstance(boundary, Pinned):
        if not 0 <= boundary.vertex < n:
            raise ValueError("pinned vertex out of range")
        if not boundary.strength > 0:
            raise ValueError("pinned strength must be positive")
        eta = np.zeros(n)
        eta[boundary.vertex] = boundary.strength
        return eta
    eta = np.asarray(boundary, dtype=np.float64).reshape(-1)
    if eta.shape[0] != n:
        raise ValueError(f"custom eta must have length {n}")
    if np.any(eta < 0):
        raise ValueError("custom eta must be nonnegative")
    return eta


def build_grid(
    shape: Sequence[int],
    w: float,
    boundary: BoundaryKind = "wired",
    max_vertices: int = MAX_VERTICES_DEFAULT,
) -> WeightedGraph:
    """Nearest-neighbor grid with extents ``shape``, all edge weights ``w``.

    The "wired" boundary field counts, for each vertex, the Z^d neighbors
    falling outside the grid, times ``w``.  Coordinates are 0-based.
    """
    shape = tuple(int(s) for s in shape)
    if not shape or any(s < 1 for s in shape):
        raise ValueError("grid shape must be nonempty with positive extents")
    if not w > 0:
        raise ValueError("edge weight must be positive")
    n = math.prod(shape)
    if n > max_vertices:
        raise ValueError(f"vertex count {n} exceeds maximum {max_vertices}")
    d = len(shape)
    coords = np.stack(np.unravel_index(np.arange(n), shape), axis=1).astype(np.int64)

    strides = np.ones(d, dtype=np.int64)
    for k in range(d - 2, -1, -1):
        strides[k] = strides[k + 1] * shape[k + 1]
    edge_blocks = []
    idx = np.arange(n, dtype=np.int64)
    for k in range(d):
        has_next = coords[:, k] < shape[k] - 1
        i = idx[has_next]
        edge_blocks.append(np.column_stack((i, i + strides[k])))
    edges = (
        np.concatenate(edge_blocks, axis=0) if edge_blocks else np.empty((0, 2), dtype=np.int64)
    )
    weights = np.full(edges.shape[0], float(w))

    outside = np.zeros(n, dtype=np.int64)
    for k in range(d):
        outside += coords[:, k] == 0
        outside += coords[:, k] == shape[k] - 1
    eta = _resolve_boundary(boundary, outside, float(w))

    return WeightedGraph(
        n_vertices=n,
        edges=edges,
        weights=weights,
        eta=eta,
        d=d,
        shape=shape,
        coords=coords,
    )


def build_box(
    d: int,
    half_side: int,
    w: float,
    boundary: BoundaryKind = "wired",
    max_vertices: int = MAX_VERTICES_DEFAULT,
) -> WeightedGraph:
    """Symmetric box [-L, L]^d in Z^d with nearest-neighbor edges of weight ``w``.

    ``half_side`` is the radius L; the box has (2L+1)^d vertices indexed
    row-major in coordinates.  L = 0 (a single vertex) is accepted for
    degenerate limiting checks.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if half_side < 0:
        raise ValueError("box radius must be nonnegative")
    g = build_grid((2 * half_side + 1,) * d, w, boundary, max_vertices)
    return replace(g, half_side=half_side, coords=g.coords - half_side)


def attach_delta(g: WeightedGraph) -> WeightedGraph:
    """Move the boundary field into an explicit ghost sink vertex.

    Each vertex i with eta_i > 0 gains an edge (i, delta) of weight eta_i;
    the new graph has eta identically zero.  The ghost vertex gets index
    ``n_vertices`` and no coordinate row.
    """
    if g.delta is not None:
        raise ValueError("graph already has a ghost vertex")
    keep = g.eta > 0
    if not np.any(keep):
        raise ValueError("attach_delta requires a boundary field with a positive entry")
    n = g.n_vertices
    i = np.flatnonzero(keep).astype(np.int64)
    new_edges = np.concatenate((g.edges, np.column_stack((i, np.full(i.shape, n)))), axis=0)
    new_weights = np.concatenate((g.weights, g.eta[keep]))
    return replace(
        g,
        n_vertices=n + 1,
        edges=new_edges,
        weights=new_weights,
        eta=np.zeros(n + 1),
        delta=n,
    )


def integrate_out(g: WeightedGraph, s: int) -> WeightedGraph:
    """Graph of the law of beta_{-s}: g - s, with eta_i + w_si at each neighbour i of s.

    That law is the field law (Sabot-Tarres-Zeng).  Vertex indices above s
    shift down by one.  Integrating out an ``attach_delta`` sink recovers g.
    """
    n = g.n_vertices
    if not 0 <= s < n:
        raise ValueError(f"vertex {s} not in graph of size {n}")
    at_s = np.any(g.edges == s, axis=1)
    eta = g.eta.copy()
    eta[g.edges[at_s].sum(axis=1) - s] += g.weights[at_s]  # the other endpoints
    edges = g.edges[~at_s].copy()
    edges[edges > s] -= 1
    coords = g.coords
    if coords is not None and s < coords.shape[0]:
        coords = np.delete(coords, s, axis=0)
    delta = g.delta
    if delta is not None:
        if s == delta:
            delta = None
        elif delta > s:
            delta -= 1
    return WeightedGraph(
        n_vertices=n - 1,
        edges=edges,
        weights=g.weights[~at_s],
        eta=np.delete(eta, s),
        d=g.d,
        half_side=None,
        shape=None,
        coords=coords,
        delta=delta,
    )


def dump_graph(g: WeightedGraph) -> str:
    """Plain-text dump: header, "i j w" edge lines, "eta i v" per vertex."""
    lines = [GRAPH_DUMP_HEADER]
    for (i, j), w in zip(g.edges, g.weights):
        lines.append(f"{i} {j} {w:.17g}")
    for i, v in enumerate(g.eta):
        lines.append(f"eta {i} {v:.17g}")
    return "\n".join(lines) + "\n"


def load_graph(text: str) -> WeightedGraph:
    """Parse a :func:`dump_graph` dump (structure only; lattice metadata is not stored)."""
    lines = text.strip().splitlines()
    if not lines or lines[0].strip() != GRAPH_DUMP_HEADER:
        raise ValueError(f"expected header {GRAPH_DUMP_HEADER!r}")
    edges: list[tuple[int, int]] = []
    weights: list[float] = []
    eta_entries: dict[int, float] = {}
    for line in lines[1:]:
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "eta":
            if len(parts) != 3:
                raise ValueError(f"malformed eta line: {line!r}")
            eta_entries[int(parts[1])] = float(parts[2])
        else:
            if len(parts) != 3:
                raise ValueError(f"malformed edge line: {line!r}")
            edges.append((int(parts[0]), int(parts[1])))
            weights.append(float(parts[2]))
    if not eta_entries:
        raise ValueError("dump contains no eta lines; vertex count unknown")
    n = max(eta_entries) + 1
    if sorted(eta_entries) != list(range(n)):
        raise ValueError("eta lines must cover every vertex exactly once")
    eta = np.array([eta_entries[i] for i in range(n)])
    edge_arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
    if edge_arr.size:
        lo = np.minimum(edge_arr[:, 0], edge_arr[:, 1])
        hi = np.maximum(edge_arr[:, 0], edge_arr[:, 1])
        edge_arr = np.column_stack((lo, hi))
    return WeightedGraph(
        n_vertices=n,
        edges=edge_arr,
        weights=np.array(weights),
        eta=eta,
    )
