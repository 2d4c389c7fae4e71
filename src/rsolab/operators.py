"""Finite-volume operators: assembly, eigenvalue counting, Green functions.

The operator attached to a field beta on a graph with weights W is
M = 2*diag(beta) - W ("simple" boundary condition).  On a box in Z^d the
"dirichlet" variant adds w*(2d - n_i) to the diagonal, n_i the in-box degree,
which dominates the simple form as a quadratic form.  The "scaled" form
divides everything by the uniform coupling w.

One unpivoted banded LDL^T elimination, :func:`_band_ldl`, factors a batch
of operators with the lanes on the last axis.  Eigenvalue counting below a
threshold is exact up to floating comparison, by the negative pivots of an
LDL^T of H - E: Sturm's recursion on paths, where ties count as below;
:func:`_band_ldl` with the energies as lanes up to bandwidth BAND_COUNT_MAX;
SuperLU in a fill-reducing order on wider graphs and where the band meets a
near-zero pivot, raising where H - E is singular or needs a row interchange
(a tie, a zero diagonal).  The spectra met here are absolutely continuous,
so ties occur only in hand-built examples.  A batch of Green solves, the
estimators' slices, is :func:`_band_ldl` with the samples as lanes
(:func:`_green_solve`); one field stays on LAPACK banded Cholesky with
iterative refinement and a residual check (:func:`green_column`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .field import SLICE_SCALARS, BetaField
from .graphs import DENSE_MAX, WeightedGraph

__all__ = [
    "OperatorMatrix",
    "FactorizationError",
    "ResidualError",
    "assemble",
    "operator_from_two_beta",
    "count_eigenvalues_leq",
    "count_eigenvalues_many",
    "sturm_counts_batch",
    "green_column",
    "u_field",
    "beta_from_u",
    "schur_y_and_a",
    "path_sum_green",
    "resolvent_identity_residual",
]

#: Residual guarantee for Green solves (infinity norm, after one refinement).
GREEN_RESIDUAL_TOL = 1e-10

#: Pivot floor: a pivot below PIVMIN counts as negative.  Sturm replaces zero
#: or denormal pivots by -PIVMIN, so an eigenvalue exactly at the threshold
#: counts as "<=".
PIVMIN = 1e-280

#: Widest band that the NumPy sweep counts; SuperLU counts wider graphs.
BAND_COUNT_MAX = 17
#: A band-sweep pivot below this times |H - E|_inf sends its energy to SuperLU.
BAND_PIVOT_RTOL = float(np.sqrt(np.finfo(float).eps))


class FactorizationError(RuntimeError):
    """A positive-definite factorization failed: the field/operator is invalid."""


class ResidualError(RuntimeError):
    """A linear solve could not meet the residual guarantee."""


@dataclass(frozen=True)
class OperatorMatrix:
    """Sparse symmetric operator: diagonal plus signed edge entries.

    ``offdiag[e]`` is the actual (negative) matrix entry at the e-th graph
    edge, i.e. -w_ij, already divided by w in the scaled form.
    """

    graph: WeightedGraph
    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        diag = np.ascontiguousarray(np.asarray(self.diag, dtype=np.float64))
        off = np.ascontiguousarray(np.asarray(self.offdiag, dtype=np.float64))
        if diag.shape != (self.graph.n_vertices,):
            raise ValueError("diag length mismatch")
        if off.shape != (self.graph.n_edges,):
            raise ValueError("offdiag length mismatch")
        diag.setflags(write=False)
        off.setflags(write=False)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", off)

    @property
    def n(self) -> int:
        return self.graph.n_vertices

    def to_dense(self) -> np.ndarray:
        if self.n > DENSE_MAX:
            raise ValueError(f"dense form refused for n={self.n} > {DENSE_MAX}")
        m = np.zeros((self.n, self.n))
        i, j = self.graph.edges[:, 0], self.graph.edges[:, 1]
        m[i, j] = self.offdiag
        m[j, i] = self.offdiag
        idx = np.arange(self.n)
        m[idx, idx] = self.diag
        return m

    def matvec(self, x: np.ndarray) -> np.ndarray:
        out = self.diag * x
        i, j = self.graph.edges[:, 0], self.graph.edges[:, 1]
        np.add.at(out, i, self.offdiag * x[j])
        np.add.at(out, j, self.offdiag * x[i])
        return out


def _checked_bc(bc: str) -> str:
    """The boundary condition lower-cased; raises ValueError if unknown."""
    bc = bc.lower()
    if bc not in ("simple", "dirichlet"):
        raise ValueError(f"unknown boundary condition {bc!r}")
    return bc


def operator_from_two_beta(
    graph: WeightedGraph,
    two_beta: np.ndarray,
    bc: str = "simple",
    scaled: bool = False,
    w: float | None = None,
) -> OperatorMatrix:
    """Assemble from the diagonal field 2*beta (may be non-positive: tilted fields)."""
    two_beta = np.asarray(two_beta, dtype=float)
    if two_beta.shape != (graph.n_vertices,):
        raise ValueError("two_beta length mismatch")
    bc = _checked_bc(bc)
    if w is None:
        w = graph.uniform_weight
    diag = two_beta.astype(float).copy()
    if bc == "dirichlet":
        if graph.d is None:
            raise ValueError("dirichlet correction needs lattice metadata (ambient d)")
        if w is None:
            raise ValueError("dirichlet correction needs a uniform edge weight")
        diag += w * (2 * graph.d - graph.degree)
    offdiag = -graph.weights
    if scaled:
        if w is None:
            raise ValueError("scaled form needs a uniform edge weight")
        diag /= w
        offdiag = offdiag / w
    return OperatorMatrix(graph=graph, diag=diag, offdiag=offdiag)


def assemble(f: BetaField, bc: str = "simple", scaled: bool = False) -> OperatorMatrix:
    """Operator of a sampled field under the requested boundary condition."""
    return operator_from_two_beta(f.graph, 2.0 * f.beta, bc=bc, scaled=scaled, w=f.w)


# ---------------------------------------------------------------------------
# Eigenvalue counting
# ---------------------------------------------------------------------------


def sturm_counts_batch(diag: np.ndarray, off: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """Vectorized Sturm counts: diag (B, n), off (n-1,) or (B, n-1), energies (k,).

    Returns an integer array (B, k).  This is the throughput engine behind
    the spectral estimators: one pass over sites with (B, k)-shaped pivots
    q_k = (diag_k - E) - off_{k-1}^2 / q_{k-1}, each counted when negative.
    A pivot with |q| < PIVMIN is replaced by -PIVMIN before it is counted
    and divided by.  The sweep reads ``diag`` sites-first, copying it only if
    it is not sites-first in memory already (the sampler's slices are), as it
    does ``off**2`` when per sample, and updates (B, k) buffers in place.
    """
    diag = np.asarray(diag, dtype=float)
    energies = np.asarray(energies, dtype=float).reshape(-1)
    off = np.asarray(off, dtype=float)
    b, n = diag.shape
    sites = np.ascontiguousarray(diag.T)[:, :, None]
    # shared off: one scalar per site; per sample: a (B, 1) column per site
    off2 = off * off if off.ndim == 1 else np.ascontiguousarray((off * off).T)[:, :, None]
    q, work = np.empty((2, b, energies.size))
    neg = np.empty(q.shape, dtype=bool)
    counts = np.zeros(q.shape, dtype=np.int64)
    for k in range(n):
        np.subtract(sites[k], energies, out=work if k else q)
        if k:
            np.divide(off2[k - 1], q, out=q)
            np.subtract(work, q, out=q)
        np.less(np.abs(q, out=work), PIVMIN, out=neg)
        np.copyto(q, -PIVMIN, where=neg)
        counts += np.less(q, 0.0, out=neg)
    return counts


@np.errstate(all="ignore")  # a zero pivot leaves its lane non-finite; callers check the pivots
def _band_ldl(g: WeightedGraph, shifted: np.ndarray, offdiag: np.ndarray) -> np.ndarray:
    """Unpivoted LDL^T in index order of diag(s) + offdiag on g's edges, per column s of shifted.

    shifted is (n, S), lanes on the last axis.  Every vertex j > v coupled to v
    lies in v+1 .. v+b with b = ``g.bandwidth``, so the operator A and its fill
    sit in band[v, b + j] = A[v, v + j], j >= 0, with b - 1 zero rows below so
    that every trailing window is b x b.  Eliminating v < n - 1 with pivot d_v
    and row u = A[v, v+1 .. v+b] subtracts l u' from that window, one strided
    view, with multipliers l = u * (1/d_v); l then fills row v's slots in
    band[:, :b], where the windows' lower triangles land and no later step
    reads.  Returns the band: pivots band[:n, b], multipliers band[:n-1, :b];
    O(S n b^2) work.  No pivot is checked here.  One field has no lanes to share
    the per-vertex loop, so green_column stays on LAPACK: a one-field
    _green_solve takes 2.0 ms against its 0.11 ms at n = 121 (d = 2) and 35 ms
    against 0.39 ms on a 4,001-vertex path (2-vCPU VM).
    """
    n, b, (lo, hi) = g.n_vertices, g.bandwidth, g.edges.T
    band = np.zeros((n + b - 1, 2 * b + 1, shifted.shape[1]))
    band[:n, b] = shifted
    band[lo, b + hi - lo] = offdiag[:, None]
    s0, s1, s2 = band.strides
    # windows[v, i, j] = band[v+1+i, b+j-i] = A[v+1+i, v+1+j], all b x b
    windows = as_strided(band[1:, b:], shape=(n - 1, b, b, band.shape[2]), strides=(s0, s0 - s1, s1, s2))
    rows, cols, pivots = band[:, b + 1 :, None], band[:, None, b + 1 :], band[:, b, None, None]
    prod = np.empty((b, b, band.shape[2]))
    for window, mult, row, col, piv in zip(windows, band[:, :b, None], rows, cols, pivots):
        np.multiply(row, np.reciprocal(piv), mult)  # out= as a keyword costs about 1 us a call
        window -= np.multiply(mult, col, prod)
    return band


def _band_counts(g: WeightedGraph, diag: np.ndarray, offdiag: np.ndarray, energies: np.ndarray):
    """Negative pivots of the unpivoted LDL^T of H - E in g's band, and suspect lanes.

    H = diag(d) + offdiag on g's edges for each row d of diag (B, n).  Both results
    are flat over the B*k (sample, energy) lanes, sample-major, factored by
    :func:`_band_ldl` in chunks of lanes within ``SLICE_SCALARS``.  A lane is
    suspect if a pivot p is not finite or |p| <= BAND_PIVOT_RTOL * |H - E|_inf.
    """
    n, b = g.n_vertices, g.bandwidth
    shifted = (diag[:, :, None] - energies).transpose(1, 0, 2).reshape(n, -1)
    off_rows = np.bincount(g.edges.ravel(), np.repeat(np.abs(offdiag), 2), minlength=n)
    floor = BAND_PIVOT_RTOL * np.max(np.abs(shifted) + off_rows[:, None], axis=0)
    pivots = np.empty_like(shifted)
    chunk = max(1, SLICE_SCALARS // ((n + b - 1) * (2 * b + 1)))
    for c in range(0, shifted.shape[1], chunk):
        pivots[:, c : c + chunk] = _band_ldl(g, shifted[:, c : c + chunk], offdiag)[:n, b]
    suspect = ~np.all(np.isfinite(pivots) & (np.abs(pivots) > floor), axis=0)
    return np.count_nonzero(pivots < 0.0, axis=0), suspect


def _superlu_counts(m: OperatorMatrix, energies: np.ndarray) -> np.ndarray:
    """Negative pivots of SuperLU's LDL^T of H - E in the fill-reducing order, so U's diagonal is D."""
    from scipy.sparse import csc_array
    from scipy.sparse.linalg import splu

    indptr, indices, diag_pos, edge_pos = m.graph.fill_reducing_pattern
    natural = np.arange(m.n)
    data = np.empty(indices.size)
    data[edge_pos] = m.offdiag
    counts = np.empty(energies.size, dtype=np.int64)
    for k, energy in enumerate(energies):
        data[diag_pos] = m.diag - energy
        a = csc_array((data, indices, indptr), shape=(m.n, m.n))
        try:
            lu = splu(a, permc_spec="NATURAL", diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise FactorizationError(f"H - E is singular at E={energy:.17g}") from exc
        if not (np.array_equal(lu.perm_r, natural) and np.array_equal(lu.perm_c, natural)):
            raise FactorizationError(f"LDL^T of H - E needs a row interchange at E={energy:.17g}")
        counts[k] = np.count_nonzero(lu.U.diagonal() < PIVMIN)
    return counts


def count_eigenvalues_many(m: OperatorMatrix, energies) -> np.ndarray:
    """Counts of eigenvalues <= E for a whole energy grid.

    Paths run the Sturm recursion, where ties count as "<=".  Other graphs count
    the negative pivots of an LDL^T of H - E (Sylvester's law of inertia): by
    :func:`_band_counts` up to bandwidth BAND_COUNT_MAX; on wider graphs and at
    the energies it flags, by SuperLU with the diagonal pivot forced, which
    raises :class:`FactorizationError` where that factor interchanged rows or is singular.
    """
    energies = np.asarray(energies, dtype=float).reshape(-1)
    if m.graph.is_path:
        return sturm_counts_batch(m.diag[None, :], m.offdiag, energies)[0]
    if m.graph.bandwidth > BAND_COUNT_MAX:
        return _superlu_counts(m, energies)
    counts, suspect = _band_counts(m.graph, m.diag[None, :], m.offdiag, energies)
    if suspect.any():
        counts[suspect] = _superlu_counts(m, energies[suspect])
    return counts


def count_eigenvalues_leq(m: OperatorMatrix, energy: float) -> int:
    """Exact count of eigenvalues <= energy, by :func:`count_eigenvalues_many`."""
    return int(count_eigenvalues_many(m, [energy])[0])


# ---------------------------------------------------------------------------
# Green solves
# ---------------------------------------------------------------------------


def _inf_norm(m: OperatorMatrix) -> float:
    """Matrix infinity norm (max absolute row sum) without densifying."""
    rowsum = np.abs(m.diag).copy()
    absw = np.abs(m.offdiag)
    np.add.at(rowsum, m.graph.edges[:, 0], absw)
    np.add.at(rowsum, m.graph.edges[:, 1], absw)
    return float(np.max(rowsum))


def _solve_refined(m: OperatorMatrix, rhs: np.ndarray) -> np.ndarray:
    """SPD solve by banded Cholesky, with iterative refinement and a residual check.

    The factor is stored at the graph's bandwidth, so a path costs O(n).
    The residual must reach 1e-10, relaxed by the backward-stability floor
    (a small multiple of eps * |M|_inf * |x|_inf): below that floor the
    residual cannot even be evaluated reliably in double precision, which
    matters when the solution is legitimately huge (near-singular samples).
    """
    from scipy.linalg import cho_solve_banded, cholesky_banded

    lo, hi = m.graph.edges[:, 0], m.graph.edges[:, 1]
    ab = np.zeros((m.graph.bandwidth + 1, m.n))
    ab[0] = m.diag
    ab[hi - lo, lo] = m.offdiag
    try:
        c = (cholesky_banded(ab, lower=True, check_finite=False), True)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError("operator is not positive definite") from exc
    x = cho_solve_banded(c, rhs, check_finite=False)
    for _ in range(3):
        resid_vec = rhs - m.matvec(x)
        if np.max(np.abs(resid_vec)) <= GREEN_RESIDUAL_TOL:
            break
        x = x + cho_solve_banded(c, resid_vec, check_finite=False)
    resid = np.max(np.abs(rhs - m.matvec(x)))
    floor = 8.0 * np.finfo(float).eps * _inf_norm(m) * np.max(np.abs(x))
    if not resid <= max(GREEN_RESIDUAL_TOL, floor):
        raise ResidualError(f"Green solve residual {resid:.3e} exceeds {GREEN_RESIDUAL_TOL:g}")
    return x


def green_column(m: OperatorMatrix, j: int) -> np.ndarray:
    """Column j of the inverse: solve M x = e_j (residual <= 1e-10)."""
    if not 0 <= j < m.n:
        raise ValueError("column index out of range")
    rhs = np.zeros(m.n)
    rhs[j] = 1.0
    return _solve_refined(m, rhs)


def _green_solve(g: WeightedGraph, diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve M X = rhs with M = diag(d) - W on g, for every row d of diag.

    diag is (B, n) and rhs one shared (n, k) array; returns X, (B, n, k).  M is
    factored by :func:`_band_ldl` with the samples as lanes, then forward
    substitution y_{v+1 .. v+b} -= l_v y_v and back substitution
    x_v = y_v / d_v - l_v'x_{v+1 .. v+b} run in a solution padded like the band.
    M is positive definite wherever the law has mass, so a pivot that is not
    > 0 (or is NaN) is a FactorizationError.
    """
    n, b = g.n_vertices, g.bandwidth
    band = _band_ldl(g, diag.T, -g.weights)
    if not band[:n, b].min() > 0:
        raise FactorizationError("non-positive pivot: singular operator in a sampled slice")
    x = np.zeros((n + b - 1, rhs.shape[1], diag.shape[0]))
    x[:n] = rhs[:, :, None]
    # below[v] = x[v+1 .. v+b]
    below = as_strided(x[1:], shape=(n - 1, b, *x.shape[1:]), strides=(x.strides[0], *x.strides))
    for xv, mult, xb in zip(x, band[:, :b, None], below):
        xb -= mult * xv
    x[:n] /= band[:n, b, None]
    for xv, mult, xb in zip(x[: n - 1][::-1], band[: n - 1, :b][::-1], below[::-1]):
        xv -= np.einsum("jb,jrb->rb", mult, xb)
    return x[:n].transpose(2, 0, 1)


def _unit_columns(n: int, idx) -> np.ndarray:
    """Columns idx of the n x n identity, without building it."""
    idx = np.atleast_1d(idx)
    out = np.zeros((n, idx.size))
    out[idx, np.arange(idx.size)] = 1.0
    return out


# ---------------------------------------------------------------------------
# Log-field and Schur variables
# ---------------------------------------------------------------------------


def u_field(f: BetaField) -> np.ndarray:
    """Logarithmic field u with e^{u_j} = (M^{-1} eta)(j); needs eta not all zero."""
    g = f.graph
    if not np.any(g.eta > 0):
        raise ValueError("u-field undefined for an all-zero boundary field")
    m = assemble(f, bc="simple", scaled=False)
    x = _solve_refined(m, g.eta.astype(float))
    if np.any(x <= 0):
        raise FactorizationError("nonpositive Green action on eta; invalid field")
    return np.log(x)


def beta_from_u(u: np.ndarray, g: WeightedGraph) -> np.ndarray:
    """Invert the log transform: 2 beta_i = sum_j w_ij e^{u_j - u_i} + eta_i e^{-u_i}."""
    u = np.asarray(u, dtype=float)
    if u.shape != (g.n_vertices,):
        raise ValueError("u length mismatch")
    eu = np.exp(u)
    two_beta = g.eta / eu
    i, j = g.edges[:, 0], g.edges[:, 1]
    np.add.at(two_beta, i, g.weights * eu[j] / eu[i])
    np.add.at(two_beta, j, g.weights * eu[i] / eu[j])
    return 0.5 * two_beta


SCHUR_AGREE_TOL = 1e-9


def schur_y_and_a(f: BetaField, j: int) -> tuple[float, float]:
    """Schur variable y = 1/G(j,j) and conditional parameter a at vertex j.

    Both quantities are evaluated by two independent routes — through the
    full-graph Green function and through the vertex-removed block — and the
    routes must agree to 1e-9, which exercises the block-inverse algebra the
    samplers rely on.
    """
    from .graphs import remove_vertex

    g = f.graph
    m = assemble(f, bc="simple", scaled=False)
    col = green_column(m, j)
    y_full = 1.0 / col[j]
    a_full = float(col @ g.eta) / col[j]

    # Route 2: Schur complement through the graph with j removed.
    i0, j0 = g.edges[:, 0], g.edges[:, 1]
    wrow = np.zeros(g.n_vertices)
    wrow[j0[i0 == j]] = g.weights[i0 == j]
    wrow[i0[j0 == j]] = g.weights[j0 == j]
    sub = remove_vertex(g, j)
    keep = np.arange(g.n_vertices) != j
    if sub.n_vertices:
        m_sub = operator_from_two_beta(sub, 2.0 * f.beta[keep], bc="simple", w=f.w)
        x = _solve_refined(m_sub, wrow[keep])  # (M_sub)^{-1} W_{.,j}
        y_schur = 2.0 * f.beta[j] - float(wrow[keep] @ x)
        x_eta = _solve_refined(m_sub, sub.eta.astype(float)) if np.any(sub.eta) else np.zeros(sub.n_vertices)
        a_schur = float(g.eta[j]) + float(wrow[keep] @ x_eta)
    else:
        y_schur = 2.0 * f.beta[j]
        a_schur = float(g.eta[j])
    if abs(y_full - y_schur) > SCHUR_AGREE_TOL * max(1.0, abs(y_full)):
        raise ResidualError(f"Schur y routes disagree: {y_full!r} vs {y_schur!r}")
    if abs(a_full - a_schur) > SCHUR_AGREE_TOL * max(1.0, abs(a_full)):
        raise ResidualError(f"Schur a routes disagree: {a_full!r} vs {a_schur!r}")
    return y_full, a_full


def path_sum_green(
    g: WeightedGraph, beta: np.ndarray, i: int, j: int, max_len: int
) -> float:
    """Green entry via the walk expansion, truncated at max_len steps.

    Sums over nearest-neighbor walks from i to j the products of edge
    weights divided by 2*beta at every visited vertex, by dynamic
    programming over (vertex, length).  Converges geometrically to the
    solve-based Green entry when the operator is positive definite.
    """
    beta = np.asarray(beta, dtype=float)
    wmat = g.weight_matrix()
    two_beta = 2.0 * beta
    p = np.zeros(g.n_vertices)
    p[i] = 1.0 / two_beta[i]
    total = p[j]
    for _ in range(max_len):
        p = (wmat.T @ p) / two_beta
        total += p[j]
    return float(total)


def resolvent_identity_residual(f: BetaField) -> float:
    """Residual of the boundary expansion linking simple and Dirichlet inverses.

    With C the diagonal Dirichlet correction, the exact identity
    G^S(0,0) - G^D(0,0) = sum_i G^D(0,i) C_i G^S(i,0) must hold per sample;
    returns the absolute deviation (scaled operators).
    """
    ms = assemble(f, bc="simple", scaled=True)
    md = assemble(f, bc="dirichlet", scaled=True)
    center = f.graph.center_index if f.graph.shape is not None else 0
    gs = green_column(ms, center)
    gd = green_column(md, center)
    corr = md.diag - ms.diag
    lhs = gs[center] - gd[center]
    rhs = float(np.sum(gd * corr * gs))
    return abs(lhs - rhs)
