"""Green-function oracles that only the tests use.

Each evaluates a quantity the samplers and estimators rely on by a route of
its own, so a test can hold the package's Green solves against it: the
log-field transform and its inverse, the Schur variables at one vertex by
two routes, the walk expansion of a Green entry, the boundary identity
linking the simple and Dirichlet inverses, and a Gibbs chain that updates
its full Green matrix in place at every site.  Tests import them as
``from oracles import ...``; pytest puts this directory on the path.
"""

import numpy as np
import scipy.linalg.blas
from scipy.linalg import cho_factor, cho_solve

from rsolab.field import BetaField, SamplerConfig, _dense_operator, initial_beta
from rsolab.graphs import WeightedGraph, remove_vertex
from rsolab.operators import (
    FactorizationError,
    ResidualError,
    _solve_refined,
    assemble,
    green_column,
    operator_from_two_beta,
)
from rsolab.rig import sample_rig
from rsolab.rng import philox_stream

SCHUR_AGREE_TOL = 1e-9


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


def schur_y_and_a(f: BetaField, j: int) -> tuple[float, float]:
    """Schur variable y = 1/G(j,j) and conditional parameter a at vertex j.

    Both quantities are evaluated by two independent routes — through the
    full-graph Green function and through the vertex-removed block — and the
    routes must agree to SCHUR_AGREE_TOL, which exercises the block-inverse
    algebra the samplers rely on.
    """
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


def path_sum_green(g: WeightedGraph, beta: np.ndarray, i: int, j: int, max_len: int) -> float:
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


def _cholesky_green(g: WeightedGraph, beta: np.ndarray) -> np.ndarray:
    """Full inverse of the operator by a SciPy Cholesky solve, symmetrized."""
    c = cho_factor(_dense_operator(g, beta), lower=True, check_finite=False)
    green = cho_solve(c, np.eye(g.n_vertices), check_finite=False)
    return 0.5 * (green + green.T)


def in_place_gibbs_chain(g: WeightedGraph, cfg: SamplerConfig, n_samples: int, chain: int = 0):
    """Thinned Gibbs fields, with the full Green matrix updated at every site.

    The same chain as :func:`rsolab.field.gibbs_chain`, on the same stream:
    each site update applies its rank-one identity to the whole matrix by one
    in-place BLAS ``dger`` through ``green.T``, and each sweep ends with a
    Cholesky refresh.  It agrees with the delayed updates to round-off.
    """
    rng = philox_stream(cfg.seed, chain)
    beta = initial_beta(g)
    green = _cholesky_green(g, beta)
    out = np.empty((n_samples, g.n_vertices))
    for sweep in range(1, cfg.burn_in + n_samples * cfg.thinning + 1):
        for j in range(g.n_vertices):
            gjj = green[j, j]
            a = float(green[j] @ g.eta) / gjj
            s = 2.0 * beta[j] - 1.0 / gjj
            y = sample_rig(a, rng)
            beta[j] = 0.5 * (y + s)
            delta = y - 1.0 / gjj
            col = green[:, j].copy()
            scipy.linalg.blas.dger(-delta / (1.0 + delta * gjj), col, col, a=green.T, overwrite_a=1)
        green = _cholesky_green(g, beta)
        k, rest = divmod(sweep - cfg.burn_in, cfg.thinning)
        if k > 0 and rest == 0:
            out[k - 1] = beta
    return out


def extended_gibbs_chain(g: WeightedGraph, cfg: SamplerConfig, n_samples: int, chain: int = 0):
    """The same chain on the same stream, with every Green entry in ``np.longdouble``.

    Each site update inverts the whole operator afresh by Gauss-Jordan
    elimination (no pivot: the operator is positive definite), so the only
    float64 step is the RIG draw.  Where ``longdouble`` is wider than float64
    (x86-64: a 64-bit significand), its distance to a float64 chain measures
    how much that chain's round-off grew along its trajectory.
    """
    rng = philox_stream(cfg.seed, chain)
    n = g.n_vertices
    beta = initial_beta(g).astype(np.longdouble)
    wmat, eta = g.weight_matrix().astype(np.longdouble), g.eta.astype(np.longdouble)
    off = ~np.eye(n, dtype=bool)
    out = np.empty((n_samples, n), dtype=np.longdouble)
    for sweep in range(1, cfg.burn_in + n_samples * cfg.thinning + 1):
        for j in range(n):
            aug = np.concatenate([np.diag(2 * beta) - wmat, np.eye(n, dtype=np.longdouble)], axis=1)
            for k in range(n):
                aug[k] /= aug[k, k]
                aug -= np.outer(aug[:, k] * off[k], aug[k])
            green = aug[:, n:]
            gjj = green[j, j]
            y = sample_rig(float(green[j] @ eta / gjj), rng)
            beta[j] = (np.longdouble(y) + 2 * beta[j] - 1 / gjj) / 2
        k, rest = divmod(sweep - cfg.burn_in, cfg.thinning)
        if k > 0 and rest == 0:
            out[k - 1] = beta
    return out
