"""Correctness checks on rso outputs, computed apart from rsolab.

Nothing here imports rsolab: graphs, closed forms, eigenvalue counts and the
positive-definiteness test are rebuilt from the model's definitions, so a
fault in the package cannot also hide in its own check.  Every check returns
a list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

#: Standard-error slack of the rso audits whose outputs are checked here.
SE_SLACK = 3.0
#: Slack, in standard errors, of the benchmark's own Monte-Carlo checks
#: (exact-draw and Gibbs Laplace values).  Set wide enough that a correct
#: sampler trips it on well under 1 seed in 1000.
MC_SLACK = 5.0


def read_columns(data: bytes) -> dict[str, np.ndarray]:
    """CSV bytes to {column: float array}; text cells read as NaN."""
    header, *rows = csv.reader(data.decode("ascii").splitlines())

    def number(cell):
        try:
            return float(cell)
        except ValueError:
            return math.nan

    return {name: np.array([number(r[k]) for r in rows]) for k, name in enumerate(header)}


# ---------------------------------------------------------------------------
# The model, rebuilt from its definition
# ---------------------------------------------------------------------------


def grid_graph(shape, w: float):
    """Nearest-neighbour grid with row-major vertex order and wired boundary.

    Returns (edges (m, 2), weights (m,), eta (n,)); eta_i is w times the
    number of Z^d neighbours of vertex i that fall outside the grid.
    """
    shape = tuple(int(s) for s in shape)
    coords = np.stack(np.unravel_index(np.arange(math.prod(shape)), shape), axis=1)
    strides = [math.prod(shape[k + 1 :]) for k in range(len(shape))]
    edges = []
    outside = np.zeros(len(coords))
    for k, side in enumerate(shape):
        inner = np.flatnonzero(coords[:, k] < side - 1)
        edges.append(np.column_stack((inner, inner + strides[k])))
        outside += (coords[:, k] == 0).astype(float) + (coords[:, k] == side - 1)
    edges = np.concatenate(edges)
    return edges, np.full(len(edges), float(w)), w * outside


def laplace_closed_form(edges, weights, eta, lam) -> float:
    """E[exp(-<lam, beta>)] = exp(-sum_ij w_ij (r_i r_j - 1) - sum_i eta_i (r_i - 1)) / prod r_i.

    r = sqrt(1 + lam); this is the field's Laplace transform at reference
    point 1, the law both samplers target.
    """
    r = np.sqrt(1.0 + np.asarray(lam, dtype=float))
    i, j = edges[:, 0], edges[:, 1]
    log_value = -np.sum(weights * (r[i] * r[j] - 1.0)) - np.sum(eta * (r - 1.0)) - np.sum(np.log(r))
    return float(math.exp(log_value))


def laplace_statistic(betas: np.ndarray) -> np.ndarray:
    """exp(-<lam, beta>) per field at lam = 1/n on every vertex."""
    return np.exp(-betas.sum(axis=1) / betas.shape[1])


def counts_leq(eigenvalues: np.ndarray, energies: np.ndarray) -> np.ndarray:
    return np.searchsorted(np.sort(eigenvalues), energies, side="right")


# ---------------------------------------------------------------------------
# Workload output checks
# ---------------------------------------------------------------------------


def check_ids(cols, *, grid, w, samples, slope=None) -> list[str]:
    """IDS curve: the requested grid, nonzero, nondecreasing, under the sqrt(E) bound."""
    energy, estimate, std_error = cols["energy"], cols["estimate"], cols["std_error"]
    n_samples = cols["n_samples"]
    bad = []
    if energy.shape != grid.shape or not np.allclose(energy, grid, rtol=1e-12, atol=0.0):
        return [f"energy grid {energy.tolist()} is not the requested {grid.tolist()}"]
    if np.any(n_samples != samples):
        bad.append(f"n_samples column {sorted(set(n_samples.tolist()))} is not {samples}")
    if not np.all(estimate > 0):
        bad.append("an estimate is zero on a grid chosen to have nonzero counts")
    drops = np.flatnonzero(np.diff(estimate) < 0)
    if drops.size:
        bad.append(f"estimate decreases after energy index {drops.tolist()}")
    bound = 2.0 * math.sqrt(w / math.pi) * np.sqrt(energy) + SE_SLACK * std_error
    over = np.flatnonzero(estimate > bound)
    if over.size:
        bad.append(f"estimate above 2 sqrt(W/pi) sqrt(E) + 3 SE at energy index {over.tolist()}")
    if slope is not None and np.all(estimate > 0):
        fitted = float(np.polyfit(np.log(energy), np.log(estimate), 1)[0])
        if not slope[0] <= fitted <= slope[1]:
            bad.append(f"log-log slope {fitted:.4f} outside [{slope[0]}, {slope[1]}]")
    return bad


def check_monotonicity(cols, *, w_low, w_high, tol) -> list[str]:
    """Quadrature ordering in W and MC/quadrature agreement within tol + 3 SE."""
    w, estimate, std_error, quadrature = cols["w"], cols["estimate"], cols["std_error"], cols["quadrature"]
    if w.tolist() != [w_low, w_high]:
        return [f"rows are for W = {w.tolist()}, not [{w_low}, {w_high}]"]
    bad = []
    gap = quadrature[1] - quadrature[0]
    if not gap >= 0:
        bad.append(f"quadrature gap {gap!r} is negative")
    for name, est, se, quad in zip(("low", "high"), estimate, std_error, quadrature):
        if not abs(est - quad) <= tol + SE_SLACK * se:
            bad.append(f"{name}: MC {est!r} vs quadrature {quad!r} beyond {tol} + 3 x {se!r}")
    return bad


def check_gibbs(cols, *, shape, w, chains, samples, batch) -> list[str]:
    """Gibbs dump: layout, positive definiteness, and a batch-means Laplace value."""
    sweep, vertex, beta = cols["sweep"], cols["vertex"], cols["beta"]
    edges, weights, eta = grid_graph(shape, w)
    n = eta.size
    if beta.size != samples * n:
        return [f"{beta.size} values, expected {samples} fields x {n} vertices"]
    if np.any(sweep != np.repeat(np.arange(samples), n)) or np.any(vertex != np.tile(np.arange(n), samples)):
        return ["sweep/vertex columns are not the row-major field layout"]
    betas = beta.reshape(samples, n)
    bad = []
    adjacency = np.zeros((n, n))
    adjacency[edges[:, 0], edges[:, 1]] = weights
    adjacency[edges[:, 1], edges[:, 0]] = weights
    for k, field in enumerate(betas):
        try:
            np.linalg.cholesky(np.diag(2.0 * field) - adjacency)
        except np.linalg.LinAlgError:
            bad.append(f"field {k}: 2 diag(beta) - W A is not positive definite")
            break
    # Thinned Gibbs draws are correlated: batch means within each chain.
    x = laplace_statistic(betas)
    base, extra = divmod(samples, chains)
    means, start = [], 0
    for c in range(chains):
        size = base + (1 if c < extra else 0)
        chain_x = x[start : start + size]
        start += size
        usable = size - size % batch
        means.extend(chain_x[:usable].reshape(-1, batch).mean(axis=1))
    means = np.array(means)
    se = float(means.std(ddof=1) / math.sqrt(means.size))
    exact = laplace_closed_form(edges, weights, eta, np.full(n, 1.0 / n))
    if not abs(means.mean() - exact) <= MC_SLACK * se:
        bad.append(
            f"Laplace value {means.mean()!r} vs closed form {exact!r} beyond "
            f"{MC_SLACK} batch-means SE {se!r}"
        )
    return bad


def check_same_bytes(first: bytes, again: bytes) -> list[str]:
    if first == again:
        return []
    k = next((i for i, (a, b) in enumerate(zip(first, again)) if a != b), min(len(first), len(again)))
    return [f"CSV differs from the first repeat at byte {k}"]


# ---------------------------------------------------------------------------
# Traced-run checks on values captured at the layer boundaries
# ---------------------------------------------------------------------------


def check_sturm(diag, off, energies, counts) -> list[str]:
    """Sturm counts against eigvalsh_tridiagonal on the captured fields."""
    bad = []
    for k, row in enumerate(diag):
        want = counts_leq(eigvalsh_tridiagonal(row, off), energies)
        if not np.array_equal(want, counts[k]):
            bad.append(f"Sturm counts {counts[k].tolist()} != eigvalsh_tridiagonal {want.tolist()}")
    return bad


def check_dense(edges, diag, offdiag, energies, counts) -> list[str]:
    """Dense counts against numpy.linalg.eigvalsh on one captured operator."""
    m = np.diag(diag)
    m[edges[:, 0], edges[:, 1]] = offdiag
    m[edges[:, 1], edges[:, 0]] = offdiag
    want = counts_leq(np.linalg.eigvalsh(m), energies)
    if not np.array_equal(want, counts):
        return [f"dense counts {counts.tolist()} != eigvalsh {want.tolist()} (n={diag.size})"]
    return []


def check_exact_laplace(values, *, shape, w) -> list[str]:
    """Mean of the Laplace statistic over i.i.d. exact draws vs the closed form."""
    values = np.asarray(values)
    edges, weights, eta = grid_graph(shape, w)
    exact = laplace_closed_form(edges, weights, eta, np.full(eta.size, 1.0 / eta.size))
    se = float(values.std(ddof=1) / math.sqrt(values.size))
    if not abs(values.mean() - exact) <= MC_SLACK * se:
        return [
            f"exact draws on grid {shape}, W={w}: Laplace {values.mean()!r} vs closed form "
            f"{exact!r} beyond {MC_SLACK} SE {se!r}"
        ]
    return []
