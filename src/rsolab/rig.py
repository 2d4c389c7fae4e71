"""Reciprocal inverse Gaussian law: density, exact sampler, CDF.

This is the one-dimensional conditional law of the field: given everything
outside a vertex, the Schur variable y (the reciprocal of the diagonal Green
entry) has density

    rho_a(y) = (e^a / sqrt(2*pi)) * y^(-1/2) * exp(-(y + a^2/y)/2),   y > 0,

with parameter a >= 0.  Key facts used throughout the package and tests:
y = 1/X where X is inverse-Gaussian with mean 1/a and shape 1; E[y] = a + 1,
Var[y] = a + 2, E[1/y] = 1/a; the a = 0 case degenerates to a chi-squared
with one degree of freedom.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "rig_logpdf",
    "rig_pdf",
    "rig_cdf",
    "sample_rig",
]

#: Parameters below this are treated as exactly zero: the density's
#: exp(-a^2/(2y)) tilt is then indistinguishable from 1 at any reachable
#: sample size, and the zero branch avoids overflow in 1/a.
TINY_A = 1e-150

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


def _check_parameter(a) -> float:
    """Least entry of a, a float or an ndarray (inf if empty); raises unless a is finite, >= 0."""
    # NaN fails every comparison, and propagates through min and max
    if isinstance(a, float):
        lo, hi = a, a
    else:
        lo, hi = (a.min(), a.max()) if a.size else (math.inf, 0.0)
    if not (0.0 <= lo and hi < math.inf):
        raise ValueError("parameter a must be finite and nonnegative")
    return lo


def _check_point(y) -> None:
    """Raise ValueError if y, an ndarray, holds a NaN."""
    if np.isnan(y).any():
        raise ValueError("point y must not be NaN")


def rig_logpdf(a, y):
    """Log-density of rho_a at y (elementwise; -inf for y <= 0 and y = inf)."""
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_parameter(a)
    _check_point(y)
    out = np.full(np.broadcast_shapes(a.shape, y.shape), -np.inf)
    pos = np.broadcast_to((y > 0) & (y < np.inf), out.shape)
    aa = np.broadcast_to(a, out.shape)[pos]
    yy = np.broadcast_to(y, out.shape)[pos]
    out[pos] = aa - _LOG_SQRT_2PI - 0.5 * np.log(yy) - 0.5 * (yy + aa * aa / yy)
    return out if out.ndim else float(out)


def rig_pdf(a, y):
    """Density of rho_a at y (elementwise; 0 for y <= 0 and y = inf)."""
    return np.exp(rig_logpdf(a, y))


def rig_cdf(a, y):
    """P(Y <= y) under rho_a, via the inverse-Gaussian CDF of 1/Y.

    For a = 0 this reduces to the chi-squared(1) CDF; for a > 0 the
    exponentially weighted term is evaluated in log space so large a does
    not overflow.  The CDF is 0 for y <= 0 and 1 at y = inf; a NaN y, like
    a NaN a, raises ValueError.
    """
    from scipy.special import log_ndtr, ndtr

    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_parameter(a)
    _check_point(y)
    out = np.zeros(np.broadcast_shapes(a.shape, y.shape))
    out[np.broadcast_to(y == np.inf, out.shape)] = 1.0
    pos = np.broadcast_to((y > 0) & (y < np.inf), out.shape)
    aa = np.broadcast_to(a, out.shape)[pos]
    yy = np.broadcast_to(y, out.shape)[pos]
    r = np.sqrt(yy)
    main = ndtr((yy - aa) / r)
    tail = np.exp(2.0 * aa + log_ndtr(-(yy + aa) / r))
    out[pos] = np.clip(main - tail, 0.0, 1.0)
    return out if out.ndim else float(out)


def sample_rig(a, rng: np.random.Generator, size=None, work=None):
    """Exact draw(s) from rho_a; no accept-reject loop, fixed stream cadence.

    Draws X from the inverse-Gaussian law with mean mu = 1/a and shape 1 by
    the transformation method (one normal for the quadratic's roots, one
    uniform to pick the root with its exact probability), then returns 1/X.
    The large root is computed first (all-positive terms, no cancellation)
    and the small root recovered from the product of roots mu^2.  Entries
    with a < TINY_A return the square of the normal.

    ``a`` may be a scalar or array; the result broadcasts ``a`` against
    ``size``.  A negative, NaN or infinite ``a`` raises ValueError.  Exactly
    one normal and one uniform are consumed per output element regardless
    of ``a``, so the stream layout is reproducible.  The array branch runs
    every element through one in-place sequence with a clamped to TINY_A
    (which keeps 1/a and mu^2 finite), then writes the squared normal over
    the entries with a < TINY_A; it returns the scalar branch's values bit
    for bit.  Both clamp passes are skipped when no entry is below TINY_A.
    ``work``, a float64 array of shape (6, *shape), lends its rows to the
    array branch, and the result is then one of them; without it the draw
    allocates its own.
    """
    if size is None and (isinstance(a, float) or np.ndim(a) == 0):
        # one draw per Gibbs site update: Python floats beat 0-d arrays
        a = float(a)
        _check_parameter(a)
        nu = rng.standard_normal()
        u = rng.random()
        z = nu * nu
        if a < TINY_A:
            return z
        mu = 1.0 / a
        t = mu * z
        big = mu * (1.0 + 0.5 * t + 0.5 * math.sqrt(t) * math.sqrt(4.0 + t))
        small = mu * mu / big
        return a * a * (big if u <= mu / (mu + small) else small)

    a = np.asarray(a, dtype=float)
    a_min = _check_parameter(a)
    if size is None:
        shape = a.shape
    else:
        shape = (size,) if np.isscalar(size) else tuple(size)
        shape = np.broadcast_shapes(a.shape, shape)
    z, u, mu, t, big, root = (np.empty(shape) for _ in range(6)) if work is None else work
    rng.standard_normal(out=z)
    rng.random(out=u)
    np.multiply(z, z, out=z)
    # the scalar branch's formulas and operand order, in place on the six rows
    a_pos = a if a_min >= TINY_A else np.maximum(a, TINY_A)
    np.divide(1.0, a_pos, out=mu)
    np.multiply(mu, z, out=t)
    np.sqrt(np.add(4.0, t, out=big), out=big)
    np.multiply(0.5, np.sqrt(t, out=root), out=root)
    np.multiply(root, big, out=big)
    np.add(1.0, np.multiply(0.5, t, out=t), out=t)
    np.multiply(mu, np.add(t, big, out=big), out=big)
    small = np.divide(np.multiply(mu, mu, out=t), big, out=t)
    ratio = np.divide(mu, np.add(mu, small, out=root), out=root)
    np.copyto(big, small, where=u > ratio)
    np.multiply(np.multiply(a_pos, a_pos, out=mu), big, out=big)
    if a_min < TINY_A:
        np.copyto(big, z, where=a < TINY_A)
    return big
