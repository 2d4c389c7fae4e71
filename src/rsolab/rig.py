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
from scipy.special import log_ndtr, ndtr

__all__ = [
    "rig_logpdf",
    "rig_pdf",
    "rig_cdf",
    "rig_mode",
    "sample_rig",
]

#: Parameters below this are treated as exactly zero: the density's
#: exp(-a^2/(2y)) tilt is then indistinguishable from 1 at any reachable
#: sample size, and the zero branch avoids overflow in 1/a.
TINY_A = 1e-150

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


def rig_logpdf(a, y):
    """Log-density of rho_a at y (elementwise; -inf for y <= 0)."""
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(a < 0):
        raise ValueError("parameter a must be nonnegative")
    out = np.full(np.broadcast_shapes(a.shape, y.shape), -np.inf)
    pos = np.broadcast_to(y > 0, out.shape)
    aa = np.broadcast_to(a, out.shape)[pos]
    yy = np.broadcast_to(y, out.shape)[pos]
    out[pos] = aa - _LOG_SQRT_2PI - 0.5 * np.log(yy) - 0.5 * (yy + aa * aa / yy)
    return out if out.ndim else float(out)


def rig_pdf(a, y):
    """Density of rho_a at y (elementwise; 0 for y <= 0)."""
    return np.exp(rig_logpdf(a, y))


def rig_cdf(a, y):
    """P(Y <= y) under rho_a, via the inverse-Gaussian CDF of 1/Y.

    For a = 0 this reduces to the chi-squared(1) CDF; for a > 0 the
    exponentially weighted term is evaluated in log space so large a does
    not overflow.
    """
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(a < 0):
        raise ValueError("parameter a must be nonnegative")
    out = np.zeros(np.broadcast_shapes(a.shape, y.shape))
    pos = np.broadcast_to(y > 0, out.shape)
    aa = np.broadcast_to(a, out.shape)[pos]
    yy = np.broadcast_to(y, out.shape)[pos]
    r = np.sqrt(yy)
    main = ndtr((yy - aa) / r)
    tail = np.exp(2.0 * aa + log_ndtr(-(yy + aa) / r))
    out[pos] = np.clip(main - tail, 0.0, 1.0)
    return out if out.ndim else float(out)


def rig_mode(a):
    """Mode of rho_a: the positive root of y^2 + y - a^2 = 0."""
    a = np.asarray(a, dtype=float)
    out = 0.5 * (-1.0 + np.sqrt(1.0 + 4.0 * a * a))
    return out if out.ndim else float(out)


def sample_rig(a, rng: np.random.Generator, size=None):
    """Exact draw(s) from rho_a; no accept-reject loop, fixed stream cadence.

    Draws X from the inverse-Gaussian law with mean mu = 1/a and shape 1 by
    the transformation method (one normal for the quadratic's roots, one
    uniform to pick the root with its exact probability), then returns 1/X.
    The large root is computed first (all-positive terms, no cancellation)
    and the small root recovered from the product of roots mu^2.  a = 0
    returns the square of the normal.

    ``a`` may be a scalar or array; the result broadcasts ``a`` against
    ``size``.  Exactly one normal and one uniform are consumed per output
    element regardless of ``a``, so the stream layout is reproducible.
    """
    if size is None and (isinstance(a, float) or np.ndim(a) == 0):
        # one draw per Gibbs site update: Python floats beat 0-d arrays
        a = float(a)
        if a < 0:
            raise ValueError("parameter a must be nonnegative")
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

    a_arr = np.asarray(a, dtype=float)
    if np.any(a_arr < 0):
        raise ValueError("parameter a must be nonnegative")
    if size is None:
        shape = a_arr.shape
    else:
        shape = (size,) if np.isscalar(size) else tuple(size)
        shape = np.broadcast_shapes(a_arr.shape, shape)
    nu = rng.standard_normal(shape)
    u = rng.random(shape)
    z = nu * nu
    a_b = np.broadcast_to(a_arr, shape)
    y = z.copy()
    pos = a_b >= TINY_A
    if np.any(pos):
        ap = a_b[pos]
        zp = z[pos]
        mu = 1.0 / ap
        t = mu * zp
        big = mu * (1.0 + 0.5 * t + 0.5 * np.sqrt(t) * np.sqrt(4.0 + t))
        small = mu * mu / big
        accept_small = u[pos] <= mu / (mu + small)
        y[pos] = ap * ap * np.where(accept_small, big, small)
    return y
