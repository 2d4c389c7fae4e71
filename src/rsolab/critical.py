"""Critical couplings: Bessel-based decay integrals and root finding.

The decay of Green-function ratio moments is controlled by the integral

    I(w) = 2 e^w sqrt(w/(2 pi)) K_0(w)
         = sqrt(w) / sqrt(2 pi) * integral of e^{-w (cosh t - 1)} dt,

and on a degree-2d lattice the per-step factor combining that integral with
the walk-entropy growth is

    F(w, d) = sqrt(2 w / pi) K_0(w) e^{w (2d-1)} (2d-1)
            = I(w) e^{w (2d-2)} (2d-1).

Both are strictly increasing in w.  The critical coupling w_c(d) solves
F(w, d) = 1 (no finite solution in d = 1, where the decay holds for every
w); the fractional-moment method gives the second, closed-form threshold
w_c'(d) = sqrt(pi) / (Gamma(1/4) 2^{3/4} d).  The combined threshold is
their maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GAMMA_QUARTER",
    "CriticalReport",
    "step_decay_integral",
    "branching_factor",
    "branching_factor_dw",
    "branching_factor_dd",
    "solve_critical_w",
    "fractional_moment_critical_w",
    "critical_report",
    "comparison_scan",
]

#: Gamma(1/4), evaluated by the C library's double-precision gamma
#: (math.gamma(0.25)); the test suite certifies it against quadrature of the
#: defining integral of t^{-3/4} e^{-t}.
GAMMA_QUARTER = math.gamma(0.25)

ROOT_RESIDUAL_TOL = 1e-10


def step_decay_integral(w) -> float | np.ndarray:
    """I(w) = 2 e^w sqrt(w/(2 pi)) K_0(w), evaluated overflow-free.

    Uses the exponentially scaled kernel: I(w) = sqrt(2 w / pi) * e^w K_0(w).
    Strictly increasing, with limit 1 as w -> infinity.
    """
    w_arr = np.asarray(w, dtype=float)
    if np.any(w_arr <= 0):
        raise ValueError("coupling must be positive")
    from scipy.special import k0e

    out = np.sqrt(2.0 * w_arr / math.pi) * k0e(w_arr)
    return float(out) if np.isscalar(w) or w_arr.ndim == 0 else out


def branching_factor(w, d: float) -> float | np.ndarray:
    """F(w, d) = I(w) e^{w(2d-2)} (2d-1): per-step decay times walk growth.

    The formula takes a real d >= 1 as well, which the derivative check of
    :func:`comparison_scan` uses.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    w_arr = np.asarray(w, dtype=float)
    out = step_decay_integral(w_arr) * np.exp(w_arr * (2 * d - 2)) * (2 * d - 1)
    return float(out) if np.isscalar(w) or w_arr.ndim == 0 else out


def branching_factor_dw(w, d: int) -> float | np.ndarray:
    """Partial derivative in w: (1/(2w) + (2d-1) - K_1(w)/K_0(w)) F(w, d)."""
    from scipy.special import k0e, k1e

    w_arr = np.asarray(w, dtype=float)
    ratio = k1e(w_arr) / k0e(w_arr)  # = K_1/K_0, scaling cancels
    out = (0.5 / w_arr + (2 * d - 1) - ratio) * branching_factor(w_arr, d)
    return float(out) if np.isscalar(w) or w_arr.ndim == 0 else out


def branching_factor_dd(w, d: int) -> float | np.ndarray:
    """Partial derivative in d: (2w + 2/(2d-1)) F(w, d)."""
    w_arr = np.asarray(w, dtype=float)
    out = (2.0 * w_arr + 2.0 / (2 * d - 1)) * branching_factor(w_arr, d)
    return float(out) if np.isscalar(w) or w_arr.ndim == 0 else out


def solve_critical_w(d: int) -> float | None:
    """Root of F(w, d) = 1, or None (the infinite sentinel) when d = 1.

    In one dimension F(w, 1) = I(w) < 1 for all w, so no finite root exists;
    the sentinel is an explicit None, never a floating infinity.  For d >= 2
    a bracketing bisection is run to residual |F - 1| <= 1e-10.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if d == 1:
        return None
    lo = 1e-300
    hi = 0.05
    while branching_factor(hi, d) < 1.0:
        hi *= 2.0
        if hi > 1e3:
            raise RuntimeError("failed to bracket the critical coupling")
    for _ in range(20_000):
        mid = 0.5 * (lo + hi)
        val = branching_factor(mid, d)
        if abs(val - 1.0) <= ROOT_RESIDUAL_TOL:
            return mid
        if val < 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-300:
            break
    raise RuntimeError(f"bisection did not reach residual {ROOT_RESIDUAL_TOL:g} for d={d}")


def fractional_moment_critical_w(d: int) -> float:
    """Closed form sqrt(pi) / (Gamma(1/4) 2^{3/4} d)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return math.sqrt(math.pi) / (GAMMA_QUARTER * 2.0 ** 0.75 * d)


@dataclass(frozen=True)
class CriticalReport:
    """Root-finding summary for one dimension.

    w_c is None when no finite root exists (d = 1); residual is |F(w_c) - 1|
    at the returned root (None alongside w_c).
    """

    d: int
    w_c: float | None
    w_c_prime: float
    w_cr: float | None
    residual: float | None


def critical_report(d: int) -> CriticalReport:
    w_c = solve_critical_w(d)
    w_cp = fractional_moment_critical_w(d)
    if w_c is None:
        return CriticalReport(d=d, w_c=None, w_c_prime=w_cp, w_cr=None, residual=None)
    return CriticalReport(
        d=d,
        w_c=w_c,
        w_c_prime=w_cp,
        w_cr=max(w_c, w_cp),
        residual=abs(branching_factor(w_c, d) - 1.0),
    )


def comparison_scan(d_min: int = 2, d_max: int = 10) -> dict:
    """Scan f(d) = F(w_c'(d), d) and certify the comparison machinery.

    Checks that f is increasing over the range with f(d) >= 2.9 (so the
    closed-form threshold always exceeds the root of F = 1 there), and that
    the closed-form partial derivatives of F match central finite
    differences to 1e-6 relative at sample points.
    """
    if d_min < 2 or d_max < d_min:
        raise ValueError("need 2 <= d_min <= d_max")
    ds = list(range(d_min, d_max + 1))
    f_vals = [float(branching_factor(fractional_moment_critical_w(d), d)) for d in ds]
    increasing = all(b > a for a, b in zip(f_vals, f_vals[1:]))
    min_f = min(f_vals)

    max_rel_err = 0.0
    for d in (d_min, min(d_min + 1, d_max)):
        w = fractional_moment_critical_w(d)
        h = 1e-7 * w
        fd_w = (branching_factor(w + h, d) - branching_factor(w - h, d)) / (2 * h)
        an_w = branching_factor_dw(w, d)
        max_rel_err = max(max_rel_err, abs(fd_w - an_w) / abs(an_w))
        # derivative in d: F extends smoothly to real d through the formula
        hd = 1e-6
        fd_d = (branching_factor(w, d + hd) - branching_factor(w, d - hd)) / (2 * hd)
        an_d = branching_factor_dd(w, d)
        max_rel_err = max(max_rel_err, abs(fd_d - an_d) / abs(an_d))

    return {
        "d_values": ds,
        "f_values": f_vals,
        "increasing": increasing,
        "min_f": min_f,
        "min_f_ok": min_f >= 2.9,
        "derivative_max_rel_err": max_rel_err,
        "derivatives_ok": max_rel_err <= 1e-6,
        "passed": increasing and min_f >= 2.9 and max_rel_err <= 1e-6,
    }

