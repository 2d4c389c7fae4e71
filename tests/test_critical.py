"""Critical couplings: Bessel kernels, decay integral, root finding.

Oracles here are quadrature of the defining integrals — K_nu(x) as the
cosh-transform integral, against which SciPy's scaled kernels k0e and k1e
that the module calls are pinned, Gamma(1/4) as 4 * integral of exp(-u^4),
and the step decay integral in its direct form — so every closed form is
certified without circular use of the library's own special functions.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import k0e, k1e

from rsolab.critical import (
    GAMMA_QUARTER,
    ROOT_RESIDUAL_TOL,
    CriticalReport,
    branching_factor,
    branching_factor_dd,
    branching_factor_dw,
    comparison_scan,
    critical_report,
    fractional_moment_critical_w,
    solve_critical_w,
    step_decay_integral,
)

X_GRID = (0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
SCALED_K = {0: k0e, 1: k1e}


def scaled_bessel_k(order: int, x: float) -> float:
    """K_order(x) from the scaled kernel that :mod:`rsolab.critical` calls."""
    return float(SCALED_K[order](x) * math.exp(-x))


def bessel_k_by_quadrature(order: int, x: float) -> float:
    val, err = quad(
        lambda t: math.exp(-x * math.cosh(t)) * math.cosh(order * t),
        0.0,
        60.0,
        epsabs=0.0,
        epsrel=1e-13,
        limit=300,
    )
    assert err < 1e-11 * abs(val)
    return val


class TestBesselOracle:
    @pytest.mark.parametrize("x", X_GRID)
    @pytest.mark.parametrize("order", (0, 1))
    def test_matches_integral_definition(self, order, x):
        want = bessel_k_by_quadrature(order, x)
        assert abs(scaled_bessel_k(order, x) - want) <= 1e-12 * want

    def test_pinned_values_at_one(self):
        assert abs(scaled_bessel_k(0, 1.0) - 0.42102443824070823) < 1e-15
        assert abs(scaled_bessel_k(1, 1.0) - 0.6019072301972346) < 1e-15


class TestGammaQuarter:
    def test_against_integral(self):
        # Gamma(1/4) = 4 * integral_0^inf exp(-u^4) du (substitute t = u^4)
        val, err = quad(lambda u: math.exp(-(u**4)), 0.0, np.inf, epsabs=1e-14, epsrel=1e-13)
        oracle = 4.0 * val
        assert err < 1e-12
        assert abs(GAMMA_QUARTER - oracle) < 5e-13 * oracle


class TestStepDecayIntegral:
    @pytest.mark.parametrize("w", (0.05, 0.2, 1.0, 5.0, 20.0))
    def test_matches_direct_integral(self, w):
        val, err = quad(
            lambda t: math.exp(-w * (math.cosh(t) - 1.0)),
            0.0,
            60.0,  # cosh(60) ~ 5.7e25: the integrand is identically 0 beyond
            epsabs=0.0,
            epsrel=1e-13,
            limit=300,
        )
        want = math.sqrt(2.0 * w / math.pi) * val
        assert err < 1e-10 * val
        assert abs(step_decay_integral(w) - want) <= 1e-11 * want

    def test_strictly_increasing_below_one(self):
        ws = np.geomspace(1e-3, 200.0, 60)
        vals = step_decay_integral(ws)
        assert np.all(np.diff(vals) > 0)
        assert np.all(vals < 1.0)
        assert np.all(vals > 0.0)

    def test_large_w_asymptote(self):
        # 1 - I(w) ~ 1/(8w): check the leading correction at w = 50
        w = 50.0
        assert abs((1.0 - step_decay_integral(w)) - 1.0 / (8 * w)) < 0.1 / (8 * w)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            step_decay_integral(0.0)


class TestBranchingFactor:
    def test_one_dimension_is_decay_integral(self):
        ws = np.geomspace(0.01, 50.0, 20)
        assert np.allclose(branching_factor(ws, 1), step_decay_integral(ws), atol=0, rtol=1e-15)
        assert np.all(branching_factor(ws, 1) < 1.0)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            branching_factor(1.0, 0)

    @pytest.mark.parametrize("d", (1, 2, 4))
    def test_dw_matches_finite_difference(self, d):
        for w in (0.01, 0.3, 2.0):
            h = 1e-7 * w
            fd = (branching_factor(w + h, d) - branching_factor(w - h, d)) / (2 * h)
            an = branching_factor_dw(w, d)
            assert abs(fd - an) <= 1e-7 * abs(an)

    @pytest.mark.parametrize("d", (2, 3))
    def test_dd_matches_finite_difference(self, d):
        # F extends smoothly to real d; difference across integer d at step 1e-6
        w = 0.1
        hd = 1e-6

        def f_real_d(dd):
            return step_decay_integral(w) * math.exp(w * (2 * dd - 2)) * (2 * dd - 1)

        fd = (f_real_d(d + hd) - f_real_d(d - hd)) / (2 * hd)
        assert abs(fd - branching_factor_dd(w, d)) <= 1e-7 * abs(fd)


class TestCriticalRoots:
    def test_d1_has_no_finite_root(self):
        assert solve_critical_w(1) is None
        rep = critical_report(1)
        assert rep.w_c is None and rep.w_cr is None and rep.residual is None
        assert isinstance(rep.w_c_prime, float) and math.isfinite(rep.w_c_prime)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_root_residual(self, d):
        w_c = solve_critical_w(d)
        assert w_c is not None and w_c > 0
        assert abs(branching_factor(w_c, d) - 1.0) <= ROOT_RESIDUAL_TOL

    def test_pinned_root_d2(self):
        assert abs(solve_critical_w(2) - 0.0062319690769072605) < 1e-11

    def test_root_decreasing_in_dimension(self):
        roots = [solve_critical_w(d) for d in range(2, 7)]
        assert all(b < a for a, b in zip(roots, roots[1:]))

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            solve_critical_w(0)
        with pytest.raises(ValueError):
            fractional_moment_critical_w(-1)


class TestFractionalMomentThreshold:
    def test_pinned_values(self):
        assert abs(fractional_moment_critical_w(1) - 0.29068415850955925) < 1e-16
        assert abs(fractional_moment_critical_w(2) - 0.14534207925477963) < 1e-16

    def test_scales_inversely_with_d(self):
        base = fractional_moment_critical_w(1)
        for d in range(1, 12):
            got = fractional_moment_critical_w(d)
            assert abs(got - base / d) <= 1e-15 * got

    def test_closed_form_from_quadrature_gamma(self):
        val, _ = quad(lambda u: math.exp(-(u**4)), 0.0, np.inf, epsabs=1e-14, epsrel=1e-13)
        oracle = math.sqrt(math.pi) / (4.0 * val * 2.0**0.75)
        assert abs(fractional_moment_critical_w(1) - oracle) < 1e-12


class TestCombined:
    @pytest.mark.parametrize("d", range(2, 7))
    def test_closed_form_dominates_the_root(self, d):
        rep = critical_report(d)
        assert isinstance(rep, CriticalReport)
        assert rep.w_c < rep.w_c_prime
        assert rep.w_cr == rep.w_c_prime
        assert rep.residual <= ROOT_RESIDUAL_TOL

    def test_f_at_closed_form_threshold_d2(self):
        f2 = branching_factor(fractional_moment_critical_w(2), 2)
        assert abs(f2 - 2.9082758225778953) < 1e-12
        assert abs(f2 - 2.908) < 1e-3


class TestComparisonScan:
    def test_default_scan_passes(self):
        scan = comparison_scan()
        assert scan["d_values"] == list(range(2, 11))
        assert scan["increasing"]
        assert scan["min_f"] >= 2.9 and scan["min_f_ok"]
        assert scan["derivative_max_rel_err"] <= 1e-6 and scan["derivatives_ok"]
        assert scan["passed"]
        assert scan["f_values"] == sorted(scan["f_values"])

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            comparison_scan(d_min=1)
        with pytest.raises(ValueError):
            comparison_scan(d_min=4, d_max=3)


@given(w=st.floats(min_value=1e-3, max_value=30.0), d=st.integers(1, 6))
def test_branching_factor_positive_and_increasing_in_w(w, d):
    val = branching_factor(w, d)
    assert val > 0
    assert branching_factor_dw(w, d) > 0


@given(w=st.floats(min_value=1e-3, max_value=30.0))
def test_decay_integral_is_a_probability_factor(w):
    assert 0.0 < step_decay_integral(w) < 1.0
