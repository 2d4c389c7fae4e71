"""Reciprocal-inverse-Gaussian law: density, CDF, mode, and exact sampler.

The closed-form CDF and the sampler are both certified against direct
numerical quadrature of the density, so every downstream KS test rests on
an independently verified reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc
from scipy.stats import kstest

from rsolab.rig import TINY_A, rig_cdf, rig_logpdf, rig_pdf, sample_rig
from rsolab.rng import philox_stream

A_GRID = (0.0, 0.1, 1.0, 10.0)

#: Parameters at and around the zero branch, where the array draw clamps.
EDGE_GRID = (0.0, TINY_A / 2, TINY_A, 1e-3, 1.3, 1e6, -0.0)

#: Source of the parameter arrays in the frozen-draw comparisons.
RNG_A = np.random.default_rng(3)

#: Parameters every public function must reject.
BAD_PARAMETERS = pytest.mark.parametrize(
    "bad", (-0.5, -np.inf, np.nan, np.inf), ids=["negative", "-inf", "nan", "inf"]
)


def masked_array_draw(a, rng, size=None):
    """Frozen copy of the array draw as it was before the in-place rewrite.

    The positive entries are gathered through a boolean mask, computed
    apart, and scattered back over the squared normals.
    """
    a_arr = np.asarray(a, dtype=float)
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


def cdf_by_quadrature(a: float, y: float) -> float:
    """Reference CDF: adaptive quadrature of the density on (0, y].

    Integrates in s = sqrt(t), which removes the inverse-square-root
    endpoint singularity and lets quad certify ~1e-10 accuracy.
    """
    val, err = quad(
        lambda s: 2.0 * s * rig_pdf(a, s * s),
        0.0,
        math.sqrt(y),
        limit=200,
        epsabs=1e-12,
        epsrel=1e-12,
    )
    assert err < 1e-9
    return val


class TestDensity:
    @pytest.mark.parametrize("a", A_GRID)
    def test_total_mass_is_one(self, a):
        val, err = quad(lambda s: 2.0 * s * rig_pdf(a, s * s), 0.0, np.inf, limit=400)
        assert err < 1e-7
        assert abs(val - 1.0) < 1e-10

    def test_zero_and_negative_support(self):
        assert rig_pdf(1.0, -1.0) == 0.0
        assert rig_pdf(1.0, 0.0) == 0.0
        assert rig_logpdf(1.0, -1.0) == -np.inf

    def test_rejects_negative_parameter(self):
        with pytest.raises(ValueError):
            rig_logpdf(-0.5, 1.0)
        with pytest.raises(ValueError):
            rig_cdf(-0.5, 1.0)
        with pytest.raises(ValueError):
            sample_rig(-0.5, philox_stream(0))

    @pytest.mark.parametrize("a", A_GRID)
    def test_moments_by_quadrature(self, a):
        mean, _ = quad(lambda t: t * rig_pdf(a, t), 0.0, np.inf, limit=400)
        second, _ = quad(lambda t: t * t * rig_pdf(a, t), 0.0, np.inf, limit=400)
        assert abs(mean - (a + 1.0)) < 1e-8
        assert abs(second - mean * mean - (a + 2.0)) < 1e-7
        if a > 0:
            inv, _ = quad(lambda t: rig_pdf(a, t) / t, 0.0, np.inf, limit=400)
            inv2, _ = quad(lambda t: rig_pdf(a, t) / t**2, 0.0, np.inf, limit=400)
            assert abs(inv - 1.0 / a) < 1e-9
            assert abs(inv2 - (1.0 / a**2 + 1.0 / a**3)) < 1e-7 * (1 + 1 / a**3)


class TestCdf:
    @pytest.mark.parametrize("a", A_GRID)
    @pytest.mark.parametrize("y", (0.05, 0.5, 1.0, 3.0, 12.0))
    def test_matches_quadrature(self, a, y):
        assert abs(rig_cdf(a, y) - cdf_by_quadrature(a, y)) < 1e-9

    def test_zero_parameter_is_chi_squared_1(self):
        ys = np.array([0.1, 0.5, 1.0, 2.0, 5.0])
        # chi^2(1) CDF via the regularized lower incomplete gamma function
        assert np.allclose(rig_cdf(0.0, ys), gammainc(0.5, ys / 2.0), atol=1e-14)

    def test_large_parameter_no_overflow(self):
        val = rig_cdf(1e4, 1e4)
        assert 0.0 <= val <= 1.0 and math.isfinite(val)

    def test_edges(self):
        assert rig_cdf(1.0, 0.0) == 0.0
        assert rig_cdf(1.0, -3.0) == 0.0
        assert abs(rig_cdf(1.0, 1e6) - 1.0) < 1e-12


class TestSampler:
    @pytest.mark.parametrize("a", (0.1, 1.0, 10.0))
    def test_moments(self, a):
        n = 200_000
        ys = sample_rig(a, philox_stream(11), size=n)
        se_mean = ys.std(ddof=1) / math.sqrt(n)
        assert abs(ys.mean() - (a + 1.0)) <= 4.0 * se_mean
        inv = 1.0 / ys
        se_inv = inv.std(ddof=1) / math.sqrt(n)
        assert abs(inv.mean() - 1.0 / a) <= 4.0 * se_inv

    @pytest.mark.parametrize("a", A_GRID)
    def test_ks_against_certified_cdf(self, a):
        ys = sample_rig(a, philox_stream(23), size=200_000)
        stat = kstest(ys, lambda t: rig_cdf(a, t)).statistic
        assert stat < 2.0 / math.sqrt(ys.size)

    def test_zero_parameter_is_squared_normal(self):
        rng = philox_stream(5)
        ys = sample_rig(0.0, rng, size=1000)
        nus = philox_stream(5).standard_normal(1000)
        # a = 0 consumes the normal and the uniform but returns the square
        assert np.allclose(ys, nus * nus)

    def test_stream_cadence_is_parameter_independent(self):
        # consuming one draw must advance the stream identically for all a
        for a in (0.0, 0.5, 20.0):
            rng = philox_stream(9)
            sample_rig(a, rng, size=7)
            assert rng.random() == philox_stream(9).random(15)[-1]

    def test_scalar_and_array_paths_agree(self):
        a = 1.7
        scalar = sample_rig(a, philox_stream(3))
        array = sample_rig(np.array([a]), philox_stream(3), size=1)
        assert np.isclose(scalar, array[0])

    @pytest.mark.parametrize("a", (0.0, TINY_A / 2, 1e-3, 1.3, 1e6))
    def test_scalar_draw_is_bit_identical_to_array_draw(self, a):
        # the scalar fast path must consume the same stream and do the same
        # arithmetic as the array path, draw after draw
        rng_s, rng_a = philox_stream(31), philox_stream(31)
        for _ in range(200):
            scalar = sample_rig(a, rng_s)
            assert type(scalar) is float
            array = sample_rig(np.array([a]), rng_a)[0]
            assert np.float64(scalar).tobytes() == array.tobytes()
        assert rng_s.random() == rng_a.random()

    @pytest.mark.parametrize("a", EDGE_GRID)
    def test_array_draw_matches_frozen_masked_draw(self, a):
        assert_matches_masked_draw(np.full(301, a), None)

    @pytest.mark.parametrize(
        "a, size",
        [
            (np.concatenate([EDGE_GRID, np.zeros(40), RNG_A.exponential(2.0, 400)]), None),
            (RNG_A.exponential(2.0, (3, 50)) * (np.arange(50) % 3 > 0), None),
            (np.array(1.3), 9),
            (np.array(0.0), (2, 3)),
            (np.array([0.0, 1e-3, 1.3, 1e6]), (5, 4)),
            (np.array([[0.0], [2.5]]), (2, 6)),
            (np.array([]), None),
            (np.array(0.7), 0),
        ],
        ids=[
            "mixed-zeros", "2d-zeros", "0d-size", "0d-zero-size",
            "size-broadcast", "column-broadcast", "empty", "size-0",
        ],
    )
    def test_array_draw_matches_frozen_masked_draw_on_shapes(self, a, size):
        assert_matches_masked_draw(a, size)

    def test_zero_dimensional_draw(self):
        # size=() takes the array branch, which returns a 0-d array
        y = sample_rig(np.array(1.3), philox_stream(3), size=())
        assert y.shape == () and y.tobytes() == np.float64(sample_rig(1.3, philox_stream(3))).tobytes()

    def test_broadcasts_parameter_array(self):
        a = np.array([0.0, 1.0, 5.0])
        ys = sample_rig(a, philox_stream(1))
        assert ys.shape == (3,)
        assert np.all(ys > 0)


def assert_matches_masked_draw(a, size):
    # twin streams: the same bytes, and the same stream position after
    rng_new, rng_old = philox_stream(43), philox_stream(43)
    new = sample_rig(a, rng_new, size=size)
    old = masked_array_draw(a, rng_old, size=size)
    assert isinstance(new, np.ndarray)
    assert new.shape == old.shape
    assert new.tobytes() == old.tobytes()
    assert rng_new.random() == rng_old.random()


@pytest.mark.filterwarnings("error")
class TestParameterValidation:
    # NaN passes a bare "a < 0" test and inf makes mu = 1/a zero, so both
    # need the check; warnings are errors here, so it must come first

    @BAD_PARAMETERS
    def test_scalar_draw_rejects(self, bad):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            sample_rig(bad, philox_stream(0))

    @BAD_PARAMETERS
    def test_array_draw_rejects_without_drawing(self, bad):
        rng = philox_stream(0)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            sample_rig(np.array([bad, 1.0]), rng)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            sample_rig(np.array([0.0, 1.0, bad]), rng, size=(2, 3))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            sample_rig(bad, rng, size=4)
        assert rng.random() == philox_stream(0).random()

    @BAD_PARAMETERS
    def test_density_and_cdf_reject(self, bad):
        for fn in (rig_logpdf, rig_pdf, rig_cdf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                fn(bad, 1.0)
            with pytest.raises(ValueError, match="finite and nonnegative"):
                fn(np.array([1.0, bad]), np.array([0.5, 2.0]))

    def test_density_and_cdf_reject_nan_point(self):
        for fn in (rig_logpdf, rig_pdf, rig_cdf):
            with pytest.raises(ValueError, match="must not be NaN"):
                fn(1.0, np.nan)
            with pytest.raises(ValueError, match="must not be NaN"):
                fn(np.array([0.0, 1.0]), np.array([0.5, np.nan]))

    @pytest.mark.parametrize("a", (0.0, 1e-200, 1.0, 1e4))
    def test_infinite_point(self, a):
        assert rig_cdf(a, np.inf) == 1.0
        assert rig_logpdf(a, np.inf) == -np.inf
        assert rig_pdf(a, np.inf) == 0.0
        ys = np.array([-np.inf, 0.0, 1.0, np.inf])
        cdf = rig_cdf(a, ys)
        assert cdf[0] == cdf[1] == 0.0 and cdf[3] == 1.0
        assert cdf[2] == rig_cdf(a, 1.0)

    def test_negative_zero_is_zero(self):
        assert sample_rig(-0.0, philox_stream(2)) == sample_rig(0.0, philox_stream(2))
        assert rig_cdf(-0.0, 0.7) == rig_cdf(0.0, 0.7)
        assert rig_logpdf(-0.0, 0.7) == rig_logpdf(0.0, 0.7)


@given(
    a=st.floats(min_value=0.0, max_value=50.0),
    y1=st.floats(min_value=1e-3, max_value=100.0),
    y2=st.floats(min_value=1e-3, max_value=100.0),
)
def test_cdf_monotone_and_bounded(a, y1, y2):
    lo, hi = min(y1, y2), max(y1, y2)
    c_lo, c_hi = rig_cdf(a, lo), rig_cdf(a, hi)
    assert 0.0 <= c_lo <= c_hi <= 1.0


@given(a=st.floats(min_value=0.0, max_value=50.0), seed=st.integers(0, 2**32 - 1))
def test_samples_positive(a, seed):
    ys = sample_rig(a, philox_stream(seed), size=16)
    assert np.all(ys > 0) or a == 0.0
    assert np.all(ys >= 0)
