"""Gamma-family and normal-CDF accuracy against independent oracles.

Oracles: the C-library lgamma/erf behind ``math``, scipy.special, and two
series oracles implemented here (a Stirling asymptotic series for complex
log Gamma and a Taylor series for erf).
"""

import cmath
import math

import numpy as np
import pytest
import scipy.special as sp

from fmls.greens import _loggamma_vec
from fmls.special_functions import ln_gamma_real, normal_cdf, reciprocal_gamma

LOG_SQRT_PI_HALF = -0.12078223763524522  # log(sqrt(pi)/2), mpmath 50 digits
TWO_OVER_SQRT_PI = 1.1283791670955126  # 2/sqrt(pi), mpmath 50 digits


def stirling_loggamma(z: complex, terms: int = 7) -> complex:
    """Asymptotic series oracle, accurate to ~1e-15 for |z| >= 9 or so."""
    bernoulli = (
        1.0 / 6.0,
        -1.0 / 30.0,
        1.0 / 42.0,
        -1.0 / 30.0,
        5.0 / 66.0,
        -691.0 / 2730.0,
        7.0 / 6.0,
    )
    # Shift into the asymptotic zone, then undo via the recurrence.
    shift = 0
    while abs(z + shift) < 9.0:
        shift += 1
    zs = z + shift
    out = (zs - 0.5) * cmath.log(zs) - zs + 0.5 * math.log(2.0 * math.pi)
    for k, b in enumerate(bernoulli[:terms], start=1):
        out += b / ((2 * k) * (2 * k - 1) * zs ** (2 * k - 1))
    for j in range(shift):
        out -= cmath.log(z + j)
    return out


def erf_series(z: float, terms: int = 60) -> float:
    """Taylor oracle: erf(z) = 2/sqrt(pi) * sum (-1)^n z^(2n+1)/(n! (2n+1))."""
    total = 0.0
    term = z
    for n in range(terms):
        total += term / (2 * n + 1)
        term *= -z * z / (n + 1)
    return 2.0 / math.sqrt(math.pi) * total


class TestLnGammaReal:
    def test_known_points(self):
        assert ln_gamma_real(1.0) == pytest.approx(0.0, abs=1e-14)
        assert ln_gamma_real(1.5) == pytest.approx(LOG_SQRT_PI_HALF, rel=1e-13)
        assert ln_gamma_real(5.0) == pytest.approx(math.log(24.0), rel=1e-13)
        assert ln_gamma_real(2.0) == pytest.approx(0.0, abs=1e-14)

    def test_relative_error_budget(self):
        xs = np.concatenate(
            [np.linspace(1e-4, 0.5, 200), np.geomspace(0.5, 170.0, 1500)]
        )
        for x in xs:
            x = float(x)
            assert math.isclose(
                ln_gamma_real(x), math.lgamma(x), rel_tol=1e-13, abs_tol=1e-13
            ), f"x={x}"

    def test_domain_errors(self):
        for bad in (0.0, -1.0, -0.5, math.inf, math.nan):
            with pytest.raises(ValueError):
                ln_gamma_real(bad)


class TestReciprocalGamma:
    def test_exact_zero_at_poles(self):
        for n in range(0, 60):
            assert reciprocal_gamma(-float(n)) == 0.0
        assert reciprocal_gamma(-3.0 + 5e-13) == 0.0
        assert reciprocal_gamma(0.0) == 0.0

    def test_known_points(self):
        assert reciprocal_gamma(1.5) == pytest.approx(TWO_OVER_SQRT_PI, rel=1e-13)
        assert reciprocal_gamma(1.0) == pytest.approx(1.0, rel=1e-14)
        assert reciprocal_gamma(5.0) == pytest.approx(1.0 / 24.0, rel=1e-13)

    def test_relative_error_budget(self):
        xs = np.linspace(-170.0, 170.0, 3401)
        for x in xs:
            x = float(x)
            if abs(x - round(x)) < 1e-6:
                continue
            ref = float(sp.rgamma(x))
            assert math.isclose(reciprocal_gamma(x), ref, rel_tol=1e-12), f"x={x}"

    def test_product_identity(self):
        xs = np.linspace(0.01, 100.0, 2000)
        for x in xs:
            x = float(x)
            prod = reciprocal_gamma(x) * math.exp(ln_gamma_real(x))
            assert abs(prod - 1.0) < 1e-11, f"x={x}"

    def test_reflection_identity(self):
        # 1/Gamma(x) = Gamma(1-x) sin(pi x)/pi, right side assembled from
        # stdlib pieces only.
        rng = np.random.default_rng(7)
        for x in rng.uniform(-50.0, 0.0, 400):
            x = float(x)
            if abs(x - round(x)) < 1e-3:
                continue
            ref = math.gamma(1.0 - x) * math.sin(math.pi * x) / math.pi
            assert math.isclose(reciprocal_gamma(x), ref, rel_tol=1e-10), f"x={x}"

    def test_total_on_finite_reals(self):
        for x in (-170.0, -0.5, 1e-300, 170.0):
            assert math.isfinite(reciprocal_gamma(x))
        with pytest.raises(ValueError):
            reciprocal_gamma(math.nan)
        with pytest.raises(OverflowError):
            reciprocal_gamma(-400.5)


    def test_negative_axis_near_the_poles_against_scipy(self):
        # Points just left of 0, -1, -2 and -3 once lost digits to the
        # reduction x - floor(x) in sin(pi*x).
        offsets = (1e-10, 1e-7, 1e-3, 0.25, 0.5, 0.75, 1.0 - 1e-7)
        for x in (-k - d for k in range(4) for d in offsets):
            want = float(sp.rgamma(x))
            assert reciprocal_gamma(x) == pytest.approx(want, rel=1e-13, abs=0.0), f"x={x}"


class TestLnGammaComplex:
    """Complex log Gamma, ``_loggamma_vec``."""

    def test_known_points(self):
        got = _loggamma_vec(np.array([1.0 + 0.0j, 0.5 + 0.0j]))
        assert got[0] == pytest.approx(0.0, abs=1e-14)
        assert got[1].real == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)
        assert got[1].imag == 0.0

    def test_against_stirling_oracle(self):
        z = 0.5 + 10.0j
        ref = stirling_loggamma(z)
        got = complex(_loggamma_vec(np.array([z]))[0])
        assert abs(got - ref) / abs(ref) < 1e-10
        # Modulus decays along the imaginary direction as the oracle predicts.
        assert abs(cmath.exp(got)) == pytest.approx(abs(cmath.exp(ref)), rel=1e-10)

    def test_matches_real_implementation_on_axis(self):
        xs = np.geomspace(0.1, 170.0, 300)
        got = _loggamma_vec(xs + 0j)
        assert np.all(got.imag == 0.0)
        for x, g in zip(xs, got.real):
            assert math.isclose(g, ln_gamma_real(float(x)), rel_tol=1e-12, abs_tol=1e-12)

    def test_against_scipy_grid(self):
        rng = np.random.default_rng(11)
        zs = rng.uniform(-140, 140, 500) + 1j * rng.uniform(-140, 140, 500)
        zs = zs[np.abs(zs.real - np.round(zs.real)) > 1e-3]
        got, ref = _loggamma_vec(zs), sp.loggamma(zs)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


class TestLogGammaVec:
    def test_right_half_plane_fast_path_matches_masked_path(self):
        # Contour nodes 1 - t at c1 = -0.5, and the same with a point at
        # Re z = 0.25, which sends the whole array through the masks.
        right = 1.5 + 1j * np.linspace(-400.0, 400.0, 801)
        right = np.concatenate([right, [0.5 + 0j, 0.5 + 3j, 7.0 - 2j]])
        fast = _loggamma_vec(right)
        mixed = _loggamma_vec(np.concatenate([right, [0.25 + 1j]]))
        assert fast.shape == right.shape
        assert np.array_equal(fast, mixed[:-1])
        want = sp.loggamma(right)
        assert float(np.max(np.abs(fast - want) / np.maximum(1.0, np.abs(want)))) <= 1e-13

    def test_negative_axis_near_the_poles_against_scipy(self):
        # Real parts and exp(.) only: on the negative axis the imaginary
        # parts may differ from scipy's by 2*pi*k.  Points just left of 0
        # and of -1 once lost digits to the reduction x - floor(x).
        offsets = np.array([1e-10, 1e-7, 1e-3, 0.25, 0.5, 0.75, 1.0 - 1e-7])
        xs = np.concatenate([[-1e-300], *(-k - offsets for k in range(4))]) + 0j
        got, ref = _loggamma_vec(xs), sp.loggamma(xs)
        assert np.all(np.abs(got.real - ref.real) <= 1e-13 * np.maximum(1.0, np.abs(ref.real)))
        assert np.all(np.abs(np.exp(got - ref.real) - np.exp(1j * ref.imag)) <= 1e-13)

    def test_empty_and_shaped_arrays(self):
        assert _loggamma_vec(np.empty(0, dtype=complex)).shape == (0,)
        grid = 1.0 + 1j * np.arange(6.0).reshape(2, 3)
        assert np.array_equal(_loggamma_vec(grid), _loggamma_vec(grid.ravel()).reshape(2, 3))


class TestNormalCdf:
    def test_symmetry_point(self):
        assert normal_cdf(0.0) == 0.5

    def test_saturation(self):
        assert normal_cdf(38.0) == 1.0
        assert normal_cdf(-38.0) == pytest.approx(0.0, abs=1e-300)

    def test_against_erf_series_oracle(self):
        ref = 0.5 + 0.5 * erf_series(1.96 / math.sqrt(2.0))
        assert abs(normal_cdf(1.96) - ref) < 1e-14
        assert normal_cdf(1.96) == pytest.approx(0.9750021048517796, abs=1e-14)

    def test_complement_identity(self):
        for x in np.linspace(-12.0, 12.0, 1001):
            x = float(x)
            assert abs(normal_cdf(x) + normal_cdf(-x) - 1.0) < 1e-14
