"""Vertical-line quadrature: density, self-tests, grids, convolution pricer."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from golden import DISCRETIZATION_ROW_ITM, DISCRETIZATION_ROW_OTM
from paper_checks import cahen_mellin_exp

from fmls.charfn import gil_pelaez_price
from fmls.errors import QuadratureError
from fmls.greens import (
    BoundaryMassWarning,
    DensityGrid,
    build_density_grid,
    default_pricing_grid,
    discretized_price,
    stable_density,
    stable_density_values,
)
from fmls.model import OptionSpec, StableModel, martingale_drift
from fmls.series import price_series

# mpmath (mp.dps=50) Fourier inversion of exp((iu)^alpha) at alpha = 1.7.
G17_AT_HALF = 0.30033331253402954
G17_AT_MINUS_HALF = 0.21727093319136252
G17_AT_TWO = 0.13572395689500776


def fourier_density_oracle(x: float, alpha: float) -> float:
    """Independent route: invert the characteristic function numerically."""

    def f(u):
        return (np.exp(-1j * u * x) * np.exp((1j * u) ** alpha)).real / np.pi

    value, _ = quad(f, 0.0, np.inf, limit=500)
    return value


class TestCahenMellin:
    def test_twenty_combinations(self):
        for x in (0.1, 0.5, 1.0, 2.0, 5.0):
            for c in (0.25, 0.5, 1.0, 2.0):
                assert cahen_mellin_exp(x, c) == pytest.approx(
                    math.exp(-x), abs=1e-8
                ), f"x={x}, c={c}"

    def test_known_values(self):
        assert cahen_mellin_exp(1.0, 0.5) == pytest.approx(math.exp(-1.0), abs=1e-8)
        assert cahen_mellin_exp(0.5, 1.0) == pytest.approx(math.exp(-0.5), abs=1e-8)

    def test_outside_strip(self):
        with pytest.raises(ValueError):
            cahen_mellin_exp(1.0, -0.5)
        with pytest.raises(ValueError):
            cahen_mellin_exp(1.0, 0.0)
        with pytest.raises(ValueError):
            cahen_mellin_exp(-1.0, 0.5)


class TestStableDensity:
    def test_gaussian_closed_form(self):
        xs = np.linspace(-6.0, 6.0, 241)
        got = stable_density_values(xs, 2.0)
        want = np.exp(-(xs**2) / 4.0) / (2.0 * math.sqrt(math.pi))
        assert float(np.max(np.abs(got - want))) <= 1e-8

    def test_contour_independence(self):
        values = [
            stable_density(0.5, 1.7, c1=c1) for c1 in (0.3, 0.5, 0.7)
        ]
        assert max(values) - min(values) <= 1e-8

    def test_against_fourier_oracle(self):
        assert stable_density(0.5, 1.7) == pytest.approx(G17_AT_HALF, abs=1e-6)
        assert stable_density(-0.5, 1.7) == pytest.approx(G17_AT_MINUS_HALF, abs=1e-6)
        assert stable_density(2.0, 1.7) == pytest.approx(G17_AT_TWO, abs=1e-6)
        for x in (-3.0, -1.0, 0.25, 1.5):
            for alpha in (1.5, 1.9):
                assert stable_density(x, alpha) == pytest.approx(
                    fourier_density_oracle(x, alpha), abs=1e-6
                ), f"x={x}, alpha={alpha}"

    def test_normalization_and_positivity(self):
        grids = {1.5: (-500.0, 20.0), 1.7: (-240.0, 16.0), 1.9: (-90.0, 14.0)}
        for alpha, (lo, hi) in grids.items():
            n = int((hi - lo) / 0.0625) + 1
            xs = np.linspace(lo, hi, n)
            vals = stable_density_values(xs, alpha)
            assert float(np.min(vals)) >= -1e-8
            mass = float(np.trapezoid(vals, xs))
            assert abs(mass - 1.0) <= 1e-4, f"alpha={alpha}: mass={mass}"

    def test_zero_is_positive_branch_limit(self):
        for alpha in (1.5, 1.7, 2.0):
            v0 = stable_density(0.0, alpha)
            assert v0 == pytest.approx(stable_density(1e-7, alpha), rel=1e-5)

    def test_truncation_error(self):
        with pytest.raises(QuadratureError, match="too close to 1"):
            stable_density(0.5, 1.02)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            stable_density(0.5, 1.0)
        with pytest.raises(ValueError):
            stable_density(0.5, 1.7, c1=1.5)

    def test_non_finite_points(self):
        # Rejected up front: no quadrature runs, so no warning and no halving.
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                stable_density(x, 1.7)
        with pytest.raises(ValueError, match="finite"):
            stable_density_values(np.array([0.5, math.nan, -0.5]), 1.7)


class TestDensityGrid:
    def test_gaussian_grid_matches_heat_kernel(self):
        sigma, tau = 0.2, 1.0
        mu = martingale_drift(sigma, 2.0)
        grid = build_density_grid(2.0, mu, tau, n_points=801)
        want = np.exp(-grid.ys**2 / (2 * sigma**2 * tau)) / (
            sigma * math.sqrt(2 * math.pi * tau)
        )
        assert float(np.max(np.abs(grid.values - want))) <= 1e-8

    def test_grid_mass_near_one(self):
        mu = martingale_drift(0.2, 1.7)
        grid = build_density_grid(1.7, mu, 1.0, n_points=2001)
        # Default bounds leave a few tenths of a percent in the heavy left tail.
        assert abs(grid.mass() - 1.0) <= 5e-3
        scale = (-mu) ** (1.0 / 1.7)
        wide = build_density_grid(
            1.7, mu, 1.0, y_min=-240 * scale, y_max=16 * scale, n_points=8001
        )
        assert abs(wide.mass() - 1.0) <= 1e-4

    def test_boundary_warning_fires_at_low_alpha(self):
        mu = martingale_drift(0.2, 1.5)
        with pytest.warns(BoundaryMassWarning):
            build_density_grid(1.5, mu, 1.0, n_points=501)

    def test_no_warning_at_higher_alpha(self):
        mu = martingale_drift(0.2, 1.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error", BoundaryMassWarning)
            build_density_grid(1.7, mu, 1.0, n_points=501)

    def test_invariants(self):
        with pytest.raises(ValueError):
            DensityGrid(y_min=0.0, y_max=1.0, n_points=2, values=np.zeros(2))
        with pytest.raises(ValueError):
            DensityGrid(y_min=0.0, y_max=1.0, n_points=4, values=np.zeros(3))
        with pytest.raises(ValueError):
            DensityGrid(
                y_min=0.0, y_max=1.0, n_points=3, values=np.array([0.1, -1e-6, 0.1])
            )
        with pytest.raises(ValueError):
            DensityGrid(
                y_min=0.0, y_max=1.0, n_points=3, values=np.array([0.1, math.nan, 0.1])
            )
        for y_min, y_max in [(-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0)]:
            with pytest.raises(ValueError):
                DensityGrid(y_min=y_min, y_max=y_max, n_points=3, values=np.full(3, 0.1))


class TestDiscretizedPrice:
    def test_reference_rows(self):
        for spot, row in [(3800, DISCRETIZATION_ROW_OTM), (4200, DISCRETIZATION_ROW_ITM)]:
            for alpha, cell in row.items():
                s = OptionSpec(spot=spot, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
                m = StableModel.from_spec(s, alpha)
                got = discretized_price(m, s).price
                assert got == pytest.approx(cell, abs=0.5), f"spot={spot}, alpha={alpha}"

    def test_refinement_converges_to_series(self):
        s = OptionSpec(spot=3800, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
        for alpha in (1.7, 1.9):
            m = StableModel.from_spec(s, alpha)
            target = price_series(m, s).price
            gaps = []
            for refine in (1, 2, 3):
                gaps.append(abs(discretized_price(m, s, refine).price - target))
            assert gaps[0] > gaps[1] > gaps[2]

    def test_refined_grid_close_to_series(self):
        s = OptionSpec(spot=3800, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
        m = StableModel.from_spec(s, 1.8)
        got = discretized_price(m, s, 2).price
        want = price_series(m, s).price
        assert abs(got - want) / want <= 0.01

    def test_default_grid_widens_only_where_the_edge_leaks(self):
        s = OptionSpec(spot=3800, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for alpha in (1.5, 1.6, 1.7, 1.8, 1.9, 2.0):
                m = StableModel.from_spec(s, alpha)
                scale = (-m.mu * s.tau) ** (1.0 / alpha)
                grid = default_pricing_grid(m, s)
                half_width = 16.5 if alpha < 1.7 else 11.0  # one widening by 1.5
                assert grid.y_min == pytest.approx(-half_width * scale, rel=1e-12)
                assert grid.y_max == pytest.approx(half_width * scale, rel=1e-12)
                assert grid.mass() == pytest.approx(1.0, abs=1e-12)

    def test_refine_outside_zero_to_six_raises(self):
        s = OptionSpec(spot=3800, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
        m = StableModel.from_spec(s, 1.8)
        for refine in (-1, 7, 10):
            with pytest.raises(ValueError, match="refine"):
                default_pricing_grid(m, s, refine)
            with pytest.raises(ValueError, match="refine"):
                discretized_price(m, s, refine)

    def test_result_metadata(self):
        s = OptionSpec(spot=3800, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
        m = StableModel.from_spec(s, 1.8)
        r = discretized_price(m, s)
        assert r.engine == "discretization"
        assert r.terms_used == 141
        assert r.diagnostics["grid_mass"] == pytest.approx(1.0, abs=1e-12)
        assert r.error_estimate >= 0.0

    def test_error_estimate_bounds_the_gap_to_fourier_inversion(self):
        # The renormalized grid carries the leaked left-tail mass into the
        # price; at S = 4200, alpha = 1.7 the gap is 2.09.
        for spot in (3800, 4200):
            for alpha in (1.5, 1.6, 1.7, 1.8, 1.9, 2.0):
                s = OptionSpec(spot=spot, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
                m = StableModel.from_spec(s, alpha)
                got = discretized_price(m, s)
                ref = gil_pelaez_price(m, s)
                gap = abs(got.price - ref.price)
                assert gap <= got.error_estimate + ref.error_estimate, (spot, alpha)

    def test_raw_mass_is_the_mass_before_renormalization(self):
        s = OptionSpec(spot=4200, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
        m = StableModel.from_spec(s, 1.7)
        grid = default_pricing_grid(m, s)
        raw = build_density_grid(
            m.alpha, m.mu, s.tau, grid.y_min, grid.y_max, grid.n_points, boundary_tol=math.inf
        )
        r = discretized_price(m, s)
        assert r.diagnostics["raw_mass"] == raw.mass()
        assert 0.99 < raw.mass() < 0.999
        assert r.diagnostics["grid_mass"] == grid.mass()
