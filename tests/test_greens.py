"""Vertical-line quadrature: density, self-tests, grids, convolution pricer."""

import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st
from scipy.integrate import quad

from golden import DISCRETIZATION_ROW_ITM, DISCRETIZATION_ROW_OTM
from paper_checks import cahen_mellin_exp

from fmls import greens
from fmls.bs import bs_price
from fmls.charfn import gil_pelaez_price
from fmls.errors import NumericalError, QuadratureError
from fmls.greens import (
    DensityGrid,
    build_density_grid,
    default_pricing_grid,
    discretized_price,
    leaking_edge,
    stable_density_values,
)
from fmls.model import OptionSpec, StableModel, martingale_drift
from fmls.series import price_series

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import oracle  # noqa: E402  (the benchmark's independent reference prices)

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

    def test_sum_lost_to_roundoff_raises(self):
        # Gamma(20 + iy) is about 1e17 near y = 0; the sum cancels to 0.37.
        with pytest.raises(QuadratureError, match="roundoff"):
            cahen_mellin_exp(1.0, 20.0)

    # Every abscissa gives exp(-x) or raises.  Below c = 1e-300, Gamma(c)
    # itself overflows a double.
    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(0.1, 10.0), c=st.floats(1e-300, 60.0))
    def test_any_abscissa_gives_exp_or_raises(self, x, c):
        try:
            value = cahen_mellin_exp(x, c)
        except QuadratureError:
            return
        assert abs(value - math.exp(-x)) <= 1e-8

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
        # Any abscissa in the strip -alpha < c1 < 1, t = 0 included.
        for x in (0.5, -0.5):
            values = [
                stable_density_values(x, 1.7, c1=c1)
                for c1 in (0.3, 0.5, 0.7, 0.0, -0.5, -1.2)
            ]
            assert max(values) - min(values) <= 1e-8

    # The default contour sits at c1 = (1 - alpha)/2; points near zero keep
    # c1 = 0.5, where |X|^(c1-1) amplifies the contour sum's roundoff less.
    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(1.05, 2.0, exclude_min=True),
        log_mag=st.lists(
            st.floats(math.log(1e-8), math.log(500.0)), min_size=1, max_size=8
        ),
        signs=st.lists(st.booleans(), min_size=8, max_size=8),
    )
    # A point the default contour's phase roundoff sends to c1 = 0.5.
    @example(alpha=1.0625, log_mag=[-6.0], signs=[False] * 8)
    def test_default_contour_matches_c1_half(self, alpha, log_mag, signs):
        x = np.array(
            [math.exp(v) * (-1.0 if neg else 1.0) for v, neg in zip(log_mag, signs)]
        )
        outcomes = []
        for c1 in (None, 0.5):
            try:
                outcomes.append(stable_density_values(x, alpha, c1))
            except QuadratureError:
                outcomes.append(None)
        default, half = outcomes
        if default is None or half is None:
            assert default is None and half is None
        else:
            assert float(np.max(np.abs(default - half))) <= 1e-9

    def test_the_step_test_counts_the_phase_roundoff(self):
        # At alpha = 1.0625 and X = e^-6 the roundoff of the default
        # contour's phases, y_k |log X| per node, lifts its floor above 1e-9
        # of the density: the contour raises, and the default call, which
        # routes points by the same floor, prices the point on c1 = 0.5.
        alpha, x = 1.0625, math.exp(-6.0)
        with pytest.raises(QuadratureError, match="lost to roundoff"):
            stable_density_values(x, alpha, 0.5 * (1.0 - alpha))
        assert stable_density_values(x, alpha) == stable_density_values(x, alpha, 0.5)

    def test_against_fourier_oracle(self):
        assert stable_density_values(0.5, 1.7) == pytest.approx(G17_AT_HALF, abs=1e-6)
        assert stable_density_values(-0.5, 1.7) == pytest.approx(G17_AT_MINUS_HALF, abs=1e-6)
        assert stable_density_values(2.0, 1.7) == pytest.approx(G17_AT_TWO, abs=1e-6)
        for x in (-3.0, -1.0, 0.25, 1.5):
            for alpha in (1.5, 1.9):
                assert stable_density_values(x, alpha) == pytest.approx(
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
            v0 = stable_density_values(0.0, alpha)
            assert v0 == pytest.approx(stable_density_values(1e-7, alpha), rel=1e-5)

    def test_truncation_error(self):
        with pytest.raises(QuadratureError, match="too close to 1"):
            stable_density_values(0.5, 1.02)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            stable_density_values(0.5, 1.0)
        with pytest.raises(ValueError):
            stable_density_values(0.5, 1.7, c1=1.5)
        # The contour must stay inside the strip -alpha < c1 < 1.
        for c1 in (-1.7, 1.0):
            with pytest.raises(ValueError, match="c1"):
                stable_density_values(0.5, 1.7, c1=c1)

    def test_non_finite_points(self):
        # Rejected up front: no quadrature runs, so no warning and no halving.
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                stable_density_values(x, 1.7)
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

    def test_edge_leaks_at_low_alpha(self):
        mu = martingale_drift(0.2, 1.5)
        grid = build_density_grid(1.5, mu, 1.0, n_points=501)
        assert leaking_edge(grid, 1.5, mu, 1.0) > greens.DEFAULT_BOUNDARY_TOL

    def test_edge_holds_at_higher_alpha(self):
        mu = martingale_drift(0.2, 1.7)
        grid = build_density_grid(1.7, mu, 1.0, n_points=501)
        assert leaking_edge(grid, 1.7, mu, 1.0) is None

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
                assert leaking_edge(grid, alpha, m.mu, s.tau) is None

    def test_prices_on_the_module_default_pricing_grid(self, monkeypatch):
        # A caller that rebinds the module global, as a tracer does, sees
        # every grid the pricer prices on.
        calls = []
        original = greens.default_pricing_grid

        def counting(model, spec, refine=0, **kwargs):
            calls.append(refine)
            return original(model, spec, refine, **kwargs)

        monkeypatch.setattr(greens, "default_pricing_grid", counting)
        s = OptionSpec(spot=3800, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
        m = StableModel.from_spec(s, 1.5)
        for refine in (0, 1):
            discretized_price(m, s, refine)
        assert calls == [0, 1]

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
        assert set(r.diagnostics) == {"raw_mass", "half_width", "widenings", "n_points"}
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

    def test_diagnostics_report_the_grid_widenings(self):
        # Heavy left tails leak at the default edge below alpha = 1.7.
        s = OptionSpec(spot=3800, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
        for alpha, widenings in ((1.5, 1), (2.0, 0)):
            m = StableModel.from_spec(s, alpha)
            d = discretized_price(m, s).diagnostics
            assert d["widenings"] == widenings
            assert d["half_width"] == pytest.approx(11.0 * 1.5**widenings, rel=1e-15)
            grid = default_pricing_grid(m, s)
            scale = (-m.mu * s.tau) ** (1.0 / alpha)
            assert grid.y_max == pytest.approx(d["half_width"] * scale, rel=1e-15)

    def test_raw_mass_is_the_mass_before_renormalization(self):
        # At alpha = 1.5 and 1.6 the default grid is the widened one, built
        # on the contour of the first build: the same values as a fresh one.
        s = OptionSpec(spot=4200, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
        for alpha in (1.5, 1.6, 1.7):
            m = StableModel.from_spec(s, alpha)
            grid = default_pricing_grid(m, s)
            raw = build_density_grid(m.alpha, m.mu, s.tau, grid.y_min, grid.y_max, grid.n_points)
            np.testing.assert_array_equal(grid.values, raw.values)
            r = discretized_price(m, s)
            assert r.diagnostics["raw_mass"] == raw.mass()
            assert 0.99 < raw.mass() < 0.999

    @settings(max_examples=100, deadline=None)
    @given(
        alpha=st.floats(1.05, 2.0, exclude_min=True),
        moneyness=st.floats(0.5, 3.0),
        log_tau=st.floats(math.log(0.002), math.log(10.0)),
        log_sigma=st.floats(math.log(0.05), math.log(1.5)),
    )
    # Priced at -8.6e21 before the floor, which gave a negative estimate.
    @example(
        alpha=1.180600164218421,
        moneyness=1.0315588229174364,
        log_tau=math.log(6.6279167776279895),
        log_sigma=math.log(0.595536397339918),
    )
    def test_sweep_against_the_oracle(self, alpha, moneyness, log_tau, log_sigma):
        # The engine contract over the oracle box: a price within its
        # estimate plus 1e-6 of the strike, or a NumericalError.
        spot, strike, rate = 100.0 * moneyness, 100.0, 0.01
        sigma, tau = math.exp(log_sigma), math.exp(log_tau)
        s = OptionSpec(spot=spot, strike=strike, rate=rate, sigma=sigma, tau=tau)
        try:
            want = oracle.call_price(spot, strike, rate, sigma, tau, alpha)
        except oracle.OracleError:  # QUADPACK cannot vouch for the reference
            reject()
        try:
            r = discretized_price(StableModel.from_spec(s, alpha), s)
        except NumericalError:
            return
        assert 0.0 <= r.error_estimate < spot
        assert abs(r.price - want) <= r.error_estimate + 1e-6 * strike

    @settings(max_examples=60, deadline=None)
    @given(
        moneyness=st.floats(0.5, 2.0),
        log_tau=st.floats(math.log(10.0), math.log(1000.0)),
        sigma=st.floats(0.5, 3.0),
    )
    # Priced 92.53 with an estimate of 0.42 before the estimate counted the
    # right tail's payoff-weighted mass; Black-Scholes gives 99.85.
    @example(moneyness=1.0, log_tau=math.log(10.0), sigma=2.0)
    def test_long_maturities_against_black_scholes(self, moneyness, log_tau, sigma):
        # Wide densities put price in the right tail past the grid's edge,
        # where S e^y outweighs the light tail.  At alpha = 2 Black-Scholes
        # is exact: a price within its estimate plus 1e-6 of the strike, or
        # a NumericalError.
        strike = 100.0
        tau = math.exp(log_tau)
        s = OptionSpec(spot=strike * moneyness, strike=strike, rate=0.01, sigma=sigma, tau=tau)
        try:
            r = discretized_price(StableModel.from_spec(s, 2.0), s)
        except NumericalError:
            return
        assert abs(r.price - bs_price(s)) <= r.error_estimate + 1e-6 * strike
