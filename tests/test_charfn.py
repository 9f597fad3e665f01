"""Characteristic function properties and the Fourier-inversion engine."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from golden import (
    COMPARISON_ALPHAS,
    GIL_PELAEZ_ROW_ITM,
    GIL_PELAEZ_ROW_OTM,
)

from fmls.bs import bs_price
from fmls import charfn
from fmls.charfn import char_fn, gil_pelaez_price
from fmls.errors import NumericalError, QuadratureError
from fmls.model import OptionSpec, StableModel, log_moneyness, martingale_drift
from fmls.series import price_series


def sampled_models():
    for sigma in (0.1, 0.2, 0.5):
        for alpha in (1.2, 1.5, 1.7, 2.0):
            for tau in (0.25, 1.0, 5.0):
                yield martingale_drift(sigma, alpha), tau, alpha


class TestCharFn:
    def test_at_zero(self):
        assert char_fn(0.0, -0.04, 1.0, 1.7) == 1.0 + 0.0j

    def test_martingale_identity(self):
        for mu, tau, alpha in sampled_models():
            assert abs(char_fn(-1j, mu, tau, alpha) - 1.0) < 1e-12

    def test_gaussian_case(self):
        # Independent algebraic form: exp(mu*tau*(iu + u^2)).
        mu, tau = -0.02, 1.3
        for u in np.linspace(-8.0, 8.0, 33):
            u = float(u)
            want = cmath.exp(mu * tau * (1j * u + u * u))
            assert abs(char_fn(u, mu, tau, 2.0) - want) < 1e-14

    def test_modulus_bound(self):
        for mu, tau, alpha in sampled_models():
            for u in np.linspace(-50.0, 50.0, 101):
                assert abs(char_fn(float(u), mu, tau, alpha)) <= 1.0 + 1e-12

    def test_hermitian_symmetry(self):
        for mu, tau, alpha in sampled_models():
            for u in np.linspace(0.1, 40.0, 40):
                u = float(u)
                a = char_fn(-u, mu, tau, alpha)
                b = char_fn(u, mu, tau, alpha).conjugate()
                assert abs(a - b) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            char_fn(complex(math.nan, 0.0), -0.04, 1.0, 1.7)


class TestGilPelaez:
    def test_comparison_rows(self):
        for spot, row in [(3800, GIL_PELAEZ_ROW_OTM), (4200, GIL_PELAEZ_ROW_ITM)]:
            for alpha, cell in zip(COMPARISON_ALPHAS, row):
                s = OptionSpec(spot=spot, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
                m = StableModel.from_spec(s, alpha)
                assert gil_pelaez_price(m, s).price == pytest.approx(cell, abs=0.01)

    def test_agrees_with_series(self):
        for spot in (3800, 4200):
            for alpha in COMPARISON_ALPHAS:
                s = OptionSpec(spot=spot, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
                m = StableModel.from_spec(s, alpha)
                gp = gil_pelaez_price(m, s).price
                se = price_series(m, s).price
                assert abs(gp - se) <= 0.01

    def test_gaussian_case_against_closed_form(self):
        for mon in (0.85, 1.0, 1.15):
            for tau in (0.5, 2.0):
                s = OptionSpec(spot=100 * mon, strike=100, rate=0.02, sigma=0.25, tau=tau)
                m = StableModel.from_spec(s, 2.0)
                assert abs(gil_pelaez_price(m, s).price - bs_price(s)) <= 1e-4 * 100

    # alpha = 2 against the closed form, sliver [0, 1e-10] included: the
    # error estimate bounds the gap up to 1e-12 of the strike.
    @settings(max_examples=200, deadline=None)
    @given(
        moneyness=st.floats(0.7, 1.5),
        tau=st.floats(0.25, 2.0),
        sigma=st.floats(0.1, 0.5),
    )
    def test_error_estimate_bounds_the_gap_to_black_scholes(self, moneyness, tau, sigma):
        s = OptionSpec(spot=100.0 * moneyness, strike=100.0, rate=0.01, sigma=sigma, tau=tau)
        r = gil_pelaez_price(StableModel.from_spec(s, 2.0), s)
        assert abs(r.price - bs_price(s)) <= r.error_estimate + 1e-12 * s.strike

    # Short maturities, where phi decays slowly and the cut can reach its
    # cap: the error estimate, tail bound included, still covers the gap.
    @settings(max_examples=200, deadline=None)
    @given(
        moneyness=st.floats(0.5, 3.0),
        log_tau=st.floats(math.log(0.002), math.log(0.25)),
        sigma=st.floats(0.05, 1.5),
    )
    def test_short_maturities_bound_the_gap_to_black_scholes_or_raise(
        self, moneyness, log_tau, sigma
    ):
        s = OptionSpec(
            spot=100.0 * moneyness, strike=100.0, rate=0.01, sigma=sigma, tau=math.exp(log_tau)
        )
        try:
            r = gil_pelaez_price(StableModel.from_spec(s, 2.0), s)
        except NumericalError:
            return
        assert abs(r.price - bs_price(s)) <= r.error_estimate + 1e-12 * s.strike

    @settings(max_examples=100, deadline=None)
    @given(
        alpha=st.floats(1.05, 2.0, exclude_min=True),
        log_tau=st.floats(math.log(0.002), math.log(10.0)),
        sigma=st.floats(0.05, 1.5),
    )
    def test_tail_bound_covers_the_integrals_past_the_cut(self, alpha, log_tau, sigma):
        # Against a fine trapezoid of e^{Re z}/u du = e^{Re z} dv, v = log u,
        # which does not oscillate; Re z from numpy's complex power.
        s = OptionSpec(spot=100.0, strike=100.0, rate=0.01, sigma=sigma, tau=math.exp(log_tau))
        m = StableModel.from_spec(s, alpha)
        mu_tau = m.mu * s.tau
        u_cut = charfn._cut(mu_tau, alpha)
        # Graded toward the cut, where e^{Re z} falls within 1e-3 in v when
        # mu*tau is large.
        v = math.log(u_cut) + 12.0 * np.linspace(0.0, 1.0, 24001) ** 3
        trapezoids = [
            float(np.trapezoid(np.exp((mu_tau * (w - w**alpha)).real), v))
            for w in (1.0 + 1j * np.exp(v), 1j * np.exp(v))
        ]
        re, slope = charfn._decay(u_cut, mu_tau, alpha)
        bounds = np.exp(re) * np.log1p(1.0 / slope) / alpha
        for bound, trapezoid in zip(bounds, trapezoids):
            assert bound >= (1.0 - 1e-6) * trapezoid
        try:
            r = gil_pelaez_price(m, s)
        except NumericalError:
            return
        assert r.diagnostics["u_cut"] == u_cut
        discounted_strike = s.strike * math.exp(-s.rate * s.tau)
        combined = (s.spot * trapezoids[0] + discounted_strike * trapezoids[1]) / math.pi
        assert r.diagnostics["tail_bound"] >= (1.0 - 1e-6) * combined

    def test_paper_cells_take_at_most_two_levels(self):
        # One integrand call per level, every strip of P1 and P2 in it, and
        # the cut well short of the cap at 200.
        for spot in (3800, 4200):
            for alpha in COMPARISON_ALPHAS:
                s = OptionSpec(spot=spot, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
                d = gil_pelaez_price(StableModel.from_spec(s, alpha), s).diagnostics
                assert 1 <= d["levels"] <= 2
                assert 0.0 < d["u_cut"] < 200.0
                # Strips of width 5, 18 panels in strip 0; 2 * (40 + 17) at the cap.
                strips = round(d["u_cut"] / 5.0)
                assert 2 * (strips + 17) <= d["panels"] < 2 * (40 + 17)

    def test_probabilities_in_unit_interval(self):
        for spot in (3800, 4200):
            for alpha in COMPARISON_ALPHAS:
                s = OptionSpec(spot=spot, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
                m = StableModel.from_spec(s, alpha)
                d = gil_pelaez_price(m, s).diagnostics
                assert -1e-9 <= d["p1"] <= 1.0 + 1e-9
                assert -1e-9 <= d["p2"] <= 1.0 + 1e-9

    def test_against_scipy_quadrature_oracle(self):
        # Same integrals, independent integrator.
        s = OptionSpec(spot=3800, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
        for alpha in (1.5, 1.7, 2.0):
            m = StableModel.from_spec(s, alpha)
            lfwd, mu = log_moneyness(s), m.mu

            def ig(u, shift):
                phi = char_fn(u - shift, mu, 1.0, alpha)
                return (cmath.exp(1j * u * lfwd) * phi / (1j * u)).real

            i1 = quad(ig, 1e-10, 200.0, args=(1j,), limit=300)[0]
            i2 = quad(ig, 1e-10, 200.0, args=(0.0,), limit=300)[0]
            oracle = 3800 * (0.5 + i1 / math.pi) - 4000 * math.exp(-0.01) * (
                0.5 + i2 / math.pi
            )
            assert gil_pelaez_price(m, s).price == pytest.approx(oracle, abs=1e-6)

    def test_diagnostics_and_node_counts(self):
        s = OptionSpec(spot=3800, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
        m = StableModel.from_spec(s, 1.7)
        r = gil_pelaez_price(m, s)
        assert r.engine == "gil_pelaez"
        assert r.terms_used > 0
        assert r.error_estimate < 1e-4
        assert r.diagnostics["u_cut"] <= 200.0
        assert 0.0 <= r.diagnostics["tail_bound"] <= r.error_estimate

    def test_insufficient_budget_raises(self, monkeypatch):
        s = OptionSpec(spot=3800, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
        m = StableModel.from_spec(s, 1.7)
        monkeypatch.setattr(charfn, "_REL_TOL", 1e-13)
        monkeypatch.setattr(charfn, "_ABS_TOL", 1e-300)
        monkeypatch.setattr(charfn, "_MAX_SUBDIVISIONS", 1)
        with pytest.raises(QuadratureError):
            gil_pelaez_price(m, s)
