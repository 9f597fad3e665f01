"""Black-Scholes closed form and the at-the-money-forward expansions."""

import math

import numpy as np
import pytest

from paper_checks import (
    atmf_term_alternating,
    atmf_term_half_integer_gamma,
    bs_atmf_price,
)

from fmls.bs import bs_price
from fmls.model import OptionSpec


class TestBsPrice:
    def test_reference_cells(self):
        otm = OptionSpec(spot=3800, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
        itm = OptionSpec(spot=4200, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
        assert bs_price(otm) == pytest.approx(235.52, abs=0.01)
        assert bs_price(itm) == pytest.approx(458.79, abs=0.01)

    def test_deterministic_limit(self):
        for spot, strike in [(120.0, 100.0), (80.0, 100.0)]:
            s = OptionSpec(spot=spot, strike=strike, rate=0.03, sigma=1e-9, tau=1.0)
            intrinsic = max(spot - strike * math.exp(-0.03), 0.0)
            assert bs_price(s) == pytest.approx(intrinsic, abs=1e-9)

    def test_no_arbitrage_bounds(self):
        for spot in np.linspace(50, 200, 16):
            for tau in (0.1, 1.0, 5.0):
                s = OptionSpec(spot=float(spot), strike=100, rate=0.02, sigma=0.35, tau=tau)
                p = bs_price(s)
                assert max(spot - 100 * math.exp(-0.02 * tau), 0.0) <= p <= spot


class TestAtmf:
    def test_matches_full_formula_exactly(self):
        for sigma in (0.05, 0.2, 0.6):
            for tau in (0.25, 1.0, 4.0):
                strike = 4000.0
                spot = strike * math.exp(-0.01 * tau)
                s = OptionSpec(spot=spot, strike=strike, rate=0.01, sigma=sigma, tau=tau)
                assert bs_atmf_price(spot, sigma, tau) == pytest.approx(
                    bs_price(s), rel=1e-14
                )

    def test_small_vol_approximation(self):
        # Leading behavior ~ 0.39894 * S * sigma * sqrt(tau).
        spot, sigma, tau = 100.0, 0.01, 1.0
        lead = spot * sigma * math.sqrt(tau) / math.sqrt(2.0 * math.pi)
        assert bs_atmf_price(spot, sigma, tau) == pytest.approx(lead, rel=1e-4)
        assert lead == pytest.approx(0.4 * spot * sigma * math.sqrt(tau), rel=0.003)

    def test_validation(self):
        with pytest.raises(ValueError):
            bs_atmf_price(0.0, 0.2, 1.0)


class TestAtmfTerms:
    def test_representations_agree_term_by_term(self):
        for n in range(21):
            a = atmf_term_alternating(n, 100.0, 0.21, 1.3)
            b = atmf_term_half_integer_gamma(n, 100.0, 0.21, 1.3)
            assert a == pytest.approx(b, rel=1e-14), f"n={n}"

    def test_leading_term(self):
        a = atmf_term_alternating(0, 100.0, 0.2, 1.0)
        assert a == pytest.approx(100.0 * 0.2 / math.sqrt(2.0 * math.pi), rel=1e-15)

    def test_partial_sums_hit_closed_form(self):
        # Remainder after ten terms is far below 1e-10 for sigma*sqrt(tau) <= 0.5.
        for sigma, tau in [(0.1, 1.0), (0.25, 1.0), (0.5, 1.0), (0.25, 4.0)]:
            total = sum(atmf_term_half_integer_gamma(n, 100.0, sigma, tau) for n in range(11))
            assert abs(total - bs_atmf_price(100.0, sigma, tau)) < 1e-10

    def test_index_validation(self):
        with pytest.raises(ValueError):
            atmf_term_alternating(-1, 100.0, 0.2, 1.0)
        with pytest.raises(ValueError):
            atmf_term_half_integer_gamma(-2, 100.0, 0.2, 1.0)
