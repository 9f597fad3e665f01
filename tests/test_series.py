"""Double-series engine: golden tables, degenerations, inversion, properties."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from golden import (
    COMPARISON_ALPHAS,
    SERIES_ROW_ITM,
    SERIES_ROW_OTM,
    TABLE1_CALL,
    TABLE1_SLACK,
    TABLE1_TERMS,
    TABLE2_CALL,
    TABLE2_SLACK,
    TABLE2_TERMS,
)
from paper_checks import atmf_bs_series, bs_atmf_price

from fmls import series
from fmls.bs import bs_price
from fmls.charfn import gil_pelaez_price
from fmls.errors import ConvergenceError, NumericalError, SeriesOverflowError
from fmls.model import OptionSpec, StableModel, log_moneyness, martingale_drift
from fmls.series import (
    convergence_table,
    implied_vol,
    price_series,
    series_term,
)


def spec_otm(tau: float = 1.0) -> OptionSpec:
    return OptionSpec(spot=3800, strike=4000, rate=0.01, sigma=0.2, tau=tau)


# A smile_calibration solve on which no reprice bounds anything: every
# error estimate is at or above the spot, so the solve stops after 12.
DISCONTINUOUS_SOLVE = dict(
    spot=100.0,
    strike=116.75510037690402,
    rate=0.01,
    tau=0.35155018069781363,
    alpha=1.5168800568208098,
    target_price=0.0007297654992349661,
)


@pytest.fixture
def reprices(monkeypatch):
    """Counts the price_series calls implied_vol makes through the module global."""
    counter = mock.Mock(wraps=price_series)
    monkeypatch.setattr(series, "price_series", counter)
    return counter


def spec_itm() -> OptionSpec:
    return OptionSpec(spot=4200, strike=4000, rate=0.01, sigma=0.2, tau=1.0)


class TestSeriesTerm:
    def test_leading_terms(self):
        s = spec_otm()
        m = StableModel.from_spec(s, 1.7)
        assert series_term(m, s, 0, 1) == pytest.approx(395.167, abs=0.0005)
        assert series_term(m, s, 1, 1) == pytest.approx(-190.223, abs=0.0005)

    def test_pole_terms_vanish_exactly(self):
        s = spec_otm()
        m = StableModel.from_spec(s, 2.0)
        # 1 - (n - m)/2 is a non-positive integer whenever n - m is an even
        # number >= 2.
        for n, mm in [(3, 1), (4, 2), (6, 2), (8, 4), (10, 2)]:
            assert series_term(m, s, n, mm) == 0.0
        # Rational alpha: n - m = 17 makes 1 - 17/1.7 = -9 a pole as well.
        m17 = StableModel.from_spec(s, 1.7)
        assert series_term(m17, s, 18, 1) == 0.0

    def test_index_validation(self):
        s = spec_otm()
        m = StableModel.from_spec(s, 1.7)
        with pytest.raises(ValueError):
            series_term(m, s, -1, 1)
        with pytest.raises(ValueError):
            series_term(m, s, 0, 0)
        with pytest.raises(ValueError):
            series_term(m, s, 65, 1)
        with pytest.raises(ValueError):
            series_term(m, s, 0, 65)

    def test_overflow_is_an_error(self):
        s = OptionSpec(spot=3800, strike=4000, rate=0.01, sigma=1000.0, tau=1000.0)
        m = StableModel.from_spec(s, 1.01)
        with pytest.raises(SeriesOverflowError):
            series_term(m, s, 0, 64)


def assert_table_matches(terms, call_row, printed, printed_call, slack):
    for n, row in enumerate(printed):
        for j, cell in enumerate(row):
            tol = slack.get((n, j), 0.0005)
            assert terms[n, j] == pytest.approx(cell, abs=tol), f"cell (n={n}, m={j + 1})"
    for j, cell in enumerate(printed_call):
        assert call_row[j] == pytest.approx(cell, abs=0.001), f"call column {j + 1}"


class TestConvergenceTable:
    def test_table_one(self):
        s = spec_otm()
        m = StableModel.from_spec(s, 1.7)
        table = convergence_table(m, s, 8, 7)
        assert_table_matches(
            table.terms, table.partial_sums, TABLE1_TERMS, TABLE1_CALL, TABLE1_SLACK
        )
        assert table.converged_price == pytest.approx(256.035, abs=0.001)

    def test_table_two(self):
        s = spec_otm(tau=5.0)
        m = StableModel.from_spec(s, 1.7)
        table = convergence_table(m, s, 8, 10)
        assert_table_matches(
            table.terms, table.partial_sums, TABLE2_TERMS, TABLE2_CALL, TABLE2_SLACK
        )

    def test_partial_sums_are_column_cumsums(self):
        s = spec_otm()
        m = StableModel.from_spec(s, 1.7)
        table = convergence_table(m, s, 8, 7)
        cums = np.cumsum(table.terms.sum(axis=0))
        assert np.allclose(table.partial_sums, cums, rtol=0, atol=1e-9)
        assert table.converged_price == table.partial_sums[-1]

    def test_degenerate_single_cell(self):
        s = spec_otm()
        m = StableModel.from_spec(s, 1.7)
        table = convergence_table(m, s, 0, 1)
        assert table.terms.shape == (1, 1)
        assert table.partial_sums[0] == table.terms[0, 0]
        assert table.terms[0, 0] == series_term(m, s, 0, 1)

    # Contracts from the oracle-sweep box: S/K in [0.5, 3], tau in
    # [0.002, 10] and sigma in [0.05, 1.5] (both log-uniform).
    @settings(max_examples=60, deadline=None)
    @given(
        moneyness=st.floats(0.5, 3.0),
        log_tau=st.floats(math.log(0.002), math.log(10.0)),
        log_sigma=st.floats(math.log(0.05), math.log(1.5)),
        alpha=st.floats(1.1, 2.0, exclude_min=True),
        n_max=st.sampled_from([8, 24]),
    )
    def test_converged_price_is_the_unfloored_series_price(
        self, moneyness, log_tau, log_sigma, alpha, n_max
    ):
        s = OptionSpec(
            spot=100.0 * moneyness,
            strike=100.0,
            rate=0.01,
            sigma=math.exp(log_sigma),
            tau=math.exp(log_tau),
        )
        m = StableModel.from_spec(s, alpha)
        try:
            result = price_series(m, s, n_max)
        except NumericalError:
            return
        if result.diagnostics.get("negative_sum_floored"):
            return
        columns = result.diagnostics["columns_used"]
        assert convergence_table(m, s, n_max, columns).converged_price == result.price


class TestPriceSeries:
    def test_table_one_price(self):
        s = spec_otm()
        m = StableModel.from_spec(s, 1.7)
        r = price_series(m, s, 8)
        assert r.price == pytest.approx(256.035, abs=0.001)
        assert r.engine == "series"
        assert r.terms_used == 9 * r.diagnostics["columns_used"]
        assert r.error_estimate >= 0.0

    def test_table_two_price(self):
        s = spec_otm(tau=5.0)
        m = StableModel.from_spec(s, 1.7)
        r = price_series(m, s, 8)
        assert r.price == pytest.approx(781.706, abs=0.001)

    def test_comparison_rows(self):
        for spot, row in [(3800, SERIES_ROW_OTM), (4200, SERIES_ROW_ITM)]:
            for alpha, cell in zip(COMPARISON_ALPHAS, row):
                s = OptionSpec(spot=spot, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
                m = StableModel.from_spec(s, alpha)
                assert price_series(m, s).price == pytest.approx(cell, abs=0.01)

    def test_gaussian_degeneration(self):
        worst = 0.0
        for mon in (0.8, 0.9, 1.0, 1.1, 1.2):
            for tau in (0.25, 0.5, 1.0, 2.5, 5.0):
                s = OptionSpec(spot=100.0 * mon, strike=100.0, rate=0.02, sigma=0.2, tau=tau)
                m = StableModel.from_spec(s, 2.0)
                worst = max(worst, abs(price_series(m, s).price - bs_price(s)))
        assert worst <= 1e-6 * 100.0

    def test_early_stop_and_diagnostics(self):
        s = spec_otm()
        m = StableModel.from_spec(s, 1.7)
        r = price_series(m, s)  # stops at the first column under 1e-8 * K
        assert r.diagnostics["columns_used"] < 32
        assert r.error_estimate < 1e-8 * 4000
        assert "nonpositive_base" not in r.diagnostics

    def test_base_sign_diagnostic_in_the_money(self):
        s = spec_itm()
        m = StableModel.from_spec(s, 1.7)
        r = price_series(m, s)
        assert r.diagnostics.get("nonpositive_base") is True
        assert r.price == pytest.approx(502.53, abs=0.01)

    # Long-dated alpha = 2 contracts whose columns settle past column 32.
    # The last settles at column 62, 1.3e-4 off with its 25 rows: only the
    # row tail in the estimate covers that.
    @pytest.mark.parametrize(
        "spot, sigma, tau",
        [
            (100.0, 0.8, 10.0),
            (100.0, 1.0, 5.0),
            (120.0, 0.9, 8.0),
            (80.0, 0.8, 10.0),
            (64.13533370941877, 1.035318231744134, 8.611008305294483),
        ],
    )
    def test_columns_grow_until_they_settle(self, spot, sigma, tau):
        s = OptionSpec(spot=spot, strike=100.0, rate=0.01, sigma=sigma, tau=tau)
        r = price_series(StableModel.from_spec(s, 2.0), s)
        assert r.diagnostics["columns_used"] > 32
        assert abs(r.price - bs_price(s)) <= r.error_estimate

    def test_error_estimate_adds_the_last_two_rows(self):
        s = spec_otm()
        m = StableModel.from_spec(s, 1.7)
        for n_max in (0, 1, 8):  # n_max = 0 has one row
            r = price_series(m, s, n_max)
            d = r.diagnostics
            rows = range(max(n_max - 1, 0), n_max + 1)
            columns = range(1, d["columns_used"] + 1)
            want = sum(abs(series_term(m, s, n, c)) for n in rows for c in columns)
            assert d["last_rows_abs"] == pytest.approx(want, rel=1e-12)
            assert r.error_estimate == d["last_column_abs"] + d["last_rows_abs"]

    def test_nonconvergence_raises(self):
        s = OptionSpec(spot=100.0, strike=100.0, rate=0.01, sigma=1.5, tau=10.0)
        m = StableModel.from_spec(s, 2.0)
        with pytest.raises(ConvergenceError, match="column 64"):
            price_series(m, s)

    def test_negative_truncated_sum_floors_to_zero(self):
        # The 25 rows of the default leave this out-of-the-money sum at -8.51;
        # the engine must floor and flag it.
        s = OptionSpec(
            spot=100.0,
            strike=120.19916110128553,
            rate=0.01,
            sigma=0.2116914595477283,
            tau=0.153418037481606,
        )
        m = StableModel.from_spec(s, 1.500781534332782)
        r = price_series(m, s)
        assert r.price == 0.0
        assert r.diagnostics["negative_sum_floored"] is True
        assert "vega" not in r.diagnostics and "volga" not in r.diagnostics
        table = convergence_table(m, s, 24, r.diagnostics["columns_used"])
        assert table.converged_price == pytest.approx(-8.51, abs=0.005)

    # Three short-dated low-alpha oracle_sweep contracts at K = 100 whose
    # rows still grow at row 24: the truncated sums are 1e20 to 2e38.
    @pytest.mark.parametrize(
        "spot, sigma, tau, alpha",
        [
            (88.1026454269886, 0.06855454824824014, 0.002109118706490731, 1.419824171345681),
            (58.843590039759874, 1.232509154960295, 0.002535272158776351, 1.1398276095278561),
            (76.91155415959656, 0.6080063585208437, 0.006829191262709788, 1.1424290153197945),
        ],
    )
    def test_a_price_above_the_spot_beyond_its_estimate_raises(self, spot, sigma, tau, alpha):
        s = OptionSpec(spot=spot, strike=100.0, rate=0.01, sigma=sigma, tau=tau)
        with pytest.raises(ConvergenceError, match="above the spot"):
            price_series(StableModel.from_spec(s, alpha), s)

    # The oracle-sweep box, as above: a call is worth at most S, so the
    # interval a returned price reports must reach down to the spot.
    @settings(max_examples=100, deadline=None)
    @given(
        moneyness=st.floats(0.5, 3.0),
        log_tau=st.floats(math.log(0.002), math.log(10.0)),
        log_sigma=st.floats(math.log(0.05), math.log(1.5)),
        alpha=st.floats(1.1, 2.0, exclude_min=True),
    )
    @example(
        moneyness=0.881026454269886,
        log_tau=math.log(0.002109118706490731),
        log_sigma=math.log(0.06855454824824014),
        alpha=1.419824171345681,
    )
    def test_returned_interval_reaches_below_the_spot(self, moneyness, log_tau, log_sigma, alpha):
        s = OptionSpec(
            spot=100.0 * moneyness,
            strike=100.0,
            rate=0.01,
            sigma=math.exp(log_sigma),
            tau=math.exp(log_tau),
        )
        try:
            result = price_series(StableModel.from_spec(s, alpha), s)
        except NumericalError:
            return
        assert result.price - result.error_estimate <= s.spot

    def test_no_arbitrage_bounds(self):
        for spot in np.linspace(60, 160, 11):
            for alpha in (1.5, 1.8, 2.0):
                s = OptionSpec(spot=float(spot), strike=100, rate=0.02, sigma=0.25, tau=1.5)
                m = StableModel.from_spec(s, alpha)
                p = price_series(m, s).price
                lower = max(spot - 100 * math.exp(-0.02 * 1.5), 0.0)
                assert lower - 1e-9 <= p <= spot + 1e-9

    def test_monotonicity(self):
        base = dict(strike=100.0, rate=0.02, sigma=0.25, tau=1.5)
        prices_s = []
        for spot in np.linspace(70, 140, 15):
            s = OptionSpec(spot=float(spot), **base)
            prices_s.append(price_series(StableModel.from_spec(s, 1.7), s).price)
        assert all(b > a for a, b in zip(prices_s, prices_s[1:]))

        prices_k = []
        for strike in np.linspace(70, 140, 15):
            s = OptionSpec(spot=100.0, strike=float(strike), rate=0.02, sigma=0.25, tau=1.5)
            prices_k.append(price_series(StableModel.from_spec(s, 1.7), s).price)
        assert all(b < a for a, b in zip(prices_k, prices_k[1:]))

        prices_v = []
        for sigma in np.linspace(0.05, 0.8, 16):
            s = OptionSpec(spot=100.0, strike=100.0, rate=0.02, sigma=float(sigma), tau=1.5)
            prices_v.append(price_series(StableModel.from_spec(s, 1.7), s).price)
        assert all(b > a for a, b in zip(prices_v, prices_v[1:]))

    # (price, error_estimate) of the 12 paper series cells, bit for bit: the
    # derivative sums that ride in the same pass must not move them.
    PAPER_CELLS = {
        (3800.0, 1.5): (284.5196720328638, 5.081938769589585e-06),
        (3800.0, 1.6): (268.51500616592404, 2.725184379866912e-06),
        (3800.0, 1.7): (256.0350561373138, 3.2510026275965594e-05),
        (3800.0, 1.8): (246.59081752992336, 2.8367136474018658e-05),
        (3800.0, 1.9): (239.82747976595812, 2.8389664272076485e-05),
        (3800.0, 2.0): (235.51359507963252, 3.152475456995731e-05),
        (4200.0, 1.5): (547.6686515251549, 1.664776184565072e-05),
        (4200.0, 1.6): (523.2529178235991, 1.0333962186608134e-05),
        (4200.0, 1.7): (502.5349527482334, 1.191126382103866e-05),
        (4200.0, 1.8): (485.0727725907814, 1.4293814606437532e-05),
        (4200.0, 1.9): (470.5556750442461, 1.7812705981710854e-05),
        (4200.0, 2.0): (458.79306373996775, 2.302628356737134e-05),
    }

    @pytest.mark.parametrize("spot, alpha", sorted(PAPER_CELLS))
    def test_paper_cells_are_bit_identical(self, spot, alpha):
        s = OptionSpec(spot=spot, strike=4000.0, rate=0.01, sigma=0.2, tau=1.0)
        r = price_series(StableModel.from_spec(s, alpha), s)
        assert (r.price, r.error_estimate) == self.PAPER_CELLS[spot, alpha]

    def test_truncation_validation(self):
        s = spec_otm()
        m = StableModel.from_spec(s, 1.7)
        for n_max in (-1, 65):
            with pytest.raises(ValueError, match="n_max"):
                price_series(m, s, n_max)
        for m_max in (0, 65):
            with pytest.raises(ValueError, match="m_max"):
                convergence_table(m, s, 8, m_max)


def bs_vega_volga(s: OptionSpec) -> tuple[float, float]:
    """Black-Scholes vega S*sqrt(tau)*phi(d1) and volga vega*d1*d2/sigma."""
    vol = s.sigma * math.sqrt(s.tau)
    d1 = log_moneyness(s) / vol + 0.5 * vol
    vega = s.spot * math.sqrt(s.tau) * math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi)
    return vega, vega * d1 * (d1 - vol) / s.sigma


def series_at(
    s: OptionSpec, sigma: float, alpha: float, columns: int, n_max: int = series._IV_N_MAX
) -> float:
    """The unfloored sum of ``columns`` columns and rows 0..n_max at ``sigma``:
    the function whose derivatives price_series reports, with its truncation
    held fixed."""
    at = OptionSpec(spot=s.spot, strike=s.strike, rate=s.rate, sigma=sigma, tau=s.tau)
    model = StableModel.from_spec(at, alpha)
    return convergence_table(model, at, n_max, columns).converged_price


class TestSigmaDerivatives:
    # The smile_calibration box, where implied_vol steps on these.
    @settings(max_examples=60, deadline=None)
    @given(
        moneyness=st.floats(0.8, 1.25),
        alpha=st.floats(1.5, 2.0),
        tau=st.floats(0.25, 2.0),
        sigma=st.floats(0.1, 0.5),
    )
    def test_match_central_differences(self, moneyness, alpha, tau, sigma):
        s = OptionSpec(spot=100.0, strike=100.0 * moneyness, rate=0.01, sigma=sigma, tau=tau)
        try:
            r = price_series(StableModel.from_spec(s, alpha), s, series._IV_N_MAX)
        except NumericalError:
            assume(False)
        assume("vega" in r.diagnostics and r.error_estimate < 1e-6 * s.strike)
        columns = r.diagnostics["columns_used"]
        h = 1e-3 * sigma
        up, mid, down = (series_at(s, sigma + k * h, alpha, columns) for k in (1, 0, -1))
        scale = s.spot * math.sqrt(tau)  # vega is at most 0.4 of this
        assert abs(r.diagnostics["vega"] - (up - down) / (2 * h)) <= 1e-5 * scale
        assert abs(r.diagnostics["volga"] - (up - 2 * mid + down) / h**2) <= 1e-5 * scale / sigma

    # Few rows leave the last rows large, so the row bookkeeping shows.
    @pytest.mark.parametrize("n_max", [0, 1, 2, 3, 8])
    def test_match_central_differences_at_few_rows(self, n_max):
        s = spec_otm()
        r = price_series(StableModel.from_spec(s, 1.7), s, n_max)
        h = 1e-4 * s.sigma
        up, mid, down = (
            series_at(s, s.sigma + k * h, 1.7, r.diagnostics["columns_used"], n_max)
            for k in (1, 0, -1)
        )
        assert r.diagnostics["vega"] == pytest.approx((up - down) / (2 * h), rel=1e-7)
        assert r.diagnostics["volga"] == pytest.approx((up - 2 * mid + down) / h**2, rel=1e-4)

    # d/dsigma weighs a term t by n*a + m/sigma, with a = dx/dsigma / base -
    # 1/sigma and x = sigma^2 tau / 2 at alpha = 2.  So the truncated terms,
    # which the estimate sums, move the derivatives by at most that weight
    # (squared for volga) over the rows and columns summed.
    @settings(max_examples=60, deadline=None)
    @given(
        moneyness=st.floats(0.8, 1.25),
        tau=st.floats(0.25, 2.0),
        sigma=st.floats(0.1, 0.5),
    )
    def test_gaussian_limit_is_black_scholes(self, moneyness, tau, sigma):
        s = OptionSpec(spot=100.0, strike=100.0 * moneyness, rate=0.01, sigma=sigma, tau=tau)
        try:
            r = price_series(StableModel.from_spec(s, 2.0), s, series._IV_N_MAX)
        except NumericalError:
            assume(False)
        assume("vega" in r.diagnostics)  # not floored
        vega, volga = bs_vega_volga(s)
        base = 0.5 * sigma**2 * tau - log_moneyness(s)
        a = abs(sigma * tau / base) + 1.0 / sigma
        weight = series._IV_N_MAX * a + r.diagnostics["columns_used"] / sigma
        assert abs(r.diagnostics["vega"] - vega) <= weight * r.error_estimate
        assert abs(r.diagnostics["volga"] - volga) <= weight**2 * r.error_estimate

    # The spot at which log-forward-moneyness equals x = -mu*tau, up to
    # rounding: base is of order 1e-17 and the 1/base factors must cancel.
    @pytest.mark.parametrize(
        "alpha, sigma, tau", [(1.7, 0.2, 1.0), (1.5, 0.3, 0.5), (2.0, 0.25, 2.0)]
    )
    def test_a_tiny_base_loses_no_digits(self, alpha, sigma, tau):
        x = -martingale_drift(sigma, alpha) * tau
        spot = 100.0 * math.exp(x - 0.01 * tau)
        s = OptionSpec(spot=spot, strike=100.0, rate=0.01, sigma=sigma, tau=tau)
        assert 0.0 < abs(x - log_moneyness(s)) < 1e-15
        r = price_series(StableModel.from_spec(s, alpha), s, series._IV_N_MAX)
        h = 1e-3 * sigma
        up, mid, down = (
            series_at(s, sigma + k * h, alpha, r.diagnostics["columns_used"]) for k in (1, 0, -1)
        )
        assert r.diagnostics["vega"] == pytest.approx((up - down) / (2 * h), rel=1e-6)
        volga = (up - 2 * mid + down) / h**2
        assert r.diagnostics["volga"] == pytest.approx(volga, abs=1e-4 * s.spot)

    # A rate equal to x makes base exactly 0 at tau = 1 and S = K: the n >= 1
    # terms vanish, but not their sigma-derivatives, so none is reported.
    def test_none_where_the_base_vanishes(self):
        x = -martingale_drift(0.2, 1.7)
        s = OptionSpec(spot=100.0, strike=100.0, rate=x, sigma=0.2, tau=1.0)
        assert x - log_moneyness(s) == 0.0
        r = price_series(StableModel.from_spec(s, 1.7), s)
        assert r.price > 0.0
        assert "vega" not in r.diagnostics and "volga" not in r.diagnostics


class TestAtmfSeries:
    def test_representations_agree(self):
        for order in (0, 1, 3, 6, 10):
            single = atmf_bs_series(100.0, 0.3, 2.0, order)
            double = atmf_bs_series(100.0, 0.3, 2.0, order, representation="double")
            assert single == pytest.approx(double, rel=1e-13), f"order={order}"

    # "double" sums the engine's own series_term, so this checks the engine.
    @settings(max_examples=200, deadline=None)
    @given(
        sigma=st.floats(0.05, 0.5),
        tau=st.floats(0.1, 4.0),
        order=st.integers(0, 10),
    )
    def test_representations_agree_everywhere(self, sigma, tau, order):
        single = atmf_bs_series(100.0, sigma, tau, order)
        double = atmf_bs_series(100.0, sigma, tau, order, representation="double")
        assert single == pytest.approx(double, rel=1e-13)

    def test_order_zero_is_brenner_subrahmanyam(self):
        got = atmf_bs_series(100.0, 0.2, 1.0, 0)
        assert got == 100.0 * 0.2 * math.sqrt(1.0) / math.sqrt(2.0 * math.pi)

    def test_hits_closed_form(self):
        assert atmf_bs_series(100.0, 0.2, 1.0, 6) == pytest.approx(
            7.965567455405796, abs=1e-9
        )
        for sigma, tau in [(0.1, 1.0), (0.3, 1.0), (0.5, 1.0), (0.25, 4.0)]:
            for representation in ("single", "double"):
                got = atmf_bs_series(100.0, sigma, tau, 10, representation)
                assert abs(got - bs_atmf_price(100.0, sigma, tau)) < 1e-10

    def test_zero_vol(self):
        assert atmf_bs_series(100.0, 0.0, 1.0, 5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            atmf_bs_series(100.0, 0.2, 1.0, -1)
        with pytest.raises(ValueError):
            atmf_bs_series(100.0, 0.2, 1.0, 3, representation="banana")


class TestImpliedVol:
    # One reprice at the Black-Scholes seed, one Halley step, one to confirm.
    # At alpha = 2 the seed is already the root, so the search only closes
    # the gap between the series and bs_price.
    def test_round_trip_stable(self, reprices):
        s = spec_otm()
        m = StableModel.from_spec(s, 1.7)
        target = price_series(m, s).price
        got = implied_vol(3800, 4000, 0.01, 1.0, 1.7, target, tol=1e-10)
        assert abs(got - 0.2) <= 1e-6
        assert reprices.call_count <= 3

    def test_round_trip_gaussian(self, reprices):
        s = spec_otm()
        m = StableModel.from_spec(s, 2.0)
        target = price_series(m, s).price
        got = implied_vol(3800, 4000, 0.01, 1.0, 2.0, target, tol=1e-10)
        assert abs(got - 0.2) <= 1e-6
        assert reprices.call_count <= 4

    def test_black_scholes_oracle(self, reprices):
        s = OptionSpec(spot=3800, strike=4000, rate=0.01, sigma=0.35, tau=1.0)
        target = bs_price(s)
        got = implied_vol(3800, 4000, 0.01, 1.0, 2.0, target, tol=1e-10)
        assert abs(got - 0.35) <= 1e-6
        assert reprices.call_count <= 4

    def test_stops_once_the_bracket_cannot_shrink(self, reprices):
        with pytest.raises(ConvergenceError, match="bounded nothing") as info:
            implied_vol(**DISCONTINUOUS_SOLVE)
        assert "sigma=" in str(info.value) and "|price - target|" in str(info.value)
        assert reprices.call_count <= 12

    def test_raises_where_the_series_price_jumps(self):
        # Between these two sigmas column 9 starts to count, and the 40-row
        # price steps up by 1.8e-8: a target inside the step has no root.
        below, above = (
            price_series(StableModel.from_spec(s, 1.7), s, series._IV_N_MAX)
            for s in (
                OptionSpec(spot=100.0, strike=100.0, rate=0.01, sigma=sigma, tau=1.0)
                for sigma in (0.22498588787095414, 0.22498588787095417)
            )
        )
        assert (below.diagnostics["columns_used"], above.diagnostics["columns_used"]) == (8, 9)
        target = 0.5 * (below.price + above.price)
        with pytest.raises(ConvergenceError, match="discontinuous"):
            implied_vol(100.0, 100.0, 0.01, 1.0, 1.7, target)

    # The smile_calibration box; the target is the series price itself.
    @settings(max_examples=40, deadline=None)
    @given(
        moneyness=st.floats(0.8, 1.25),
        alpha=st.floats(1.5, 2.0),
        tau=st.floats(0.25, 2.0),
        sigma=st.floats(0.1, 0.5),
    )
    # The target's own estimate is 0.25 here, and sigma = 0.074 below the
    # root reprices as a floored 0 with an estimate of 9e4.
    @example(moneyness=0.875, alpha=1.5, tau=0.25, sigma=0.1015625)
    def test_solve_meets_tol_in_few_reprices_or_raises(self, moneyness, alpha, tau, sigma):
        s = OptionSpec(spot=100.0, strike=100.0 * moneyness, rate=0.01, sigma=sigma, tau=tau)
        try:
            target = price_series(StableModel.from_spec(s, alpha), s, series._IV_N_MAX).price
        except NumericalError:
            assume(False)
        assume(max(s.spot - s.strike * math.exp(-s.rate * tau), 0.0) < target < s.spot)
        with mock.patch.object(series, "price_series", wraps=price_series) as reprice:
            try:
                got = implied_vol(s.spot, s.strike, s.rate, tau, alpha, target)
            except NumericalError:
                return
        assert reprice.call_count <= 12
        back = OptionSpec(spot=s.spot, strike=s.strike, rate=s.rate, sigma=got, tau=tau)
        repriced = price_series(StableModel.from_spec(back, alpha), back, series._IV_N_MAX)
        assert abs(repriced.price - target) <= 1e-9

    # The low-sigma corner of the smile box, where 40 rows leave the series
    # loose near the root; the target comes from the Fourier engine.  In the
    # example the series meets the target at sigma = 0.106, with an estimate
    # of 2e4 on a spot of 100.
    @settings(max_examples=40, deadline=None)
    @given(
        moneyness=st.floats(0.8, 1.0),
        alpha=st.floats(1.5, 1.6),
        tau=st.floats(0.25, 0.4),
        sigma=st.floats(0.1, 0.13),
    )
    @example(
        moneyness=0.8154167617001078,
        alpha=1.5488449227085523,
        tau=0.28192464930105016,
        sigma=0.10398088892640363,
    )
    def test_returned_sigma_reprices_within_the_spot(self, moneyness, alpha, tau, sigma):
        s = OptionSpec(spot=100.0, strike=100.0 * moneyness, rate=0.01, sigma=sigma, tau=tau)
        try:
            target = gil_pelaez_price(StableModel.from_spec(s, alpha), s).price
        except NumericalError:
            assume(False)
        assume(max(s.spot - s.strike * math.exp(-s.rate * tau), 0.0) < target < s.spot)
        try:
            got = implied_vol(s.spot, s.strike, s.rate, tau, alpha, target)
        except NumericalError:
            return
        back = OptionSpec(spot=s.spot, strike=s.strike, rate=s.rate, sigma=got, tau=tau)
        repriced = price_series(StableModel.from_spec(back, alpha), back, series._IV_N_MAX)
        assert repriced.error_estimate < s.spot

    def test_bound_violations(self):
        with pytest.raises(ValueError):
            implied_vol(3800, 4000, 0.01, 1.0, 1.7, 3800.0)  # target = spot
        with pytest.raises(ValueError):
            implied_vol(3800, 4000, 0.01, 1.0, 1.7, 4200.0)  # above spot
        intrinsic = 4200 - 4000 * math.exp(-0.01)
        with pytest.raises(ValueError):
            implied_vol(4200, 4000, 0.01, 1.0, 1.7, intrinsic * 0.5)  # below intrinsic
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol"):
                implied_vol(3800, 4000, 0.01, 1.0, 1.7, 100.0, tol=tol)
