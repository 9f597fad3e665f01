"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report even when everything passes.
"""

import math
import time

import numpy as np
import pytest

from golden import (
    COMPARISON_ALPHAS,
    DISCRETIZATION_ROW_ITM,
    DISCRETIZATION_ROW_OTM,
    SERIES_ROW_ITM,
    SERIES_ROW_OTM,
    TABLE1_CALL,
    TABLE1_SLACK,
    TABLE1_TERMS,
    TABLE2_CALL,
    TABLE2_SLACK,
    TABLE2_TERMS,
)
from paper_checks import atmf_bs_series, bs_atmf_price, cahen_mellin_exp, char_fn

from fmls.bs import bs_price
from fmls.charfn import gil_pelaez_price
from fmls.greens import discretized_price, stable_density_values
from fmls.model import OptionSpec, StableModel, martingale_drift
from fmls.series import (
    convergence_table,
    implied_vol,
    price_series,
    series_term,
)


def _report(criterion: str, body) -> None:
    try:
        body()
    except Exception:
        print(f"[acceptance] {criterion}: FAIL")
        raise
    print(f"[acceptance] {criterion}: PASS")


def _table_spec(tau: float = 1.0) -> OptionSpec:
    return OptionSpec(spot=3800, strike=4000, rate=0.01, sigma=0.2, tau=tau)


def _assert_cells(terms, partials, printed, printed_call, slack):
    for n, row in enumerate(printed):
        for j, cell in enumerate(row):
            tol = slack.get((n, j), 0.0005)
            assert terms[n, j] == pytest.approx(cell, abs=tol), f"(n={n}, m={j + 1})"
    for j, cell in enumerate(printed_call):
        assert partials[j] == pytest.approx(cell, abs=0.001), f"call m={j + 1}"


def test_criterion_1_table_one_reproduction():
    def body():
        spec = _table_spec()
        model = StableModel.from_spec(spec, 1.7)
        convergence_table(model, spec, 8, 7)  # warm-up outside the timed run
        t0 = time.perf_counter()
        table = convergence_table(model, spec, 8, 7)
        elapsed = time.perf_counter() - t0
        _assert_cells(
            table.terms, table.partial_sums, TABLE1_TERMS, TABLE1_CALL, TABLE1_SLACK
        )
        assert table.converged_price == pytest.approx(256.035, abs=0.001)
        assert elapsed < 0.010, f"took {elapsed * 1e3:.2f} ms"

    _report("criterion 1 (table 1, n<=8, m<=7, <10ms)", body)


def test_criterion_2_table_two_reproduction():
    def body():
        spec = _table_spec(tau=5.0)
        model = StableModel.from_spec(spec, 1.7)
        convergence_table(model, spec, 8, 10)
        t0 = time.perf_counter()
        table = convergence_table(model, spec, 8, 10)
        elapsed = time.perf_counter() - t0
        _assert_cells(
            table.terms, table.partial_sums, TABLE2_TERMS, TABLE2_CALL, TABLE2_SLACK
        )
        for got, want in zip(table.partial_sums, TABLE2_CALL):
            assert got == pytest.approx(want, abs=0.001)
        assert elapsed < 0.010, f"took {elapsed * 1e3:.2f} ms"

    _report("criterion 2 (table 2, tau=5, <10ms)", body)


def test_criterion_3_comparison_arrays():
    def body():
        t0 = time.perf_counter()
        for spot, row in [(3800, SERIES_ROW_OTM), (4200, SERIES_ROW_ITM)]:
            for alpha, cell in zip(COMPARISON_ALPHAS, row):
                spec = OptionSpec(spot=spot, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
                model = StableModel.from_spec(spec, alpha)
                se = price_series(model, spec).price
                gp = gil_pelaez_price(model, spec).price
                assert se == pytest.approx(cell, abs=0.01), f"series {spot}/{alpha}"
                assert abs(gp - se) <= 0.02, f"gil-pelaez {spot}/{alpha}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f} s"

    _report("criterion 3 (comparison arrays, series vs gil-pelaez, <5s)", body)


def test_criterion_4_black_scholes_degeneration():
    def body():
        strike = 100.0
        worst = 0.0
        for mon in (0.8, 0.9, 1.0, 1.1, 1.2):
            for tau in (0.25, 0.5, 1.0, 2.5, 5.0):
                spec = OptionSpec(
                    spot=strike * mon, strike=strike, rate=0.02, sigma=0.2, tau=tau
                )
                model = StableModel.from_spec(spec, 2.0)
                worst = max(worst, abs(price_series(model, spec).price - bs_price(spec)))
        assert worst <= 1e-6 * strike, f"worst gap {worst:.2e}"

        for sigma, tau in [(0.1, 1.0), (0.3, 1.0), (0.5, 1.0), (0.2, 4.0)]:
            closed = bs_atmf_price(100.0, sigma, tau)
            for representation in ("single", "double"):
                got = atmf_bs_series(100.0, sigma, tau, 10, representation)
                assert abs(got - closed) <= 1e-10, f"{representation} {sigma}/{tau}"

        lead = atmf_bs_series(100.0, 0.2, 1.0, 0)
        assert lead == 100.0 * 0.2 * math.sqrt(1.0) / math.sqrt(2.0 * math.pi)

    _report("criterion 4 (alpha=2 degeneration + ATMF series)", body)


def test_criterion_5_quadrature_soundness():
    def body():
        for x in (0.1, 0.5, 1.0, 2.0, 5.0):
            for c in (0.25, 0.5, 1.0, 2.0):
                assert cahen_mellin_exp(x, c) == pytest.approx(math.exp(-x), abs=1e-8)

        xs = np.linspace(-6.0, 6.0, 241)
        got = stable_density_values(xs, 2.0)
        heat = np.exp(-(xs**2) / 4.0) / (2.0 * math.sqrt(math.pi))
        assert float(np.max(np.abs(got - heat))) <= 1e-8

        probes = [
            stable_density_values(0.5, 1.7, c1=c1) for c1 in (0.3, 0.5, 0.7)
        ]
        assert max(probes) - min(probes) <= 1e-8

    _report("criterion 5 (contour quadrature soundness)", body)


def test_criterion_6_density_normalization():
    def body():
        grids = {1.5: (-500.0, 20.0), 1.7: (-240.0, 16.0), 1.9: (-90.0, 14.0)}
        for alpha, (lo, hi) in grids.items():
            xs = np.linspace(lo, hi, int((hi - lo) / 0.0625) + 1)
            vals = stable_density_values(xs, alpha)
            assert float(np.min(vals)) >= -1e-8, f"alpha={alpha}"
            mass = float(np.trapezoid(vals, xs))
            assert abs(mass - 1.0) <= 1e-4, f"alpha={alpha}: mass={mass}"

    _report("criterion 6 (density normalization and positivity)", body)


def test_criterion_7_discretization_pricer():
    def body():
        for spot, row in [
            (3800, DISCRETIZATION_ROW_OTM),
            (4200, DISCRETIZATION_ROW_ITM),
        ]:
            for alpha, cell in row.items():
                spec = OptionSpec(spot=spot, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
                model = StableModel.from_spec(spec, alpha)
                got = discretized_price(model, spec).price
                assert got == pytest.approx(cell, abs=0.5), f"{spot}/{alpha}"

        spec = OptionSpec(spot=3800, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
        for alpha in (1.7, 1.8, 1.9, 2.0):
            model = StableModel.from_spec(spec, alpha)
            target = price_series(model, spec).price
            gaps = []
            for refine in (1, 2, 3):
                gaps.append(abs(discretized_price(model, spec, refine).price - target))
            assert gaps[0] > gaps[1] > gaps[2], f"alpha={alpha}: gaps={gaps}"

    _report("criterion 7 (discretization row + refinement convergence)", body)


def test_criterion_8_property_suite():
    def body():
        t0 = time.perf_counter()

        # Martingale identity and Hermitian symmetry of the char. function.
        for sigma in (0.1, 0.2, 0.5):
            for alpha in (1.2, 1.5, 1.7, 2.0):
                for tau in (0.25, 1.0, 5.0):
                    mu = martingale_drift(sigma, alpha)
                    assert abs(char_fn(-1j, mu, tau, alpha) - 1.0) < 1e-12
                    for u in (0.3, 1.0, 7.5):
                        a = char_fn(-u, mu, tau, alpha)
                        b = char_fn(u, mu, tau, alpha).conjugate()
                        assert abs(a - b) < 1e-12

        # No-arbitrage bounds and monotonicity on sampled grids.
        strikes = 100.0
        disc = math.exp(-0.02 * 1.5)
        last = None
        for spot in np.linspace(60, 160, 21):
            spec = OptionSpec(spot=float(spot), strike=strikes, rate=0.02, sigma=0.25, tau=1.5)
            p = price_series(StableModel.from_spec(spec, 1.7), spec).price
            assert max(spot - strikes * disc, 0.0) - 1e-9 <= p <= spot + 1e-9
            if last is not None:
                assert p > last
            last = p
        last = None
        for strike in np.linspace(60, 160, 21):
            spec = OptionSpec(spot=100.0, strike=float(strike), rate=0.02, sigma=0.25, tau=1.5)
            p = price_series(StableModel.from_spec(spec, 1.7), spec).price
            if last is not None:
                assert p < last
            last = p
        last = None
        for sigma in np.linspace(0.05, 0.9, 18):
            spec = OptionSpec(spot=100.0, strike=strikes, rate=0.02, sigma=float(sigma), tau=1.5)
            p = price_series(StableModel.from_spec(spec, 1.7), spec).price
            if last is not None:
                assert p > last
            last = p

        # Exact zeros at the reciprocal-Gamma poles.
        spec = _table_spec()
        model2 = StableModel.from_spec(spec, 2.0)
        for n, m in [(3, 1), (4, 2), (6, 2), (9, 1), (12, 4)]:
            assert series_term(model2, spec, n, m) == 0.0

        # Implied-vol round trips.
        for alpha in (1.7, 2.0):
            model = StableModel.from_spec(spec, alpha)
            target = price_series(model, spec).price
            got = implied_vol(3800, 4000, 0.01, 1.0, alpha, target, tol=1e-10)
            assert abs(got - 0.2) <= 1e-6, f"alpha={alpha}"

        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f} s"

    _report("criterion 8 (property suite, <60s)", body)
