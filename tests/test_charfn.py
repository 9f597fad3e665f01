"""Characteristic function properties, the adaptive Gauss-Kronrod rule and
the Fourier-inversion engine."""

import cmath
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st
from numpy.polynomial import polynomial as poly
from scipy.integrate import quad

from golden import (
    COMPARISON_ALPHAS,
    GIL_PELAEZ_ROW_ITM,
    GIL_PELAEZ_ROW_OTM,
)

from fmls.bs import bs_price
from fmls import charfn
from fmls.charfn import adaptive_gauss_kronrod, char_fn, gil_pelaez_price
from fmls.errors import NumericalError, QuadratureError
from fmls.model import OptionSpec, StableModel, log_moneyness, martingale_drift
from fmls.series import price_series

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import oracle  # noqa: E402  (the benchmark's independent reference prices)


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


# Tolerances of the rule's own tests, tighter than the engine's.
TOLERANCES = {"_REL_TOL": 1e-10, "_ABS_TOL": 1e-12, "_MAX_SUBDIVISIONS": 200}


def set_tolerances(monkeypatch, **overrides):
    """Set the rule's constants to ``TOLERANCES`` updated by ``overrides``."""
    for name, value in {**TOLERANCES, **overrides}.items():
        monkeypatch.setattr(charfn, name, value)


def counted(f):
    """``f`` with a record of the number of rows of each call."""
    calls = []

    def wrapper(x):
        assert x.ndim == 2 and x.shape[1] == 15
        calls.append(x.shape[0])
        return f(x)

    return wrapper, calls


class TestGaussKronrod:
    def test_several_intervals_agree_with_scipy_quad(self, monkeypatch):
        set_tolerances(monkeypatch)
        cases = [
            (lambda x: np.sin(3.0 * x) * np.exp(-x), [0.0], [4.0]),
            (np.sqrt, [0.0], [2.0]),  # a derivative singularity at the left end
            (lambda x: 1.0 / (1.0 + x * x), [-5.0, 0.0], [0.0, 5.0]),  # two panels that meet at 0
            (lambda x: np.cos(40.0 * x), [0.0], [1.0]),
        ]
        for fn, a, b in cases:
            f, calls = counted(fn)
            value, error, evals = adaptive_gauss_kronrod(f, a, b)
            assert isinstance(evals, int) and evals == 15 * sum(calls)
            want = quad(lambda t: float(fn(np.array(t))), a[0], b[-1], limit=200, epsabs=1e-13)[0]
            assert value == pytest.approx(want, rel=1e-9, abs=1e-11)
            assert error <= max(TOLERANCES["_ABS_TOL"], TOLERANCES["_REL_TOL"] * abs(value))
        assert len(calls) > 1  # cos(40x) needs refining

    def test_the_tolerance_applies_to_the_whole_integral(self, monkeypatch):
        # exp(-x) converges on its panel at once; cos(40x) on the other needs
        # bisections, and those stay on its panel.
        set_tolerances(monkeypatch)
        f, calls = counted(lambda x: np.where(x < 1.0, np.exp(-x), np.cos(40.0 * (x - 1.0))))
        value, _, _ = adaptive_gauss_kronrod(f, [0.0, 1.0], [1.0, 2.0])
        assert value == pytest.approx(1.0 - math.exp(-1.0) + math.sin(40.0) / 40.0, abs=1e-12)
        assert calls[0] == 2 and len(calls) > 1
        set_tolerances(monkeypatch, _MAX_SUBDIVISIONS=1)
        with pytest.raises(QuadratureError, match="1 subdivisions"):
            adaptive_gauss_kronrod(f, [0.0, 1.0], [1.0, 2.0])

    def test_one_panel_integrates_polynomials_to_degree_22_exactly(self, monkeypatch):
        set_tolerances(monkeypatch, _REL_TOL=0.0, _ABS_TOL=math.inf, _MAX_SUBDIVISIONS=0)
        rng = np.random.default_rng(22)
        lo, hi = -1.0, 3.0
        for degree in range(23):
            c = rng.uniform(-1.0, 1.0, degree + 1)
            f, calls = counted(lambda x: poly.polyval(x, c))
            value, _, evals = adaptive_gauss_kronrod(f, [lo], [hi])
            assert calls == [1] and evals == 15  # no bisection
            antiderivative = poly.polyint(c)
            want = poly.polyval(hi, antiderivative) - poly.polyval(lo, antiderivative)
            scale = poly.polyval(hi, poly.polyint(np.abs(c))) * (hi - lo)
            assert abs(value - want) <= 1e-14 * max(scale, 1.0)

    def test_an_interval_that_cannot_converge_raises(self, monkeypatch):
        # 1/x is not integrable on [0, 1].
        set_tolerances(monkeypatch)
        with pytest.raises(QuadratureError):
            adaptive_gauss_kronrod(lambda x: 1.0 / x, [0.0], [1.0])

    def test_rejects_an_empty_panel(self, monkeypatch):
        set_tolerances(monkeypatch)
        with pytest.raises(ValueError):
            adaptive_gauss_kronrod(lambda x: x, [0.0, 1.0], [1.0, 1.0])


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

    # alpha = 2 against the closed form: the error estimate bounds the gap
    # up to 1e-12 of the strike.
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
        moneyness=st.floats(0.5, 3.0),
        log_tau=st.floats(math.log(0.002), math.log(10.0)),
        sigma=st.floats(0.05, 1.5),
    )
    def test_tail_bound_covers_the_integrals_past_the_cut(self, alpha, moneyness, log_tau, sigma):
        # Against a fine trapezoid of e^{Re z - ak}/u^2 du = e^{Re z - ak - v} dv,
        # v = log u, which bounds the modulus of the integrand and does not
        # oscillate; Re z from numpy's complex power.
        s = OptionSpec(
            spot=100.0 * moneyness, strike=100.0, rate=0.01, sigma=sigma, tau=math.exp(log_tau)
        )
        m = StableModel.from_spec(s, alpha)
        r = gil_pelaez_price(m, s)
        a, u_cut = r.diagnostics["damping"], r.diagnostics["u_cut"]
        assert 0.0 < a <= 50.0 and u_cut <= 200.0
        mu_tau, k = m.mu * s.tau, -log_moneyness(s)

        def log_modulus(u):
            w = a + 1.0 + 1j * u
            return (mu_tau * (w - w**alpha)).real - a * k

        # Graded toward the cut, where e^{Re z} falls within 1e-3 in v when
        # mu*tau is large.
        v = math.log(u_cut) + 12.0 * np.linspace(0.0, 1.0, 24001) ** 3
        trapezoid = float(np.trapezoid(np.exp(log_modulus(np.exp(v)) - v), v))
        bound = r.diagnostics["tail_bound"]
        assert bound == pytest.approx(s.spot / math.pi * math.exp(log_modulus(u_cut)) / u_cut)
        assert bound >= (1.0 - 1e-6) * s.spot / math.pi * trapezoid
        assert bound <= r.error_estimate
        if u_cut < 200.0:  # the first strip end where the bound is under 1e-14
            assert bound <= 1e-14 * s.spot / math.pi
            assert u_cut == 5.0 or math.exp(log_modulus(u_cut - 5.0)) / (u_cut - 5.0) > 1e-14

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(1.05, 2.0, exclude_min=True, exclude_max=True),
        moneyness=st.floats(0.5, 3.0),
        log_tau=st.floats(math.log(0.002), math.log(10.0)),
        log_sigma=st.floats(math.log(0.05), math.log(1.5)),
    )
    def test_sweep_below_alpha_two_against_the_oracle(self, alpha, moneyness, log_tau, log_sigma):
        # The benchmark's rule against its independent QUADPACK oracle: the
        # gap is at most the error estimate plus 1e-6 of the strike.
        spot, strike, rate = 100.0 * moneyness, 100.0, 0.01
        sigma, tau = math.exp(log_sigma), math.exp(log_tau)
        s = OptionSpec(spot=spot, strike=strike, rate=rate, sigma=sigma, tau=tau)
        r = gil_pelaez_price(StableModel.from_spec(s, alpha), s)
        try:
            want = oracle.call_price(spot, strike, rate, sigma, tau, alpha)
        except oracle.OracleError:  # QUADPACK cannot vouch for the reference
            reject()
        assert abs(r.price - want) <= r.error_estimate + 1e-6 * strike

    def test_paper_cells_take_at_most_two_levels(self):
        # One integrand call per level, every strip in it, and the cut well
        # short of the cap at 200: the damped paper cells converge on level 0.
        for spot in (3800, 4200):
            for alpha in COMPARISON_ALPHAS:
                s = OptionSpec(spot=spot, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
                d = gil_pelaez_price(StableModel.from_spec(s, alpha), s).diagnostics
                assert d["levels"] == 1
                assert 0.0 < d["u_cut"] < 200.0
                # Strips of width 5, three panels in strip 0.
                assert d["panels"] == round(d["u_cut"] / 5.0) + 2

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
        assert 0.0 < r.diagnostics["damping"] <= 50.0
        assert 0.0 <= r.diagnostics["tail_bound"] <= r.error_estimate

    def test_insufficient_budget_raises(self, monkeypatch):
        # The paper cell converges on level 0 even at rel_tol 1e-13; no panel
        # error reaches a tolerance of zero.
        s = OptionSpec(spot=3800, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
        m = StableModel.from_spec(s, 1.7)
        monkeypatch.setattr(charfn, "_REL_TOL", 0.0)
        monkeypatch.setattr(charfn, "_ABS_TOL", 0.0)
        monkeypatch.setattr(charfn, "_MAX_SUBDIVISIONS", 1)
        with pytest.raises(QuadratureError):
            gil_pelaez_price(m, s)
