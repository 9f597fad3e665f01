"""Market records, drift, and log-forward-moneyness."""

import math

import numpy as np
import pytest

import fmls
from fmls.model import (
    OptionSpec,
    PricingResult,
    StableModel,
    log_moneyness,
    martingale_drift,
)

# mpmath (mp.dps=50) evaluation of (0.2/sqrt(2))**1.7 / cos(0.85*pi)
MU_02_17 = -0.04036403854693873
# mpmath: log(3800/4000) + 0.01
LOG_MONEYNESS_REF = -0.041293294387550533


def spec_table1() -> OptionSpec:
    return OptionSpec(spot=3800, strike=4000, rate=0.01, sigma=0.2, tau=1.0)


class TestOptionSpec:
    def test_accepts_valid(self):
        s = spec_table1()
        assert s.spot == 3800 and s.strike == 4000

    def test_rejects_nonpositive(self):
        for field, value in [
            ("spot", 0.0),
            ("spot", -1.0),
            ("strike", 0.0),
            ("sigma", 0.0),
            ("sigma", -0.2),
            ("tau", 0.0),
        ]:
            kwargs = dict(spot=100.0, strike=100.0, rate=0.01, sigma=0.2, tau=1.0)
            kwargs[field] = value
            with pytest.raises(ValueError):
                OptionSpec(**kwargs)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            OptionSpec(spot=math.inf, strike=100, rate=0.0, sigma=0.2, tau=1.0)
        with pytest.raises(ValueError):
            OptionSpec(spot=100, strike=100, rate=math.nan, sigma=0.2, tau=1.0)

    def test_negative_rate_allowed(self):
        OptionSpec(spot=100, strike=100, rate=-0.01, sigma=0.2, tau=1.0)


class TestMartingaleDrift:
    def test_gaussian_case_exact(self):
        assert martingale_drift(0.2, 2.0) == pytest.approx(-0.02, rel=1e-15)
        for sigma in np.linspace(0.01, 2.0, 200):
            sigma = float(sigma)
            assert martingale_drift(sigma, 2.0) == pytest.approx(
                -0.5 * sigma * sigma, rel=1e-15
            )

    def test_derived_value(self):
        assert martingale_drift(0.2, 1.7) == pytest.approx(MU_02_17, rel=1e-13)

    def test_strictly_negative_everywhere(self):
        for sigma in (0.01, 0.2, 1.0, 3.0):
            for alpha in (1.01, 1.3, 1.5, 1.7, 1.9, 2.0):
                assert martingale_drift(sigma, alpha) < 0.0

    def test_vanishes_with_volatility(self):
        mu = martingale_drift(1e-9, 1.7)
        assert -1e-12 < mu < 0.0

    def test_alpha_domain(self):
        for alpha in (1.0, 0.9, 1.0 + 1e-12, 2.0 + 1e-9, 2.5):
            with pytest.raises(ValueError):
                martingale_drift(0.2, alpha)
        with pytest.raises(ValueError):
            martingale_drift(0.0, 1.7)


class TestLogMoneyness:
    def test_atm_forward_is_zero(self):
        s = OptionSpec(
            spot=4000 * math.exp(-0.01), strike=4000, rate=0.01, sigma=0.2, tau=1.0
        )
        assert abs(log_moneyness(s)) < 1e-15

    def test_derived_value(self):
        assert log_moneyness(spec_table1()) == pytest.approx(
            LOG_MONEYNESS_REF, rel=1e-14
        )

    def test_flat_case(self):
        s = OptionSpec(spot=123.0, strike=123.0, rate=0.0, sigma=0.2, tau=2.0)
        assert log_moneyness(s) == 0.0

    def test_monotonicity(self):
        strikes = np.linspace(50, 150, 41)
        spots = np.linspace(50, 150, 41)
        base = dict(rate=0.03, sigma=0.2, tau=0.7)
        in_spot = [log_moneyness(OptionSpec(spot=float(s), strike=100, **base)) for s in spots]
        in_strike = [
            log_moneyness(OptionSpec(spot=100, strike=float(k), **base)) for k in strikes
        ]
        assert all(b > a for a, b in zip(in_spot, in_spot[1:]))
        assert all(b < a for a, b in zip(in_strike, in_strike[1:]))


class TestStableModel:
    def test_from_spec(self):
        m = StableModel.from_spec(spec_table1(), 1.7)
        assert m.alpha == 1.7
        assert m.mu == pytest.approx(MU_02_17, rel=1e-13)
        assert m.log_fwd == pytest.approx(LOG_MONEYNESS_REF, rel=1e-14)

    def test_nonnegative_mu_impossible(self):
        with pytest.raises(ValueError):
            StableModel(alpha=1.7, mu=0.0, log_fwd=0.0)
        with pytest.raises(ValueError):
            StableModel(alpha=1.7, mu=0.01, log_fwd=0.0)

    def test_scaled_drift_positive(self):
        for sigma in (0.05, 0.2, 0.8):
            for alpha in (1.2, 1.5, 1.7, 2.0):
                for tau in (0.1, 1.0, 10.0):
                    s = OptionSpec(spot=100, strike=90, rate=0.02, sigma=sigma, tau=tau)
                    m = StableModel.from_spec(s, alpha)
                    assert -m.mu * tau > 0.0

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            StableModel(alpha=1.0, mu=-0.1, log_fwd=0.0)
        with pytest.raises(ValueError):
            StableModel(alpha=2.1, mu=-0.1, log_fwd=0.0)


class TestPricingResult:
    def test_validation(self):
        PricingResult(price=1.0, engine="series", terms_used=3, error_estimate=0.0)
        with pytest.raises(ValueError):
            PricingResult(price=-1.0, engine="series", terms_used=3, error_estimate=0.0)
        with pytest.raises(ValueError):
            PricingResult(price=1.0, engine="nope", terms_used=3, error_estimate=0.0)
        with pytest.raises(ValueError):
            PricingResult(price=1.0, engine="series", terms_used=3, error_estimate=-1.0)


class TestPackage:
    def test_every_export_resolves_once(self):
        assert len(fmls.__all__) == len(set(fmls.__all__))
        for name in fmls.__all__:
            assert hasattr(fmls, name), name
