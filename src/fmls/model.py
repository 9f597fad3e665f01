"""Market contract records, log-stable model parameters, and result records.

The model is (alpha, mu) alone; the log-forward-moneyness belongs to the
contract (:func:`log_moneyness`), so one model prices every contract with
the volatility it was built from.

``sigma`` is the Gaussian-equivalent volatility: the stable driver is scaled
by 1/sqrt(2) so that at stability index 2 the model degenerates exactly to
Black-Scholes with that same sigma.  Calibrations coming from other
normalizations must be converted before constructing a model here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "OptionSpec",
    "StableModel",
    "PricingResult",
    "ENGINES",
    "martingale_drift",
    "log_moneyness",
]

ENGINES = ("series", "gil_pelaez", "discretization", "black_scholes")

# The drift diverges as alpha -> 1+; reject anything this close to the edge.
_ALPHA_EDGE = 1e-9


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _require_positive(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if value <= 0.0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


@dataclass(frozen=True)
class OptionSpec:
    """One European call contract: spot, strike, flat rate, volatility, maturity.

    Units: ``rate`` is per year (decimal, any sign), ``sigma`` per sqrt(year),
    ``tau`` in years.
    """

    spot: float
    strike: float
    rate: float
    sigma: float
    tau: float

    def __post_init__(self) -> None:
        _require_positive("spot", self.spot)
        _require_positive("strike", self.strike)
        _require_finite("rate", self.rate)
        _require_positive("sigma", self.sigma)
        _require_positive("tau", self.tau)


def martingale_drift(sigma: float, alpha: float) -> float:
    """Risk-neutral compensator mu = (sigma/sqrt(2))**alpha / cos(pi*alpha/2).

    Strictly negative on the admissible range 1 < alpha <= 2; alpha = 2
    gives exactly -sigma**2/2.
    """
    sigma = _require_positive("sigma", sigma)
    alpha = _require_finite("alpha", alpha)
    if alpha <= 1.0 + _ALPHA_EDGE or alpha > 2.0:
        raise ValueError(f"alpha must lie in (1, 2], got {alpha!r}")
    return (sigma / math.sqrt(2.0)) ** alpha / math.cos(math.pi * alpha / 2.0)


def log_moneyness(spec: OptionSpec) -> float:
    """log(S/K) + r*tau; zero means at-the-money forward."""
    return math.log(spec.spot / spec.strike) + spec.rate * spec.tau


@dataclass(frozen=True)
class StableModel:
    """Stability index and martingale drift; engines read the contract's
    log-forward-moneyness from the :class:`OptionSpec`, not from here."""

    alpha: float
    mu: float

    def __post_init__(self) -> None:
        alpha = _require_finite("alpha", self.alpha)
        mu = _require_finite("mu", self.mu)
        if alpha <= 1.0 + _ALPHA_EDGE or alpha > 2.0:
            raise ValueError(f"alpha must lie in (1, 2], got {alpha!r}")
        if mu >= 0.0:
            raise ValueError(f"mu must be negative on alpha in (1, 2], got {mu!r}")

    @classmethod
    def from_spec(cls, spec: OptionSpec, alpha: float) -> "StableModel":
        """The model for ``spec``'s volatility; only ``spec.sigma`` is read."""
        return cls(alpha=float(alpha), mu=martingale_drift(spec.sigma, alpha))


@dataclass(frozen=True)
class PricingResult:
    """A price with its engine tag and convergence diagnostics."""

    price: float
    engine: str
    terms_used: int
    error_estimate: float
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        if not (self.price >= 0.0 and math.isfinite(self.price)):
            raise ValueError(f"price must be finite and >= 0, got {self.price!r}")
        if not (self.error_estimate >= 0.0):
            raise ValueError(
                f"error_estimate must be >= 0, got {self.error_estimate!r}"
            )
