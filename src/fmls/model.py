"""Market contract records, log-stable model parameters, and result records.

The model is (alpha, mu) alone; the log-forward-moneyness belongs to the
contract (:func:`log_moneyness`), so one model prices every contract with
the volatility it was built from.

``sigma`` is the Gaussian-equivalent volatility: the stable driver is scaled
by 1/sqrt(2) so that at stability index 2 the model degenerates exactly to
Black-Scholes with that same sigma.  Calibrations coming from other
normalizations must be converted before constructing a model here.

The records are plain classes on one slotted base whose methods are written
out, not generated: importing them loads no introspection module and
generates no code.
"""

from __future__ import annotations

import math

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


# Stores a slot past the records' own __setattr__, which always raises.
_set_field = object.__setattr__


class _Record:
    """An immutable value record: each subclass names its fields, in
    constructor order, in ``__slots__`` and stores them with :meth:`_store`.

    Equality, hash, ``repr``, copying and pickling go by the field values in
    that order; a record holding a dict or an array is unhashable.
    """

    __slots__ = ()

    def _store(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            _set_field(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class OptionSpec(_Record):
    """One European call contract: spot, strike, flat rate, volatility, maturity.

    Units: ``rate`` is per year (decimal, any sign), ``sigma`` per sqrt(year),
    ``tau`` in years.  Each field is stored as the float it was checked as.
    """

    __slots__ = ("spot", "strike", "rate", "sigma", "tau")

    def __init__(
        self, spot: float, strike: float, rate: float, sigma: float, tau: float
    ) -> None:
        self._store(
            _require_positive("spot", spot),
            _require_positive("strike", strike),
            _require_finite("rate", rate),
            _require_positive("sigma", sigma),
            _require_positive("tau", tau),
        )


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


class StableModel(_Record):
    """Stability index and martingale drift; engines read the contract's
    log-forward-moneyness from the :class:`OptionSpec`, not from here."""

    __slots__ = ("alpha", "mu")

    def __init__(self, alpha: float, mu: float) -> None:
        alpha = _require_finite("alpha", alpha)
        mu = _require_finite("mu", mu)
        if alpha <= 1.0 + _ALPHA_EDGE or alpha > 2.0:
            raise ValueError(f"alpha must lie in (1, 2], got {alpha!r}")
        if mu >= 0.0:
            raise ValueError(f"mu must be negative on alpha in (1, 2], got {mu!r}")
        self._store(alpha, mu)

    @classmethod
    def from_spec(cls, spec: OptionSpec, alpha: float) -> "StableModel":
        """The model for ``spec``'s volatility; only ``spec.sigma`` is read."""
        return cls(alpha=float(alpha), mu=martingale_drift(spec.sigma, alpha))


class PricingResult(_Record):
    """A price with its engine tag and convergence diagnostics; left out,
    ``diagnostics`` is a new empty dict."""

    __slots__ = ("price", "engine", "terms_used", "error_estimate", "diagnostics")

    def __init__(
        self,
        price: float,
        engine: str,
        terms_used: int,
        error_estimate: float,
        diagnostics: dict[str, object] | None = None,
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
        if not (price >= 0.0 and math.isfinite(price)):
            raise ValueError(f"price must be finite and >= 0, got {price!r}")
        if not (error_estimate >= 0.0):
            raise ValueError(f"error_estimate must be >= 0, got {error_estimate!r}")
        if diagnostics is None:
            diagnostics = {}
        self._store(price, engine, terms_used, error_estimate, diagnostics)
