"""European call pricing under the finite-moment log-stable model.

Four engines share one set of market/model records:

- ``price_series``: the closed-form double residue series (the fast path);
- ``gil_pelaez_price``: damped Fourier inversion of the characteristic
  function (Carr & Madan), of which Gil-Pelaez inversion is the undamped
  limit;
- ``discretized_price``: convolution of the payoff with a sampled
  Mellin-Barnes density grid;
- ``bs_price``: the Black-Scholes closed form, exact at stability index 2.

The closed forms need no numerical technique, and ``import fmls`` loads no
numpy: ``price_series``, ``bs_price`` and ``implied_vol`` run on ``math``
alone.  The numerical engines, the ``charfn`` and ``greens`` submodules
(and ``cli``), load with numpy on first use, through the package attributes
or the names exported from them.
"""

import importlib

from .bs import bs_price
from .errors import (
    ConvergenceError,
    NumericalError,
    QuadratureError,
    SeriesOverflowError,
)
from .model import (
    ENGINES,
    OptionSpec,
    PricingResult,
    StableModel,
    log_moneyness,
    martingale_drift,
)
from .series import (
    SeriesTable,
    convergence_table,
    implied_vol,
    price_series,
    series_term,
)

__version__ = "0.1.0"

__all__ = [
    "ENGINES",
    "ConvergenceError",
    "DensityGrid",
    "NumericalError",
    "OptionSpec",
    "PricingResult",
    "QuadratureError",
    "SeriesOverflowError",
    "SeriesTable",
    "StableModel",
    "bs_price",
    "build_density_grid",
    "convergence_table",
    "default_pricing_grid",
    "discretized_price",
    "gil_pelaez_price",
    "implied_vol",
    "log_moneyness",
    "martingale_drift",
    "price_series",
    "series_term",
    "stable_density_values",
]

# Submodules that load on first access, and the exported names they hold.
_LAZY_MODULES = ("charfn", "cli", "greens")
_LAZY_NAMES = {
    "gil_pelaez_price": "charfn",
    "DensityGrid": "greens",
    "build_density_grid": "greens",
    "default_pricing_grid": "greens",
    "discretized_price": "greens",
    "stable_density_values": "greens",
}


def __getattr__(name: str):
    if name in _LAZY_MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY_NAMES:
        value = getattr(importlib.import_module(f".{_LAZY_NAMES[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_MODULES, *_LAZY_NAMES})
