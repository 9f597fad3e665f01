"""European call pricing under the finite-moment log-stable model.

Four engines share one set of market/model records:

- ``price_series``: the closed-form double residue series (the fast path);
- ``gil_pelaez_price``: damped Fourier inversion of the characteristic
  function (Carr & Madan), of which Gil-Pelaez inversion is the undamped
  limit;
- ``discretized_price``: convolution of the payoff with a sampled
  Mellin-Barnes density grid;
- ``bs_price``: the Black-Scholes closed form, exact at stability index 2.
"""

from .bs import bs_price
from .charfn import gil_pelaez_price
from .errors import (
    ConvergenceError,
    NumericalError,
    QuadratureError,
    SeriesOverflowError,
)
from .greens import (
    DensityGrid,
    build_density_grid,
    default_pricing_grid,
    discretized_price,
    stable_density_values,
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
