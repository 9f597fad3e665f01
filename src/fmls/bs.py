"""Black-Scholes closed form.

This is the exact ground truth the stable-model engines must reproduce at
stability index 2.
"""

from __future__ import annotations

import math

from .model import OptionSpec, log_moneyness
from .special_functions import normal_cdf

__all__ = ["bs_price"]


def bs_price(spec: OptionSpec) -> float:
    """European call: S*N(d+) - K*exp(-r*tau)*N(d-)."""
    vol = spec.sigma * math.sqrt(spec.tau)
    lfwd = log_moneyness(spec)
    d_plus = lfwd / vol + 0.5 * vol
    d_minus = lfwd / vol - 0.5 * vol
    return spec.spot * normal_cdf(d_plus) - spec.strike * math.exp(
        -spec.rate * spec.tau
    ) * normal_cdf(d_minus)
