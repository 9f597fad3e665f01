"""Closed-form double-series engine for the log-stable call price.

The call price is the absolutely convergent double sum

    price = (K e^{-r tau} / alpha) * sum_{n>=0, m>=1}
            (-1)^n / (n! Gamma(1 - (n-m)/alpha))
            * (-L - mu*tau)^n * (-mu*tau)^((m-n)/alpha)

with L the log-forward-moneyness.  Terms whose Gamma argument lands on a
non-positive integer vanish identically (the reciprocal Gamma is exact
zero there), which is what truncates the sum so quickly in practice.

One m-major (column by column) sum with term-by-term Kahan compensation
serves both views: the early-stopping price and the full convergence table
read the same running total, so the table's last partial sum is the price.
Each term's magnitude is assembled in log space, which turns intermediate
overflow into an explicit error instead of inf.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NumericalError, SeriesOverflowError
from .model import OptionSpec, PricingResult, StableModel, log_moneyness
from .special_functions import ln_gamma_real, reciprocal_gamma

__all__ = [
    "Truncation",
    "SeriesTable",
    "series_term",
    "price_series",
    "convergence_table",
    "atmf_bs_series",
    "implied_vol",
]

# Beyond this the factorials dwarf everything the powers can contribute.
_INDEX_CAP = 64
_MAX_TERM_LOG = 700.0

_IV_SIGMA_LO = 1e-4
_IV_SIGMA_HI = 5.0
_IV_MAX_ITER = 200


@dataclass(frozen=True)
class Truncation:
    """Rectangle of retained indices plus the early-stop threshold.

    ``tail_tol`` is a currency amount: once a whole m-column contributes
    less than this in absolute value, summation stops.  ``None`` resolves
    to 1e-8 * strike at evaluation time; 0 disables both the early stop and
    the non-convergence check.
    """

    n_max: int = 24
    m_max: int = 32
    tail_tol: float | None = None

    def __post_init__(self) -> None:
        if not (0 <= self.n_max <= _INDEX_CAP):
            raise ValueError(f"n_max must be in [0, {_INDEX_CAP}], got {self.n_max}")
        if not (1 <= self.m_max <= _INDEX_CAP):
            raise ValueError(f"m_max must be in [1, {_INDEX_CAP}], got {self.m_max}")
        if self.tail_tol is not None and not (self.tail_tol >= 0.0):
            raise ValueError(f"tail_tol must be >= 0, got {self.tail_tol!r}")

    def resolve_tail_tol(self, strike: float) -> float:
        return 1e-8 * strike if self.tail_tol is None else self.tail_tol


@dataclass(frozen=True)
class SeriesTable:
    """Per-(n, m) terms and cumulative column partial sums."""

    terms: np.ndarray  # shape (n_max+1, m_max), terms[n, m-1]
    partial_sums: np.ndarray  # shape (m_max,), cumulative over columns
    converged_price: float


def series_term(model: StableModel, spec: OptionSpec, n: int, m: int) -> float:
    """The exact (n, m) contribution, including the K e^{-r tau}/alpha prefactor."""
    if n < 0 or m < 1:
        raise ValueError(f"need n >= 0 and m >= 1, got n={n}, m={m}")
    if n > _INDEX_CAP or m > _INDEX_CAP:
        raise ValueError(f"indices capped at {_INDEX_CAP}, got n={n}, m={m}")
    rg = reciprocal_gamma(1.0 - (n - m) / model.alpha)
    if rg == 0.0:
        return 0.0
    x = -model.mu * spec.tau  # > 0 by construction
    base = -log_moneyness(spec) - model.mu * spec.tau
    if base == 0.0 and n > 0:
        return 0.0
    log_mag = (
        math.log(spec.strike)
        - spec.rate * spec.tau
        - math.log(model.alpha)
        - ln_gamma_real(n + 1.0)
        + ((m - n) / model.alpha) * math.log(x)
        + math.log(abs(rg))
    )
    if n > 0:
        log_mag += n * math.log(abs(base))
    if log_mag > _MAX_TERM_LOG:
        raise SeriesOverflowError(
            f"series term (n={n}, m={m}) exceeds the floating-point range"
        )
    # (-1)^n * sign(base)^n collapses to (-1)^n for positive base, +1 otherwise.
    sign = 1.0
    if n % 2 == 1 and base > 0.0:
        sign = -1.0
    if rg < 0.0:
        sign = -sign
    return sign * math.exp(log_mag)


def _kahan_add(total: float, comp: float, value: float) -> tuple[float, float]:
    y = value - comp
    t = total + y
    comp = (t - total) - y
    return t, comp


def _columns(
    model: StableModel, spec: OptionSpec, trunc: Truncation
) -> Iterator[tuple[list[float], float, float]]:
    """Yield (terms, running total, |column| sum) for m = 1, ..., m_max.

    Terms are summed in m-major order with term-by-term Kahan compensation;
    the running total includes every column yielded so far.
    """
    total = 0.0
    comp = 0.0
    for m in range(1, trunc.m_max + 1):
        terms = []
        col_abs = 0.0
        for n in range(trunc.n_max + 1):
            t = series_term(model, spec, n, m)
            total, comp = _kahan_add(total, comp, t)
            col_abs += abs(t)
            terms.append(t)
        yield terms, total, col_abs


def price_series(
    model: StableModel, spec: OptionSpec, trunc: Truncation | None = None
) -> PricingResult:
    """Sum the series over the truncation rectangle with whole-column early stop.

    Raises :class:`ConvergenceError` when the final column still contributes
    more than ``tail_tol`` (and the tolerance is positive).
    """
    trunc = trunc or Truncation()
    tail_tol = trunc.resolve_tail_tol(spec.strike)
    base = -log_moneyness(spec) - model.mu * spec.tau

    for columns_used, (_, total, col_abs) in enumerate(
        _columns(model, spec, trunc), start=1
    ):
        if tail_tol > 0.0 and col_abs < tail_tol:
            break
    else:
        if tail_tol > 0.0 and col_abs >= tail_tol:
            raise ConvergenceError(
                f"column {trunc.m_max} still contributes {col_abs:.3e} "
                f"(tail_tol={tail_tol:.3e}); enlarge m_max"
            )

    diagnostics: dict[str, object] = {
        "columns_used": columns_used,
        "last_column_abs": col_abs,
    }
    if base <= 0.0:
        # Outside the regime the contour derivation assumes; the power base
        # alternates sign with n but the sum stays real and convergent.
        diagnostics["nonpositive_base"] = True
    price = total
    if price < 0.0:
        diagnostics["negative_sum_floored"] = True
        price = 0.0
    return PricingResult(
        price=price,
        engine="series",
        terms_used=columns_used * (trunc.n_max + 1),
        error_estimate=col_abs,
        diagnostics=diagnostics,
    )


def convergence_table(
    model: StableModel, spec: OptionSpec, trunc: Truncation | None = None
) -> SeriesTable:
    """Full term matrix over the rectangle plus cumulative column sums.

    Always fills the whole rectangle: ``tail_tol`` is not read, so there is
    no early stop and no convergence check.  The sum is the one
    :func:`price_series` takes, so ``converged_price`` equals its unfloored
    price with ``tail_tol=0``.
    """
    trunc = trunc or Truncation()
    columns, totals, _ = zip(*_columns(model, spec, trunc))
    return SeriesTable(
        terms=np.column_stack(columns),
        partial_sums=np.array(totals),
        converged_price=totals[-1],
    )


def atmf_bs_series(
    spot: float,
    sigma: float,
    tau: float,
    order: int,
    representation: str = "single",
) -> float:
    """Partial sum of the at-the-money-forward expansion at stability index 2.

    ``representation`` selects between the two equivalent forms:

    - ``"single"``: one term per odd power of sigma*sqrt(tau), evaluated by
      ratio recurrence from the leading term S*sigma*sqrt(tau)/sqrt(2*pi);
    - ``"double"``: the (n, m) double sum restricted to total degree
      n + m <= 2*order + 1, whose even powers cancel identically.

    Both return the same partial sum up to rounding.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if order > 100:
        raise ValueError(f"order capped at 100, got {order}")
    if spot <= 0.0 or tau <= 0.0 or sigma < 0.0:
        raise ValueError("atmf_bs_series requires spot > 0, tau > 0, sigma >= 0")
    if sigma == 0.0:
        return 0.0
    if representation == "single":
        term = spot * sigma * math.sqrt(tau) / math.sqrt(2.0 * math.pi)
        total = term
        q = 0.5 * sigma * sigma * tau
        for j in range(order):
            term *= -q * (2 * j + 1) / (4.0 * (j + 1) * (2 * j + 3))
            total += term
        return total
    if representation == "double":
        x = sigma * math.sqrt(tau) / math.sqrt(2.0)
        degree = 2 * order + 1
        total = 0.0
        comp = 0.0
        for m in range(1, degree + 1):
            for n in range(0, degree - m + 1):
                rg = reciprocal_gamma(1.0 - (n - m) / 2.0)
                if rg == 0.0:
                    continue
                t = (
                    0.5
                    * spot
                    * (-1.0 if n % 2 else 1.0)
                    * rg
                    * x ** (n + m)
                    / math.factorial(n)
                )
                total, comp = _kahan_add(total, comp, t)
        return total
    raise ValueError(f"unknown representation {representation!r}")


def implied_vol(
    spot: float,
    strike: float,
    rate: float,
    tau: float,
    alpha: float,
    target_price: float,
    tol: float = 1e-9,
    trunc: Truncation | None = None,
) -> float:
    """Invert the series price for sigma by bracketing bisection.

    ``tol`` is a currency tolerance on the repriced value.  The target must
    respect the no-arbitrage bounds max(S - K e^{-r tau}, 0) < target < S.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    intrinsic = max(spot - strike * math.exp(-rate * tau), 0.0)
    if not (intrinsic < target_price < spot):
        raise ValueError(
            f"target_price {target_price!r} outside the no-arbitrage bounds "
            f"({intrinsic:.6g}, {spot:.6g})"
        )
    trunc = trunc or Truncation(n_max=40, m_max=56)
    lo, hi = _IV_SIGMA_LO, _IV_SIGMA_HI
    # The bracket holds mathematically: price -> intrinsic as sigma -> 0 and
    # -> spot as sigma -> inf, so the endpoints are never evaluated.
    for _ in range(_IV_MAX_ITER):
        mid = 0.5 * (lo + hi)
        try:
            spec = OptionSpec(
                spot=spot, strike=strike, rate=rate, sigma=mid, tau=tau
            )
            diff = (
                price_series(StableModel.from_spec(spec, alpha), spec, trunc).price
                - target_price
            )
        except NumericalError:
            # The series leaves the representable range only for large
            # sigma, where the price exceeds any admissible target.
            hi = mid
            continue
        if abs(diff) <= tol:
            return mid
        if diff > 0.0:
            hi = mid
        else:
            lo = mid
    raise ConvergenceError(
        f"implied_vol did not reach tol={tol!r} within {_IV_MAX_ITER} bisections"
    )
