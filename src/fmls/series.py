"""Closed-form double-series engine for the log-stable call price.

The call price is the absolutely convergent double sum

    price = (K e^{-r tau} / alpha) * sum_{n>=0, m>=1}
            (-1)^n / (n! Gamma(1 - (n-m)/alpha))
            * (-L - mu*tau)^n * (-mu*tau)^((m-n)/alpha)

with L the log-forward-moneyness.  Terms whose Gamma argument lands on a
non-positive integer vanish identically (the reciprocal Gamma is exact
zero there), which is what truncates the sum so quickly in practice.

One m-major (column by column) sum with term-by-term Kahan compensation
serves both views: the price and the convergence table read the same running
total, so the table's last partial sum is the price.  The same pass sums
the terms' n- and m-weights, from which the price's first two
sigma-derivatives follow in closed form.  The price sums rows
0..n_max and stops at the first column whose terms sum under 1e-8 * K in
absolute value; a column 64 that still contributes raises.  Each term's
magnitude is assembled in log space, which turns intermediate overflow into
an explicit error instead of inf.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator

from .bs import bs_price
from .errors import ConvergenceError, NumericalError, SeriesOverflowError
from .model import OptionSpec, PricingResult, StableModel, _Record, log_moneyness
from .special_functions import ln_gamma_real, reciprocal_gamma

__all__ = [
    "SeriesTable",
    "series_term",
    "price_series",
    "convergence_table",
    "implied_vol",
]

# Beyond this the factorials dwarf everything the powers can contribute.
_INDEX_CAP = 64
_MAX_TERM_LOG = 700.0

_IV_SIGMA_LO = 1e-4
_IV_SIGMA_HI = 5.0

# price_series stops at the first column whose |terms| sum under this times K.
_TAIL_REL = 1e-8

# Rows of every implied-vol reprice, more than the default because a solve
# may step to any sigma of its bracket, up to _IV_SIGMA_HI.
_IV_N_MAX = 40
# A solve stops after this many reprices in a row that bound nothing.
_IV_BLIND_RUN = 12


class SeriesTable(_Record):
    """Per-(n, m) terms and cumulative column partial sums, as numpy arrays:
    ``terms`` of shape (n_max+1, m_max) holds term (n, m) at [n, m-1], and
    ``partial_sums`` of shape (m_max,) is cumulative over columns."""

    __slots__ = ("terms", "partial_sums")

    def __init__(self, terms, partial_sums) -> None:
        self._store(terms, partial_sums)

    @property
    def converged_price(self) -> float:
        """The last partial sum: the series over the whole table."""
        return float(self.partial_sums[-1])


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


def _columns(
    model: StableModel, spec: OptionSpec, n_max: int, m_max: int
) -> Iterator[tuple[list[float], float, float, tuple[float, ...]]]:
    """Yield (terms, running total, |column| sum, moments) for m = 1, ...,
    m_max, each column over the rows n = 0, ..., n_max.

    Terms are summed in m-major order with term-by-term Kahan compensation;
    the running total includes every column yielded so far.  ``moments`` are
    the running sums of m*t, m(m-1)*t, n*t, n(m-1)*t and n(n-1)*t over the
    same terms, the weights :func:`_sigma_derivatives` reads.  A column's
    plain sum is the step of the running total; its n-weights are summed in
    the same loop over its terms.
    """
    if not (0 <= n_max <= _INDEX_CAP):
        raise ValueError(f"n_max must be in [0, {_INDEX_CAP}], got {n_max}")
    if not (1 <= m_max <= _INDEX_CAP):
        raise ValueError(f"m_max must be in [1, {_INDEX_CAP}], got {m_max}")
    total = 0.0
    comp = 0.0
    m1 = mm = n1 = nm = nn = 0.0
    for m in range(1, m_max + 1):
        terms = []
        col_abs = col_n = col_nn = 0.0
        start = total
        for n in range(n_max + 1):
            t = series_term(model, spec, n, m)
            y = t - comp
            s = total + y
            comp = (s - total) - y
            total = s
            col_abs += abs(t)
            nt = n * t
            col_n += nt
            col_nn += (n - 1) * nt
            terms.append(t)
        col_sum = total - start
        m1 += m * col_sum
        mm += m * (m - 1) * col_sum
        n1 += col_n
        nm += (m - 1) * col_n
        nn += col_nn
        yield terms, total, col_abs, (m1, mm, n1, nm, nn)


def _sigma_derivatives(
    model: StableModel, spec: OptionSpec, base: float, moments: tuple[float, ...]
) -> tuple[float, float]:
    """(d/dsigma, d^2/dsigma^2) of the sum of the terms ``moments`` weigh.

    Each term is t ~ base^n x^((m-n)/alpha), with x = -mu*tau ~ sigma^alpha
    and base = x - L, so dt/dsigma = (n*a + m*b)*t with b = 1/sigma and
    a = A/base - b, A = dx/dsigma = alpha*x/sigma.  Differentiating again,
    d^2t/dsigma^2 = (n(n-1)*a^2 + 2n(m-1)*a*b + n*c + m(m-1)*b^2)*t with
    c = dA/dsigma / base = (alpha-1)*A/(sigma*base).  In these falling
    moments the 1/base factors cancel term by term, since n(n-1)*t ~ base^2
    and n*t ~ base, so a small base loses no digits; ``base`` must not be 0.
    """
    m1, mm, n1, nm, nn = moments
    b = 1.0 / spec.sigma
    big_a = model.alpha * -model.mu * spec.tau / spec.sigma
    a = big_a / base - b
    c = (model.alpha - 1.0) * big_a / (spec.sigma * base)
    vega = a * n1 + b * m1
    volga = a * a * nn + 2.0 * a * b * nm + c * n1 + b * b * mm
    return vega, volga


def price_series(model: StableModel, spec: OptionSpec, n_max: int = 24) -> PricingResult:
    """Sum rows 0..n_max of the series column by column, up to the first
    column whose terms sum under 1e-8 * K in absolute value.

    The error estimate is that column's |terms| sum plus the |terms| of the
    last two rows, n_max - 1 and n_max, over the columns used: the column
    tail and the row tail.  Two rows, because at alpha = 2 every other term
    of a column is an exact zero.  Raises :class:`ConvergenceError` when
    column 64, the index cap, still contributes that much, and when the
    price less its error estimate lies above the spot: a call is worth at
    most S, so only truncated rows put the whole reported interval there.

    ``diagnostics`` holds ``columns_used``, ``last_column_abs`` and
    ``last_rows_abs``; ``nonpositive_base`` where base = -mu*tau - L is not
    positive; ``negative_sum_floored`` where the sum was negative and the
    price is floored at 0.  ``vega`` and ``volga`` are d price/d sigma and
    d^2 price/d sigma^2 of the summed terms, in closed form from the same
    pass (no further Gamma call).  They are absent where the price is
    floored, and where base is exactly 0: the n >= 1 terms vanish there,
    but their sigma-derivatives do not.
    """
    tail_tol = _TAIL_REL * spec.strike
    base = -log_moneyness(spec) - model.mu * spec.tau

    rows_abs = 0.0
    for columns_used, (terms, total, col_abs, moments) in enumerate(
        _columns(model, spec, n_max, _INDEX_CAP), start=1
    ):
        rows_abs += sum(abs(t) for t in terms[-2:])
        if col_abs < tail_tol:
            break
    else:
        raise ConvergenceError(
            f"column {_INDEX_CAP} still contributes {col_abs:.3e} "
            f"(tolerance {tail_tol:.3e})"
        )
    err = col_abs + rows_abs
    if total - err > spec.spot:
        raise ConvergenceError(
            f"series price {total:.6g} less its error estimate {err:.3e} lies "
            f"above the spot {spec.spot:.6g}: the rows are truncated"
        )

    diagnostics: dict[str, object] = {
        "columns_used": columns_used,
        "last_column_abs": col_abs,
        "last_rows_abs": rows_abs,
    }
    if base <= 0.0:
        # Outside the regime the contour derivation assumes; the power base
        # alternates sign with n but the sum stays real and convergent.
        diagnostics["nonpositive_base"] = True
    price = total
    if price < 0.0:
        diagnostics["negative_sum_floored"] = True
        price = 0.0
    elif base != 0.0:
        diagnostics["vega"], diagnostics["volga"] = _sigma_derivatives(
            model, spec, base, moments
        )
    return PricingResult(
        price=price,
        engine="series",
        terms_used=columns_used * (n_max + 1),
        error_estimate=err,
        diagnostics=diagnostics,
    )


def convergence_table(
    model: StableModel, spec: OptionSpec, n_max: int, m_max: int
) -> SeriesTable:
    """Term matrix over rows 0..n_max and columns 1..m_max plus cumulative
    column sums.

    Always fills the whole rectangle, with no early stop and no convergence
    check.  The sum is the one :func:`price_series` takes, so at ``m_max``
    equal to its ``columns_used``, ``converged_price`` is its unfloored price.
    """
    import numpy as np  # the one series path that needs arrays

    columns, totals, *_ = zip(*_columns(model, spec, n_max, m_max))
    return SeriesTable(
        terms=np.column_stack(columns),
        partial_sums=np.array(totals),
    )


def _bracketed_halley(
    reprice: Callable[[float], tuple[float, float | None, float | None]],
    sigma: float,
    tol: float,
) -> tuple[float, float, bool]:
    """The search :func:`implied_vol` describes, from ``sigma``, on the
    increasing function whose (value, first, second derivative) ``reprice``
    returns; derivatives are None where it has none, and an infinite value
    or a :class:`NumericalError` gives only its sign.

    Returns (sigma, |value|, blind) at the evaluated point of least |value|,
    the later of equals: one within ``tol``, or the best one once the
    midpoint of the bracket equals one of its ends or ``_IV_BLIND_RUN``
    values in a row were infinite; ``blind`` says the latter stopped it.
    """
    lo, hi = _IV_SIGMA_LO, _IV_SIGMA_HI
    best, best_abs = sigma, math.inf
    steps = [math.inf, math.inf]  # the last two steps taken
    blind = 0  # infinite values in a row
    while True:
        try:
            value, d1, d2 = reprice(sigma)
        except NumericalError:
            value, d1, d2 = math.inf, None, None
        if abs(value) <= best_abs:
            best, best_abs = sigma, abs(value)
        if best_abs <= tol:
            return best, best_abs, False
        blind = blind + 1 if math.isinf(value) else 0
        if blind == _IV_BLIND_RUN:
            return best, best_abs, True
        if value > 0.0:
            hi = sigma
        else:
            lo = sigma
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return best, best_abs, False
        step = mid - sigma
        if d1 is not None and d1 > 0.0:
            denom = 2.0 * d1 * d1 - value * d2
            if denom > 0.0:
                trial = -2.0 * value * d1 / denom
            else:
                trial = -value / d1
            if lo < sigma + trial < hi and abs(trial) < 0.5 * abs(steps[0]):
                step = trial
        steps = [steps[1], step]
        sigma += step


def implied_vol(
    spot: float,
    strike: float,
    rate: float,
    tau: float,
    alpha: float,
    target_price: float,
    tol: float = 1e-9,
) -> float:
    """Invert the series price for sigma by a bracketed Halley search seeded
    at the Black-Scholes implied vol.

    The seed is the sigma at which :func:`bs_price` meets the target, found
    by the same search on the Black-Scholes price with its closed-form vega
    and volga, so it costs no series term; at alpha = 2 it is already the
    root.  From there each step is a Halley step, -2ff'/(2f'^2 - ff''), on
    ``price_series`` with 40 rows, whose ``vega`` and ``volga`` give f' and
    f'' at the same reprice; a Newton step -f/f' where the denominator is
    not positive.  Every evaluated sign tightens the bracket
    [_IV_SIGMA_LO, _IV_SIGMA_HI].  The step falls back to the bracket
    midpoint whenever the reprice has no derivatives (a floored or raised
    price), the Halley or Newton step would leave the open bracket, or it
    is not less than half the step taken two iterations before (Brent's
    guard).

    ``tol`` bounds the repriced value: the returned sigma has
    |series price - target| <= tol, in currency, and a reprice whose
    ``error_estimate`` is not below the spot, an interval that bounds
    nothing, is never returned: only its sign tightens the bracket.  A
    :class:`NumericalError` from a reprice counts as sigma above the root:
    the series raises when it leaves the representable range, which happens
    only at large sigma, and when its price lies above the spot; either way
    the price exceeds any admissible target.  Raises
    :class:`ConvergenceError` once the midpoint of the bracket equals one of
    its ends with no sigma within ``tol``: the series price jumps there; and
    once 12 reprices in a row bound nothing, as further halvings of the
    bracket would learn nothing more.
    The target must respect the no-arbitrage bounds
    max(S - K e^{-r tau}, 0) < target < S.
    """
    if not (0.0 < tol < math.inf):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    intrinsic = max(spot - strike * math.exp(-rate * tau), 0.0)
    if not (intrinsic < target_price < spot):
        raise ValueError(
            f"target_price {target_price!r} outside the no-arbitrage bounds "
            f"({intrinsic:.6g}, {spot:.6g})"
        )

    def spec_at(sigma: float) -> OptionSpec:
        return OptionSpec(spot=spot, strike=strike, rate=rate, sigma=sigma, tau=tau)

    def bs_diff(sigma: float) -> tuple[float, float, float]:
        spec = spec_at(sigma)
        vol = sigma * math.sqrt(tau)
        d_plus = log_moneyness(spec) / vol + 0.5 * vol
        vega = spot * math.sqrt(tau / (2.0 * math.pi)) * math.exp(-0.5 * d_plus * d_plus)
        volga = vega * d_plus * (d_plus - vol) / sigma
        return bs_price(spec) - target_price, vega, volga

    def series_diff(sigma: float) -> tuple[float, float | None, float | None]:
        spec = spec_at(sigma)
        result = price_series(StableModel.from_spec(spec, alpha), spec, _IV_N_MAX)
        miss = result.price - target_price
        if result.error_estimate >= spot:
            # An interval that bounds nothing: its side may tighten the
            # bracket, but an infinite miss is never returned.
            return math.copysign(math.inf, miss), None, None
        return miss, result.diagnostics.get("vega"), result.diagnostics.get("volga")

    # The bracket holds mathematically: price -> intrinsic as sigma -> 0 and
    # -> spot as sigma -> inf, so the endpoints are never evaluated.
    seed, *_ = _bracketed_halley(bs_diff, 0.5 * (_IV_SIGMA_LO + _IV_SIGMA_HI), tol)
    sigma, miss, blind = _bracketed_halley(series_diff, seed, tol)
    if miss > tol:
        why = (
            f"{_IV_BLIND_RUN} reprices in a row bounded nothing (an error "
            "estimate not below the spot, or a numerical error)"
            if blind
            else "the bracket can no longer shrink, so the series price is "
            "discontinuous there"
        )
        raise ConvergenceError(
            f"implied_vol stopped at sigma={sigma!r} with |price - target| = "
            f"{miss:.3e} > tol={tol!r}: {why}"
        )
    return sigma
