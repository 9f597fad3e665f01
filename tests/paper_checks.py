"""The paper's checks of its machinery against two known results.

- At alpha = 2 the double series must reduce to the Black-Scholes
  at-the-money-forward (ATMF) expansion.  The paper writes that expansion
  two ways, one term formula each; the partial sums come from a ratio
  recurrence (``"single"``) or from the engine's own ``series_term`` over
  a triangle of indices (``"double"``).
- The Cahen-Mellin identity exp(-x) = (1/2 pi i) int Gamma(s) x^{-s} ds
  along Re(s) = c, evaluated by the density's contour transform.

The characteristic function the Fourier engine inverts is read off that
engine's own exponent, so its checks test the formula the engine runs.

No engine calls these; they check the library, so every piece that is not
one of the paper's own formulas is the library's code.
"""

import cmath
import math

import numpy as np

from fmls.bs import bs_price
from fmls.charfn import _exponent
from fmls.greens import _half_line_transform, _loggamma_vec
from fmls.model import OptionSpec, StableModel
from fmls.series import series_term
from fmls.special_functions import reciprocal_gamma


def bs_atmf_price(spot: float, sigma: float, tau: float) -> float:
    """Black-Scholes call at the money forward: strike = spot, zero rate."""
    return bs_price(OptionSpec(spot=spot, strike=spot, rate=0.0, sigma=sigma, tau=tau))


def atmf_term_alternating(n: int, spot: float, sigma: float, tau: float) -> float:
    """n-th term of the ATMF expansion in its alternating-factorial form:

        (S/sqrt(pi)) * (-1)^n * y^(2n+1) / (n! * 4^n * (2n+1)),  y = sigma*sqrt(tau/2)
    """
    if n < 0:
        raise ValueError("term index must be >= 0")
    y = sigma * math.sqrt(0.5 * tau)
    sign = -1.0 if n % 2 else 1.0
    return (
        spot
        / math.sqrt(math.pi)
        * sign
        * y ** (2 * n + 1)
        / (math.factorial(n) * 4.0**n * (2 * n + 1))
    )


def atmf_term_half_integer_gamma(
    n: int, spot: float, sigma: float, tau: float
) -> float:
    """n-th term of the same expansion written with half-integer Gamma values:

        S * y^(2n+1) / ((2n+1)! * Gamma(1/2 - n)),  y = sigma*sqrt(tau/2)
    """
    if n < 0:
        raise ValueError("term index must be >= 0")
    y = sigma * math.sqrt(0.5 * tau)
    return (
        spot
        * y ** (2 * n + 1)
        * reciprocal_gamma(0.5 - n)
        / math.factorial(2 * n + 1)
    )


def atmf_bs_series(
    spot: float,
    sigma: float,
    tau: float,
    order: int,
    representation: str = "single",
) -> float:
    """Partial sum of the ATMF expansion at alpha = 2, through sigma^(2*order+1).

    ``"single"`` sums one term per odd power of sigma*sqrt(tau) by ratio
    recurrence from the leading term S*sigma*sqrt(tau)/sqrt(2*pi).
    ``"double"`` sums ``series_term`` over n + m <= 2*order + 1 for the
    contract K = S, r = 0, where the even powers cancel identically.
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
        spec = OptionSpec(spot=spot, strike=spot, rate=0.0, sigma=sigma, tau=tau)
        model = StableModel.from_spec(spec, 2.0)
        degree = 2 * order + 1
        return math.fsum(
            series_term(model, spec, n, m)
            for m in range(1, degree + 1)
            for n in range(degree - m + 1)
        )
    raise ValueError(f"unknown representation {representation!r}")


def cahen_mellin_exp(x: float, c: float) -> float:
    """exp(-x) from the contour integral of Gamma(s) x^{-s} along Re(s) = c.

    Any c > 0 must give the same answer; raises ``ValueError`` when c <= 0,
    outside the strip where the transform converges.
    """
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError(f"x must be positive and finite, got {x!r}")
    if not (c > 0.0 and math.isfinite(c)):
        raise ValueError(f"c must be positive and finite, got {c!r}")
    # The transform's ratio is Gamma(c + i*y) and its phase e^{-i*y*log x};
    # the contour abscissa is c itself, not the density's c1.
    val = _half_line_transform(
        np.array([-math.log(x)]),
        lambda ys: np.exp(_loggamma_vec(c + 1j * ys)),
        prefactor=x**-c / math.pi,
    )[0]
    return float(val)


def char_fn(u: complex, mu: float, tau: float, alpha: float) -> complex:
    """phi(u) = exp(mu*tau*(iu - (iu)^alpha)), principal branch.

    The exponent is the Fourier engine's z = mu*tau*(w - w^alpha) at
    w = iu = a + 1 + i*Re(u), so a = -Im(u) - 1, with k = 0.  Raises
    ``ValueError`` for a non-finite u and ``OverflowError`` if the exponent
    leaves the representable range.
    """
    u = complex(u)
    if not (math.isfinite(u.real) and math.isfinite(u.imag)):
        raise ValueError(f"char_fn requires finite u, got {u!r}")
    re, im = _exponent(u.real, -u.imag - 1.0, 0.0, mu * tau, alpha)
    return cmath.exp(complex(re, im))
