"""Gamma-family special functions and the normal CDF, on scalar floats.

Every pricing engine in this package reduces to evaluations of the Gamma
function -- on the positive real axis for the series terms, at negative
reals for the reciprocal, and along vertical lines in the complex plane for
the contour quadratures.  All of them are served by one fixed Lanczos
approximation (g = 607/128, 15 terms) whose coefficients are committed
below.  Accuracy budget: ~1e-14 relative on the real axis, ~1e-13 relative
for complex arguments with |z| <= 200.

This module holds the scalar path only, in plain ``math``, so the series
and Black-Scholes engines load no numpy.  The complex array kernels of the
contour quadratures, ``_loggamma_vec`` and ``_log_sinpi_vec``, live in
:mod:`fmls.greens`, their one user, and share ``lanczos_sum``,
``LANCZOS_G``, ``LOG_SQRT_2PI`` and ``LOG_PI`` from here.

Overflow never escapes as ``inf``: operations raise ``OverflowError``
instead, which keeps downstream term accounting deterministic.
"""

from __future__ import annotations

import math

__all__ = [
    "ln_gamma_real",
    "reciprocal_gamma",
    "normal_cdf",
]

# Lanczos g = 607/128, 15 coefficients (Godfrey's set, also used by Boost).
LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

LOG_SQRT_2PI = 0.91893853320467274178032973640562
LOG_PI = math.log(math.pi)
_INTEGER_TOL = 1e-12
_MAX_EXP = 709.0  # log(DBL_MAX) ~ 709.78


def lanczos_sum(z):
    """Lanczos rational part A_g(z); works for real or complex z, Re(z) >= 0.5."""
    s = _LANCZOS_C[0]
    for k in range(1, 15):
        s = s + _LANCZOS_C[k] / (z - 1.0 + k)
    return s


def ln_gamma_real(x: float) -> float:
    """log Gamma(x) for x > 0.

    Raises ``ValueError`` for x <= 0 and ``OverflowError`` if the result is
    not representable (x beyond ~2.5e305).
    """
    if not (x > 0.0) or math.isinf(x):
        raise ValueError(f"ln_gamma_real requires x > 0 and finite, got {x!r}")
    if x < 0.5:
        # Recurrence Gamma(x) = Gamma(x+1)/x keeps the Lanczos core on Re >= 0.5.
        return ln_gamma_real(x + 1.0) - math.log(x)
    t = x + LANCZOS_G - 0.5
    out = LOG_SQRT_2PI + (x - 0.5) * math.log(t) - t + math.log(lanczos_sum(x))
    if math.isinf(out):
        raise OverflowError(f"ln_gamma_real overflow at x={x!r}")
    return out


def _sinpi(x: float) -> float:
    """sin(pi*x) with exact argument reduction (accurate for large |x| and
    next to the integers)."""
    n = round(x)
    s = math.sin(math.pi * (x - n))  # x - n in [-0.5, 0.5], exact
    return -s if (n & 1) else s


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x), total on finite reals.

    Exactly 0.0 at non-positive integers (detected within 1e-12 on x, which
    is what the series indices produce for rational stability exponents).
    Raises ``OverflowError`` outside the representable range, which starts
    around x < -177.
    """
    if not math.isfinite(x):
        raise ValueError(f"reciprocal_gamma requires finite x, got {x!r}")
    n = round(x)
    if n <= 0 and abs(x - n) <= _INTEGER_TOL:
        return 0.0
    if x > 0.0:
        return math.exp(-ln_gamma_real(x))
    # Reflection: 1/Gamma(x) = Gamma(1-x) * sin(pi*x) / pi, assembled in log
    # space because Gamma(1-x) alone overflows for x below about -170.6.
    s = _sinpi(x)
    log_mag = ln_gamma_real(1.0 - x) + math.log(abs(s)) - LOG_PI
    if log_mag > _MAX_EXP:
        raise OverflowError(f"reciprocal_gamma overflow at x={x!r}")
    return math.copysign(math.exp(log_mag), s)


def normal_cdf(x: float) -> float:
    """Standard normal distribution function Phi(x)."""
    if math.isnan(x):
        raise ValueError("normal_cdf requires a non-NaN argument")
    return 0.5 * math.erfc(-x / math.sqrt(2.0))
