"""Gamma-family special functions and the normal CDF.

Every pricing engine in this package reduces to evaluations of the Gamma
function -- on the positive real axis for the series terms, at negative
reals for the reciprocal, and along vertical lines in the complex plane for
the contour quadratures.  All of them are served by one fixed Lanczos
approximation (g = 607/128, 15 terms) whose coefficients are committed
below.  Accuracy budget: ~1e-14 relative on the real axis, ~1e-13 relative
for complex arguments with |z| <= 200.

Overflow never escapes as ``inf``: operations raise ``OverflowError``
instead, which keeps downstream term accounting deterministic.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = [
    "ln_gamma_real",
    "ln_gamma_complex",
    "reciprocal_gamma",
    "normal_cdf",
]

# Lanczos g = 607/128, 15 coefficients (Godfrey's set, also used by Boost).
_LANCZOS_G = 607.0 / 128.0
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

_LOG_SQRT_2PI = 0.91893853320467274178032973640562
_LOG_PI = math.log(math.pi)
_INTEGER_TOL = 1e-12
_MAX_EXP = 709.0  # log(DBL_MAX) ~ 709.78


def _lanczos_sum(z):
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
    t = x + _LANCZOS_G - 0.5
    out = _LOG_SQRT_2PI + (x - 0.5) * math.log(t) - t + math.log(_lanczos_sum(x))
    if math.isinf(out):
        raise OverflowError(f"ln_gamma_real overflow at x={x!r}")
    return out


def _sinpi(x: float) -> float:
    """sin(pi*x) with exact argument reduction (accurate for large |x|)."""
    n = math.floor(x)
    r = x - n  # in [0, 1), exact
    s = math.sin(math.pi * r)
    return -s if (int(n) & 1) else s


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
    log_mag = ln_gamma_real(1.0 - x) + math.log(abs(s)) - _LOG_PI
    if log_mag > _MAX_EXP:
        raise OverflowError(f"reciprocal_gamma overflow at x={x!r}")
    return math.copysign(math.exp(log_mag), s)


def _loggamma_vec(z: np.ndarray) -> np.ndarray:
    """Vectorized log Gamma on complex arrays, reflection for Re(z) < 0.5.

    Used by the contour quadratures; callers guarantee arguments stay off
    the poles (their real parts live strictly inside (0, 1) bands).
    """
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    right = z.real >= 0.5
    if np.any(right):
        zr = z[right]
        t = zr + (_LANCZOS_G - 0.5)
        out[right] = (
            _LOG_SQRT_2PI + (zr - 0.5) * np.log(t) - t + np.log(_lanczos_sum(zr))
        )
    if np.any(~right):
        zl = z[~right]
        out[~right] = _LOG_PI - _log_sinpi_vec(zl) - _loggamma_vec(1.0 - zl)
    return out


def _log_sinpi_vec(z: np.ndarray) -> np.ndarray:
    """Analytic continuation of log sin(pi*z), matching the standard
    log-Gamma branch under reflection (no spurious 2*pi*i jumps), and
    overflow-safe for large |Im z|."""
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    y = z.imag
    on_axis = y == 0.0
    if np.any(on_axis):
        zs = z[on_axis]
        n = np.floor(zs.real)
        r = (zs.real - n) + 0j
        s = np.sin(np.pi * r)
        s = np.where((n.astype(np.int64) & 1).astype(bool), -s, s)
        out[on_axis] = np.log(s)
    if np.any(~on_axis):
        zb = z[~on_axis]
        conj = zb.imag < 0.0
        zb = np.where(conj, zb.conj(), zb)
        # In the upper half-plane sin(pi z) = -(e^{-i pi z}/(2i))(1 - e^{2 i pi z})
        # with |e^{2 i pi z}| < 1, so this branch is analytic there.  The phase
        # of the small exponential is reduced exactly before exponentiation.
        w = np.exp(2j * np.pi * (zb - np.round(zb.real)))
        val = -1j * np.pi * zb + np.log(1.0 - w) + (math.log(0.5) + 0.5j * np.pi)
        out[~on_axis] = np.where(conj, val.conj(), val)
    return out


def ln_gamma_complex(z: complex) -> complex:
    """Principal branch of log Gamma(z) (real on the positive real axis).

    Raises ``ValueError`` at the poles (non-positive real integers).
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"ln_gamma_complex requires finite z, got {z!r}")
    if z.imag == 0.0:
        n = round(z.real)
        if n <= 0 and abs(z.real - n) <= _INTEGER_TOL:
            raise ValueError(f"ln_gamma_complex pole at z={z!r}")
        if z.real > 0.0:
            return complex(ln_gamma_real(z.real))
    out = complex(_loggamma_vec(np.array([z]))[0])
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise OverflowError(f"ln_gamma_complex overflow at z={z!r}")
    return out


def normal_cdf(x: float) -> float:
    """Standard normal distribution function Phi(x)."""
    if math.isnan(x):
        raise ValueError("normal_cdf requires a non-NaN argument")
    return 0.5 * math.erfc(-x / math.sqrt(2.0))
