"""Fourier-inversion pricer built on the log-stable characteristic function.

The characteristic function of the de-meaned log return X over horizon tau
is phi(u) = exp(mu*tau*(iu - (iu)^alpha)), principal branch for the complex
power.  The call decomposes into two exercise probabilities obtained by
inverting phi on the half line:

    price = S*P1 - K e^{-r tau}*P2
    P1 = 1/2 + (1/pi) * int_0^inf Re[e^{iuL} phi(u-i) / (iu)] du
    P2 = 1/2 + (1/pi) * int_0^inf Re[e^{iuL} phi(u)   / (iu)] du

with L the log-forward-moneyness.  The apparent 1/u singularity at zero is
removable, so integration starts at u = 1e-10; the omitted sliver is far
below the tolerances.  Integration proceeds strip by strip and stops once
three consecutive strips contribute less than ``abs_tol``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError
from .model import OptionSpec, PricingResult, StableModel, log_moneyness
from .quadrature import adaptive_gauss_kronrod

__all__ = ["QuadratureSettings", "char_fn", "gil_pelaez_price"]

_U_START = 1e-10
_STRIP_WIDTH = 5.0
_IDLE_STRIPS = 3
_PROB_SLACK = 1e-6


@dataclass(frozen=True)
class QuadratureSettings:
    """Truncation and tolerance knobs for the half-line inversion integrals."""

    u_max: float = 200.0
    rel_tol: float = 1e-9
    abs_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        if not (math.isfinite(self.u_max) and self.u_max > 0.0):
            raise ValueError(f"u_max must be positive and finite, got {self.u_max!r}")
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("rel_tol and abs_tol must be > 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


def char_fn(u: complex, mu: float, tau: float, alpha: float) -> complex:
    """phi(u) = exp(mu*tau*(iu - (iu)^alpha)), principal branch.

    Raises ``OverflowError`` if the exponent leaves the representable range.
    """
    u = complex(u)
    if not (math.isfinite(u.real) and math.isfinite(u.imag)):
        raise ValueError(f"char_fn requires finite u, got {u!r}")
    iu = 1j * u
    if iu == 0:
        return 1.0 + 0.0j
    z = mu * tau * (iu - iu**alpha)
    if z.real > 709.0:
        raise OverflowError(f"char_fn exponent overflow at u={u!r}")
    return cmath.exp(z)


def _char_fn_vec(u: np.ndarray, mu: float, tau: float, alpha: float) -> np.ndarray:
    iu = 1j * np.asarray(u, dtype=complex)
    out = np.exp(mu * tau * (iu - iu**alpha))
    return np.where(iu == 0, 1.0 + 0.0j, out)


def _integrate_half_line(integrand, settings: QuadratureSettings):
    """Strip-by-strip integration of a decaying oscillatory integrand."""
    total = 0.0
    err = 0.0
    evals = 0
    idle = 0
    a = _U_START
    u_stop = settings.u_max
    while a < settings.u_max:
        b = min(a + _STRIP_WIDTH, settings.u_max)
        value, e, n = adaptive_gauss_kronrod(
            integrand,
            a,
            b,
            rel_tol=settings.rel_tol,
            abs_tol=settings.abs_tol,
            max_subdivisions=settings.max_subdivisions,
        )
        total += value
        err += e
        evals += n
        idle = idle + 1 if abs(value) < settings.abs_tol else 0
        if idle >= _IDLE_STRIPS:
            u_stop = b
            break
        a = b
    return total, err, evals, u_stop


def gil_pelaez_price(
    model: StableModel, spec: OptionSpec, q: QuadratureSettings | None = None
) -> PricingResult:
    """Price by inversion of the characteristic function.

    Diagnostics carry both exercise probabilities; values outside [0, 1] by
    more than the quadrature slack raise :class:`QuadratureError`.
    """
    q = q or QuadratureSettings()
    lfwd = log_moneyness(spec)
    mu, tau, alpha = model.mu, spec.tau, model.alpha

    def integrand_p2(u: np.ndarray) -> np.ndarray:
        w = np.exp(1j * u * lfwd) * _char_fn_vec(u, mu, tau, alpha)
        return w.imag / u

    def integrand_p1(u: np.ndarray) -> np.ndarray:
        w = np.exp(1j * u * lfwd) * _char_fn_vec(u - 1j, mu, tau, alpha)
        return w.imag / u

    i1, err1, n1, ustop1 = _integrate_half_line(integrand_p1, q)
    i2, err2, n2, ustop2 = _integrate_half_line(integrand_p2, q)
    p1 = 0.5 + i1 / math.pi
    p2 = 0.5 + i2 / math.pi
    for name, p in (("P1", p1), ("P2", p2)):
        if not (-_PROB_SLACK <= p <= 1.0 + _PROB_SLACK):
            raise QuadratureError(
                f"exercise probability {name}={p!r} outside [0, 1]"
            )
    p1c = min(max(p1, 0.0), 1.0)
    p2c = min(max(p2, 0.0), 1.0)

    discounted_strike = spec.strike * math.exp(-spec.rate * spec.tau)
    raw = spec.spot * p1c - discounted_strike * p2c
    diagnostics: dict[str, object] = {
        "p1": p1,
        "p2": p2,
        "u_stop_p1": ustop1,
        "u_stop_p2": ustop2,
    }
    price = raw
    if price < 0.0:
        diagnostics["negative_price_floored"] = True
        price = 0.0
    return PricingResult(
        price=price,
        engine="gil_pelaez",
        terms_used=n1 + n2,
        error_estimate=(spec.spot * err1 + discounted_strike * err2) / math.pi,
        diagnostics=diagnostics,
    )
