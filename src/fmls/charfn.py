"""Fourier-inversion pricer built on the log-stable characteristic function.

The characteristic function of the de-meaned log return X over horizon tau
is phi(u) = exp(mu*tau*(iu - (iu)^alpha)), principal branch for the complex
power.  The call decomposes into two exercise probabilities obtained by
inverting phi on the half line:

    price = S*P1 - K e^{-r tau}*P2
    P1 = 1/2 + (1/pi) * int_0^inf Re[e^{iuL} phi(u-i) / (iu)] du
    P2 = 1/2 + (1/pi) * int_0^inf Re[e^{iuL} phi(u)   / (iu)] du

with L the log-forward-moneyness.  Both integrands have a removable 1/u
singularity at zero and a u^(alpha-1) kink there.  Each integral is cut
into strips of width 5 from u = 1e-10 and stops after the first run of
three strips each under ``_ABS_TOL``.  Strip 0 also takes in the sliver
[0, 1e-10] and is graded toward 0 by 16 halvings.  One call of the batched
Gauss-Kronrod rule integrates every strip of both integrals, one integrand
evaluation per refinement level (diagnostics ``levels`` and ``panels``).
Strips past a run are integrated too; their sum is not counted in the
price but added to the error estimate.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import QuadratureError
from .model import OptionSpec, PricingResult, StableModel, log_moneyness
from .quadrature import adaptive_gauss_kronrod

__all__ = ["char_fn", "gil_pelaez_price"]

_U_START = 1e-10
_U_MAX = 200.0  # truncation of both integrals when the caller sets none
_STRIP_WIDTH = 5.0
_IDLE_STRIPS = 3
_GRADED = 0.5 ** np.arange(16, 0, -1)  # strip 0's inner edges, in shares of its width
_PROB_SLACK = 1e-6
# Gauss-Kronrod tolerances and panel budget of each strip.
_REL_TOL = 1e-9
_ABS_TOL = 1e-10
_MAX_SUBDIVISIONS = 200


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


def gil_pelaez_price(
    model: StableModel, spec: OptionSpec, u_max: float | None = None
) -> PricingResult:
    """Price by inversion of the characteristic function.

    ``u_max`` truncates both integrals; ``None`` means 200.  Integration
    may stop earlier, once the strips stop contributing (diagnostics
    ``u_stop_p1`` and ``u_stop_p2``).  Diagnostics carry both exercise
    probabilities; values outside [0, 1] by more than the quadrature slack
    raise :class:`QuadratureError`.  ``levels`` counts the integrand calls
    and ``panels`` the Gauss-Kronrod panels evaluated; ``terms_used`` is the
    number of integrand evaluations.
    """
    u_max = _U_MAX if u_max is None else u_max
    if not (math.isfinite(u_max) and u_max > _U_START):
        raise ValueError(f"u_max must be finite and above {_U_START:g}, got {u_max!r}")
    lfwd = log_moneyness(spec)
    mu_tau, alpha = model.mu * spec.tau, model.alpha
    widths = np.full(int(u_max / _STRIP_WIDTH) + 2, _STRIP_WIDTH)
    widths[0] = _U_START  # strip k starts at the running sum of the widths
    starts = np.cumsum(widths)
    starts = starts[starts < u_max]
    ends, strips = np.minimum(starts + _STRIP_WIDTH, u_max), starts.size
    # Strip 0: the sliver [0, _U_START], then panels graded toward u = 0.
    graded = _U_START + (ends[0] - _U_START) * _GRADED
    a = np.concatenate(([0.0, _U_START], graded, starts[1:]))
    b = np.concatenate(([_U_START], graded, ends))
    strip_of = np.maximum(np.arange(a.size) - _GRADED.size - 1, 0)
    # P1 owns intervals 0 .. strips-1 and P2 the next strips; P1 rows come first.
    cos_a, sin_a = math.cos(0.5 * math.pi * alpha), math.sin(0.5 * math.pi * alpha)
    levels = 0

    def integrand(u: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """Im[e^{iuL} phi(u - shift)] / u, shift 1j for P1 and 0 for P2:
        e^{Re z} sin(Im z) / u, z = iuL + mu*tau*(w - w^alpha), w = i(u - shift)."""
        nonlocal levels
        levels += 1
        p2 = int(np.searchsorted(owner, strips))
        re, im = np.empty(u.shape), np.empty(u.shape)
        u1, u2 = u[:p2], u[p2:]
        # P1: w = 1 + iu, so w^alpha = (1 + u^2)^(alpha/2) e^{i alpha atan u}.
        modulus, angle = (1.0 + u1 * u1) ** (0.5 * alpha), alpha * np.arctan(u1)
        re[:p2] = mu_tau * (1.0 - modulus * np.cos(angle))
        im[:p2] = mu_tau * (u1 - modulus * np.sin(angle))
        # P2: w = iu with u real, so w^alpha = u^alpha e^{i pi alpha / 2}.
        power = u2**alpha
        re[p2:] = -mu_tau * cos_a * power
        im[p2:] = mu_tau * (u2 - sin_a * power)
        return np.exp(re) * np.sin(im + lfwd * u) / u

    values, errors, evals = adaptive_gauss_kronrod(
        integrand, np.concatenate((a, a)), np.concatenate((b, b)),
        np.concatenate((strip_of, strip_of + strips)),
        rel_tol=_REL_TOL, abs_tol=_ABS_TOL, max_subdivisions=_MAX_SUBDIVISIONS,
    )
    values, errors = values.reshape(2, strips), errors.reshape(2, strips)
    # Each integral stops after its first run of _IDLE_STRIPS strips each
    # under _ABS_TOL; what the strips past the run hold counts as error.
    idle = np.cumsum(np.abs(values) < _ABS_TOL, axis=1)
    idle[:, _IDLE_STRIPS:] -= idle[:, :-_IDLE_STRIPS].copy()  # among the last 3
    stopped = (idle == _IDLE_STRIPS).any(axis=1)
    used = np.where(stopped, np.argmax(idle == _IDLE_STRIPS, axis=1) + 1, strips)
    counted = np.arange(strips) < used[:, None]
    i1, i2 = (values * counted).sum(axis=1).tolist()
    tails = np.abs((values * ~counted).sum(axis=1))
    err1, err2 = ((errors * counted).sum(axis=1) + tails).tolist()
    u_stops = [float(ends[n - 1]) if hit else u_max for n, hit in zip(used, stopped)]
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
        "u_stop_p1": u_stops[0],
        "u_stop_p2": u_stops[1],
        "levels": levels,
        "panels": evals // 15,
    }
    price = raw
    if price < 0.0:
        diagnostics["negative_price_floored"] = True
        price = 0.0
    return PricingResult(
        price=price,
        engine="gil_pelaez",
        terms_used=evals,
        error_estimate=(spec.spot * err1 + discounted_strike * err2) / math.pi,
        diagnostics=diagnostics,
    )
