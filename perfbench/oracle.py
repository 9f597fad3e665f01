"""Reference call prices that share no code with any fmls engine.

Gil-Pelaez (1951) inversion of the FMLS characteristic function of Carr & Wu
(2003), phi(u) = exp(mu*tau*(iu - (iu)^alpha)), integrated with scipy's
QUADPACK.  In the scaled variable v = u*s, s = (-mu*tau)^(1/alpha), the two
exercise probabilities read

    P = 1/2 + (1/pi) * int_0^V Im[e^{i*w*v} g(v)] / v dv,   w = (L + mu*tau)/s

with g(v) = exp((iv)^alpha) for P2 and g(v) = exp((s+iv)^alpha - s^alpha)
for P1, and V the first point where both |g| < e^-80.  The oscillation
e^{i*w*v} goes into QUADPACK's QAWO sine/cosine weights.  The removable 1/v
singularity is split off as the sine integral Si(w*V), so the weighted
integrands stay bounded at v = 0.
"""

from __future__ import annotations

import cmath
import math
import warnings

from scipy import integrate, special

_LOG_CUTOFF = -80.0
_EPS_ABS = 1e-12
_EPS_REL = 1e-11
_LIMIT = 1000
# Largest QUADPACK error estimate accepted for one integral.  It bounds the
# price error by about spot * 1e-8, far below the 1e-6*K failure slack.
_MAX_ABS_ERR = 1e-8


class OracleError(RuntimeError):
    """QUADPACK's error estimate is too large to trust the reference price."""


def _quad(f, v_max: float, **weight) -> float:
    # QUADPACK warns when roundoff stops it short of the requested tolerance;
    # the error estimate it returns is checked instead.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, abserr = integrate.quad(
            f, 0.0, v_max, epsabs=_EPS_ABS, epsrel=_EPS_REL, limit=_LIMIT, **weight
        )[:2]
    if not abserr <= _MAX_ABS_ERR:
        raise OracleError(f"QUADPACK error estimate {abserr:.3e} above {_MAX_ABS_ERR:.0e}")
    return value


def _exercise_probability(log_g, w: float, v_max: float) -> float:
    # Both parts tend to 0 as v -> 0 because g(0) = 1.
    def re_part(v: float) -> float:
        return (cmath.exp(log_g(v)).real - 1.0) / v if v > 0.0 else 0.0

    def im_part(v: float) -> float:
        return cmath.exp(log_g(v)).imag / v if v > 0.0 else 0.0

    if w == 0.0:
        total = _quad(im_part, v_max)
    else:
        total = (
            _quad(re_part, v_max, weight="sin", wvar=w)
            + _quad(im_part, v_max, weight="cos", wvar=w)
            + special.sici(w * v_max)[0]
        )
    return 0.5 + total / math.pi


def call_price(
    spot: float, strike: float, rate: float, sigma: float, tau: float, alpha: float
) -> float:
    """Discounted European call price under FMLS with Gaussian-equivalent sigma.

    Raises :class:`OracleError` when QUADPACK cannot vouch for the result.
    """
    mu_tau = (sigma / math.sqrt(2.0)) ** alpha / math.cos(math.pi * alpha / 2.0) * tau
    s = (-mu_tau) ** (1.0 / alpha)
    w = (math.log(spot / strike) + rate * tau + mu_tau) / s
    s_alpha = s**alpha

    def log_g2(v: float) -> complex:
        return (1j * v) ** alpha

    def log_g1(v: float) -> complex:
        return (s + 1j * v) ** alpha - s_alpha

    # Re (iv)^alpha = v^alpha cos(pi*alpha/2) < 0 fixes V for P2; P1 decays
    # a little later, so widen until both integrands are below the cutoff.
    v_max = (_LOG_CUTOFF / math.cos(math.pi * alpha / 2.0)) ** (1.0 / alpha)
    while log_g1(v_max).real > _LOG_CUTOFF or log_g2(v_max).real > _LOG_CUTOFF:
        v_max *= 1.25
    try:
        p1 = _exercise_probability(log_g1, w, v_max)
        p2 = _exercise_probability(log_g2, w, v_max)
    except OracleError as exc:
        raise OracleError(
            f"{exc} at S={spot!r} K={strike!r} sigma={sigma!r} tau={tau!r} alpha={alpha!r}"
        ) from None
    return float(spot * p1 - strike * math.exp(-rate * tau) * p2)
