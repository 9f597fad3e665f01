"""Fourier-inversion pricer built on the log-stable characteristic function.

The characteristic function of the de-meaned log return X over horizon tau
is phi(u) = exp(mu*tau*(iu - (iu)^alpha)), principal branch for the complex
power.  The call decomposes into two exercise probabilities obtained by
inverting phi on the half line:

    price = S*P1 - K e^{-r tau}*P2
    P1 = 1/2 + (1/pi) * int_0^inf Re[e^{iuL} phi(u-i) / (iu)] du
    P2 = 1/2 + (1/pi) * int_0^inf Re[e^{iuL} phi(u)   / (iu)] du

with L the log-forward-moneyness.  Both integrands have a removable 1/u
singularity at zero and a u^(alpha-1) kink there.  Each integrand is
e^{Re z} sin(Im z + uL)/u, so e^{Re z}/u bounds its modulus, and Re z falls
in u.  Both integrals stop at one cut u_cut: the first multiple of 5 past
which that bound stays under ``_CUT_TOL`` for both, at most ``_U_CAP``.
The strips [0, 5], [5, 10], ... up to u_cut all go into one call of the
batched Gauss-Kronrod rule, one integrand evaluation per refinement level
(diagnostics ``levels`` and ``panels``).  Strip 0 starts at u = 1e-10,
takes in the sliver [0, 1e-10] and is graded toward 0 by 16 halvings.
What lies past the cut is bounded in closed form (``tail_bound``) and added
to the error estimate.
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
_U_CAP = 200.0  # largest cut; contracts that decay slower carry a large tail bound
_STRIP_WIDTH = 5.0
_CUT_TOL = 1e-14  # modulus bound of both integrands past the cut
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


def _exponents(u1, u2, mu_tau: float, alpha: float):
    """(Re z1, Im z1, Re z2, Im z2) of z = mu*tau*(w - w^alpha), with
    w = 1 + iu at u1 for P1 and w = iu at u2 for P2."""
    # P1: w^alpha = (1 + u^2)^(alpha/2) e^{i alpha atan u}.
    modulus, angle = (1.0 + u1 * u1) ** (0.5 * alpha), alpha * np.arctan(u1)
    # P2: w^alpha = u^alpha e^{i pi alpha / 2}.
    power = u2**alpha
    return (
        mu_tau * (1.0 - modulus * np.cos(angle)),
        mu_tau * (u1 - modulus * np.sin(angle)),
        -mu_tau * math.cos(0.5 * math.pi * alpha) * power,
        mu_tau * (u2 - math.sin(0.5 * math.pi * alpha) * power),
    )


def _decay(u: float, mu_tau: float, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Re z of P1 and P2 at u, and each one's slope s = -u (d/du Re z) / alpha.

    -(d/du Re z) / u^(alpha-1) is constant for P2 and, for P1,
    -mu*tau*alpha*Im[(1/u + i)^(alpha-1)], nondecreasing in u.  So for
    v >= u, Re z(v) <= Re z(u) - s*((v/u)^alpha - 1).
    """
    re1, _, re2, _ = _exponents(u, u, mu_tau, alpha)
    s1 = -u * mu_tau * (1.0 + u * u) ** (0.5 * (alpha - 1.0)) * math.sin((alpha - 1.0) * math.atan(u))
    return np.array([re1, re2]), np.array([s1, -re2])


def _cut(mu_tau: float, alpha: float) -> float:
    """The strip end past which e^{Re z}/u of both integrands stays under
    ``_CUT_TOL`` (the first one, up to the overshoot of one Newton step for
    P1), at most ``_U_CAP``."""
    log_tol = math.log(_CUT_TOL)
    # P2: Re z = -mu*tau*cos(pi*alpha/2)*u^alpha reaches log_tol at u2, and
    # 1/u < 1 past the first strip.
    u = max((-log_tol / (mu_tau * math.cos(0.5 * math.pi * alpha))) ** (1.0 / alpha), _STRIP_WIDTH)
    if u < _U_CAP:
        # P1 decays more slowly.  g = Re z - log u - log_tol is concave in
        # log u, so one Newton step there from g > 0 lands where g <= 0.
        re, s = _decay(u, mu_tau, alpha)
        g = re[0] - math.log(u) - log_tol
        if g > 0.0:
            u *= math.exp(g / (alpha * s[0] + 1.0))
    return _STRIP_WIDTH * math.ceil(min(u, _U_CAP) / _STRIP_WIDTH)


def gil_pelaez_price(model: StableModel, spec: OptionSpec) -> PricingResult:
    """Price by inversion of the characteristic function.

    Both integrals stop at the cut ``u_cut`` (diagnostics), at most 200.
    The error estimate is the Gauss-Kronrod error plus ``tail_bound``, a
    bound of what the integrals hold past the cut: by :func:`_decay`, with
    s its slope at the cut, int_cut^inf e^{Re z}/u du <= e^{Re z(cut)}
    e^s E1(s) / alpha <= e^{Re z(cut)} log(1 + 1/s) / alpha for each
    probability.  Diagnostics carry both exercise probabilities; values
    outside [0, 1] by more than the quadrature slack raise
    :class:`QuadratureError`.  ``levels`` counts the integrand calls and
    ``panels`` the Gauss-Kronrod panels evaluated; ``terms_used`` is the
    number of integrand evaluations.
    """
    lfwd = log_moneyness(spec)
    mu_tau, alpha = model.mu * spec.tau, model.alpha
    u_cut = _cut(mu_tau, alpha)
    strips = round(u_cut / _STRIP_WIDTH)
    ends = _STRIP_WIDTH * np.arange(1.0, strips + 1.0)
    # Strip 0: the sliver [0, _U_START], then panels graded toward u = 0.
    graded = _U_START + (_STRIP_WIDTH - _U_START) * _GRADED
    a = np.concatenate(([0.0, _U_START], graded, ends[:-1]))
    b = np.concatenate(([_U_START], graded, ends))
    strip_of = np.maximum(np.arange(a.size) - _GRADED.size - 1, 0)
    # P1 owns intervals 0 .. strips-1 and P2 the next strips; P1 rows come first.
    levels = 0

    def integrand(u: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """Im[e^{iuL} phi(u - shift)] / u = e^{Re z} sin(Im z + uL) / u,
        shift 1j for P1 and 0 for P2."""
        nonlocal levels
        levels += 1
        p2 = int(np.searchsorted(owner, strips))
        re, im = np.empty(u.shape), np.empty(u.shape)
        re[:p2], im[:p2], re[p2:], im[p2:] = _exponents(u[:p2], u[p2:], mu_tau, alpha)
        return np.exp(re) * np.sin(im + lfwd * u) / u

    values, errors, evals = adaptive_gauss_kronrod(
        integrand, np.concatenate((a, a)), np.concatenate((b, b)),
        np.concatenate((strip_of, strip_of + strips)),
        rel_tol=_REL_TOL, abs_tol=_ABS_TOL, max_subdivisions=_MAX_SUBDIVISIONS,
    )
    i1, i2 = values.reshape(2, strips).sum(axis=1).tolist()
    err1, err2 = errors.reshape(2, strips).sum(axis=1).tolist()
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
    re, s = _decay(u_cut, mu_tau, alpha)
    tail1, tail2 = (np.exp(re) * np.log1p(1.0 / s) / alpha).tolist()
    tail_bound = (spec.spot * tail1 + discounted_strike * tail2) / math.pi
    diagnostics: dict[str, object] = {
        "p1": p1,
        "p2": p2,
        "u_cut": u_cut,
        "tail_bound": tail_bound,
        "levels": levels,
        "panels": evals // 15,
    }
    price = spec.spot * p1c - discounted_strike * p2c
    if price < 0.0:
        diagnostics["negative_price_floored"] = True
        price = 0.0
    return PricingResult(
        price=price,
        engine="gil_pelaez",
        terms_used=evals,
        error_estimate=(spec.spot * err1 + discounted_strike * err2) / math.pi + tail_bound,
        diagnostics=diagnostics,
    )
