"""Fourier-inversion pricer built on the log-stable characteristic function.

The characteristic function of the de-meaned log return X over horizon tau
is phi(u) = exp(mu*tau*(iu - (iu)^alpha)), principal branch for the complex
power.  The call is the damped transform of Carr & Madan (1999), inverted
on the half line:

    price = S e^{-ak}/pi * int_0^inf Re[e^{-iuk} phi(u - (a+1)i) / ((a+iu)(a+1+iu))] du

with k = log(K/F).  The law is maximally negatively skewed, so it has every
positive exponential moment and any damping a > 0 is admissible; a is
Lord & Kahl's (2007), the minimum of the log-integrand at u = 0, at most
``_MAX_DAMPING``.  Gil-Pelaez inversion is the undamped limit a -> 0, which
takes a 1/u pole at u = 0 as the 1/2 of each exercise probability; the
damped integrand is analytic on the real line.

With w = a + 1 + iu, phi(u - (a+1)i) = e^z, z = mu*tau*(w - w^alpha).  Re z
does not increase in u and the denominator's modulus is at least u^2, so
the integral past u is at most e^{Re z(u) - ak}/u.  The integral stops at
the first strip end (multiples of 5) where that bound is under
``_CUT_TOL``, at most ``_U_CAP``; [0, u_cut] goes into one call of the
adaptive Gauss-Kronrod rule, ``adaptive_gauss_kronrod``, whose tolerances
and panel budget are this module's constants: one integrand evaluation per
refinement level (diagnostics ``levels`` and ``panels``), and the bound at
the cut (``tail_bound``) is added to the error estimate.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .errors import QuadratureError
from .model import OptionSpec, PricingResult, StableModel, log_moneyness

__all__ = ["gil_pelaez_price"]

# Largest damping: past it the exponent's terms cancel and lose the price.
_MAX_DAMPING = 50.0
_BISECTIONS = 30
_STRIP_WIDTH = 5.0
_U_CAP = 200.0  # largest cut; contracts that decay slower carry a large tail bound
_CUT_TOL = 1e-14  # bound of the integral past the cut, in units of S/pi
# Strip 0's inner panel edges, in shares of its width.
_STRIP0_EDGES = (0.2, 0.5)
# Gauss-Kronrod tolerances and panel budget of the whole integral.
_REL_TOL = 1e-9
_ABS_TOL = 1e-10
_MAX_SUBDIVISIONS = 200

# 15-point Kronrod abscissae and weights with the embedded 7-point Gauss
# rule (standard QUADPACK values), from x = 0 out to x = 1; the rule on
# [-1, 1] mirrors them.  The Gauss nodes are the odd-indexed Kronrod nodes.
_X_HALF = [
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
]
_WGK_HALF = [
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
]
_WG_HALF = [
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
]
_XGK = np.array([-x for x in _X_HALF[:0:-1]] + _X_HALF)
_WGK = np.array(_WGK_HALF[:0:-1] + _WGK_HALF)
_WG = np.array(_WG_HALF[:0:-1] + _WG_HALF)


def _damping(k: float, mu_tau: float, alpha: float) -> float:
    """Lord & Kahl's a: the root of the derivative of the convex
    -ak + mu*tau*((1+a) - (1+a)^alpha) - log(a(a+1)), by bisection on
    (0, ``_MAX_DAMPING``]."""
    lo, hi = 0.0, _MAX_DAMPING
    for _ in range(_BISECTIONS):
        a = 0.5 * (lo + hi)
        slope = -k + mu_tau * (1.0 - alpha * (1.0 + a) ** (alpha - 1.0)) - 1.0 / a - 1.0 / (1.0 + a)
        lo, hi = (a, hi) if slope < 0.0 else (lo, a)
    return hi


def _exponent(u, a: float, k: float, mu_tau: float, alpha: float):
    """(Re z - ak, Im z - uk) of z = mu*tau*(w - w^alpha), w = a + 1 + iu."""
    # w^alpha = |w|^alpha e^{i alpha arg w}.
    modulus, angle = ((a + 1.0) ** 2 + u * u) ** (0.5 * alpha), alpha * np.arctan2(u, a + 1.0)
    return (
        mu_tau * (a + 1.0 - modulus * np.cos(angle)) - a * k,
        mu_tau * (u - modulus * np.sin(angle)) - u * k,
    )


def adaptive_gauss_kronrod(
    f: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray
) -> tuple[float, float, int]:
    """Integrate ``f`` over the union of the panels [a[k], b[k]]; returns
    (value, error, evaluations).

    A 7/15 Gauss-Kronrod pair on panels, refined in levels.  Each level
    calls ``f(x)`` once: row k of ``x`` holds the 15 Kronrod nodes of a new
    panel, and ``f`` returns an array shaped like ``x``, so the call count
    is the number of levels, not of panels.  The tolerance applies to the
    whole integral: it is done once its panel errors sum to at most
    ``max(_ABS_TOL, _REL_TOL * |value|)``; until then each level bisects the
    worst panels, worst first, until the panels left whole carry no more
    error than that, spending at most ``_MAX_SUBDIVISIONS`` bisections in
    all.  Raises :class:`QuadratureError` if it runs out of them, or must
    split a panel too narrow to halve.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if not np.all(b > a):
        raise ValueError("every panel needs b > a")
    budget, evals = _MAX_SUBDIVISIONS, 0
    # Rows (a, b, Kronrod value, error) of the panels evaluated and kept whole.
    panels = np.empty((0, 4))
    while True:
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        fx = np.asarray(f(mid[:, None] + half[:, None] * _XGK), dtype=float)
        evals += fx.size
        kronrod = half * (fx @ _WGK)
        error = np.abs(kronrod - half * (fx[:, 1::2] @ _WG))
        panels = np.concatenate([panels, np.column_stack((a, b, kronrod, error))])
        value, total_err = float(panels[:, 2].sum()), float(panels[:, 3].sum())
        tol = max(_ABS_TOL, _REL_TOL * abs(value))
        if total_err <= tol:
            return value, total_err, evals
        # Worst first: split each panel while those left whole carry more
        # error than the tolerance.
        panels = panels[np.argsort(-panels[:, 3])]
        whole = total_err - (np.cumsum(panels[:, 3]) - panels[:, 3])
        split = (whole > tol) & (np.arange(len(panels)) < budget)
        if not split[0]:
            raise QuadratureError(
                f"quadrature did not converge within {_MAX_SUBDIVISIONS} "
                f"subdivisions (error {total_err:.3e})"
            )
        pa, pb = panels[split, 0], panels[split, 1]
        if np.any(pb - pa < 1e-14 * (np.abs(pa) + np.abs(pb) + 1.0)):
            raise QuadratureError("a panel is too small to subdivide further")
        budget -= pa.size
        a, b = np.repeat(pa, 2), np.repeat(pb, 2)
        a[1::2] = b[::2] = 0.5 * (pa + pb)
        panels = panels[~split]


def gil_pelaez_price(model: StableModel, spec: OptionSpec) -> PricingResult:
    """Price by damped inversion of the characteristic function.

    The integral stops at the cut ``u_cut`` (diagnostics), at most 200.  The
    error estimate is the Gauss-Kronrod error plus ``tail_bound``,
    S e^{Re z(u_cut) - ak}/(pi u_cut), a bound of what the integral holds
    past the cut.  ``damping`` is a; ``levels`` counts the integrand calls
    and ``panels`` the Gauss-Kronrod panels evaluated; ``terms_used`` is the
    number of integrand evaluations.
    """
    k = -log_moneyness(spec)
    mu_tau, alpha = model.mu * spec.tau, model.alpha
    a = _damping(k, mu_tau, alpha)
    ends = _STRIP_WIDTH * np.arange(1.0, _U_CAP / _STRIP_WIDTH + 1.0)
    tails = np.exp(_exponent(ends, a, k, mu_tau, alpha)[0]) / ends  # falls in u
    strips = min(int(np.count_nonzero(tails > _CUT_TOL)) + 1, ends.size)
    u_cut = float(ends[strips - 1])
    edges = np.concatenate(([0.0], _STRIP_WIDTH * np.array(_STRIP0_EDGES), ends[:strips]))
    levels = 0

    def integrand(u: np.ndarray) -> np.ndarray:
        """Re[e^{i(Im z - uk)} / d] e^{Re z - ak}, d = (a + iu)(a + 1 + iu)."""
        nonlocal levels
        levels += 1
        re, im = _exponent(u, a, k, mu_tau, alpha)
        d_re, d_im = a * (a + 1.0) - u * u, (2.0 * a + 1.0) * u
        return np.exp(re) * (np.cos(im) * d_re + np.sin(im) * d_im) / (d_re * d_re + d_im * d_im)

    value, error, evals = adaptive_gauss_kronrod(integrand, edges[:-1], edges[1:])
    scale = spec.spot / math.pi
    tail_bound = scale * float(tails[strips - 1])
    diagnostics: dict[str, object] = {
        "damping": a,
        "u_cut": u_cut,
        "tail_bound": tail_bound,
        "levels": levels,
        "panels": evals // 15,
    }
    price = scale * value
    if price < 0.0:
        diagnostics["negative_price_floored"] = True
        price = 0.0
    return PricingResult(
        price=price,
        engine="gil_pelaez",
        terms_used=evals,
        error_estimate=scale * error + tail_bound,
        diagnostics=diagnostics,
    )
