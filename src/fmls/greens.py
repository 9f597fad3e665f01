"""Stable density from vertical-line (Mellin-Barnes) quadrature, and the
convolution pricing engine built on top of it.

The scaled log-return density g(X) is an integral of a Gamma-function ratio
along the contour t = c1 + i*y, 0 < c1 < 1, with different ratios for the
two signs of X:

    X > 0:  Gamma(1-t) / Gamma(1 - t/alpha)
    X < 0:  Gamma(t/alpha) Gamma(1-t) / (Gamma(rho*t) Gamma(1 - rho*t)),
            rho = (alpha-1)/alpha, evaluated at |X|

Both integrands decay exponentially in |y|, so a trapezoid rule along the
line converges geometrically.  The step is halved until the result settles,
by nested refinement: each halving evaluates the ratio only at the new odd
nodes and reuses the previous level's sum, so every contour node is
evaluated once.  The oscillatory sum is taken in real arithmetic (cosine and
sine against the real and imaginary parts of the ratio).
Gamma ratios are assembled in log space (direct products overflow for
moderate |y|).  The same machinery exposes the classical identity
exp(-x) = integral of Gamma(s) x^{-s} along Re(s) = c as a self-test.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import QuadratureError
from .model import OptionSpec, PricingResult, StableModel
from .special_functions import _loggamma_vec, reciprocal_gamma

__all__ = [
    "MellinLineSettings",
    "DensityGrid",
    "BoundaryMassWarning",
    "stable_density",
    "stable_density_values",
    "cahen_mellin_exp",
    "build_density_grid",
    "discretized_price",
]

_H_START = 0.25
_STEP_TOL = 1e-11
_MAX_HALVINGS = 10
_RATIO_CUTOFF = 1e-18  # drop the contour tail once the ratio is this small
_TAIL_TOL = 1e-12  # ratio magnitude still allowed at y_max
_NEGATIVITY_TOL = -1e-8
_CHUNK = 512

# Defaults of the convolution pricer: half-width 11 scale units, 140
# intervals, density renormalized to unit mass on the truncated grid.
_PRICE_HALF_WIDTH = 11.0
_PRICE_POINTS = 141
# Default bounds for exported density grids: +/- 12 scale units.
_GRID_HALF_WIDTH = 12.0


class BoundaryMassWarning(UserWarning):
    """The density grid still carries visible mass at its boundary."""


@dataclass(frozen=True)
class MellinLineSettings:
    """Contour abscissa and truncation of the vertical-line trapezoid.

    The trapezoid halves its step from 0.25 until the result moves by less
    than 1e-11 (or than its roundoff floor), evaluating at each halving only
    the new odd nodes; the 0.25 level reuses the decay probe's values.
    """

    c1: float = 0.5
    y_max: float = 400.0

    def __post_init__(self) -> None:
        if not (0.0 < self.c1 < 1.0):
            raise ValueError(f"c1 must lie in (0, 1), got {self.c1!r}")
        if not (self.y_max > 0.0 and math.isfinite(self.y_max)):
            raise ValueError(f"y_max must be positive and finite, got {self.y_max!r}")


def _line_ratio(ys: np.ndarray, alpha: float, c1: float, negative: bool) -> np.ndarray:
    """Gamma ratio on the contour t = c1 + i*ys, via log-Gamma differences."""
    t = c1 + 1j * ys
    if negative:
        rho = (alpha - 1.0) / alpha
        lg = (
            _loggamma_vec(t / alpha)
            + _loggamma_vec(1.0 - t)
            - _loggamma_vec(rho * t)
            - _loggamma_vec(1.0 - rho * t)
        )
    else:
        lg = _loggamma_vec(1.0 - t) - _loggamma_vec(1.0 - t / alpha)
    return np.exp(lg)


def _phase_sum(log_x: np.ndarray, ys: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Re sum_k coeffs_k * e^{i*ys_k*log_x} for each entry of ``log_x``.

    Summed in real arithmetic, cos(phase) @ Re(coeffs) - sin(phase) @
    Im(coeffs), which needs no complex exponential and keeps every
    temporary matrix real.
    """
    re = np.ascontiguousarray(coeffs.real)
    im = np.ascontiguousarray(coeffs.imag)
    out = np.empty(log_x.size)
    for lo in range(0, log_x.size, _CHUNK):
        hi = min(lo + _CHUNK, log_x.size)
        phase = np.outer(log_x[lo:hi], ys)
        out[lo:hi] = np.cos(phase) @ re - np.sin(phase, out=phase) @ im
    return out


def _half_line_transform(
    log_x: np.ndarray,
    ratio_fn,
    settings: MellinLineSettings,
    prefactor: np.ndarray | float,
) -> np.ndarray:
    """Evaluate prefactor * int_0^inf Re[ratio(y) * e^{i*y*log_x}] dy for a
    vector of log_x, by nested trapezoid refinement along the contour.

    ``ratio_fn(ys)`` must return the contour integrand without the x-power;
    conjugate symmetry of the full line is already folded in (the factor 2
    and 1/(2*pi) belong to ``prefactor``).  ``prefactor`` may vary per point
    and is applied before the convergence check, so the step tolerance is in
    final (output) units.

    A probe at step 0.25 out to ``y_max`` finds where the ratio drops below
    the cutoff; its nodes up to there are the first trapezoid level.  Each
    halving evaluates ``ratio_fn`` only at the new odd nodes and updates
    T(h/2) = T(h)/2 + (h/2) * sum over the odd nodes, so every contour node
    is evaluated once.
    """
    # Probe the decay on a coarse grid to find the effective truncation.
    probe = np.arange(0.0, settings.y_max + _H_START, _H_START)
    ratio_probe = ratio_fn(probe)
    mags = np.abs(ratio_probe)
    if mags[-1] > _TAIL_TOL:
        raise QuadratureError(
            f"contour integrand still {mags[-1]:.3e} at y_max={settings.y_max!r}; "
            "increase y_max"
        )
    big = np.nonzero(mags >= _RATIO_CUTOFF)[0]
    n = int(big[-1]) + 1 if big.size else 1  # intervals of width _H_START
    y_eff = n * _H_START

    h = _H_START
    weighted = h * ratio_probe[: n + 1]
    if weighted.size <= n:  # the cutoff lies past the probe's last node
        weighted = np.append(weighted, h * ratio_fn(np.array([y_eff])))
    weighted[0] *= 0.5
    weighted[-1] *= 0.5
    total = _phase_sum(log_x, h * np.arange(n + 1), weighted)
    # Trapezoid sum of |ratio|: the roundoff floor of the (possibly
    # amplified) sum; convergence below it cannot be demanded.
    abs_total = float(np.sum(np.abs(weighted)))
    current = prefactor * total
    for _ in range(_MAX_HALVINGS):
        h *= 0.5
        ys = h * np.arange(1, 2 * n, 2)
        ratio = ratio_fn(ys)
        total = 0.5 * total + h * _phase_sum(log_x, ys, ratio)
        abs_total = 0.5 * abs_total + h * float(np.sum(np.abs(ratio)))
        n *= 2
        refined = prefactor * total
        noise = np.abs(prefactor) * abs_total * 1e-16
        if np.all(np.abs(refined - current) < np.maximum(_STEP_TOL, 8.0 * noise)):
            return refined
        current = refined
    raise QuadratureError(
        f"contour trapezoid did not settle below {_STEP_TOL:.0e} "
        f"after {_MAX_HALVINGS} halvings"
    )


def stable_density_values(
    x: np.ndarray, alpha: float, settings: MellinLineSettings | None = None
) -> np.ndarray:
    """Vectorized density of the scaled log return at the points ``x``.

    X = 0 entries take the limit of the X > 0 branch, which the residue
    expansion gives in closed form: g(0) = (1/alpha) / Gamma(1 - 1/alpha)
    (equal to 1/(2 sqrt(pi)) in the Gaussian case).
    """
    settings = settings or MellinLineSettings()
    if not (1.0 < alpha <= 2.0):
        raise ValueError(f"alpha must lie in (1, 2], got {alpha!r}")
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty(flat.size)
    # Points this close to zero take the limit value; the density is smooth
    # there, while the contour integrand's oscillation diverges like log|X|.
    near_zero = np.abs(flat) <= 1e-8
    out[near_zero] = reciprocal_gamma(1.0 - 1.0 / alpha) / alpha
    c1 = settings.c1
    for negative in (False, True):
        mask = ((flat < 0.0) if negative else (flat > 0.0)) & ~near_zero
        if not np.any(mask):
            continue
        ax = np.abs(flat[mask])
        log_ax = np.log(ax)
        # The x-power X^{t-1} carries the real factor |X|^{c1-1}.
        out[mask] = _half_line_transform(
            log_ax,
            lambda ys: _line_ratio(ys, alpha, c1, negative),
            settings,
            prefactor=ax ** (c1 - 1.0) / (alpha * math.pi),
        )
    bad = out < _NEGATIVITY_TOL
    if np.any(bad):
        worst = float(out[bad].min())
        raise QuadratureError(f"density came out negative ({worst:.3e})")
    return out.reshape(x.shape) if x.shape else out[0]


def stable_density(
    x: float, alpha: float, settings: MellinLineSettings | None = None
) -> float:
    """Density of the scaled log return at a single point."""
    return float(stable_density_values(np.array([float(x)]), alpha, settings)[0])


def cahen_mellin_exp(
    x: float, c: float, settings: MellinLineSettings | None = None
) -> float:
    """exp(-x) recovered from the contour integral of Gamma(s) x^{-s}.

    Exists purely as a soundness check of the vertical-line quadrature:
    any c > 0 must give the same answer.  Raises ``ValueError`` when c <= 0
    (outside the strip where the transform converges).
    """
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError(f"x must be positive and finite, got {x!r}")
    if not (c > 0.0 and math.isfinite(c)):
        raise ValueError(f"c must be positive and finite, got {c!r}")
    line = MellinLineSettings() if settings is None else settings
    # Reuse the transform with ratio Gamma(c + i*y) and phase e^{-i*y*log x};
    # the contour abscissa is c itself, not the density's c1.
    val = _half_line_transform(
        np.array([-math.log(x)]),
        lambda ys: np.exp(_loggamma_vec(c + 1j * ys)),
        line,
        prefactor=x**-c / math.pi,
    )[0]
    return float(val)


@dataclass(frozen=True)
class DensityGrid:
    """Uniform samples of the log-return density used by the convolution sum."""

    y_min: float
    y_max: float
    n_points: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.n_points < 3:
            raise ValueError(f"n_points must be >= 3, got {self.n_points}")
        if not (self.y_max > self.y_min):
            raise ValueError("need y_max > y_min")
        if len(self.values) != self.n_points:
            raise ValueError("values length must equal n_points")
        if float(np.min(self.values)) < _NEGATIVITY_TOL:
            raise ValueError(
                f"grid density negative beyond tolerance: {float(np.min(self.values)):.3e}"
            )

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.n_points)

    @property
    def step(self) -> float:
        return (self.y_max - self.y_min) / (self.n_points - 1)

    def mass(self) -> float:
        """Trapezoid integral of the sampled density."""
        return float(np.trapezoid(self.values, dx=self.step))


# Edge density (per unit of y/scale) above which the grid is considered to
# leak mass; sits between the heavy-tailed alpha <= 1.5 edge levels (which
# must warn on default bounds) and alpha >= 1.7 (which must not).
DEFAULT_BOUNDARY_TOL = 7.5e-4


def build_density_grid(
    alpha: float,
    mu: float,
    tau: float,
    y_min: float | None = None,
    y_max: float | None = None,
    n_points: int = 4001,
    settings: MellinLineSettings | None = None,
    boundary_tol: float = DEFAULT_BOUNDARY_TOL,
) -> DensityGrid:
    """Sample (1/scale) * g(y/scale) on a uniform y grid, scale = (-mu*tau)^(1/alpha).

    Default bounds are +/- 12 scale units.  A :class:`BoundaryMassWarning`
    is emitted when the *scaled* density at either edge exceeds
    ``boundary_tol`` (heavy left tails at low alpha).  The values are not
    renormalized; :func:`default_pricing_grid` rescales its grid to unit
    mass.
    """
    if not (mu < 0.0 and tau > 0.0):
        raise ValueError("need mu < 0 and tau > 0")
    scale = (-mu * tau) ** (1.0 / alpha)
    if y_min is None:
        y_min = -_GRID_HALF_WIDTH * scale
    if y_max is None:
        y_max = _GRID_HALF_WIDTH * scale
    if not (y_max > y_min):
        raise ValueError("need y_max > y_min")
    ys = np.linspace(y_min, y_max, n_points)
    values = stable_density_values(ys / scale, alpha, settings) / scale
    edge = max(values[0] * scale, values[-1] * scale)  # in scaled-variable units
    if edge > boundary_tol:
        warnings.warn(
            f"density at the grid edge is {edge:.3e} (> {boundary_tol:.1e}); "
            "extend the grid to capture the tail mass",
            BoundaryMassWarning,
            stacklevel=2,
        )
    return DensityGrid(y_min=float(y_min), y_max=float(y_max), n_points=n_points, values=values)


def default_pricing_grid(
    model: StableModel,
    spec: OptionSpec,
    refine: int = 0,
    settings: MellinLineSettings | None = None,
) -> DensityGrid:
    """Grid the convolution pricer uses when none is supplied.

    ``refine`` widens the grid by 6 scale units and quadruples the interval
    count per level, re-widening (up to three times) while the scaled edge
    density exceeds ``DEFAULT_BOUNDARY_TOL``; increasing levels drive the
    discrete sum toward the series price.  The grid is renormalized to unit
    mass and no :class:`BoundaryMassWarning` is emitted.
    """
    if refine < 0:
        raise ValueError(f"refine must be >= 0, got {refine!r}")
    half_width = _PRICE_HALF_WIDTH + 6.0 * refine
    n_points = (_PRICE_POINTS - 1) * 4**refine + 1
    scale = (-model.mu * spec.tau) ** (1.0 / model.alpha)
    for _ in range(4):
        grid = build_density_grid(
            model.alpha,
            model.mu,
            spec.tau,
            y_min=-half_width * scale,
            y_max=half_width * scale,
            n_points=n_points,
            settings=settings,
            boundary_tol=math.inf,
        )
        if max(grid.values[0], grid.values[-1]) * scale <= DEFAULT_BOUNDARY_TOL:
            break
        half_width *= 1.5
    return replace(grid, values=grid.values / grid.mass())


def discretized_price(
    model: StableModel,
    spec: OptionSpec,
    grid: DensityGrid | None = None,
) -> PricingResult:
    """Discounted trapezoid sum of payoff times sampled density."""
    if grid is None:
        grid = default_pricing_grid(model, spec)
    ys = grid.ys
    payoff = np.maximum(
        spec.spot * np.exp((spec.rate + model.mu) * spec.tau + ys) - spec.strike, 0.0
    )
    discount = math.exp(-spec.rate * spec.tau)
    price = discount * float(np.trapezoid(payoff * grid.values, dx=grid.step))
    mass = grid.mass()
    # Crude error gauge: kink-cell bias of the trapezoid plus leaked mass.
    kink_bias = discount * spec.strike * float(np.max(grid.values)) * grid.step**2 / 8.0
    err = kink_bias + abs(1.0 - mass) * price
    diagnostics: dict[str, object] = {"grid_mass": mass, "n_points": grid.n_points}
    if price < 0.0:
        diagnostics["negative_price_floored"] = True
        price = 0.0
    return PricingResult(
        price=price,
        engine="discretization",
        terms_used=grid.n_points,
        error_estimate=err,
        diagnostics=diagnostics,
    )
