"""Stable density from vertical-line (Mellin-Barnes) quadrature, and the
convolution pricing engine built on top of it.

The scaled log-return density g(X) is an integral of a Gamma-function ratio
along the contour t = c1 + i*y, 0 < c1 < 1, with different ratios for the
two signs of X:

    X > 0:  Gamma(1-t) / Gamma(1 - t/alpha)
    X < 0:  Gamma(t/alpha) Gamma(1-t) / (Gamma(rho*t) Gamma(1 - rho*t)),
            rho = (alpha-1)/alpha, evaluated at |X|

By the reflection formula the X < 0 ratio is the X > 0 one times
sin(pi*rho*t) / sin(pi*t/alpha), which is how it is computed.

Both integrands decay exponentially in |y|, so a trapezoid rule along the
line converges geometrically.  A probe at step 0.25, walked outward in
blocks, finds where the ratio falls below 1e-18; the contour is truncated
there.  The step is then halved until the result settles, by nested
refinement: each halving evaluates the ratio only at the new odd nodes and
reuses the previous level's sum.  Within one density call both branches
share the log-Gamma difference of each node, so every contour node costs
one log-Gamma difference.  The oscillatory sum is taken in real arithmetic,
by angle addition over blocks of evenly spaced nodes: cosines and sines of
about 2*sqrt(N) phases per point instead of N.  Gamma ratios are assembled
in log space (direct products overflow for moderate |y|).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import QuadratureError
from .model import OptionSpec, PricingResult, StableModel
from .special_functions import _log_sinpi_vec, _loggamma_vec, reciprocal_gamma

__all__ = [
    "DensityGrid",
    "BoundaryMassWarning",
    "stable_density",
    "stable_density_values",
    "build_density_grid",
    "discretized_price",
]

_C1 = 0.5  # contour abscissa when the caller sets none
_Y_MAX = 400.0  # contour truncation
_H_START = 0.25
_STEP_TOL = 1e-11
_MAX_HALVINGS = 10
_RATIO_CUTOFF = 1e-18  # drop the contour tail once the ratio is this small
_PROBE_BLOCK = 128  # probe nodes evaluated at a time while seeking the cutoff
_TAIL_TOL = 1e-12  # ratio magnitude still allowed at _Y_MAX
_NEGATIVITY_TOL = -1e-8
_CHUNK = 512

# Defaults of the convolution pricer: half-width 11 scale units, 140
# intervals, density renormalized to unit mass on the truncated grid.
_PRICE_HALF_WIDTH = 11.0
_PRICE_POINTS = 141
# Default bounds for exported density grids: +/- 12 scale units.
_GRID_HALF_WIDTH = 12.0
# Each refine level quadruples the pricing grid; level 6 has 573,441 points.
_MAX_REFINE = 6


class BoundaryMassWarning(UserWarning):
    """The density grid still carries visible mass at its boundary."""


def _line_ratio(
    ys: np.ndarray, alpha: float, c1: float, negative: bool, log_ratio=None
) -> np.ndarray:
    """Gamma ratio on the contour t = c1 + i*ys, via log-Gamma differences.

    ``log_ratio`` supplies the X > 0 difference log Gamma(1-t) -
    log Gamma(1-t/alpha), made by :func:`_shared_log_ratio` when not given;
    the X < 0 branch adds only its log-sine term to it.
    """
    if log_ratio is None:
        log_ratio = _shared_log_ratio(alpha, c1)
    lg = log_ratio(ys)
    if negative:
        t = c1 + 1j * ys
        rho = (alpha - 1.0) / alpha
        lg = lg + (_log_sinpi_vec(rho * t) - _log_sinpi_vec(t / alpha))
    return np.exp(lg)


def _shared_log_ratio(alpha: float, c1: float):
    """log Gamma(1-t) - log Gamma(1-t/alpha) on runs of contour nodes,
    evaluating each node once over the life of the returned function.

    The transform asks for arithmetic runs y0 + k*dy.  A run is keyed by its
    first node and its step, and a longer request for a known run evaluates
    only the nodes past its end.  One density call makes one of these for
    both branches, which probe and refine on the same nodes.
    """
    runs: dict[tuple[float, float], np.ndarray] = {}

    def log_ratio(ys: np.ndarray) -> np.ndarray:
        key = (float(ys[0]), float(ys[1] - ys[0]) if ys.size > 1 else 0.0)
        known = runs.get(key, np.empty(0, dtype=complex))
        if known.size < ys.size:
            t = c1 + 1j * ys[known.size :]
            fresh = _loggamma_vec(1.0 - t) - _loggamma_vec(1.0 - t / alpha)
            known = runs[key] = np.concatenate([known, fresh])
        return known[: ys.size]

    return log_ratio


def _phase_sum(
    log_x: np.ndarray, y0: float, dy: float, coeffs: np.ndarray
) -> np.ndarray:
    """Re sum_k coeffs_k * e^{i*(y0 + k*dy)*log_x} for each entry of ``log_x``.

    Summed by angle addition.  Node k = b*width + j, with width about
    sqrt(N) for N nodes, has the phase (y0 + b*width*dy)*log_x, a block
    start, plus j*dy*log_x, an in-block offset.  Per point, cos and sin are
    taken on the width offsets and the N/width block starts, not on all N
    phases.  Four real matmuls sum each block's coefficients against the
    offsets, and the block starts rotate those partial sums.  Points go in
    chunks of ``_CHUNK``, so the temporaries stay bounded.
    """
    size = coeffs.size
    width = math.isqrt(size - 1) + 1  # ceil(sqrt(size))
    count = -(-size // width)
    padded = np.zeros(width * count, dtype=complex)
    padded[:size] = coeffs
    re = np.ascontiguousarray(padded.real.reshape(count, width).T)
    im = np.ascontiguousarray(padded.imag.reshape(count, width).T)
    offsets = dy * np.arange(width)
    starts = y0 + dy * (width * np.arange(count))  # the nodes k = b*width
    out = np.empty(log_x.size)
    for lo in range(0, log_x.size, _CHUNK):
        part = log_x[lo : lo + _CHUNK, None]
        inner = part * offsets
        cos_in, sin_in = np.cos(inner), np.sin(inner)
        block_re = cos_in @ re - sin_in @ im
        block_im = sin_in @ re + cos_in @ im
        outer = part * starts
        out[lo : lo + _CHUNK] = np.sum(
            np.cos(outer) * block_re - np.sin(outer) * block_im, axis=1
        )
    return out


def _half_line_transform(
    log_x: np.ndarray, ratio_fn, prefactor: np.ndarray | float
) -> np.ndarray:
    """Evaluate prefactor * int_0^inf Re[ratio(y) * e^{i*y*log_x}] dy for a
    vector of log_x, by nested trapezoid refinement along the contour.

    ``ratio_fn(ys)`` must return the contour integrand without the x-power;
    conjugate symmetry of the full line is already folded in (the factor 2
    and 1/(2*pi) belong to ``prefactor``).  ``prefactor`` may vary per point
    and is applied before the convergence check, so the step tolerance is in
    final (output) units.  Every ``ys`` passed to ``ratio_fn`` is an
    arithmetic run y0 + k*dy.

    The ratio must have decayed below 1e-12 at y = 400, which is checked on
    that one node.  A probe at step 0.25 then walks outward in blocks of
    ``_PROBE_BLOCK`` nodes and stops at the first block that lies wholly
    below the cutoff; its nodes up to the last one above the cutoff are the
    first trapezoid level.  Each halving evaluates ``ratio_fn`` only at the
    new odd nodes and updates T(h/2) = T(h)/2 + (h/2) * sum over the odd
    nodes, so every contour node is evaluated once.  Each level's phase sum
    is taken by angle addition (:func:`_phase_sum`).  The step is halved
    until the result moves by less than 1e-11 (or than its roundoff floor).
    """
    tail = float(np.abs(ratio_fn(np.array([_Y_MAX]))[0]))
    if tail > _TAIL_TOL:
        raise QuadratureError(
            f"contour integrand still {tail:.3e} at y = {_Y_MAX:g}: it has "
            "not decayed because alpha is too close to 1"
        )
    # Probe the decay outward to find the effective truncation.
    probe_size = int(_Y_MAX / _H_START) + 1
    blocks = []
    n = 1  # intervals of width _H_START up to the last node above the cutoff
    for lo in range(0, probe_size, _PROBE_BLOCK):
        block = ratio_fn(_H_START * np.arange(lo, min(lo + _PROBE_BLOCK, probe_size)))
        blocks.append(block)
        big = np.nonzero(np.abs(block) >= _RATIO_CUTOFF)[0]
        if not big.size:
            break
        n = lo + int(big[-1]) + 1
    y_eff = n * _H_START

    h = _H_START
    weighted = h * np.concatenate(blocks)[: n + 1]
    if weighted.size <= n:  # the cutoff lies past the probe's last node
        weighted = np.append(weighted, h * ratio_fn(np.array([y_eff])))
    weighted[0] *= 0.5
    weighted[-1] *= 0.5
    total = _phase_sum(log_x, 0.0, h, weighted)
    # Trapezoid sum of |ratio|: the roundoff floor of the (possibly
    # amplified) sum; convergence below it cannot be demanded.
    abs_total = float(np.sum(np.abs(weighted)))
    current = prefactor * total
    for _ in range(_MAX_HALVINGS):
        h *= 0.5
        ratio = ratio_fn(h * np.arange(1, 2 * n, 2))
        total = 0.5 * total + h * _phase_sum(log_x, h, 2.0 * h, ratio)
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
    x: np.ndarray, alpha: float, c1: float | None = None
) -> np.ndarray:
    """Vectorized density of the scaled log return at the points ``x``.

    ``c1`` is the contour abscissa in (0, 1); ``None`` means 0.5.  The
    density does not depend on it, up to quadrature error.
    X = 0 entries take the limit of the X > 0 branch, which the residue
    expansion gives in closed form: g(0) = (1/alpha) / Gamma(1 - 1/alpha)
    (equal to 1/(2 sqrt(pi)) in the Gaussian case).  A non-finite point
    raises ``ValueError``.
    """
    c1 = _C1 if c1 is None else c1
    if not (0.0 < c1 < 1.0):
        raise ValueError(f"c1 must lie in (0, 1), got {c1!r}")
    if not (1.0 < alpha <= 2.0):
        raise ValueError(f"alpha must lie in (1, 2], got {alpha!r}")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("density points must be finite")
    flat = x.ravel()
    out = np.empty(flat.size)
    # Points this close to zero take the limit value; the density is smooth
    # there, while the contour integrand's oscillation diverges like log|X|.
    near_zero = np.abs(flat) <= 1e-8
    out[near_zero] = reciprocal_gamma(1.0 - 1.0 / alpha) / alpha
    log_ratio = _shared_log_ratio(alpha, c1)
    for negative in (False, True):
        mask = ((flat < 0.0) if negative else (flat > 0.0)) & ~near_zero
        if not np.any(mask):
            continue
        ax = np.abs(flat[mask])
        log_ax = np.log(ax)
        # The x-power X^{t-1} carries the real factor |X|^{c1-1}.
        out[mask] = _half_line_transform(
            log_ax,
            lambda ys: _line_ratio(ys, alpha, c1, negative, log_ratio),
            prefactor=ax ** (c1 - 1.0) / (alpha * math.pi),
        )
    bad = out < _NEGATIVITY_TOL
    if np.any(bad):
        worst = float(out[bad].min())
        raise QuadratureError(f"density came out negative ({worst:.3e})")
    return out.reshape(x.shape) if x.shape else out[0]


def stable_density(x: float, alpha: float, c1: float | None = None) -> float:
    """Density of the scaled log return at a single point."""
    return float(stable_density_values(np.array([float(x)]), alpha, c1)[0])


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
        if not (
            math.isfinite(self.y_min)
            and math.isfinite(self.y_max)
            and self.y_max > self.y_min
        ):
            raise ValueError("need finite y_min < y_max")
        if len(self.values) != self.n_points:
            raise ValueError("values length must equal n_points")
        lowest = float(np.min(self.values))
        if not (lowest >= _NEGATIVITY_TOL):  # also catches NaN
            raise ValueError(
                f"grid density negative beyond tolerance or NaN: {lowest:.3e}"
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
    c1: float | None = None,
    boundary_tol: float = DEFAULT_BOUNDARY_TOL,
) -> DensityGrid:
    """Sample (1/scale) * g(y/scale) on a uniform y grid, scale = (-mu*tau)^(1/alpha).

    Default bounds are +/- 12 scale units; ``c1`` is the contour abscissa
    of :func:`stable_density_values`.  A :class:`BoundaryMassWarning`
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
    if not (math.isfinite(y_min) and math.isfinite(y_max) and y_max > y_min):
        raise ValueError(f"need finite y_min < y_max, got {y_min!r}, {y_max!r}")
    ys = np.linspace(y_min, y_max, n_points)
    values = stable_density_values(ys / scale, alpha, c1) / scale
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
    model: StableModel, spec: OptionSpec, refine: int = 0
) -> DensityGrid:
    """Grid of the convolution pricer: 140 * 4**refine intervals.

    ``refine`` in [0, 6] widens the grid by 6 scale units and quadruples the
    interval count per level, re-widening (up to three times) while the
    scaled edge density exceeds ``DEFAULT_BOUNDARY_TOL``; increasing levels
    drive the discrete sum toward the series price.  The grid is
    renormalized to unit mass and no :class:`BoundaryMassWarning` is emitted.
    """
    return _pricing_grid(model, spec, refine)[0]


def _pricing_grid(
    model: StableModel, spec: OptionSpec, refine: int
) -> tuple[DensityGrid, float]:
    """:func:`default_pricing_grid` and the grid's mass before it was
    renormalized."""
    if not (0 <= refine <= _MAX_REFINE):
        raise ValueError(f"refine must be in [0, {_MAX_REFINE}], got {refine!r}")
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
            boundary_tol=math.inf,
        )
        if max(grid.values[0], grid.values[-1]) * scale <= DEFAULT_BOUNDARY_TOL:
            break
        half_width *= 1.5
    raw_mass = grid.mass()
    return replace(grid, values=grid.values / raw_mass), raw_mass


def discretized_price(
    model: StableModel, spec: OptionSpec, refine: int = 0
) -> PricingResult:
    """Discounted trapezoid sum of payoff times the sampled density of
    ``default_pricing_grid(model, spec, refine)``.

    The error estimate is the trapezoid's kink-cell bias plus the mass the
    truncated grid leaked before renormalization, |1 - raw_mass| * price:
    renormalizing spreads that mass over the grid, which biases the price
    by about that much.  ``raw_mass`` is reported in the diagnostics.
    """
    grid, raw_mass = _pricing_grid(model, spec, refine)
    ys = grid.ys
    payoff = np.maximum(
        spec.spot * np.exp((spec.rate + model.mu) * spec.tau + ys) - spec.strike, 0.0
    )
    discount = math.exp(-spec.rate * spec.tau)
    price = discount * float(np.trapezoid(payoff * grid.values, dx=grid.step))
    kink_bias = discount * spec.strike * float(np.max(grid.values)) * grid.step**2 / 8.0
    err = kink_bias + abs(1.0 - raw_mass) * price
    diagnostics: dict[str, object] = {
        "grid_mass": grid.mass(),
        "raw_mass": raw_mass,
        "n_points": grid.n_points,
    }
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
