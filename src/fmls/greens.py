"""Stable density from vertical-line (Mellin-Barnes) quadrature, and the
convolution pricing engine built on top of it.

The scaled log-return density g(X) is an integral of a Gamma-function ratio
along the contour t = c1 + i*y, with different ratios for the two signs of
X:

    X > 0:  Gamma(1-t) / Gamma(1 - t/alpha)
    X < 0:  Gamma(t/alpha) Gamma(1-t) / (Gamma(rho*t) Gamma(1 - rho*t)),
            rho = (alpha-1)/alpha, evaluated at |X|

By the reflection formula the X < 0 ratio is the X > 0 one times
sin(pi*rho*t) / sin(pi*t/alpha), which is how it is computed.  Both ratios
are analytic on the strip -alpha < Re t < 1: Gamma(1-t) has its first pole
at t = 1, sin(pi*t/alpha) its first nonzero root at t = -alpha, and t = 0 is
removable.  Any c1 in that strip gives the same density.

Both integrands decay exponentially in |y|, so a trapezoid rule along the
line converges geometrically, like e^{-2*pi*d/h} for a line at distance d
from the nearest singularity (Trefethen & Weideman, SIAM Review 2014).  The
default contour therefore runs down the middle of the strip, c1 =
(1 - alpha)/2, where d = (1 + alpha)/2.  A probe at step 0.25 finds where
the ratio falls below 1e-18, extrapolating its decay so that it evaluates
only a few nodes past that point; the contour is truncated there, and the
probe's own nodes show that the ratio has decayed by y = 400.  The step is
then halved until the result settles, by nested refinement: each halving
evaluates the ratio only at the new odd nodes and reuses the previous
level's sum.  Both branches share the log-Gamma difference of each node,
and each branch keeps the ratios of its levels.  A per-thread slot keeps
the default contours (c1 = (1 - alpha)/2 and 0.5) of the last alpha seen,
so calls at one alpha, every grid of a price and the prices after it,
evaluate each contour node once between them.  The slot also keeps the
grids of the last (alpha, mu, tau, n_points) built, up to four widths.  A
grid depends on neither spot, strike nor rate, so after the first price of
one model and maturity, every other contract reads the kept grids and
takes no phase sum.  Each run of new nodes costs one call to each kernel:
one log-Gamma call takes 1 - t and 1 - t/alpha together, one log-sine call
rho*t and t/alpha.  A paper price on a cold slot makes three runs: the
probe's first 32 nodes, its extrapolated run and the one halving.  The
oscillatory sum is taken in real arithmetic, by angle addition over blocks
of evenly spaced nodes: cosines and sines of about 2*sqrt(N) phases per
point instead of N; the first level and the first halving share one set of
tables.  Gamma ratios are assembled in log space (direct products overflow
for moderate |y|).
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import QuadratureError
from .model import OptionSpec, PricingResult, StableModel, _Record, _require_alpha
from .special_functions import (
    LANCZOS_G,
    LOG_PI,
    LOG_SQRT_2PI,
    lanczos_sum,
    reciprocal_gamma,
)

__all__ = [
    "DensityGrid",
    "stable_density_values",
    "build_density_grid",
    "discretized_price",
]

_SMALL_X_C1 = 0.5  # default contour abscissa where |X|^(c1-1) amplifies roundoff
_Y_MAX = 400.0  # contour truncation
_H_START = 0.25
_STEP_TOL = 1e-11
_MAX_HALVINGS = 10
_RATIO_CUTOFF = 1e-18  # drop the contour tail once the ratio is this small
_PROBE_START = 32  # probe nodes evaluated before the decay is extrapolated
_PROBE_PAD = 3  # nodes below the cutoff the probe sees past the last one above
_TAIL_TOL = 1e-12  # ratio magnitude still allowed at _Y_MAX
_ROUNDOFF = 8e-16  # roundoff floor of a sum, per unit of its absolute sum
_FLOOR_SHARE = 1e-9  # largest roundoff floor accepted, relative to the result
_NEGATIVITY_TOL = -1e-8
_NEAR_ZERO = 1e-8  # density points this close to 0 take the closed-form g(0)
_CHUNK = 512

# Defaults of the convolution pricer: half-width 11 scale units, 140
# intervals; the pricer renormalizes the density to unit mass on the grid.
_PRICE_HALF_WIDTH = 11.0
_PRICE_POINTS = 141
# Default bounds for exported density grids: +/- 12 scale units.
_GRID_HALF_WIDTH = 12.0
# Each refine level quadruples the pricing grid; level 6 has 573,441 points.
_MAX_REFINE = 6


def _loggamma_right(z: np.ndarray) -> np.ndarray:
    """Lanczos log Gamma on a complex array with Re(z) >= 0.5."""
    t = z + (LANCZOS_G - 0.5)
    return LOG_SQRT_2PI + (z - 0.5) * np.log(t) - t + np.log(lanczos_sum(z))


def _loggamma_vec(z: np.ndarray) -> np.ndarray:
    """Vectorized log Gamma on complex arrays, reflection for Re(z) < 0.5.

    Used by the contour quadratures; callers guarantee arguments stay off
    the poles at the non-positive integers.  An array wholly in
    Re(z) >= 0.5, which is every density contour call at its default
    abscissa, goes straight to the Lanczos form, with no masks.
    """
    z = np.asarray(z, dtype=complex)
    if z.size and z.real.min() >= 0.5:
        return _loggamma_right(z)
    out = np.empty_like(z)
    right = z.real >= 0.5
    if np.any(right):
        out[right] = _loggamma_right(z[right])
    if np.any(~right):
        zl = z[~right]
        # Re(1 - zl) >= 0.5 takes the Lanczos form directly: a wrapper bound
        # to the global ``_loggamma_vec`` sees each outside call once.
        out[~right] = LOG_PI - _log_sinpi_vec(zl) - _loggamma_right(1.0 - zl)
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
        x = z.real[on_axis]
        n = np.round(x)
        s = np.sin(np.pi * (x - n))  # x - n in [-0.5, 0.5], exact
        s = np.where((n.astype(np.int64) & 1).astype(bool), -s, s)
        # A +0 imaginary part: negative s takes +i*pi, whatever the roundoff.
        out[on_axis] = np.log(s + 0j)
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


def _line_ratio(
    ys: np.ndarray, alpha: float, c1: float, negative: bool, log_ratio=None
) -> np.ndarray:
    """Gamma ratio on the contour t = c1 + i*ys, via log-Gamma differences.

    ``log_ratio`` supplies the X > 0 difference log Gamma(1-t) -
    log Gamma(1-t/alpha), made by :func:`_shared_log_ratio` when not given;
    the X < 0 branch adds only its log-sine term to it.  On the real axis
    that term is log of (alpha-1) * sinc(rho*c1) / sinc(c1/alpha), which
    holds through the removable t = 0 and loses no digits near it.
    """
    if log_ratio is None:
        log_ratio = _shared_log_ratio(alpha, c1)
    lg = log_ratio(ys)
    if negative:
        rho = (alpha - 1.0) / alpha
        axis = ys == 0.0
        t = c1 + 1j * ys[~axis]
        sines = _log_sinpi_vec(np.concatenate([rho * t, t / alpha]))
        lg = lg.copy()
        lg[~axis] += sines[: t.size] - sines[t.size :]
        lg[axis] += math.log((alpha - 1.0) * np.sinc(rho * c1) / np.sinc(c1 / alpha))
    return np.exp(lg)


def _shared_log_ratio(alpha: float, c1: float):
    """log Gamma(1-t) - log Gamma(1-t/alpha) on runs of contour nodes,
    evaluating each node once over the life of the returned function.

    The transform asks for arithmetic runs y0 + k*dy.  Runs with the same
    step whose nodes lie on one lattice share a cache, which holds a
    contiguous run from the lattice's first requested node: a request reads
    what is cached and evaluates only the nodes past its end.  One density
    call makes one of these for both branches, which probe and refine on the
    same nodes.
    """
    runs: dict[tuple[float, float], tuple[float, np.ndarray]] = {}

    def fresh(ys: np.ndarray) -> np.ndarray:
        t = c1 + 1j * ys
        both = _loggamma_vec(np.concatenate([1.0 - t, 1.0 - t / alpha]))
        return both[: ys.size] - both[ys.size :]

    def log_ratio(ys: np.ndarray) -> np.ndarray:
        y0 = float(ys[0])
        dy = float(ys[1] - ys[0]) if ys.size > 1 else 0.0
        key = (dy, math.fmod(y0, dy) if dy else y0)
        origin, known = runs.get(key, (y0, np.empty(0, dtype=complex)))
        skip = round((y0 - origin) / dy) if dy else 0
        if not 0 <= skip <= known.size:  # off the cached run
            return fresh(ys)
        end = skip + ys.size
        if known.size < end:
            known = np.concatenate([known, fresh(ys[known.size - skip :])])
            runs[key] = (origin, known)
        return known[skip:end]

    return log_ratio


class _Contour:
    """The contour t = c1 + i*y of one (alpha, c1): each branch's ratio on
    one shared log-Gamma cache, and the levels each branch has evaluated.

    ``levels[negative]`` is the list :func:`_half_line_transform` reads and
    extends: the weighted first level, then each halving's odd nodes.
    :meth:`floor` bounds the roundoff of each branch's density.
    """

    def __init__(self, alpha: float, c1: float) -> None:
        self.alpha, self.c1 = alpha, c1
        log_ratio = _shared_log_ratio(alpha, c1)
        self.ratio = {
            negative: lambda ys, negative=negative: _line_ratio(
                ys, alpha, c1, negative, log_ratio
            )
            for negative in (False, True)
        }
        self.levels: dict[bool, list[np.ndarray]] = {False: [], True: []}
        # Per branch: sum |first level| and sum |first level| * y.
        self.abs_sums: dict[bool, tuple[float, float]] = {}

    def first_level(self, negative: bool) -> np.ndarray:
        levels = self.levels[negative]
        if not levels:
            levels.append(_first_level(self.ratio[negative]))
        return levels[0]

    def floor(self, negative: bool, ax: np.ndarray | float) -> np.ndarray | float:
        """Roundoff floor of the branch's density at |X| = ``ax``:
        _ROUNDOFF * |X|^(c1-1) / (alpha*pi) times sum |w_k ratio_k| *
        (1 + y_k |log X|) over the first level.  The 1 is the floor
        :func:`_half_line_transform` holds its sum to; y_k |log X| counts
        the roundoff of node k's phase, which grows with the phase."""
        if negative not in self.abs_sums:
            first = np.abs(self.first_level(negative))
            moment = float(np.dot(first, _H_START * np.arange(first.size)))
            self.abs_sums[negative] = float(np.sum(first)), moment
        total, moment = self.abs_sums[negative]
        total = total + np.abs(np.log(ax)) * moment
        return _ROUNDOFF * total / (self.alpha * math.pi) * ax ** (self.c1 - 1.0)


# Per thread: the last alpha seen and its default contours, keyed by c1;
# and the grids of the last (alpha, mu, tau, n_points) built, keyed by
# their bounds: at most _KEPT_GRIDS of them, read-only.
_SLOT = threading.local()
_KEPT_GRIDS = 4  # a pricing grid's widths: its first and three widenings


def _slot_contour(alpha: float, c1: float) -> _Contour:
    """The contour of (alpha, c1) in this thread's slot, emptied first when
    alpha is not the slot's."""
    if getattr(_SLOT, "alpha", None) != alpha:
        _SLOT.alpha, _SLOT.contours = alpha, {}
    if c1 not in _SLOT.contours:
        _SLOT.contours[c1] = _Contour(alpha, c1)
    return _SLOT.contours[c1]


def _slot_grids(alpha: float, mu: float, tau: float, n_points: int) -> dict:
    """The grids of (alpha, mu, tau, n_points) in this thread's slot, keyed
    by (y_min, y_max), emptied first when the model is not the slot's."""
    model = (alpha, mu, tau, n_points)
    if getattr(_SLOT, "grid_model", None) != model:
        _SLOT.grid_model, _SLOT.grids = model, {}
    return _SLOT.grids


def _phase_sum(
    log_x: np.ndarray, dy: float, runs: list[tuple[float, np.ndarray]]
) -> np.ndarray:
    """Re sum_k coeffs_k * e^{i*(y0 + k*dy)*log_x} for each entry of
    ``log_x`` and each (y0, coeffs) run: shape (log_x.size, len(runs)).

    Summed by angle addition.  Node k = b*width + j, with width about
    sqrt(N) for the longest run's N nodes, has the phase
    (y0 + b*width*dy)*log_x, a block start, plus j*dy*log_x, an in-block
    offset.  Per point, cos and sin are taken on the width offsets, which
    all runs share, and on each run's N/width block starts, not on all N
    phases.  Four real matmuls sum each block's coefficients against the
    offsets, and the block starts rotate those partial sums.  Points go in
    chunks of ``_CHUNK``, so the temporaries stay bounded.
    """
    size = max(coeffs.size for _, coeffs in runs)
    width = math.isqrt(size - 1) + 1  # ceil(sqrt(size))
    count = -(-size // width)
    padded = np.zeros((len(runs), width * count), dtype=complex)
    for row, (_, coeffs) in zip(padded, runs):
        row[: coeffs.size] = coeffs
    # Column r*count + b holds block b of run r.
    blocks = padded.reshape(len(runs) * count, width).T
    re, im = np.ascontiguousarray(blocks.real), np.ascontiguousarray(blocks.imag)
    offsets = dy * np.arange(width)
    # The nodes k = b*width of every run.
    starts = np.concatenate([y0 + dy * (width * np.arange(count)) for y0, _ in runs])
    out = np.empty((log_x.size, len(runs)))
    for lo in range(0, log_x.size, _CHUNK):
        part = log_x[lo : lo + _CHUNK, None]
        inner = part * offsets
        cos_in, sin_in = np.cos(inner), np.sin(inner)
        block_re = cos_in @ re - sin_in @ im
        block_im = sin_in @ re + cos_in @ im
        outer = part * starts
        rotated = np.cos(outer) * block_re - np.sin(outer) * block_im
        out[lo : lo + _CHUNK] = rotated.reshape(-1, len(runs), count).sum(axis=2)
    return out


def _first_level(ratio_fn) -> np.ndarray:
    """The weighted nodes of the h = 0.25 trapezoid level: the contour from
    y = 0 to one node past the last one whose ratio is at least 1e-18.

    The probe evaluates ``_PROBE_START`` nodes and, while the ratio is still
    above the cutoff, extends the run to where the log-magnitude decay of
    its last 8 nodes, extrapolated, reaches the cutoff; it stops once
    ``_PROBE_PAD`` nodes past the last one above it are known, so it
    evaluates a few nodes past the cutoff, each once.  The ratio must have
    decayed below 1e-12 at y = 400: a probe that stops short of y = 400 has
    seen it fall below the cutoff, and one that reaches y = 400 checks its
    own last node, so the guard takes no node of its own.  When the cutoff
    lies past y = 400, one padding node at y_eff = 400.25 ends the level.
    """
    probe_size = int(_Y_MAX / _H_START) + 1
    mags = np.empty(0)
    values = []
    n = 1  # intervals of width _H_START up to the last node above the cutoff
    stop = _PROBE_START
    while True:
        block = ratio_fn(_H_START * np.arange(mags.size, stop))
        values.append(block)
        mags = np.concatenate([mags, np.abs(block)])
        big = np.nonzero(mags >= _RATIO_CUTOFF)[0]
        if big.size:
            n = int(big[-1]) + 1
        if mags.size >= min(n + _PROBE_PAD, probe_size):
            break
        stop = max(n, mags.size) + _PROBE_PAD
        if n == mags.size:  # still above the cutoff: extrapolate the decay
            slope = math.log(mags[-1] / mags[-9]) / 8.0  # per node, over y - 2 to y
            ahead = math.log(_RATIO_CUTOFF / mags[-1]) / slope if slope < 0 else n
            stop += math.ceil(ahead)
        stop = min(stop, probe_size)
    if mags.size == probe_size and mags[-1] > _TAIL_TOL:
        raise QuadratureError(
            f"contour integrand still {mags[-1]:.3e} at y = {_Y_MAX:g}: it has "
            "not decayed because alpha is too close to 1"
        )
    weighted = _H_START * np.concatenate(values)[: n + 1]
    if weighted.size <= n:  # the cutoff lies past the probe's last node
        weighted = np.append(weighted, _H_START * ratio_fn(np.array([n * _H_START])))
    weighted[0] *= 0.5
    weighted[-1] *= 0.5
    return weighted


def _half_line_transform(
    log_x: np.ndarray,
    ratio_fn,
    prefactor: np.ndarray | float,
    levels: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Evaluate prefactor * int_0^inf Re[ratio(y) * e^{i*y*log_x}] dy for a
    vector of log_x, by nested trapezoid refinement along the contour.

    ``ratio_fn(ys)`` must return the contour integrand without the x-power;
    conjugate symmetry of the full line is already folded in (the factor 2
    and 1/(2*pi) belong to ``prefactor``).  ``prefactor`` may vary per point
    and is applied before the convergence check, so the step tolerance is in
    final (output) units.  Every ``ys`` passed to ``ratio_fn`` is an
    arithmetic run y0 + k*dy.

    ``levels`` lists the ratios of the levels evaluated so far: the first,
    from :func:`_first_level` of ``ratio_fn``, weighted, then each halving's
    odd nodes.  The transform reads those and appends each level it has to
    evaluate, so transforms that share the list evaluate each level once.
    Each halving takes ``ratio_fn`` only at the new odd nodes and updates
    T(h/2) = T(h)/2 + (h/2) * sum over the odd nodes, so every contour node
    is evaluated once.
    Each level's phase sum is taken by angle addition (:func:`_phase_sum`).
    The step is halved until the result moves by less than 1e-11 (or than
    its roundoff floor, which must then stay under 1e-11 or 1e-9 of the
    result, or it raises); like :meth:`_Contour.floor`, it weights each
    node by 1 + y_k |log_x|, for the roundoff of its phase.  The error of a
    level falls like e^{-2*pi*d/h}, d the distance from the contour to the
    ratio's nearest singularity: on the density's default contour
    (d = (1 + alpha)/2) the first halving confirms the h = 0.25 level, where
    c1 = 0.5 (d = 0.5) takes two.
    """
    levels = [] if levels is None else levels
    if not levels:
        levels.append(_first_level(ratio_fn))
    weighted = levels[0]
    n = weighted.size - 1
    h = _H_START
    if len(levels) == 1:
        levels.append(ratio_fn(0.5 * h * np.arange(1, 2 * n, 2)))
    # The first level and the always-taken first halving share one phase sum.
    total, odd = _phase_sum(log_x, h, [(0.0, weighted), (0.5 * h, levels[1])]).T
    # Trapezoid sums of |ratio| and |ratio| * y: the roundoff floor of the
    # (possibly amplified) sum; convergence below it cannot be demanded.
    abs_total = float(np.sum(np.abs(weighted)))
    abs_moment = float(np.dot(np.abs(weighted), h * np.arange(n + 1)))
    abs_log_x = np.abs(log_x)
    current = prefactor * total
    for halving in range(1, _MAX_HALVINGS + 1):
        h *= 0.5
        if halving == len(levels):
            levels.append(ratio_fn(h * np.arange(1, 2 * n, 2)))
        ratio = levels[halving]
        if halving > 1:
            odd = _phase_sum(log_x, 2.0 * h, [(h, ratio)])[:, 0]
        total = 0.5 * total + h * odd
        abs_ratio = np.abs(ratio)
        abs_total = 0.5 * abs_total + h * float(np.sum(abs_ratio))
        abs_moment = 0.5 * abs_moment + h * float(np.dot(abs_ratio, h * np.arange(1, 2 * n, 2)))
        n *= 2
        refined = prefactor * total
        floor = _ROUNDOFF * np.abs(prefactor) * (abs_total + abs_log_x * abs_moment)
        if np.all(np.abs(refined - current) < np.maximum(_STEP_TOL, floor)):
            if np.any(floor > np.maximum(_STEP_TOL, _FLOOR_SHARE * np.abs(refined))):
                raise QuadratureError(
                    f"contour sum lost to roundoff (floor {np.max(floor):.3e})"
                )
            return refined
        current = refined
    raise QuadratureError(
        f"contour trapezoid did not settle below {_STEP_TOL:.0e} "
        f"after {_MAX_HALVINGS} halvings"
    )


def stable_density_values(
    x: np.ndarray, alpha: float, c1: float | None = None
) -> np.ndarray:
    """Vectorized density of the scaled log return at the points ``x``; a
    scalar ``x`` gives a scalar.

    ``c1`` is the contour abscissa in (-alpha, 1), the strip where both
    ratios are analytic; the density does not depend on it, up to
    quadrature error.  ``None`` means the middle of that strip,
    (1 - alpha)/2, farthest from both singularities, except at points so
    close to zero that the prefactor |X|^(c1-1) would lift the contour
    sum's roundoff floor above the 1e-11 step tolerance: those keep
    c1 = 0.5 on a contour of their own.
    X = 0 entries take the limit of the X > 0 branch, which the residue
    expansion gives in closed form: g(0) = (1/alpha) / Gamma(1 - 1/alpha)
    (equal to 1/(2 sqrt(pi)) in the Gaussian case).  A non-finite point
    raises ``ValueError``.

    The default contours come from this thread's slot, which keeps the last
    alpha's log-Gamma differences, branch ratios and levels: calls at one
    alpha evaluate each contour node once between them.  An explicit ``c1``
    evaluates a contour of its own, which is not kept.
    """
    alpha = _require_alpha(alpha)
    default = c1 is None
    c1 = 0.5 * (1.0 - alpha) if default else c1
    if not (-alpha < c1 < 1.0):
        raise ValueError(f"c1 must lie in (-alpha, 1) = ({-alpha!r}, 1), got {c1!r}")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("density points must be finite")
    flat = x.ravel()
    out = np.empty(flat.size)
    # Points this close to zero take the limit value; the density is smooth
    # there, while the contour integrand's oscillation diverges like log|X|.
    near_zero = np.abs(flat) <= _NEAR_ZERO
    out[near_zero] = reciprocal_gamma(1.0 - 1.0 / alpha) / alpha
    own = None if default else _Contour(alpha, c1)  # not kept
    for negative in (False, True):
        mask = ((flat < 0.0) if negative else (flat > 0.0)) & ~near_zero
        if not np.any(mask):
            continue
        ax = np.abs(flat[mask])
        small = np.zeros(ax.size, dtype=bool)
        if default:
            # Below |X| = 1 the default contour's floor grows as |X| falls;
            # where it passes the step tolerance, the point keeps c1 = 0.5.
            small = (ax < 1.0) & (_slot_contour(alpha, c1).floor(negative, ax) > _STEP_TOL)
        values = np.empty(ax.size)
        for part, c in ((~small, c1), (small, _SMALL_X_C1)):
            if np.any(part):
                contour = _slot_contour(alpha, c) if default else own
                values[part] = _half_line_transform(
                    np.log(ax[part]),
                    contour.ratio[negative],
                    # The x-power X^{t-1} carries the real factor |X|^{c-1}.
                    prefactor=ax[part] ** (c - 1.0) / (alpha * math.pi),
                    levels=contour.levels[negative],
                )
        out[mask] = values
    bad = out < _NEGATIVITY_TOL
    if np.any(bad):
        worst = float(out[bad].min())
        raise QuadratureError(f"density came out negative ({worst:.3e})")
    return out.reshape(x.shape) if x.shape else out[0]


class DensityGrid(_Record):
    """Uniform samples of the log-return density used by the convolution sum."""

    __slots__ = ("y_min", "y_max", "n_points", "values")

    def __init__(
        self, y_min: float, y_max: float, n_points: int, values: np.ndarray
    ) -> None:
        if n_points < 3:
            raise ValueError(f"n_points must be >= 3, got {n_points}")
        if not (math.isfinite(y_min) and math.isfinite(y_max) and y_max > y_min):
            raise ValueError("need finite y_min < y_max")
        if len(values) != n_points:
            raise ValueError("values length must equal n_points")
        lowest = float(np.min(values))
        if not (lowest >= _NEGATIVITY_TOL):  # also catches NaN
            raise ValueError(
                f"grid density negative beyond tolerance or NaN: {lowest:.3e}"
            )
        self._store(y_min, y_max, n_points, values)

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.n_points)

    @property
    def step(self) -> float:
        return (self.y_max - self.y_min) / (self.n_points - 1)

    def mass(self) -> float:
        """Trapezoid integral of the sampled density."""
        return float(np.trapezoid(self.values, dx=self.step))


# Scaled edge density (per unit of y/scale) above which a grid leaks tail
# mass; sits between the heavy-tailed alpha <= 1.5 edge levels on the
# default bounds (which leak) and alpha >= 1.7 (which do not).
DEFAULT_BOUNDARY_TOL = 7.5e-4
# Factor by which the pricing grid's half-width grows while its edge leaks.
_WIDENING = 1.5


def build_density_grid(
    alpha: float,
    mu: float,
    tau: float,
    y_min: float | None = None,
    y_max: float | None = None,
    n_points: int = 4001,
) -> DensityGrid:
    """Sample (1/scale) * g(y/scale) on a uniform y grid, scale = (-mu*tau)^(1/alpha),
    on the default contours of :func:`stable_density_values`.

    Default bounds are +/- 12 scale units.  The values are not
    renormalized; :func:`leaking_edge` tells whether the bounds cut off
    visible tail mass.

    Each grid is kept in this thread's slot, and the same call again
    returns it, not a copy: its ``values`` are read-only.  The slot holds
    the grids of one (alpha, mu, tau, n_points), the last four bounds
    built; another model empties it.
    """
    alpha = _require_alpha(alpha)
    if not (mu < 0.0 and tau > 0.0):
        raise ValueError("need mu < 0 and tau > 0")
    if n_points < 3:
        raise ValueError(f"n_points must be >= 3, got {n_points}")
    scale = (-mu * tau) ** (1.0 / alpha)
    if y_min is None:
        y_min = -_GRID_HALF_WIDTH * scale
    if y_max is None:
        y_max = _GRID_HALF_WIDTH * scale
    if not (math.isfinite(y_min) and math.isfinite(y_max) and y_max > y_min):
        raise ValueError(f"need finite y_min < y_max, got {y_min!r}, {y_max!r}")
    bounds = float(y_min), float(y_max)
    kept = _slot_grids(alpha, mu, tau, n_points)
    if bounds in kept:
        return kept[bounds]
    ys = np.linspace(y_min, y_max, n_points)
    values = stable_density_values(ys / scale, alpha) / scale
    values.setflags(write=False)
    grid = DensityGrid(*bounds, n_points=n_points, values=values)
    if len(kept) == _KEPT_GRIDS:
        del kept[next(iter(kept))]  # the oldest
    kept[bounds] = grid
    return grid


def leaking_edge(grid: DensityGrid, alpha: float, mu: float, tau: float) -> float | None:
    """The scaled density at the higher edge of a :func:`build_density_grid`
    grid of (alpha, mu, tau) when it exceeds ``DEFAULT_BOUNDARY_TOL``, so
    that the grid cuts off visible tail mass (heavy left tails at low
    alpha); ``None`` when neither edge leaks."""
    alpha = _require_alpha(alpha)
    scale = (-mu * tau) ** (1.0 / alpha)
    edge = max(grid.values[0], grid.values[-1]) * scale
    return float(edge) if edge > DEFAULT_BOUNDARY_TOL else None


def default_pricing_grid(
    model: StableModel, spec: OptionSpec, refine: int = 0
) -> DensityGrid:
    """Grid of the convolution pricer: 140 * 4**refine intervals.

    ``refine`` in [0, 6] widens the grid by 6 scale units and quadruples the
    interval count per level; increasing levels drive the discrete sum
    toward the series price.  While :func:`leaking_edge` finds the edge
    leaking, the half-width grows by 1.5, up to three times.  The samples
    are those of :func:`build_density_grid`, not renormalized.  Every build
    reads the default contours of the thread's slot, so a widened build
    evaluates no contour node, branch ratio or first level again and pays
    only for its phase sums.  Each width is a grid the slot keeps, so the
    next contract at the same (alpha, mu, tau, refine), whatever its spot,
    strike or rate, gets the same grid back and takes no phase sum.
    """
    if not (0 <= refine <= _MAX_REFINE):
        raise ValueError(f"refine must be in [0, {_MAX_REFINE}], got {refine!r}")
    half_width = _PRICE_HALF_WIDTH + 6.0 * refine
    n_points = (_PRICE_POINTS - 1) * 4**refine + 1
    scale = (-model.mu * spec.tau) ** (1.0 / model.alpha)
    for widenings in range(4):
        grid = build_density_grid(
            model.alpha,
            model.mu,
            spec.tau,
            y_min=-half_width * scale,
            y_max=half_width * scale,
            n_points=n_points,
        )
        if widenings == 3 or leaking_edge(grid, model.alpha, model.mu, spec.tau) is None:
            return grid
        half_width *= _WIDENING


def discretized_price(
    model: StableModel, spec: OptionSpec, refine: int = 0
) -> PricingResult:
    """Discounted trapezoid sum of payoff times the sampled density of
    ``default_pricing_grid(model, spec, refine)``, renormalized to unit
    mass on the grid; a negative sum is floored at 0.

    The error estimate, taken after that floor, is the sum of
    - the trapezoid's kink-cell bias;
    - the grid's resolution, the gap to the same price on every other
      sample, which an under-resolved density (alpha near 1) makes large;
    - the mass the truncated grid leaked, |1 - raw_mass| * price:
      renormalizing spreads that mass over the grid, which biases the price
      by about that much;
    - the samples' roundoff floor weighted by the payoff.  Far in the right
      tail the sampled density is roundoff while the payoff grows like e^y.
    - the martingale gap |S - F|, F the discounted forward
      S e^{mu*tau} int e^y g(y) dy of the raw samples.  It bounds the
      payoff-weighted mass the grid misses, which at long maturities or
      high sigma lies past the right edge, where S e^y outweighs the light
      right tail.
    A call is worth between 0 and the spot, so an estimate that is not
    below the spot, or a price more than the estimate above it, bounds
    nothing: those raise ``QuadratureError``.
    The diagnostics report ``raw_mass``, the grid's trapezoid mass, its
    ``half_width`` in scale units and its ``widenings``.
    """
    grid = default_pricing_grid(model, spec, refine)
    raw_mass = grid.mass()
    scale = (-model.mu * spec.tau) ** (1.0 / model.alpha)
    half_width = grid.y_max / scale
    start = _PRICE_HALF_WIDTH + 6.0 * refine
    widenings = round(math.log(half_width / start, _WIDENING))
    values = grid.values / raw_mass
    # The samples' roundoff floor on the default contour; it bounds the floor
    # of the points near zero that keep c1 = 0.5 from above.
    contour = _slot_contour(model.alpha, 0.5 * (1.0 - model.alpha))
    ys = grid.ys
    x = ys / scale
    floor = np.zeros(x.size)
    for negative, side in ((False, x > _NEAR_ZERO), (True, x < -_NEAR_ZERO)):
        floor[side] = contour.floor(negative, np.abs(x[side])) / scale
    discount = math.exp(-spec.rate * spec.tau)
    # A grid wide enough to overflow the payoff gives a non-finite estimate,
    # which raises below.
    with np.errstate(over="ignore", invalid="ignore"):
        forward = spec.spot * np.exp((spec.rate + model.mu) * spec.tau + ys)
        payoff = np.maximum(forward - spec.strike, 0.0)
        price = discount * float(np.trapezoid(payoff * values, dx=grid.step))
        # The martingale identity: the raw samples' discounted forward is S
        # up to the forward the grid misses, at least the payoff it misses.
        forward_gap = abs(
            spec.spot - discount * float(np.trapezoid(forward * grid.values, dx=grid.step))
        )
        coarse = grid.values[::2]  # n_points is odd: every other sample, step 2h
        coarse_price = discount * float(
            np.trapezoid(payoff[::2] * coarse, dx=2.0 * grid.step)
            / np.trapezoid(coarse, dx=2.0 * grid.step)
        )
        roundoff = discount * float(np.trapezoid(payoff * floor, dx=grid.step)) / raw_mass
    kink_bias = discount * spec.strike * float(np.max(values)) * grid.step**2 / 8.0
    resolution = abs(price - coarse_price)
    diagnostics: dict[str, object] = {
        "raw_mass": raw_mass,
        "half_width": half_width,
        "widenings": widenings,
        "n_points": grid.n_points,
    }
    if price < 0.0:
        diagnostics["negative_price_floored"] = True
        price = 0.0
    err = kink_bias + resolution + abs(1.0 - raw_mass) * price + roundoff + forward_gap
    if not err < spec.spot or price - err > spec.spot:
        raise QuadratureError(
            f"discretized price {price:.6g} with error estimate {err:.3e} "
            f"bounds nothing for a call on spot {spec.spot:g}"
        )
    return PricingResult(
        price=price,
        engine="discretization",
        terms_used=grid.n_points,
        error_estimate=err,
        diagnostics=diagnostics,
    )
