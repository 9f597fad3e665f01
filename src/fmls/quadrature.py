"""Adaptive Gauss-Kronrod quadrature of many intervals at once.

A 7/15 Gauss-Kronrod pair on panels, refined in levels.  One level makes
one vectorized integrand call with every new panel of every interval not
yet converged, so the call count is the number of levels, not of panels.
Each interval starts from the panels the caller gives it (a graded mesh
toward an endpoint kink, say) and keeps its own tolerance, bisection and
subdivision budget: at each level it bisects its worst panels, worst
first, until the panels it leaves whole carry no more error than its
tolerance.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import QuadratureError

__all__ = ["adaptive_gauss_kronrod"]

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


def adaptive_gauss_kronrod(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    owner: np.ndarray,
    *,
    rel_tol: float,
    abs_tol: float,
    max_subdivisions: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Integrate ``f`` on every interval; returns (values, errors, evaluations).

    Interval i is the union of the initial panels [a[k], b[k]] with
    ``owner[k] == i``, owners non-decreasing from 0.  Each level calls
    ``f(x, owner)`` once: row k of ``x`` holds the 15 Kronrod nodes of a new
    panel of interval ``owner[k]``, again in non-decreasing order, and ``f``
    returns an array shaped like ``x``.  An interval is done once its panel
    errors sum to at most ``max(abs_tol, rel_tol * |value|)``; until then it
    spends at most ``max_subdivisions`` bisections.  Raises
    :class:`QuadratureError` if an interval runs out of them, or must split
    a panel too narrow to halve.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    owner = np.asarray(owner, dtype=np.intp)
    if not np.all(b > a):
        raise ValueError("every panel needs b > a")
    count = int(owner[-1]) + 1 if owner.size else 0
    values, errors = np.zeros(count), np.zeros(count)
    budget = np.full(count, max_subdivisions)
    evals = 0
    # Rows (a, b, Kronrod value, error) of the panels of open intervals.
    panels, panel_owner = np.empty((0, 4)), np.empty(0, dtype=np.intp)
    while a.size:
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        fx = np.asarray(f(mid[:, None] + half[:, None] * _XGK, owner), dtype=float)
        evals += fx.size
        kronrod = half * (fx @ _WGK)
        error = np.abs(kronrod - half * (fx[:, 1::2] @ _WG))
        panels = np.concatenate([panels, np.column_stack((a, b, kronrod, error))])
        panel_owner = np.concatenate([panel_owner, owner])
        total = np.bincount(panel_owner, panels[:, 2], count)
        total_err = np.bincount(panel_owner, panels[:, 3], count)
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        done = (total_err <= tol) & (np.bincount(panel_owner, minlength=count) > 0)
        values[done], errors[done] = total[done], total_err[done]
        rows = np.flatnonzero(~done[panel_owner])
        if not rows.size:
            break
        # The open intervals' panels, each interval's worst first; split them
        # in turn while those left whole carry more error than the tolerance.
        rows = rows[np.lexsort((-panels[rows, 3], panel_owner[rows]))]
        panels, panel_owner = panels[rows], panel_owner[rows]
        first = np.searchsorted(panel_owner, panel_owner)  # the interval's worst
        rank = np.arange(rows.size) - first
        worse = np.cumsum(panels[:, 3]) - panels[:, 3]
        whole = total_err[panel_owner] - (worse - worse[first])
        split = (whole > tol[panel_owner]) & (rank < budget[panel_owner])
        stuck = panel_owner[(rank == 0) & ~split]
        if stuck.size:
            raise QuadratureError(
                f"quadrature on interval {stuck[0]} did not converge within "
                f"{max_subdivisions} subdivisions (error {total_err[stuck[0]]:.3e})"
            )
        pa, pb = panels[split, 0], panels[split, 1]
        if np.any(pb - pa < 1e-14 * (np.abs(pa) + np.abs(pb) + 1.0)):
            raise QuadratureError("a panel is too small to subdivide further")
        budget -= np.bincount(panel_owner[split], minlength=count)
        owner = np.repeat(panel_owner[split], 2)
        a, b = np.repeat(pa, 2), np.repeat(pb, 2)
        a[1::2] = b[::2] = 0.5 * (pa + pb)
        panels, panel_owner = panels[~split], panel_owner[~split]
    return values, errors, evals
