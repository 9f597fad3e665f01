"""Adaptive Gauss-Kronrod panel quadrature.

A 7/15 Gauss-Kronrod pair with greedy bisection of the worst panel.
Integrands receive a numpy array of abscissae and return an array of the
same shape, so each panel costs one vectorized call.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

from .errors import QuadratureError

__all__ = ["adaptive_gauss_kronrod"]

# 15-point Kronrod abscissae/weights with the embedded 7-point Gauss rule
# (standard QUADPACK values on [-1, 1]).
_XGK = np.array(
    [
        -0.991455371120812639206854697526329,
        -0.949107912342758524526189684047851,
        -0.864864423359769072789712788640926,
        -0.741531185599394439863864773280788,
        -0.586087235467691130294144838258730,
        -0.405845151377397166906606412076961,
        -0.207784955007898467600689403773245,
        0.0,
        0.207784955007898467600689403773245,
        0.405845151377397166906606412076961,
        0.586087235467691130294144838258730,
        0.741531185599394439863864773280788,
        0.864864423359769072789712788640926,
        0.949107912342758524526189684047851,
        0.991455371120812639206854697526329,
    ]
)
_WGK = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
        0.204432940075298892414161999234649,
        0.190350578064785409913256402421014,
        0.169004726639267902826583426598550,
        0.140653259715525918745189590510238,
        0.104790010322250183839876322541518,
        0.063092092629978553290700663189204,
        0.022935322010529224963732008058970,
    ]
)
# Gauss weights apply to the odd-indexed Kronrod nodes.
_WG = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
        0.381830050505118944950369775488975,
        0.279705391489276667901467771423780,
        0.129484966168869693270611432679082,
    ]
)


def _panel(f: Callable[[np.ndarray], np.ndarray], a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid + half * _XGK), dtype=float)
    kronrod = half * float(np.dot(_WGK, fx))
    gauss = half * float(np.dot(_WG, fx[1::2]))
    err = abs(kronrod - gauss)
    return kronrod, err


def adaptive_gauss_kronrod(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    rel_tol: float,
    abs_tol: float,
    max_subdivisions: int,
) -> tuple[float, float, int]:
    """Integrate ``f`` on [a, b]; returns (value, error_estimate, evaluations).

    Raises :class:`QuadratureError` if the subdivision budget is exhausted
    before the error estimate meets ``max(abs_tol, rel_tol * |value|)``.
    """
    if not (b > a):
        raise ValueError(f"need b > a, got [{a!r}, {b!r}]")
    value, err = _panel(f, a, b)
    evals = 15
    # (negated error, order counter, a, b, value, error); heap pops worst panel
    heap = [(-err, 0, a, b, value, err)]
    counter = 1
    for _ in range(max_subdivisions):
        total = sum(item[4] for item in heap)
        total_err = sum(item[5] for item in heap)
        if total_err <= max(abs_tol, rel_tol * abs(total)):
            return total, total_err, evals
        _, _, pa, pb, _, _ = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        for qa, qb in ((pa, pm), (pm, pb)):
            v, e = _panel(f, qa, qb)
            evals += 15
            heapq.heappush(heap, (-e, counter, qa, qb, v, e))
            counter += 1
        if pb - pa < 1e-14 * (abs(pa) + abs(pb) + 1.0):
            raise QuadratureError(
                f"panel at [{pa!r}, {pb!r}] too small to subdivide further"
            )
    total = sum(item[4] for item in heap)
    total_err = sum(item[5] for item in heap)
    if total_err <= max(abs_tol, rel_tol * abs(total)):
        return total, total_err, evals
    raise QuadratureError(
        f"quadrature on [{a!r}, {b!r}] did not converge after "
        f"{max_subdivisions} subdivisions (error {total_err:.3e})"
    )
