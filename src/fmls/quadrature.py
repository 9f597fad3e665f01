"""Adaptive Gauss-Kronrod quadrature, refined in levels.

A 7/15 Gauss-Kronrod pair on panels.  The integral starts from the panels
the caller gives it (the strips of a half-line cut, say).  One level makes
one vectorized integrand call with every new panel, so the call count is
the number of levels, not of panels.  The tolerance applies to the whole
integral: at each level the worst panels are bisected, worst first, until
the panels left whole carry no more error than the tolerance.
"""

from __future__ import annotations

from collections.abc import Callable

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
    f: Callable[[np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    *,
    rel_tol: float,
    abs_tol: float,
    max_subdivisions: int,
) -> tuple[float, float, int]:
    """Integrate ``f`` over the union of the panels [a[k], b[k]]; returns
    (value, error, evaluations).

    Each level calls ``f(x)`` once: row k of ``x`` holds the 15 Kronrod
    nodes of a new panel, and ``f`` returns an array shaped like ``x``.  The
    integral is done once its panel errors sum to at most
    ``max(abs_tol, rel_tol * |value|)``; until then it spends at most
    ``max_subdivisions`` bisections.  Raises :class:`QuadratureError` if it
    runs out of them, or must split a panel too narrow to halve.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if not np.all(b > a):
        raise ValueError("every panel needs b > a")
    budget, evals = max_subdivisions, 0
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
        tol = max(abs_tol, rel_tol * abs(value))
        if total_err <= tol:
            return value, total_err, evals
        # Worst first: split each panel while those left whole carry more
        # error than the tolerance.
        panels = panels[np.argsort(-panels[:, 3])]
        whole = total_err - (np.cumsum(panels[:, 3]) - panels[:, 3])
        split = (whole > tol) & (np.arange(len(panels)) < budget)
        if not split[0]:
            raise QuadratureError(
                f"quadrature did not converge within {max_subdivisions} "
                f"subdivisions (error {total_err:.3e})"
            )
        pa, pb = panels[split, 0], panels[split, 1]
        if np.any(pb - pa < 1e-14 * (np.abs(pa) + np.abs(pb) + 1.0)):
            raise QuadratureError("a panel is too small to subdivide further")
        budget -= pa.size
        a, b = np.repeat(pa, 2), np.repeat(pb, 2)
        a[1::2] = b[::2] = 0.5 * (pa + pb)
        panels = panels[~split]
