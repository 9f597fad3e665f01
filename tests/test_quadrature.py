"""The batched adaptive Gauss-Kronrod rule on its own."""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as poly
from scipy.integrate import quad

from fmls.errors import QuadratureError
from fmls.quadrature import adaptive_gauss_kronrod

TOLERANCES = {"rel_tol": 1e-10, "abs_tol": 1e-12, "max_subdivisions": 200}


def counted(f):
    """``f`` with a record of the number of rows of each call."""
    calls = []

    def wrapper(x, owner):
        assert x.shape == (owner.size, 15)
        assert np.all(np.diff(owner) >= 0)
        calls.append(owner.size)
        return f(x, owner)

    return wrapper, calls


def test_several_intervals_agree_with_scipy_quad():
    functions = [
        lambda x: np.sin(3.0 * x) * np.exp(-x),
        np.sqrt,  # a derivative singularity at the left end
        lambda x: 1.0 / (1.0 + x * x),
        lambda x: np.cos(40.0 * x),
    ]
    bounds = [(0.0, 4.0), (0.0, 2.0), (-5.0, 5.0), (0.0, 1.0)]
    # Interval 2 starts as two panels that meet at 0.
    a = [0.0, 0.0, -5.0, 0.0, 0.0]
    b = [4.0, 2.0, 0.0, 5.0, 1.0]
    owner = [0, 1, 2, 2, 3]

    def f(x, owner):
        out = np.empty_like(x)
        for i, fn in enumerate(functions):
            rows = owner == i
            out[rows] = fn(x[rows])
        return out

    f, calls = counted(f)
    values, errors, evals = adaptive_gauss_kronrod(f, a, b, owner, **TOLERANCES)
    assert isinstance(evals, int) and evals == 15 * sum(calls)
    assert len(calls) > 1  # sqrt and cos(40x) need refining
    for fn, (lo, hi), value, error in zip(functions, bounds, values, errors):
        want = quad(lambda t: float(fn(np.array(t))), lo, hi, limit=200, epsabs=1e-13)[0]
        assert value == pytest.approx(want, rel=1e-9, abs=1e-11)
        assert error <= max(TOLERANCES["abs_tol"], TOLERANCES["rel_tol"] * abs(value))


def test_one_panel_integrates_polynomials_to_degree_22_exactly():
    rng = np.random.default_rng(22)
    coeffs = [rng.uniform(-1.0, 1.0, degree + 1) for degree in range(23)]
    lo, hi = -1.0, 3.0

    def f(x, owner):
        return np.array([poly.polyval(row, coeffs[i]) for row, i in zip(x, owner)])

    f, calls = counted(f)
    count = len(coeffs)
    values, _, evals = adaptive_gauss_kronrod(
        f, [lo] * count, [hi] * count, range(count),
        rel_tol=0.0, abs_tol=math.inf, max_subdivisions=0,
    )
    assert calls == [count] and evals == 15 * count  # no bisection
    for c, value in zip(coeffs, values):
        antiderivative = poly.polyint(c)
        want = poly.polyval(hi, antiderivative) - poly.polyval(lo, antiderivative)
        scale = poly.polyval(hi, poly.polyint(np.abs(c))) * (hi - lo)
        assert abs(value - want) <= 1e-14 * max(scale, 1.0)


def test_an_interval_that_cannot_converge_raises():
    # 1/x is not integrable on [0, 1]; the other interval is harmless.
    def f(x, owner):
        return np.where(owner[:, None] == 0, 1.0 / x, np.exp(-x))

    with pytest.raises(QuadratureError):
        adaptive_gauss_kronrod(f, [0.0, 0.0], [1.0, 1.0], [0, 1], **TOLERANCES)


def test_each_interval_keeps_its_own_budget():
    # cos(40x) on [0, 1] needs bisections; exp(-x) converges on one panel.
    def f(x, owner):
        return np.where(owner[:, None] == 0, np.exp(-x), np.cos(40.0 * x))

    values, _, evals = adaptive_gauss_kronrod(
        f, [0.0, 0.0], [1.0, 1.0], [0, 1], **TOLERANCES
    )
    assert values[0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-14)
    assert values[1] == pytest.approx(math.sin(40.0) / 40.0, abs=1e-12)
    with pytest.raises(QuadratureError, match="interval 1"):
        adaptive_gauss_kronrod(
            f, [0.0, 0.0], [1.0, 1.0], [0, 1],
            rel_tol=1e-10, abs_tol=1e-12, max_subdivisions=1,
        )


def test_rejects_an_empty_panel():
    with pytest.raises(ValueError):
        adaptive_gauss_kronrod(
            lambda x, owner: x, [0.0, 1.0], [1.0, 1.0], [0, 1], **TOLERANCES
        )
