"""The adaptive Gauss-Kronrod rule on its own."""

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

    def wrapper(x):
        assert x.ndim == 2 and x.shape[1] == 15
        calls.append(x.shape[0])
        return f(x)

    return wrapper, calls


def test_several_intervals_agree_with_scipy_quad():
    cases = [
        (lambda x: np.sin(3.0 * x) * np.exp(-x), [0.0], [4.0]),
        (np.sqrt, [0.0], [2.0]),  # a derivative singularity at the left end
        (lambda x: 1.0 / (1.0 + x * x), [-5.0, 0.0], [0.0, 5.0]),  # two panels that meet at 0
        (lambda x: np.cos(40.0 * x), [0.0], [1.0]),
    ]
    for fn, a, b in cases:
        f, calls = counted(fn)
        value, error, evals = adaptive_gauss_kronrod(f, a, b, **TOLERANCES)
        assert isinstance(evals, int) and evals == 15 * sum(calls)
        want = quad(lambda t: float(fn(np.array(t))), a[0], b[-1], limit=200, epsabs=1e-13)[0]
        assert value == pytest.approx(want, rel=1e-9, abs=1e-11)
        assert error <= max(TOLERANCES["abs_tol"], TOLERANCES["rel_tol"] * abs(value))
    assert len(calls) > 1  # cos(40x) needs refining


def test_the_tolerance_applies_to_the_whole_integral():
    # exp(-x) converges on its panel at once; cos(40x) on the other needs
    # bisections, and those stay on its panel.
    f, calls = counted(lambda x: np.where(x < 1.0, np.exp(-x), np.cos(40.0 * (x - 1.0))))
    value, _, _ = adaptive_gauss_kronrod(f, [0.0, 1.0], [1.0, 2.0], **TOLERANCES)
    assert value == pytest.approx(1.0 - math.exp(-1.0) + math.sin(40.0) / 40.0, abs=1e-12)
    assert calls[0] == 2 and len(calls) > 1
    with pytest.raises(QuadratureError, match="1 subdivisions"):
        adaptive_gauss_kronrod(
            f, [0.0, 1.0], [1.0, 2.0], rel_tol=1e-10, abs_tol=1e-12, max_subdivisions=1
        )


def test_one_panel_integrates_polynomials_to_degree_22_exactly():
    rng = np.random.default_rng(22)
    lo, hi = -1.0, 3.0
    for degree in range(23):
        c = rng.uniform(-1.0, 1.0, degree + 1)
        f, calls = counted(lambda x: poly.polyval(x, c))
        value, _, evals = adaptive_gauss_kronrod(
            f, [lo], [hi], rel_tol=0.0, abs_tol=math.inf, max_subdivisions=0
        )
        assert calls == [1] and evals == 15  # no bisection
        antiderivative = poly.polyint(c)
        want = poly.polyval(hi, antiderivative) - poly.polyval(lo, antiderivative)
        scale = poly.polyval(hi, poly.polyint(np.abs(c))) * (hi - lo)
        assert abs(value - want) <= 1e-14 * max(scale, 1.0)


def test_an_interval_that_cannot_converge_raises():
    # 1/x is not integrable on [0, 1].
    with pytest.raises(QuadratureError):
        adaptive_gauss_kronrod(lambda x: 1.0 / x, [0.0], [1.0], **TOLERANCES)


def test_rejects_an_empty_panel():
    with pytest.raises(ValueError):
        adaptive_gauss_kronrod(lambda x: x, [0.0, 1.0], [1.0, 1.0], **TOLERANCES)
