"""Nested contour trapezoid: equivalence with per-level re-evaluation, and work."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fmls import greens
from fmls.errors import QuadratureError
from fmls.greens import MellinLineSettings
from fmls.model import OptionSpec, StableModel


def reference_transform(log_x, ratio_fn, line, prefactor):
    """The transform as it was before nested refinement: every halving
    re-evaluates all nodes and sums with a complex exponential."""
    probe = np.arange(0.0, line.y_max + greens._H_START, greens._H_START)
    mags = np.abs(ratio_fn(probe))
    if mags[-1] > greens._TAIL_TOL:
        raise QuadratureError(
            f"contour integrand still {mags[-1]:.3e} at y_max={line.y_max!r}; "
            "increase y_max"
        )
    big = np.nonzero(mags >= greens._RATIO_CUTOFF)[0]
    y_eff = probe[int(big[-1])] + greens._H_START if big.size else greens._H_START

    def level(h):
        ys = np.arange(0.0, y_eff + 0.5 * h, h)
        ratio = ratio_fn(ys)
        weights = np.full(ys.size, h)
        weights[0] = 0.5 * h
        weights[-1] = 0.5 * h
        out = (np.exp(1j * np.outer(log_x, ys)) @ (weights * ratio)).real
        noise = np.abs(prefactor) * float(np.dot(weights, np.abs(ratio))) * 1e-16
        return prefactor * out, noise

    if line.step is not None:
        return level(line.step)[0]
    h = greens._H_START
    current, _ = level(h)
    for _ in range(greens._MAX_HALVINGS):
        h *= 0.5
        refined, noise = level(h)
        if np.all(np.abs(refined - current) < np.maximum(greens._STEP_TOL, 8.0 * noise)):
            return refined
        current = refined
    raise QuadratureError(
        f"contour trapezoid did not settle below {greens._STEP_TOL:.0e} "
        f"after {greens._MAX_HALVINGS} halvings"
    )


def _outcome(transform, log_x, ratio_fn, line, prefactor):
    try:
        return transform(log_x, ratio_fn, line, prefactor)
    except QuadratureError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(1.05, 2.0, exclude_min=True),
    c1=st.floats(0.1, 0.9),
    negative=st.booleans(),
    log_x=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=8),
    step=st.none() | st.floats(0.02, 0.3),
)
def test_nested_transform_matches_per_level_reevaluation(alpha, c1, negative, log_x, step):
    log_x = np.array(log_x)
    line = MellinLineSettings(c1=c1, step=step)
    prefactor = np.exp((c1 - 1.0) * log_x) / (alpha * math.pi)

    def ratio_fn(ys):
        return greens._line_ratio(ys, alpha, c1, negative)

    want = _outcome(reference_transform, log_x, ratio_fn, line, prefactor)
    got = _outcome(greens._half_line_transform, log_x, ratio_fn, line, prefactor)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert float(np.max(np.abs(got - want))) <= 1e-12


def _counted_transform(alpha, negative, log_x):
    """Sizes of the ``ratio_fn`` calls of one density transform (c1 = 0.5)."""
    sizes = []

    def ratio_fn(ys):
        sizes.append(ys.size)
        return greens._line_ratio(ys, alpha, 0.5, negative)

    prefactor = np.exp(-0.5 * log_x) / (alpha * math.pi)
    greens._half_line_transform(log_x, ratio_fn, MellinLineSettings(), prefactor)
    return sizes


@pytest.mark.parametrize("alpha", [1.5, 1.7, 2.0])
@pytest.mark.parametrize("negative", [False, True])
def test_each_contour_node_is_evaluated_once(alpha, negative):
    sizes = _counted_transform(alpha, negative, np.linspace(-3.0, 3.0, 9))
    probe = np.arange(0.0, MellinLineSettings().y_max + greens._H_START, greens._H_START)
    mags = np.abs(greens._line_ratio(probe, alpha, 0.5, negative))
    n0 = int(np.nonzero(mags >= greens._RATIO_CUTOFF)[0][-1]) + 1  # y_eff / 0.25
    halvings = len(sizes) - 1
    assert sizes[0] == probe.size
    assert halvings >= 1
    assert sum(sizes) == probe.size + n0 * (2**halvings - 1)


def test_paper_contract_work_at_alpha_two():
    spec = OptionSpec(spot=3800, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
    model = StableModel.from_spec(spec, 2.0)
    grid = greens.default_pricing_grid(model, spec)
    scale = (-model.mu * spec.tau) ** (1.0 / model.alpha)
    x = grid.ys / scale
    # Per branch: the 1601-node probe, then 207 and 414 new odd nodes over two
    # halvings (re-evaluating every level would take 3053).
    for negative in (False, True):
        part = x[x < 0.0] if negative else x[x > 0.0]
        sizes = _counted_transform(2.0, negative, np.log(np.abs(part)))
        assert sizes == [1601, 207, 414]
