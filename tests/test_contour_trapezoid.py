"""Contour trapezoid: the nested transform against per-level re-evaluation,
its work, the blocked phase sum against the direct one, and the
negative-branch ratio against its four-Gamma form."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fmls import greens
from fmls.errors import QuadratureError
from fmls.model import OptionSpec, StableModel
from fmls.special_functions import _loggamma_vec


def reference_transform(log_x, ratio_fn, prefactor):
    """The transform as it was before nested refinement: every halving
    re-evaluates all nodes and sums with a complex exponential."""
    probe = np.arange(0.0, greens._Y_MAX + greens._H_START, greens._H_START)
    mags = np.abs(ratio_fn(probe))
    if mags[-1] > greens._TAIL_TOL:
        raise QuadratureError(
            f"contour integrand still {mags[-1]:.3e} at y = {greens._Y_MAX:g}: it has "
            "not decayed because alpha is too close to 1"
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


def _outcome(transform, log_x, ratio_fn, prefactor):
    try:
        return transform(log_x, ratio_fn, prefactor)
    except QuadratureError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(1.05, 2.0, exclude_min=True),
    c1=st.floats(0.1, 0.9),
    negative=st.booleans(),
    log_x=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=8),
)
def test_nested_transform_matches_per_level_reevaluation(alpha, c1, negative, log_x):
    log_x = np.array(log_x)
    prefactor = np.exp((c1 - 1.0) * log_x) / (alpha * math.pi)

    def ratio_fn(ys):
        return greens._line_ratio(ys, alpha, c1, negative)

    want = _outcome(reference_transform, log_x, ratio_fn, prefactor)
    got = _outcome(greens._half_line_transform, log_x, ratio_fn, prefactor)
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
    greens._half_line_transform(log_x, ratio_fn, prefactor)
    return sizes


@pytest.mark.parametrize("alpha", [1.5, 1.7, 2.0])
@pytest.mark.parametrize("negative", [False, True])
def test_each_contour_node_is_evaluated_once(alpha, negative):
    sizes = _counted_transform(alpha, negative, np.linspace(-3.0, 3.0, 9))
    probe = np.arange(0.0, greens._Y_MAX + greens._H_START, greens._H_START)
    mags = np.abs(greens._line_ratio(probe, alpha, 0.5, negative))
    n0 = int(np.nonzero(mags >= greens._RATIO_CUTOFF)[0][-1]) + 1  # y_eff / 0.25
    # The tail node, then probe blocks up to the first one wholly below the
    # cutoff, then each level's new nodes.
    block = greens._PROBE_BLOCK
    probed = min(((n0 - 1) // block + 2) * block, probe.size)
    probe_sizes = [min(block, probed - lo) for lo in range(0, probed, block)]
    halvings = len(sizes) - 1 - len(probe_sizes)
    assert sizes[: 1 + len(probe_sizes)] == [1] + probe_sizes
    assert halvings >= 1
    assert sum(sizes) == 1 + probed + n0 * (2**halvings - 1)


def test_paper_contract_work_at_alpha_two():
    spec = OptionSpec(spot=3800, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
    model = StableModel.from_spec(spec, 2.0)
    grid = greens.default_pricing_grid(model, spec)
    scale = (-model.mu * spec.tau) ** (1.0 / model.alpha)
    x = grid.ys / scale
    # Per branch: the tail node at y = 400, three 128-node probe blocks (the
    # third lies wholly below the cutoff), then 207 and 414 new odd nodes over
    # two halvings (re-evaluating every level would take 3053).
    for negative in (False, True):
        part = x[x < 0.0] if negative else x[x > 0.0]
        sizes = _counted_transform(2.0, negative, np.log(np.abs(part)))
        assert sizes == [1, 128, 128, 128, 207, 414]


def test_both_branches_share_each_contour_node(monkeypatch):
    spec = OptionSpec(spot=3800, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
    model = StableModel.from_spec(spec, 2.0)
    grid = greens.default_pricing_grid(model, spec)
    scale = (-model.mu * spec.tau) ** (1.0 / model.alpha)
    args = []

    def recording(z):
        args.append(np.array(z))
        return _loggamma_vec(z)

    monkeypatch.setattr(greens, "_loggamma_vec", recording)
    greens.stable_density_values(grid.ys / scale, 2.0)
    # log Gamma(1-t) and log Gamma(1-t/2) at the 1 + 384 + 207 + 414 nodes of
    # one branch (above); both branches read them, and no argument repeats.
    points = np.concatenate(args)
    assert points.size == 2 * (1 + 384 + 207 + 414)
    assert np.unique(points).size == points.size


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(1, 2000),
    dy=st.floats(1e-3, 1.0),
    start_at_dy=st.booleans(),
    log_x=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_phase_sum_matches_the_direct_sum(size, dy, start_at_dy, log_x, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    log_x = np.array(log_x)
    y0 = dy if start_at_dy else 0.0
    phase = np.outer(log_x, y0 + dy * np.arange(size))
    want = np.cos(phase) @ coeffs.real - np.sin(phase) @ coeffs.imag
    got = greens._phase_sum(log_x, y0, dy, coeffs)
    eps = np.finfo(float).eps
    tol = 4.0 * eps * (1.0 + float(np.max(np.abs(phase)))) * float(np.sum(np.abs(coeffs)))
    assert float(np.max(np.abs(got - want))) <= tol


def four_gamma_ratio(ys, alpha, c1):
    """The X < 0 contour ratio Gamma(t/alpha) Gamma(1-t) / (Gamma(rho*t)
    Gamma(1-rho*t)) as four log-Gamma terms, without the reflection."""
    t = c1 + 1j * ys
    rho = (alpha - 1.0) / alpha
    lg = (
        _loggamma_vec(t / alpha)
        + _loggamma_vec(1.0 - t)
        - _loggamma_vec(rho * t)
        - _loggamma_vec(1.0 - rho * t)
    )
    return np.exp(lg)


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(1.02, 2.0, exclude_min=True), c1=st.floats(0.1, 0.9))
def test_negative_branch_ratio_matches_the_four_gamma_form(alpha, c1):
    ys = np.arange(0.0, greens._Y_MAX + greens._H_START, greens._H_START)
    want = four_gamma_ratio(ys, alpha, c1)
    got = greens._line_ratio(ys, alpha, c1, negative=True)
    kept = np.abs(want) >= greens._RATIO_CUTOFF
    assert np.all(np.abs(got[kept] - want[kept]) <= 1e-13 * np.abs(want[kept]))
