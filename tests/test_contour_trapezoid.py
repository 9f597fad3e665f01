"""Contour trapezoid: the nested transform against per-level re-evaluation,
its work, the per-thread slot that keeps the last alpha's contour and the
last model's density grids, the blocked phase sum against the direct one,
and the negative-branch ratio against its four-Gamma form."""

import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fmls import greens
from fmls.errors import QuadratureError
from fmls.model import OptionSpec, StableModel
from fmls.greens import _log_sinpi_vec, _loggamma_vec


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
    """Sizes of the ``ratio_fn`` calls of one density transform on the
    default contour, c1 = (1 - alpha)/2."""
    c1 = 0.5 * (1.0 - alpha)
    sizes = []

    def ratio_fn(ys):
        sizes.append(ys.size)
        return greens._line_ratio(ys, alpha, c1, negative)

    prefactor = np.exp((c1 - 1.0) * log_x) / (alpha * math.pi)
    greens._half_line_transform(log_x, ratio_fn, prefactor)
    return sizes


# The probe's first 32 nodes and its extrapolated runs, then each halving's
# new odd nodes.  The decay guard at y = 400 reads the probe's own nodes.
_NODE_CALLS = {
    (1.5, False): ([32, 300], [322]),
    (1.5, True): ([32, 80], [107, 214]),
    (1.7, False): ([32, 241], [263]),
    (1.7, True): ([32, 115], [141]),
    (2.0, False): ([32, 198], [219]),
    (2.0, True): ([32, 198], [219]),
}


@pytest.mark.parametrize("alpha", [1.5, 1.7, 2.0])
@pytest.mark.parametrize("negative", [False, True])
def test_each_contour_node_is_evaluated_once(alpha, negative):
    sizes = _counted_transform(alpha, negative, np.linspace(-3.0, 3.0, 9))
    probe = np.arange(0.0, greens._Y_MAX + greens._H_START, greens._H_START)
    mags = np.abs(greens._line_ratio(probe, alpha, 0.5 * (1.0 - alpha), negative))
    n0 = int(np.nonzero(mags >= greens._RATIO_CUTOFF)[0][-1]) + 1  # y_eff / 0.25
    probe_runs, halving_runs = _NODE_CALLS[alpha, negative]
    assert sizes == probe_runs + halving_runs
    # The probe stops a few nodes past the cutoff, and every node is new.
    probed = sum(probe_runs)
    assert n0 + greens._PROBE_PAD <= probed <= n0 + 16
    assert halving_runs == [n0 * 2**k for k in range(len(halving_runs))]


def _paper_model(alpha):
    spec = OptionSpec(spot=3800, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
    return StableModel.from_spec(spec, alpha), spec


def test_paper_contract_work_at_alpha_two():
    model, spec = _paper_model(2.0)
    grid = greens.default_pricing_grid(model, spec)
    scale = (-model.mu * spec.tau) ** (1.0 / model.alpha)
    x = grid.ys / scale
    # Per branch: the probe's 32 + 198 nodes (219 up to the cutoff and 11
    # past it), then 219 new odd nodes in one halving (c1 = 0.5 took
    # 384 + 207 + 414 = 1005 over two).
    for negative in (False, True):
        part = x[x < 0.0] if negative else x[x > 0.0]
        sizes = _counted_transform(2.0, negative, np.log(np.abs(part)))
        assert sizes == [32, 198, 219]


def _recording(calls, kernel):
    def record(z):
        calls.append(np.array(z))
        return kernel(z)

    return record


def test_both_branches_share_each_contour_node(monkeypatch):
    model, spec = _paper_model(2.0)
    grid = greens.default_pricing_grid(model, spec)
    scale = (-model.mu * spec.tau) ** (1.0 / model.alpha)
    vars(greens._SLOT).clear()  # the grid's build left alpha = 2 warm
    args = []
    monkeypatch.setattr(greens, "_loggamma_vec", _recording(args, _loggamma_vec))
    greens.stable_density_values(grid.ys / scale, 2.0)
    # One call per run of the branch above (32, 198, then 219 nodes): log
    # Gamma(1-t) and log Gamma(1-t/2) of the run's nodes, in that order.
    # Both branches read them, and no argument repeats.
    assert [a.size for a in args] == [2 * 32, 2 * 198, 2 * 219]
    for a in args:
        one_minus_t = a[: a.size // 2]
        np.testing.assert_array_equal(a[a.size // 2 :], 1.0 - (1.0 - one_minus_t) / 2.0)
    points = np.concatenate(args)
    assert np.unique(points).size == points.size


def _count_kernels(monkeypatch):
    gammas, sines = [], []
    monkeypatch.setattr(greens, "_loggamma_vec", _recording(gammas, _loggamma_vec))
    monkeypatch.setattr(greens, "_log_sinpi_vec", _recording(sines, _log_sinpi_vec))
    return gammas, sines


@pytest.mark.parametrize("alpha", [1.5, 1.6, 1.7, 1.8, 1.9, 2.0])
def test_one_call_per_kernel_per_contour_run_of_a_paper_price(monkeypatch, alpha):
    # A paper price evaluates its contour in three runs, the probe's 32
    # nodes, its extrapolated run and the one halving, and each run costs
    # one log-Gamma call and one log-sine call.  The grid widened at
    # alpha <= 1.6 reads the first build's contour.
    model, spec = _paper_model(alpha)
    gammas, sines = _count_kernels(monkeypatch)
    result = greens.discretized_price(model, spec)
    assert result.diagnostics["widenings"] == (1 if alpha <= 1.6 else 0)
    assert len(gammas) == 3
    assert len(sines) == 3
    # Two arguments per node: 1 - t and 1 - t/alpha for log Gamma, rho*t
    # and t/alpha for log sin, whose branch takes y = 0 in closed form.
    assert gammas[0].size == 2 * greens._PROBE_START
    assert sines[0].size == 2 * (greens._PROBE_START - 1)
    assert all(a.size % 2 == 0 for a in gammas + sines)


def test_a_widened_price_evaluates_each_contour_node_once(monkeypatch):
    # At alpha = 1.5 the default grid's edge leaks, so the price builds a
    # second, wider grid; it reads the first build's contour.
    model, spec = _paper_model(1.5)
    args = []
    builds = []
    build = greens.build_density_grid

    def counting(*a, **kw):
        builds.append((a, kw))
        return build(*a, **kw)

    monkeypatch.setattr(greens, "_loggamma_vec", _recording(args, _loggamma_vec))
    monkeypatch.setattr(greens, "build_density_grid", counting)
    greens.discretized_price(model, spec)
    assert len(builds) == 2
    points = np.concatenate(args)
    assert np.unique(points).size == points.size
    # Here the wider grid needs no node the first did not: the price costs
    # the log-Gamma points of one build at the final bounds on a cold slot.
    args.clear()
    vars(greens._SLOT).clear()
    a, kw = builds[-1]
    build(*a, **kw)
    assert np.concatenate(args).size == points.size


_PAPER_CELLS = [
    (alpha, spot) for alpha in (1.5, 1.6, 1.7, 1.8, 1.9, 2.0) for spot in (3800.0, 4200.0)
]


def _paper_price(alpha, spot):
    spec = OptionSpec(spot=spot, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
    return greens.discretized_price(StableModel.from_spec(spec, alpha), spec)


@pytest.mark.parametrize("alpha", [1.5, 1.7, 2.0])
def test_a_warm_price_evaluates_no_contour_node(monkeypatch, alpha):
    gammas, sines = _count_kernels(monkeypatch)
    cold = _paper_price(alpha, 3800.0)
    assert (len(gammas), len(sines)) == (3, 3)
    # The same price again, and the other spot, read the slot's contour.
    for spot in (3800.0, 4200.0, 3800.0):
        gammas.clear()
        sines.clear()
        warm = _paper_price(alpha, spot)
        assert (gammas, sines) == ([], [])
    assert warm == cold


def test_a_new_alpha_replaces_the_slot(monkeypatch):
    gammas, _ = _count_kernels(monkeypatch)
    _paper_price(1.7, 3800.0)
    _paper_price(1.8, 3800.0)
    assert greens._SLOT.alpha == 1.8
    assert {c.alpha for c in greens._SLOT.contours.values()} == {1.8}
    gammas.clear()
    _paper_price(1.7, 3800.0)  # evicted: the contour is evaluated again
    assert len(gammas) == 3


def test_an_explicit_c1_is_not_kept(monkeypatch):
    gammas, _ = _count_kernels(monkeypatch)
    x = np.concatenate([-np.logspace(-6.0, 1.0, 8), np.logspace(-6.0, 1.0, 8)])
    greens.stable_density_values(x, 1.7, c1=0.3)
    assert not vars(greens._SLOT)
    default = greens.stable_density_values(x, 1.7)
    # The default contour and, for the points nearest zero, c1 = 0.5.
    kept = dict(greens._SLOT.contours)
    assert sorted(kept) == [0.5 * (1.0 - 1.7), 0.5]
    for c1 in (0.3, 0.5):
        gammas.clear()
        greens.stable_density_values(x, 1.7, c1=c1)
        assert gammas  # a contour of its own, evaluated afresh
    assert greens._SLOT.contours == kept
    assert all(greens._SLOT.contours[c] is kept[c] for c in kept)
    np.testing.assert_array_equal(greens.stable_density_values(x, 1.7), default)


def test_each_thread_has_its_own_slot():
    _paper_price(1.7, 3800.0)
    kept = dict(greens._SLOT.contours)
    seen = []

    def other():
        seen.append(dict(vars(greens._SLOT)))
        _paper_price(1.8, 3800.0)
        seen.append(greens._SLOT.alpha)

    thread = threading.Thread(target=other)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert seen == [{}, 1.8]
    assert greens._SLOT.alpha == 1.7
    assert all(greens._SLOT.contours[c] is kept[c] for c in kept)


def test_threads_pricing_concurrently_match_the_serial_prices():
    serial = [_paper_price(*cell) for cell in _PAPER_CELLS]
    # Each thread starts at another cell, so the threads' slots hold
    # different alphas; a short switch interval interleaves them often.
    starts = [0, 3, 6, 9]
    barrier = threading.Barrier(len(starts))
    got = {}

    def run(start):
        barrier.wait(timeout=60)
        cells = _PAPER_CELLS[start:] + _PAPER_CELLS[:start]
        got[start] = [_paper_price(*cell) for cell in cells * 2]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(start,)) for start in starts]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for start in starts:
        assert got[start] == (serial[start:] + serial[:start]) * 2


def _count_density_calls(monkeypatch):
    calls = []
    density = greens.stable_density_values

    def counting(x, alpha, c1=None):
        calls.append(np.size(x))
        return density(x, alpha, c1)

    monkeypatch.setattr(greens, "stable_density_values", counting)
    return calls


def _price(alpha, spot=3800.0, strike=4000.0, rate=0.01, sigma=0.2, tau=1.0, refine=0):
    spec = OptionSpec(spot=spot, strike=strike, rate=rate, sigma=sigma, tau=tau)
    return greens.discretized_price(StableModel.from_spec(spec, alpha), spec, refine)


@pytest.mark.parametrize("refine", [0, 1, 2])
def test_every_contract_of_one_model_prices_from_the_kept_grids(monkeypatch, refine):
    # The grid depends on (alpha, sigma, tau) only: after one price, another
    # spot, strike or rate takes no density call, and prices bit for bit as
    # on a cold slot.
    calls = _count_density_calls(monkeypatch)
    for alpha, spot in _PAPER_CELLS:
        base = dict(spot=spot, refine=refine)
        others = [
            dict(base, spot=8000.0 - spot),
            dict(base, strike=3900.0),
            dict(base, rate=0.05),
        ]
        cold = []
        for contract in others:
            vars(greens._SLOT).clear()
            cold.append(_price(alpha, **contract))
        vars(greens._SLOT).clear()
        calls.clear()
        _price(alpha, **base)
        assert calls
        calls.clear()
        assert [_price(alpha, **contract) for contract in others] == cold
        assert calls == []


def test_a_new_model_builds_new_grids_and_keeps_only_them(monkeypatch):
    calls = _count_density_calls(monkeypatch)
    gammas, _ = _count_kernels(monkeypatch)
    _price(1.5)
    # A new sigma or tau at the same alpha reads the kept contour; a new
    # alpha evaluates its own.
    for change in (dict(sigma=0.25), dict(tau=0.5), dict(alpha=1.6), dict(alpha=1.8)):
        calls.clear()
        gammas.clear()
        model = dict(dict(alpha=1.5, sigma=0.2, tau=1.0), **change)
        result = _price(**model)
        assert calls
        assert bool(gammas) == ("alpha" in change)
        spec = OptionSpec(
            spot=3800.0, strike=4000.0, rate=0.01, sigma=model["sigma"], tau=model["tau"]
        )
        m = StableModel.from_spec(spec, model["alpha"])
        assert greens._SLOT.grid_model == (m.alpha, m.mu, spec.tau, 141)
        # One grid per width, the widest the price's.
        scale = (-m.mu * spec.tau) ** (1.0 / m.alpha)
        widths = [y_max / scale for _, y_max in greens._SLOT.grids]
        assert widths == pytest.approx([11.0 * 1.5**k for k in range(len(widths))], rel=1e-14)
        assert widths[-1] == pytest.approx(result.diagnostics["half_width"], rel=1e-15)


def test_a_kept_grid_is_read_only():
    model, spec = _paper_model(1.7)
    grid = greens.default_pricing_grid(model, spec)
    assert grid is greens.default_pricing_grid(model, spec)
    before = grid.values.copy()
    with pytest.raises(ValueError):
        grid.values[0] = 1.0
    with pytest.raises(ValueError):
        grid.values *= 2.0
    np.testing.assert_array_equal(grid.values, before)
    assert _paper_price(1.7, 3800.0) == _paper_price(1.7, 3800.0)


def test_the_slot_keeps_the_last_four_widths(monkeypatch):
    calls = _count_density_calls(monkeypatch)
    model, spec = _paper_model(2.0)
    scale = (-model.mu * spec.tau) ** (1.0 / model.alpha)

    def build(width):
        return greens.build_density_grid(
            model.alpha, model.mu, spec.tau, -width * scale, width * scale, 141
        )

    grids = [build(width) for width in (6.0, 8.0, 10.0, 12.0, 14.0)]
    assert list(greens._SLOT.grids.values()) == grids[1:]
    calls.clear()
    assert all(build(width) is grid for width, grid in zip((8.0, 10.0, 12.0, 14.0), grids[1:]))
    assert calls == []
    assert build(6.0) is not grids[0]  # the oldest was dropped
    assert calls == [141]


@pytest.mark.parametrize("alpha", [1.5, 1.7])
def test_branches_with_different_cutoffs_share_each_node(monkeypatch, alpha):
    # Below alpha = 2 the X < 0 ratio decays faster: each of its calls asks
    # for a prefix or an extension of the X > 0 call at the same level, so
    # each level evaluates the longer of the two runs once.
    args = []
    monkeypatch.setattr(greens, "_loggamma_vec", _recording(args, _loggamma_vec))
    log_x = np.linspace(-3.0, 3.0, 9)
    greens.stable_density_values(np.concatenate([-np.exp(log_x), np.exp(log_x)]), alpha)
    points = np.concatenate(args)
    assert np.unique(points).size == points.size
    per_level = itertools.zip_longest(
        _counted_transform(alpha, False, log_x),
        _counted_transform(alpha, True, log_x),
        fillvalue=0,
    )
    assert points.size == 2 * sum(max(pair) for pair in per_level)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 2000), min_size=1, max_size=2),
    dy=st.floats(1e-3, 1.0),
    start_at_dy=st.booleans(),
    log_x=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_phase_sum_matches_the_direct_sum(sizes, dy, start_at_dy, log_x, seed):
    # One run, or two on one step whose starts differ by half a step, as
    # the first level and the first halving share them.
    rng = np.random.default_rng(seed)
    log_x = np.array(log_x)
    y0 = dy if start_at_dy else 0.0
    runs = [
        (y0 + 0.5 * dy * r, rng.standard_normal(size) + 1j * rng.standard_normal(size))
        for r, size in enumerate(sizes)
    ]
    got = greens._phase_sum(log_x, dy, runs)
    assert got.shape == (log_x.size, len(runs))
    eps = np.finfo(float).eps
    for (start, coeffs), column in zip(runs, got.T):
        phase = np.outer(log_x, start + dy * np.arange(coeffs.size))
        want = np.cos(phase) @ coeffs.real - np.sin(phase) @ coeffs.imag
        tol = 4.0 * eps * (1.0 + float(np.max(np.abs(phase)))) * float(np.sum(np.abs(coeffs)))
        assert float(np.max(np.abs(column - want))) <= tol


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
