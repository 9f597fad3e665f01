"""Tests of the benchmark itself: inputs, oracle, failure accounting, tracing.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import math
import sys

import pytest

import run
import workloads
from tracing import COUNT_TARGETS, PER_LAYER, SPAN_TARGETS, Tracer

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_is_deterministic_for_a_seed(name):
    assert workloads.WORKLOADS[name](7) == workloads.WORKLOADS[name](7)
    if name != "paper_matrix":  # the paper's cells do not depend on the seed
        assert workloads.WORKLOADS[name](7) != workloads.WORKLOADS[name](8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_the_baseline_has_a_verdict_for_every_operation_of_every_seed(name):
    expected = run.expectations(name)
    assert set(expected.values()) <= set(run.VERDICT_CHARS.values())
    for seed in (0, 5, 123):
        pool = workloads.WORKLOADS[name](seed)
        assert {run.op_key(req, k) for req in pool for k in run.strikes(req)} == set(expected)


def test_oracle_self_check_passes_at_alpha_two():
    pool = workloads.paper_matrix(3)
    assert run.self_check(3, pool) <= run.SELF_CHECK_TOL


def test_a_raise_and_an_out_of_bound_price_each_count_as_one_failure():
    pool = workloads.paper_matrix(0)[:4]
    strike = pool[0]["strike"]
    refs = [[100.0]] * 4
    slack = run.PRICE_TOL * strike
    outcomes = [
        [["ConvergenceError"]],
        [[100.0 + 0.5 + 1.01 * slack, 0.5]],  # just outside its own bound
        [[100.0 + 0.5 + 0.99 * slack, 0.5]],  # just inside
        [[math.nan, 0.5]],
    ]
    acc = run.account(pool, refs, outcomes, [1, 1, 1, 1], {})
    assert (acc["attempted"], acc["failed"], acc["regressed"]) == (4, 3, 3)
    engines = [workloads.ENGINE_LAYER[req["engine"]] for req in pool]
    assert acc[f"{engines[0]}.raise_share"] == pytest.approx(1 / 4)
    assert acc[f"{engines[1]}.wrong_share"] + acc[f"{engines[3]}.wrong_share"] == pytest.approx(2 / 4)
    assert sum(v for k, v in acc.items() if k.endswith("_share") and "." in k) == pytest.approx(3 / 4)
    assert acc["max_err_bp"] == pytest.approx((0.5 + 1.01 * slack) / strike * 1e4)


def test_a_solve_at_a_sigma_the_oracle_cannot_price_is_one_failure():
    pool = workloads.smile_calibration(0)[:1]
    refs = run.references(pool)
    for sigma in (math.nan, -0.2, 1e300):
        acc = run.account(pool, refs, [[[sigma]]], [1], {})
        assert (acc["attempted"], acc["failed"], acc["series.wrong_share"]) == (1, 1, 1.0)
    good = run.account(pool, refs, [[[pool[0]["sigma_true"]]]], [1], {})
    assert (good["failed"], good["lost"]) == (0, [])


def test_only_a_failure_the_baseline_got_right_counts_against_the_program():
    pool = workloads.paper_matrix(0)
    expected = run.expectations("paper_matrix")
    keys = [run.op_key(req, req["strike"]) for req in pool]
    good = next(i for i, k in enumerate(keys) if expected[k] == ".")
    bad = next(i for i, k in enumerate(keys) if expected[k] != ".")
    both = [pool[good], pool[bad]]
    raised = [[["QuadratureError"]], [["QuadratureError"]]]
    acc = run.account(both, [[100.0], [100.0]], raised, [2, 3], expected)
    assert (acc["attempted"], acc["failed"], acc["regressed"]) == (5, 5, 2)
    assert acc["lost"] == [keys[good]] and acc["fixed"] == []
    right = [[[100.0, 0.0]], [[100.0, 0.0]]]
    acc = run.account(both, [[100.0], [100.0]], right, [1, 1], expected)
    assert (acc["failed"], acc["regressed"], acc["fixed"]) == (0, 0, [keys[bad]])


def test_only_a_numerical_error_is_a_failed_operation():
    import fmls
    from worker import run_request

    bad = dict(workloads.paper_matrix(0)[0], alpha=2.5)  # rejected by the model
    with pytest.raises(ValueError):
        run_request(fmls, bad)


def test_the_loop_runs_at_least_the_minimum_number_of_requests(monkeypatch):
    import worker

    monkeypatch.setattr(worker, "run_request", lambda fmls, req: [[1.0, 0.0]])
    loop = worker.timed_loop(None, [{}], 0.0)
    assert len(loop["latencies_s"]) == worker.MIN_REQUESTS


def test_a_chain_counts_each_strike_and_each_execution():
    chain = dict(workloads.strike_chain(1)[0], strikes=[90.0, 100.0, 110.0])
    outcomes = [[[10.0, 0.0], ["SeriesOverflowError"], [1.0, 0.0]]]
    acc = run.account([chain], [[10.0, 5.0, 1.0]], outcomes, [2], {})
    assert (acc["attempted"], acc["failed"]) == (6, 2)
    assert acc["series.raise_share"] == pytest.approx(1 / 3)


def test_request_times_are_scaled_by_the_calibration_around_them():
    ref = run.REFERENCE_CALIBRATION_S
    loop = {"latencies_s": [1.0, 1.0, 1.0], "calibration": [[0, ref], [2, 3 * ref], [3, 2 * ref]]}
    assert run.scaled_latencies_s(loop) == pytest.approx([0.5, 0.5, 0.4])
    # set-up: the import by the numpy import time, the first request by the kernel
    setups = [{"import_s": 0.3, "first_request_s": 0.1, "setup_calibration_s": 2 * ref}]
    imports = [{"import_s": 3 * run.REFERENCE_IMPORT_S}]
    loop["peak_rss_mb"] = 1.0
    assert run.end_to_end(setups, imports, loop)["setup_s"] == pytest.approx(0.1 + 0.05)
    assert run.end_to_end(setups, imports, loop, scale=False)["setup_s"] == pytest.approx(0.4)


def test_traced_run_restores_every_rebound_name():
    import fmls
    from worker import run_request

    targets = SPAN_TARGETS + COUNT_TARGETS
    originals = [getattr(importlib.import_module(m), n) for m, n in targets]
    requests = [req for req in workloads.paper_matrix(0) if req["alpha"] == 2.0]
    with pytest.raises(KeyError):
        with Tracer() as tracer:
            for i, req in enumerate(requests):
                tracer.request = i
                run_request(fmls, req)
            raise KeyError("leave the block by an exception")
    assert [getattr(importlib.import_module(m), n) for m, n in targets] == originals
    names = {span[0] for span in tracer.spans}
    assert {"series.price_series", "charfn.adaptive_gauss_kronrod", "greens._loggamma_vec"} <= names
    assert tracer.counts["series.series_term"][0] > 0
    metrics = tracer.layer_metrics(len(requests))
    assert set(metrics) <= set(PER_LAYER)
    assert metrics["greens.grid_builds_per_price"] >= 1.0


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v[0] for k, v in PER_LAYER.items()}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
