"""The benchmark process that imports fmls and times it.

    python3 perfbench/worker.py import|setup|loop|trace SECONDS [SPANS_PATH] < job.json

stdin holds ``{"requests": [...]}`` (see workloads.py); stdout gets one JSON
object.  ``import`` only times ``import numpy``, the program's one outside
dependency, to calibrate set-up times.  Every other mode first times set-up:
``import fmls``, then the first request.  ``loop`` then runs the closed loop for
SECONDS, and on until MIN_REQUESTS requests have returned.  ``trace`` runs it untraced for half the time and traced for the
other half, over the same requests, and writes the spans to SPANS_PATH.

An outcome is ``[price, error_estimate]``, ``[sigma]`` for an implied-vol
solve, or ``[exception class name]`` for a raised ``fmls.NumericalError``.
Any other exception is a defect of the program, not a failed operation: it
ends the worker with a traceback and the run reports nothing.

Between requests, every ``CALIBRATE_EVERY_S``, the loop also times a fixed
calibration kernel (outside any request), so the runner can scale request
times to a reference host speed; see ``run.py``.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from time import perf_counter

CALIBRATE_EVERY_S = 0.25
MIN_REQUESTS = 100  # so that ten samples lie beyond p90


def calibration_s() -> float:
    """Median of three timings of a fixed kernel, half interpreter-bound
    scalar math and half numpy complex vector work, like the program."""
    import numpy as np

    z = np.linspace(0.1, 2.0, 1024) + 0.5j
    times = []
    for _ in range(3):
        start = perf_counter()
        acc = 0.0
        for i in range(1, 9001):
            acc += math.log(i) * 0.5
        for _ in range(12):
            acc += float(np.abs(np.exp(z * 1.5j) @ np.log(z)))
        times.append(perf_counter() - start)
    return statistics.median(times)


def _price(fmls, engine: str, req: dict, strike: float) -> list:
    try:
        spec = fmls.model.OptionSpec(
            spot=req["spot"], strike=strike, rate=req["rate"], sigma=req["sigma"], tau=req["tau"]
        )
        model = fmls.model.StableModel.from_spec(spec, req["alpha"])
        if engine == "series":
            result = fmls.series.price_series(model, spec)
        elif engine == "gil_pelaez":
            result = fmls.charfn.gil_pelaez_price(model, spec)
        else:
            result = fmls.greens.discretized_price(model, spec)
    except fmls.NumericalError as exc:  # a failed operation, counted
        return [type(exc).__name__]
    return [result.price, result.error_estimate]


def _solve(fmls, req: dict) -> list:
    try:
        return [
            fmls.series.implied_vol(
                req["spot"], req["strike"], req["rate"], req["tau"], req["alpha"], req["target"]
            )
        ]
    except fmls.NumericalError as exc:  # a failed operation, counted
        return [type(exc).__name__]


def run_request(fmls, req: dict) -> list:
    """Outcomes of one request, one per operation."""
    if req["kind"] == "iv":
        return [_solve(fmls, req)]
    if req["kind"] == "chain":
        return [_price(fmls, "series", req, k) for k in req["strikes"]]
    return [_price(fmls, req["engine"], req, req["strike"])]


def timed_loop(fmls, requests: list, seconds: float, tracer=None) -> dict:
    """Closed loop over the pool, round-robin from its start, for ``seconds``
    and at least MIN_REQUESTS requests."""
    latencies = []
    results = []
    calibration = [[0, calibration_s()]]  # [index of the next request, seconds]
    start = now = last_calibration = perf_counter()
    deadline = start + seconds
    i = 0
    while now < deadline or i < MIN_REQUESTS:
        if tracer is not None:
            tracer.request = i
        req = requests[i % len(requests)]
        t = perf_counter()
        out = run_request(fmls, req)
        now = perf_counter()
        latencies.append(now - t)
        results.append(out)
        i += 1
        if now - last_calibration >= CALIBRATE_EVERY_S:
            calibration.append([i, calibration_s()])
            now = last_calibration = perf_counter()
    calibration.append([i, calibration_s()])
    outcomes = [None] * len(requests)
    executions = [0] * len(requests)
    mismatches = 0
    for i, out in enumerate(results):
        j = i % len(requests)
        if outcomes[j] is None:
            outcomes[j] = out
        elif out != outcomes[j]:
            mismatches += 1
        executions[j] += 1
    return {
        "latencies_s": latencies,
        "calibration": calibration,
        "outcomes": outcomes,
        "executions": executions,
        "mismatches": mismatches,
    }


def _peak_rss_mb() -> float:
    """High-water resident set of this process image.

    ``ru_maxrss`` is not used: Linux carries it across exec, so it would
    report the parent's size at spawn.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(argv: list[str]) -> None:
    mode, seconds = argv[1], float(argv[2])
    requests = json.load(sys.stdin)["requests"]
    start = perf_counter()
    if mode == "import":
        import numpy  # noqa: F401

        json.dump({"import_s": perf_counter() - start}, sys.stdout)
        return
    import fmls

    imported = perf_counter()
    run_request(fmls, requests[0])
    report = {
        "import_s": imported - start,
        "first_request_s": perf_counter() - imported,
        "setup_calibration_s": calibration_s(),
    }
    if mode == "loop":
        report.update(timed_loop(fmls, requests, seconds))
        report["peak_rss_mb"] = _peak_rss_mb()
    elif mode == "trace":
        from tracing import Tracer

        report["untraced"] = timed_loop(fmls, requests, seconds / 2.0)
        with Tracer() as tracer:
            report.update(timed_loop(fmls, requests, seconds / 2.0, tracer))
        ops = sum(len(o) * e for o, e in zip(report["outcomes"], report["executions"]) if o)
        report["layers"] = tracer.layer_metrics(ops)
        with open(argv[3], "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "request", "size"],
                    "spans": tracer.spans,
                    "counts": {k: {"calls": c, "seconds": s, "zeros": z} for k, (c, s, z) in tracer.counts.items()},
                },
                fh,
            )
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main(sys.argv)
