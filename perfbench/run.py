"""fmls benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Steps: check the independent oracle against ``bs_price`` at alpha = 2 (and
refuse to report if it disagrees), compute reference prices, time set-up in
fresh interpreters, run the closed loop in one single-threaded worker
process, check every operation against the oracle, and print the metrics.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics for ``--trace 0`` and the
per-layer metrics of a traced run for ``--trace 1``.

Times are host-speed normalized.  The machine this benchmark was built on
shares its CPU with other tenants, and a fixed loop there runs up to about
twice as slow for tens of seconds at a time, so raw wall times of two runs of
the same code differ by more than any useful bound.  The worker times a fixed
calibration kernel every quarter second, between requests, and each wall
time is scaled by REFERENCE_CALIBRATION_S over the calibration time around
it: the result is the wall time at the reference speed.  Set-up is scaled in
two parts: the first request like any request, and ``import fmls`` by
REFERENCE_IMPORT_S over the median time of ``import numpy`` in as many
fresh interpreters of its own: import time does not follow the
calibration kernel's speed.  Raw wall times are printed beside
the scaled ones.

An operation is one contract priced or one implied-vol solve.  It fails if
it raises a ``NumericalError``, or if its result is off the oracle by more
than its own ``error_estimate + 1e-6*K`` (for a solve: the oracle price at
the returned sigma is off the target by more than 1e-6*K).  A non-finite
result fails too.

Known engine defects fail on purpose: the workloads keep the contracts
the program gets wrong today, and ``fail_share`` counts them.  The
committed baseline (the ``gate`` of baseline.json, made by record_gate.py)
holds the verdict of every operation a workload can run, on the program the
benchmark was made for.  ``failed`` in the JSON line counts the operations
that fail although the baseline got them right: zero for a program no worse
than the baseline.  ``correct`` is false when that count is not zero, or
when a request that ran twice gave different outcomes.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere, here or in a worker.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

import workloads
from oracle import OracleError, call_price
from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9  # fresh interpreters per run, the loop worker's included
SELF_CHECK_POINTS = 5  # log2 of seeded alpha = 2 contracts checked per run
SELF_CHECK_TOL = 1e-9  # |oracle - bs_price| / K
PRICE_TOL = 1e-6  # failure slack, per unit strike
GATE = json.loads((HERE / "baseline.json").read_text())["gate"]
VERDICT_CHARS = {"ok": ".", "raise": "r", "wrong": "w"}  # baseline verdicts
WORKER_TIMEOUT_S = 150.0
# worker.calibration_s() on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4)
# while other tenants left it at full speed.
REFERENCE_CALIBRATION_S = 2.0e-3
# ``import numpy`` in a fresh interpreter on the same VM at full speed.
REFERENCE_IMPORT_S = 0.075

UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The run cannot produce a trustworthy result."""


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def self_check(seed: int, pool: list[dict]) -> float:
    """Worst |oracle - bs_price| / K on the pool's alpha = 2 contracts plus
    seeded alpha = 2 contracts over the oracle-sweep box."""
    from fmls.bs import bs_price
    from fmls.model import OptionSpec

    contracts = {op for req in pool for op in workloads.operations(req) if op[4] == 2.0}
    contracts.update(workloads.sweep_contracts(seed + 1, SELF_CHECK_POINTS, alpha_two_only=True))
    worst = 0.0
    for spot, strike, sigma, tau, _ in sorted(contracts):
        bs = bs_price(OptionSpec(spot=spot, strike=strike, rate=workloads.RATE, sigma=sigma, tau=tau))
        gap = abs(call_price(spot, strike, workloads.RATE, sigma, tau, 2.0) - bs) / strike
        worst = max(worst, gap)
    if not worst <= SELF_CHECK_TOL:
        raise BenchError(f"oracle self-check failed: |oracle - bs_price|/K = {worst:.3e}")
    return worst


def references(pool: list[dict]) -> list[list[float]]:
    """Oracle price per operation of each request; adds ``target`` to solves."""
    memo: dict[tuple, float] = {}

    def price(spot, strike, sigma, tau, alpha) -> float:
        key = (spot, strike, sigma, tau, alpha)
        if key not in memo:
            memo[key] = call_price(spot, strike, workloads.RATE, sigma, tau, alpha)
        return memo[key]

    refs = []
    for req in pool:
        if req["kind"] == "iv":
            req["target"] = price(req["spot"], req["strike"], req["sigma_true"], req["tau"], req["alpha"])
            refs.append([req["target"]])
        else:
            refs.append([price(*op) for op in workloads.operations(req)])
    return refs


def classify(outcome: list, reference: float, strike: float) -> tuple[str, float]:
    """('ok' | 'raise' | 'wrong', error in basis points of strike) of one
    operation.  A non-finite result is wrong, and its error is not finite."""
    if isinstance(outcome[0], str):
        return "raise", math.nan
    price, error_estimate = outcome
    gap = abs(price - reference)
    ok = math.isfinite(gap) and math.isfinite(error_estimate) and gap <= error_estimate + PRICE_TOL * strike
    return ("ok" if ok else "wrong"), gap / strike * 1e4


def solve_outcome(req: dict, outcome: list) -> list:
    """A solve's outcome in price space: ``[oracle price at the returned
    sigma, 0]``, with a NaN price when the oracle cannot price that sigma."""
    if isinstance(outcome[0], str):
        return outcome
    sigma = outcome[0]
    price = math.nan
    if math.isfinite(sigma) and sigma > 0.0:
        try:
            price = call_price(req["spot"], req["strike"], req["rate"], sigma, req["tau"], req["alpha"])
        except (OracleError, ArithmeticError):
            pass
    return [price, 0.0]


def strikes(req: dict) -> list[float]:
    """Strike of each operation of a request."""
    return req["strikes"] if req["kind"] == "chain" else [req["strike"]]


def op_key(req: dict, strike: float) -> str:
    """Names one operation: engine (or ``iv``) and contract."""
    if req["kind"] == "iv":
        return json.dumps(["iv", req["spot"], strike, req["sigma_true"], req["tau"], req["alpha"]])
    return json.dumps([req.get("engine", "series"), req["spot"], strike, req["sigma"], req["tau"], req["alpha"]])


def pool_sha256(pool: list[dict]) -> str:
    """Fingerprint of a pool as generated (without the oracle targets)."""
    plain = [{k: v for k, v in req.items() if k != "target"} for req in pool]
    return hashlib.sha256(json.dumps(plain, sort_keys=True).encode()).hexdigest()


def expectations(workload: str) -> dict[str, str]:
    """Baseline verdict character of each operation the workload can run,
    by op key.  Refuses a pool that is not the one the baseline recorded."""
    pool = workloads.WORKLOADS[workload](0)
    gate = GATE[workload]
    if pool_sha256(pool) != gate["pool_sha256"]:
        raise BenchError(f"the {workload} pool is not the one baseline.json recorded")
    keys = [op_key(req, strike) for req in pool for strike in strikes(req)]
    if len(keys) != len(gate["verdicts"]):
        raise BenchError(f"baseline.json has {len(gate['verdicts'])} verdicts for {len(keys)} {workload} operations")
    return dict(zip(keys, gate["verdicts"]))


def verdicts(pool: list[dict], refs: list, outcomes: list) -> list[list[tuple]]:
    """(layer, op key, verdict, error in bp) of each operation of each
    request that ran."""
    out = []
    for req, ref, result in zip(pool, refs, outcomes):
        if result is None:
            out.append([])
            continue
        if req["kind"] == "iv":
            layer, result = "series", [solve_outcome(req, result[0])]
        else:
            layer = workloads.ENGINE_LAYER[req.get("engine", "series")]
        out.append([
            (layer, op_key(req, strike), *classify(outcome, reference, strike))
            for outcome, reference, strike in zip(result, ref, strikes(req))
        ])
    return out


def account(pool: list[dict], refs: list, outcomes: list, executions: list, expected: dict[str, str]) -> dict:
    """Failures per layer and cause, weighted by how often each request ran.
    ``regressed`` counts the failures of operations whose ``expected``
    baseline verdict is ok (an operation missing from it is expected ok);
    ``fixed`` names the operations the baseline failed that now pass."""
    tally: dict[str, float] = {}
    attempted = failed = regressed = 0
    max_err_bp = 0.0
    lost, fixed = set(), set()
    for ops, runs in zip(verdicts(pool, refs, outcomes), executions):
        for layer, key, verdict, err_bp in ops:
            attempted += runs
            if math.isfinite(err_bp):
                max_err_bp = max(max_err_bp, err_bp)
            baseline_ok = expected.get(key, VERDICT_CHARS["ok"]) == VERDICT_CHARS["ok"]
            if verdict != "ok":
                failed += runs
                tally[f"{layer}.{verdict}_share"] = tally.get(f"{layer}.{verdict}_share", 0) + runs
                if baseline_ok:
                    regressed += runs
                    lost.add(key)
            elif not baseline_ok:
                fixed.add(key)
    shares = {
        f"{layer}.{cause}_share": tally.get(f"{layer}.{cause}_share", 0) / attempted
        for layer in ("series", "charfn", "greens")
        for cause in ("raise", "wrong")
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "regressed": regressed,
        "fail_share": failed / attempted,
        "max_err_bp": max_err_bp,
        "lost": sorted(lost),
        "fixed": sorted(fixed),
        **shares,
    }


def run_worker(mode: str, seconds: float, requests: list[dict], spans_path: Path | None = None) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "worker.py"), mode, repr(seconds)]
    if spans_path is not None:
        cmd.append(str(spans_path))
    done = subprocess.run(
        cmd,
        input=json.dumps({"requests": requests}),
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise BenchError(f"worker {mode} exited with {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout)


def scaled_latencies_s(loop: dict) -> list[float]:
    """Request wall times at the reference speed.  A request between two
    calibration samples is scaled by the mean of the two."""
    out = []
    latencies = loop["latencies_s"]
    for (first, before), (last, after) in zip(loop["calibration"], loop["calibration"][1:]):
        factor = REFERENCE_CALIBRATION_S / (0.5 * (before + after))
        out.extend(t * factor for t in latencies[first:last])
    return out


def end_to_end(setups: list[dict], imports: list[dict], loop: dict, scale: bool = True) -> dict[str, float]:
    """The gated metrics; ``scale=False`` gives the raw wall-time values."""
    if scale:
        import_factor = REFERENCE_IMPORT_S / statistics.median(i["import_s"] for i in imports)
        setup = [
            s["import_s"] * import_factor + s["first_request_s"] * REFERENCE_CALIBRATION_S / s["setup_calibration_s"]
            for s in setups
        ]
        lat_ms = [1e3 * t for t in scaled_latencies_s(loop)]
    else:
        setup = [s["import_s"] + s["first_request_s"] for s in setups]
        lat_ms = [1e3 * t for t in loop["latencies_s"]]
    return {
        "setup_s": statistics.median(setup),
        "throughput_per_s": 1e3 * len(lat_ms) / sum(lat_ms),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "peak_rss_mb": loop["peak_rss_mb"],
    }


def trace_overhead_pct(loop: dict) -> float:
    """Traced over untraced mean scaled request time, on the same requests."""
    traced, plain = scaled_latencies_s(loop), scaled_latencies_s(loop["untraced"])
    paired = min(len(traced), len(plain))
    return 100.0 * (sum(traced[:paired]) / sum(plain[:paired]) - 1.0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fmls" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'fmls'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment(args.seed)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    pool = workloads.WORKLOADS[args.workload](args.seed)
    try:
        worst = self_check(args.seed, pool)
        print(f"oracle self-check: worst |oracle - bs_price|/K = {worst:.2e} at alpha = 2 (limit {SELF_CHECK_TOL:.0e})")
        expected = expectations(args.workload)
        refs = references(pool)
        if args.trace:
            spans_path = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.parent.mkdir(exist_ok=True)
            loop = run_worker("trace", args.seconds, pool, spans_path)
        else:
            setups, imports = [], []
            for _ in range(SETUP_SAMPLES):
                imports.append(run_worker("import", 0.0, []))
                if len(setups) < SETUP_SAMPLES - 1:
                    setups.append(run_worker("setup", 0.0, pool[:1]))
            loop = run_worker("loop", args.seconds, pool)
            setups.append(loop)
        acc = account(pool, refs, loop["outcomes"], loop["executions"], expected)
    except (BenchError, OracleError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    requests = len(loop["latencies_s"])
    correct = loop["mismatches"] == 0 and acc["regressed"] == 0
    print(f"requests={requests} operations={acc['attempted']} failed the oracle={acc['failed']} "
          f"nondeterministic={loop['mismatches']}")
    print(f"oracle gate: {acc['failed'] - acc['regressed']} failures the baseline has too, "
          f"{acc['regressed']} new ({len(acc['lost'])} distinct operations), "
          f"{len(acc['fixed'])} baseline failures now right -> correct={correct}")
    for key in acc["lost"]:
        print(f"  lost: {key}")
    if args.trace:
        values = dict(loop["layers"], **{k: v for k, v in acc.items() if k in PER_LAYER})
        values["trace.overhead_pct"] = trace_overhead_pct(loop)
        metrics = {name: (values[name], unit) for name, (unit, _) in PER_LAYER.items()}
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        for name, (unit, note) in PER_LAYER.items():
            print(f"  {name:<38s} {values[name]:>12.6g} {unit:<6s} {note}")
    else:
        metrics = {name: (value, UNITS[name]) for name, value in end_to_end(setups, imports, loop).items()}
        wall = end_to_end(setups, imports, loop, scale=False)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<18s} {value:>14.6g} {unit:<5s} (wall {wall[name]:.6g})")
        for name in ("fail_share", "max_err_bp"):
            print(f"  {name:<18s} {acc[name]:>14.6g} {PER_LAYER[name][0]}")
        speed = statistics.median(c for _, c in loop["calibration"]) / REFERENCE_CALIBRATION_S
        print(f"  (setup: median of {len(setups)} fresh interpreters; latency: {requests} requests, "
              f"{requests // 10} beyond p90; closed loop, one caller; host at 1/{speed:.3f} "
              "of reference speed)")
    print(json.dumps({
        "correct": correct,
        "attempted": acc["attempted"],
        "failed": acc["regressed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
