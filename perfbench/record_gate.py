"""Record the oracle gate of the benchmark in baseline.json.

    PYTHONPATH=src python3 perfbench/record_gate.py

Run it from the root of a checkout, on the program the baseline describes
and on nothing else.  For each workload it prices the unrotated pool once
(every operation any seed can run), checks every operation against the
oracle, and writes ``gate`` into baseline.json: per workload, the SHA-256 of
the pool and one verdict character per operation, in pool order (see
run.VERDICT_CHARS).  A later run fails an operation that this program got
right only if the program got worse; see run.account.
"""

from __future__ import annotations

import json

import run
import workloads
from worker import run_request


def record() -> dict:
    import fmls

    gate = {}
    for name, make in workloads.WORKLOADS.items():
        pool = make(0)
        sha = run.pool_sha256(pool)
        refs = run.references(pool)
        outcomes = [run_request(fmls, req) for req in pool]
        verdicts = "".join(run.VERDICT_CHARS[v[2]] for ops in run.verdicts(pool, refs, outcomes) for v in ops)
        print(f"{name}: {len(verdicts)} operations, {len(verdicts) - verdicts.count('.')} fail", flush=True)
        gate[name] = {"pool_sha256": sha, "verdicts": verdicts}
    return gate


def main() -> None:
    path = run.HERE / "baseline.json"
    baseline = json.loads(path.read_text())
    baseline["gate"] = record()
    path.write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    main()
