"""Fast self-test of the benchmark.

    python3 sweepbench/selftest.py

Runs every workload on its tiny grid through the same code as a real
run (fresh repetition processes, the same digest checks), untraced and
traced, and checks that the outputs are correct and that every metric
``BENCHMARK.json`` names is emitted with its unit.  Then it tampers
with one stored record of a finished tiny sweep, on each store
backend, and checks that the digest check reports it.  Exits 0 when
every check passes.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List

import run
from workloads import WORKLOADS, Workload


def check_result(
    result: Dict[str, Any], declared: List[Dict[str, Any]], label: str
) -> List[str]:
    """Problems with one run's result against the declared metrics."""
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: {result['failed']} of {result['attempted']} failed")
    for metric in declared:
        emitted = result["metrics"].get(metric["name"])
        if emitted is None:
            problems.append(f"{label}: {metric['name']} not emitted")
        elif emitted["unit"] != metric["unit"]:
            problems.append(
                f"{label}: {metric['name']} in {emitted['unit']}, declared {metric['unit']}"
            )
    undeclared = set(result["metrics"]) - {metric["name"] for metric in declared}
    if undeclared:
        problems.append(f"{label}: undeclared metrics {sorted(undeclared)}")
    return problems


def tamper_check(workload: Workload) -> List[str]:
    """Nudge one stored makespan by one ulp; the rows digest must catch it."""
    sys.path.insert(0, str(run.ROOT / "src"))
    import rep
    from repro.perf.backends import open_store

    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        workdir = Path(tmp)
        locator = rep.store_locator(workload, workdir)
        rep.run_phase(workload, locator, tiny=True)
        store = open_store(locator)
        key = next(iter(workload.grid(tiny=True).keys()))
        record = store.record(key)
        value = dict(record["value"])
        value["makespan_s"] = math.nextafter(value["makespan_s"], math.inf)
        store.put(key, value, kernel=record["meta"]["kernel"], params=record["meta"]["params"])
        _, rows, table = rep.merge_table_phase(workload, locator, workdir / "rows.json", True)
        failures = rep.check_outputs(rep.golden(workload, True), rows, table)
    if not any(failure.startswith("merged rows") for failure in failures):
        return [f"{workload.name}: a tampered {workload.backend} record passed the digest check"]
    return []


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    names = [workload["name"] for workload in declared["workloads"]]
    if names != list(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {list(WORKLOADS)}")
    for name in WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run_workload(name, seed=0, seconds=0, trace=trace, tiny=True)
            problems += check_result(result, declared[kind], f"{name} --trace {int(trace)}")
    for name in ("prefetch_sweep", "codepair_time_sweep"):
        problems += tamper_check(WORKLOADS[name])
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
