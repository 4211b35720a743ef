"""Cold design-space sweep benchmark.

    python3 sweepbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (no install needed; the sources under
``src/`` are used directly).  Each repetition is a fresh process
(``rep.py``) with a fresh store under ``.sweepbench/`` and no
``REPRO_*`` environment, so every sweep is cold, serial and
single-shard.  Repetitions run in rounds: one repetition per CPU the
benchmark may use, at most two, each pinned to its own CPU.  Rounds run
until ``--seconds`` is spent, and at least two always run.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics: medians over the
repetitions of times adjusted for the speed their CPU ran at
(``speed.py``); query latencies are pooled over them.  ``--trace 1`` traces
one repetition of each round (every other round on one CPU) and reports
the per-layer metrics of the traced ones plus the tracing overhead.
``README.md`` lists every metric and the layer and workload it belongs
to.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".sweepbench"

#: Whole-run ceiling: the last round must start early enough to end
#: before it.
HARD_LIMIT_S = 170.0

#: Repetitions of one round run side by side, one per CPU.  The CPUs
#: of a shared host speed up and slow down independently of each other
#: over seconds to minutes, so a round samples two of them at once.
MAX_PARALLEL = 2


def _child_env() -> Dict[str, str]:
    env = {
        name: value
        for name, value in os.environ.items()
        if not name.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # Scratch files of SQLite and tempfile stay inside the checkout.
    env["TMPDIR"] = env["SQLITE_TMPDIR"] = str(WORK / "tmp")
    return env


def _round(
    workload: str,
    seed: int,
    first: int,
    slots: Sequence[Tuple[Optional[int], bool]],
    tiny: bool,
    timeout: float,
) -> List[Dict[str, Any]]:
    """Run one repetition per ``(cpu, traced)`` slot, side by side.

    Side-by-side repetitions start their read-backs together, once every
    sweep of the round is done, so a read-back never shares the host
    with another repetition's sweep.  Every child is waited for, and
    killed first if it is still running when the round fails or runs
    out of time.
    """
    children = []
    deadline = time.perf_counter() + timeout
    try:
        for offset, (cpu, traced) in enumerate(slots):
            workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
            argv = [
                sys.executable, str(HERE / "rep.py"), workload, str(workdir),
                "--seed", str(seed), "--rep", str(first + offset),
                "--trace", str(int(traced)),
            ]
            if cpu is not None:
                argv += ["--cpu", str(cpu)]
            if len(slots) > 1:
                argv.append("--sync")
            if tiny:
                argv.append("--tiny")
            # Output goes to files: a pipe left unread while another
            # child is awaited could fill and stall its writer.
            with open(workdir / "out.json", "w") as out, open(
                workdir / "err.txt", "w"
            ) as err:
                proc = subprocess.Popen(
                    argv, cwd=ROOT, env=_child_env(), stdout=out, stderr=err
                )
            children.append((proc, workdir, traced))
        if len(slots) > 1:
            # A child that exits before it is ready fails the round below.
            while not all(
                (workdir / "ready").exists() or proc.poll() is not None
                for proc, workdir, _ in children
            ):
                if time.perf_counter() > deadline:
                    raise TimeoutError(f"the sweeps of a {workload} round ran out of time")
                time.sleep(0.005)
            for _, workdir, _ in children:
                (workdir / "go").touch()
        results = []
        for proc, workdir, traced in children:
            proc.wait(timeout=max(deadline - time.perf_counter(), 0.0))
            if proc.returncode != 0:
                sys.stderr.write((workdir / "err.txt").read_text())
                raise RuntimeError(
                    f"a repetition of {workload} exited {proc.returncode}"
                )
            result = json.loads((workdir / "out.json").read_text().splitlines()[-1])
            result["traced"] = traced
            results.append(result)
        return results
    finally:
        for proc, workdir, _ in children:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            shutil.rmtree(workdir, ignore_errors=True)


def _percentile(values: List[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _pooled(reps: List[Dict[str, Any]], kind: str) -> List[float]:
    """Every repetition's ``kind`` query latencies, in ms."""
    return [1000.0 * v for r in reps for v in r["latencies"][kind]]


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics of untraced repetitions."""

    def median(name: str) -> float:
        return statistics.median(r[name] for r in reps)

    values = {
        "setup_s": (median("setup_s"), "s"),
        "sweep_s": (median("sweep_s"), "s"),
        "sim_gates_per_s": (
            statistics.median(r["sim_gates"] / r["run_s"] for r in reps),
            "1/s",
        ),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        "table_query_p50_ms": (_percentile(_pooled(reps, "table"), 50), "ms"),
        "cell_query_p50_ms": (_percentile(_pooled(reps, "cell"), 50), "ms"),
        "queries_per_s": (
            sum(r["requests"] for r in reps) / sum(r["seconds"] for r in reps),
            "1/s",
        ),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


#: Units of the per-layer metrics that are not a ``.calls`` count or a
#: ``_s`` time.
_LAYER_UNITS = {
    "sim.fastsplit.share": "ratio",
    "sim.replay.extractions_per_cell": "ratio",
    "service.http_overhead_ms": "ms",
    "cell_query_p99_ms": "ms",
    "model.transfers_sum": "count",
    "model.makespan_s_sum": "s",
    "model.hit_rate_mean": "ratio",
    "model.logical_error_sum": "prob",
    "trace.overhead_frac": "ratio",
    "error_rate": "ratio",
}


def _layer_unit(name: str) -> str:
    if name in _LAYER_UNITS:
        return _LAYER_UNITS[name]
    return "count" if name.endswith(".calls") else "s"


def per_layer(
    reps: List[Dict[str, Any]], attempted: int, failed: int
) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics: medians over the traced repetitions.

    The cell-latency tail comes from the untraced repetitions of the
    run: it is too noisy on a shared host for an end-to-end bound.
    """
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    values: Dict[str, float] = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    values.update(traced[0]["model"])
    values["trace.overhead_frac"] = (
        statistics.median(r["sweep_s"] for r in traced)
        / statistics.median(r["sweep_s"] for r in plain)
        - 1.0
    )
    values["cell_query_p99_ms"] = _percentile(_pooled(plain, "cell"), 99)
    values["error_rate"] = failed / attempted
    return {
        name: {"value": value, "unit": _layer_unit(name)}
        for name, value in sorted(values.items())
    }


def _cpus() -> List[Optional[int]]:
    """The CPUs a round's repetitions are pinned to (``None``: unpinned)."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[:MAX_PARALLEL] if len(cpus) > 1 else [None]


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False
) -> Dict[str, Any]:
    """Run one workload; returns the result object ``main`` prints."""
    WORK.mkdir(exist_ok=True)
    (WORK / "tmp").mkdir(exist_ok=True)
    compileall.compile_dir(ROOT / "src", quiet=1)
    cpus = _cpus()
    started = time.perf_counter()
    reps: List[Dict[str, Any]] = []
    rounds = 0
    while True:
        if len(cpus) > 1:
            # The last slot of every round is traced.
            slots = [(cpu, trace and cpu == cpus[-1]) for cpu in cpus]
        else:
            slots = [(None, trace and rounds % 2 == 1)]
        elapsed = time.perf_counter() - started
        done = _round(
            workload, seed, len(reps), slots, tiny, timeout=HARD_LIMIT_S - elapsed
        )
        rounds += 1
        for index, rep in enumerate(done, start=len(reps)):
            print(
                f"rep {index}{' traced' if rep['traced'] else ''}: "
                f"setup {rep['setup_s']:.3f} s, sweep {rep['sweep_s']:.3f} s "
                f"(measured {rep['raw']['sweep_s']:.3f} s at slowdown "
                f"{rep['slowdown']['sweep']:.2f}), "
                f"{rep['requests']} queries, {rep['failed']} failed, "
                f"rows sha256 {rep['digests']['rows']}, "
                f"table sha256 {rep['digests']['table']}",
                flush=True,
            )
            for failure in rep["failures"]:
                print(f"  failed: {failure}", file=sys.stderr)
        reps += done
        elapsed = time.perf_counter() - started
        per_round = elapsed / rounds
        if elapsed + per_round > HARD_LIMIT_S:
            break
        if rounds >= 2 and elapsed + per_round > seconds:
            break
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    # Simulated statistics are deterministic: any drift between
    # repetitions is a failed operation.
    drift = sum(r["model"] != reps[0]["model"] for r in reps)
    attempted += len(reps)
    failed += drift
    if trace:
        metrics = per_layer(reps, attempted, failed)
    else:
        metrics = end_to_end(reps)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "sweep" / "cli.py").is_file():
        print(
            f"sweepbench: no repro sources under {ROOT / 'src'}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
