"""One cold repetition of one benchmark workload, in a fresh process.

    PYTHONPATH=src python3 sweepbench/rep.py WORKLOAD WORKDIR \\
        --seed N --rep K --trace 0|1 [--cpu C] [--sync] [--tiny]

``run.py`` starts this once per repetition, so every repetition pays
the same imports and starts with empty in-process caches (fetch orders,
Monte Carlo calibrations).  WORKDIR is a fresh, empty directory for the
store and the merged rows.  ``--cpu`` pins the process, and the threads
it starts, to one CPU.  ``--sync`` creates ``WORKDIR/ready`` after the
sweep and waits for ``WORKDIR/go`` before the read-back, so that
``run.py`` can start the read-backs of side-by-side repetitions
together.  The last line of standard output is one JSON object with the
repetition's timings, outputs and checks.

A repetition times ``run`` -> ``merge`` -> ``table`` through
``repro.sweep.cli.main`` and then reads the results back through the
query service for a fixed time.  Each time is divided by the slowdown
``speed.py`` measured over its phase; ``raw`` keeps the times as
measured.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import random
import resource
import sys
import time
from collections import Counter
from contextlib import nullcontext, redirect_stdout
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from speed import SpeedProbe
from tracer import TARGETS, Recorder
from workloads import WORKLOADS, Workload

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: Seconds a repetition reads its results back through the query
#: service after the sweep (at least two rounds), and the ``/v1/cell``
#: requests in each of its rounds (plus one table and one status).
READBACK_S = 2.0
READBACK_CELLS = 32


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def golden(workload: Workload, tiny: bool) -> Dict[str, str]:
    """The recorded sha256 digests of the workload's rows and table."""
    return json.loads(GOLDEN_PATH.read_text())[workload.name]["tiny" if tiny else "full"]


def cli(args: List[str]) -> Tuple[int, str]:
    """``repro.sweep.cli.main(args)`` with its standard output captured."""
    from repro.sweep.cli import main

    out = io.StringIO()
    with redirect_stdout(out):
        code = main(args)
    return code, out.getvalue()


def store_locator(workload: Workload, workdir: Path) -> str:
    """The locator of the workload's fresh store inside ``workdir``."""
    if workload.backend == "sqlite":
        return f"sqlite:{workdir / 'store.db'}"
    return f"fs:{workdir / 'store'}"


def run_phase(workload: Workload, locator: str, tiny: bool) -> float:
    """``run --shard 0/1`` of the whole grid, serial; returns seconds."""
    started = time.perf_counter()
    cli(["run", "--shard", "0/1", "--store", locator, *workload.argv(tiny)])
    return time.perf_counter() - started


def merge_table_phase(
    workload: Workload, locator: str, rows_path: Path, tiny: bool
) -> Tuple[float, str, str]:
    """``merge`` then ``table``; returns (seconds, rows JSON, table text)."""
    argv = workload.argv(tiny)
    started = time.perf_counter()
    cli(["merge", "--store", locator, "--output", str(rows_path), *argv])
    _, printed = cli(["table", "--store", locator, *argv])
    elapsed = time.perf_counter() - started
    rows = rows_path.read_text() if rows_path.is_file() else ""
    # ``table`` prints the rendered text plus one newline; the service
    # serves the text itself, so one digest checks both.
    return elapsed, rows, printed.removesuffix("\n")


def check_outputs(expected: Dict[str, str], rows: str, table: str) -> List[str]:
    """Digest mismatches of the merged rows and the rendered table."""
    failures = []
    if sha256(rows) != expected["rows"]:
        failures.append(f"merged rows sha256 {sha256(rows)} != golden {expected['rows']}")
    if sha256(table) != expected["table"]:
        failures.append(f"table sha256 {sha256(table)} != golden {expected['table']}")
    return failures


def model_stats(rows: List[Dict[str, Any]]) -> Dict[str, float]:
    """Simulated statistics of the merged rows; they must repeat exactly."""
    return {
        "model.transfers_sum": sum(row["transfers"] for row in rows),
        "model.makespan_s_sum": sum(row["makespan_s"] for row in rows),
        "model.hit_rate_mean": sum(row["hit_rate"] for row in rows) / max(len(rows), 1),
        "model.logical_error_sum": sum(row.get("logical_error", 0.0) for row in rows),
    }


def query_loop(
    client,
    keys: List[str],
    rows_by_key: Dict[str, Any],
    table_digest: str,
    rng: random.Random,
    *,
    rounds: int,
    cells_per_round: int,
    until: float,
    probe: SpeedProbe,
    recorder: Optional[Recorder],
    failures: List[str],
) -> Dict[str, Any]:
    """Closed loop, one connection at a time: table, status, then
    ``cells_per_round`` cells drawn from ``rng``.

    Runs at least ``rounds`` rounds and until ``until`` (perf_counter
    seconds).  Every response is checked: the table against the golden
    digest, the status for completeness, each cell against the row the
    store was filled with.  Latencies of failed requests are dropped.
    Each round starts with a speed probe on this thread, between
    requests; the loop's seconds leave the probes out.
    """
    from repro.service.client import ServiceError

    latencies: Dict[str, List[float]] = {"table": [], "status": [], "cell": []}
    requests = 0
    done = 0
    probing = 0.0
    started = time.perf_counter()
    while done < rounds or time.perf_counter() < until:
        probed = time.perf_counter()
        probe.sample()
        probing += time.perf_counter() - probed
        batch = [("table", ""), ("status", "")]
        batch += [("cell", key) for key in rng.choices(keys, k=cells_per_round)]
        for kind, key in batch:
            requests += 1
            with recorder.span(f"client.{kind}") if recorder else nullcontext():
                sent = time.perf_counter()
                try:
                    if kind == "table":
                        body = client.table()
                    elif kind == "status":
                        body = client.status()
                    else:
                        body = client.cell(key)
                except (ServiceError, OSError) as exc:
                    failures.append(f"/v1/{kind} {key}: {exc}")
                    continue
                latency = time.perf_counter() - sent
            if kind == "table" and sha256(body) != table_digest:
                failures.append(f"served table sha256 {sha256(body)} != golden")
            elif kind == "status" and not (body["complete"] and body["done"] == len(keys)):
                failures.append(f"status reports {body['done']}/{len(keys)} cells")
            elif kind == "cell" and body["value"] != rows_by_key.get(key):
                failures.append(f"/v1/cell/{key} differs from the row it was filled with")
            else:
                latencies[kind].append(latency)
        done += 1
    return {
        "latencies": latencies,
        "requests": requests,
        "seconds": time.perf_counter() - started - probing,
    }


def simulated_gates(grid) -> int:
    """Gates simulated over every cell of ``grid``."""
    from repro.circuits.workloads import build_workload

    sizes = Counter(
        (cell.as_dict()["workload"], cell.as_dict()["n_bits"]) for cell in grid
    )
    return sum(
        count * len(build_workload(name, n_bits).gates)
        for (name, n_bits), count in sizes.items()
    )


def repetition(
    workload: Workload,
    workdir: Path,
    *,
    seed: int,
    rep: int,
    trace: bool,
    tiny: bool,
    sync: bool = False,
) -> Dict[str, Any]:
    """One repetition; set-up starts now, with the imports of ``repro``.

    With ``sync``, the read-back starts only once ``workdir/go`` exists;
    ``workdir/ready`` says the sweep is done.
    """
    probe = SpeedProbe()
    recorder = Recorder() if trace else None
    # Entered once for set-up and sweep and once for the read-back, so
    # that the probe thread stops before the read-back starts.
    spans = recorder or nullcontext()
    failures: List[str] = []
    rows_path = workdir / "rows.json"
    with probe:
        started = time.perf_counter()
        for module in dict.fromkeys(module for module, *_ in TARGETS):
            importlib.import_module(module)
        from repro.perf.backends import open_store
        from repro.service.client import ServiceClient
        from repro.service.server import BackgroundService

        expected = golden(workload, tiny)
        with spans:
            grid = workload.grid(tiny)
            keys = list(grid.keys())
            locator = store_locator(workload, workdir)
            store = open_store(locator)
            setup_end = time.perf_counter()
            run_s = run_phase(workload, locator, tiny)
            run_end = time.perf_counter()
            rest_s, rows_text, table_text = merge_table_phase(
                workload, locator, rows_path, tiny
            )
            sweep_end = time.perf_counter()
            failures += check_outputs(expected, rows_text, table_text)
            missing = store.status(keys).missing_keys
    failures += [f"cell {key} missing or quarantined after run" for key in missing]
    rows = json.loads(rows_text) if rows_text else []
    rows_by_key = dict(zip(keys, rows)) if len(rows) == len(keys) else {}
    if sync:
        (workdir / "ready").touch()
        while not (workdir / "go").exists():
            time.sleep(0.005)
    with spans, BackgroundService(store, grid) as service:
        queries_start = time.perf_counter()
        queries = query_loop(
            ServiceClient(service.url),
            keys,
            rows_by_key,
            expected["table"],
            random.Random(seed * 1_000_003 + rep),
            rounds=2,
            cells_per_round=READBACK_CELLS,
            until=queries_start + READBACK_S,
            probe=probe,
            recorder=recorder,
            failures=failures,
        )
        queries_end = time.perf_counter()
    slowdown = {
        "setup": probe.slowdown(started, setup_end),
        "run": probe.slowdown(setup_end, run_end),
        "sweep": probe.slowdown(setup_end, sweep_end),
        "queries": probe.slowdown(queries_start, queries_end),
    }
    raw = {"setup_s": setup_end - started, "run_s": run_s, "sweep_s": run_s + rest_s}
    result: Dict[str, Any] = {
        "setup_s": raw["setup_s"] / slowdown["setup"],
        "sweep_s": raw["sweep_s"] / slowdown["sweep"],
        "run_s": raw["run_s"] / slowdown["run"],
        "raw": raw,
        "slowdown": slowdown,
        "cells": len(keys),
        "sim_gates": simulated_gates(grid),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(keys) + 2 + queries["requests"],
        "failed": len(failures),
        "failures": failures[:20],
        "digests": {"rows": sha256(rows_text), "table": sha256(table_text)},
        "model": model_stats(rows),
        "latencies": {
            kind: [latency / slowdown["queries"] for latency in values]
            for kind, values in queries["latencies"].items()
        },
        "requests": queries["requests"],
        "seconds": queries["seconds"] / slowdown["queries"],
    }
    if recorder is not None:
        layers = recorder.layers(cells_computed=len(keys) - len(missing))
        layers["service.http_overhead_ms"] = recorder.http_overhead_ms()
        result["layers"] = layers
        recorder.write(workdir.parent / f"{workload.name}-rep{rep}.spans.jsonl")
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpu", type=int, default=None)
    parser.add_argument("--sync", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    result = repetition(
        WORKLOADS[args.workload],
        args.workdir,
        seed=args.seed,
        rep=args.rep,
        trace=bool(args.trace),
        tiny=args.tiny,
        sync=args.sync,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
