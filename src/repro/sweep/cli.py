"""Worker CLI for sharded sweeps: ``run``/``status``/``merge``/``resume``/``serve``/``table``.

The distributed workflow over the engine design space
(:func:`repro.core.design_space.engine_grid`)::

    # K workers, anywhere with the same store directory (or each with
    # its own directory, merged later — records are content-addressed):
    python -m repro.sweep run --shard 0/4 --store /shared/sweep
    python -m repro.sweep run --shard 1/4 --store /shared/sweep
    ...

    python -m repro.sweep status --store /shared/sweep --shards 4
    python -m repro.sweep resume --store /shared/sweep   # after a crash
    python -m repro.sweep merge  --store /shared/sweep --output rows.json

Every ``--store`` accepts a backend locator
(:mod:`repro.perf.backends`): a bare path or ``fs:DIR`` is the
filesystem store, ``sqlite:PATH`` keeps the whole store in one SQLite
database — interchangeable byte-for-byte at the record level, so any
workflow above runs unchanged against either.  ``serve`` stands up the
read-only HTTP query service (:mod:`repro.service`) over a store::

    python -m repro.sweep serve --store sqlite:/shared/sweep.db --port 8123
    curl http://HOST:8123/v1/status
    curl http://HOST:8123/v1/table
    curl -N "http://HOST:8123/v1/progress?interval=2"   # streamed ticks

Every subcommand takes the same grid options, so the workers, the
status probe, and the merge all agree on the canonical cell enumeration.
``--kernel`` picks a :class:`repro.sweep.runner.SweepKernel` record, and
the other grid options are keyword parameters of its grid builder: an
option the builder does not take exits with an error naming it.
``merge --verify`` recomputes the whole grid single-process in-memory
and asserts the reassembled rows are bit-identical — the CI sharding
job uses it as its correctness gate.

Fault tolerance: every run executes under the supervised executor
(:mod:`repro.perf.supervise`).  Without flags it is fail-fast: the
first failed cell stops the shard with a ``CellFailed`` error naming
the cell's own exception, after every finished cell is stored.
``run``/``resume`` take ``--retries``, ``--cell-timeout`` and
``--max-failures``; any of them turns on fault tolerance, which
retries transient faults, reaps hung cells, rebuilds crashed workers,
and *quarantines* cells that exhaust their attempts (durable failure
record, shard still exits 0).  ``status`` reports quarantined cells;
``merge --allow-missing`` degrades gracefully, emitting the rows that
exist plus a failure footer instead of refusing the whole table.

Performance: engine and fidelity grids run each *traffic group* —
cells differing only in priced axes such as ``code_pairs`` — as one
unit on their own: the movement trace is simulated once and re-priced
per member (with a residency recorder on fidelity cells), one store
record per cell, and sharding keeps whole groups on one worker
(:func:`repro.sweep.runner.plan_shard`, so ``status --shards K`` counts
the same partition ``run`` computes).
``--profile`` wraps the shard in cProfile and drops a ``.pstats`` dump
next to the store directory.
"""

from __future__ import annotations

import argparse
import cProfile
import inspect
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import Iterator, List, Optional

from ..perf.backends import locator_path, open_store
from ..perf.supervise import RetryPolicy, Supervision, TooManyFailures
from .grid import Grid, parse_shard_spec
from .runner import (
    MissingCells,
    compute_grid,
    failure_reason,
    kernel_registry,
    missing_report,
    plan_shard,
    rows_from_store,
)


#: Grid option (dest name) -> grid-builder keyword.  An option the
#: selected kernel's builder does not take is an error, not a silent
#: ignore.
_GRID_KEYWORDS = {
    "workloads": "workloads",
    "sizes": "sizes",
    "codes": "code_keys",
    "depths": "depths",
    "policies": "policies",
    "prefetches": "prefetches",
    "transfers": "transfer_options",
    "compute_qubits": "compute_qubits",
    "cache_factor": "cache_factor",
    "code_pairs": "code_pairs",
    "fidelity_trials": "fidelity_trials",
    "fidelity_seed": "fidelity_seed",
}


def _parse_code_pair(spec: str):
    """One ``compute:memory`` mixed-stack axis entry, fully validated
    (unknown codes and same-code pairs fail at parse time with a clean
    usage error, not mid-shard inside a worker)."""
    from ..ecc.concatenated import by_key

    parts = spec.split(":")
    if len(parts) != 2 or not all(parts):
        raise argparse.ArgumentTypeError(
            f"code pair {spec!r} must be COMPUTE:MEMORY, "
            "e.g. bacon_shor:steane"
        )
    try:
        for key in parts:
            by_key(key)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"code pair {spec!r}: {exc}")
    if parts[0] == parts[1]:
        raise argparse.ArgumentTypeError(
            f"code pair {spec!r} is not mixed; pure-code stacks belong "
            "on --codes"
        )
    return tuple(parts)


def _add_grid_options(parser: argparse.ArgumentParser) -> None:
    grid = parser.add_argument_group(
        "grid options (must match across run/status/merge/resume)"
    )
    grid.add_argument(
        "--kernel",
        choices=tuple(kernel_registry()),
        default="engine_cell",
        help="which sweep grid to shard (default: the engine design space; "
        "fidelity_cell = the same cells priced in time AND logical error, "
        "specialization_cell = Table 4, hierarchy_cell = Table 5, "
        "transfer_cell = the Table 3 transfer matrix)",
    )
    grid.add_argument("--workloads", nargs="+", default=None, metavar="NAME")
    grid.add_argument("--sizes", nargs="+", type=int, default=None, metavar="N")
    grid.add_argument("--codes", nargs="+", default=None, metavar="CODE")
    grid.add_argument("--depths", nargs="+", type=int, default=None, metavar="D")
    grid.add_argument(
        "--policies",
        nargs="+",
        default=None,
        metavar="POLICY",
        help="default: every registered eviction policy",
    )
    grid.add_argument("--prefetches", nargs="+", default=None, metavar="PF")
    grid.add_argument("--transfers", nargs="+", type=int, default=None, metavar="P")
    grid.add_argument("--compute-qubits", type=int, default=None, metavar="Q")
    grid.add_argument("--cache-factor", type=float, default=None, metavar="F")
    grid.add_argument(
        "--code-pairs",
        nargs="+",
        type=_parse_code_pair,
        default=None,
        metavar="COMPUTE:MEMORY",
        help="mixed-code stack axis of the engine grid, e.g. "
        "bacon_shor:steane (compute code over memory code)",
    )
    grid.add_argument(
        "--fidelity-trials",
        type=int,
        default=None,
        metavar="N",
        help="fidelity_cell grids: Monte Carlo calibration trials per "
        "(code, level) point (part of cell identity)",
    )
    grid.add_argument(
        "--fidelity-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="fidelity_cell grids: Monte Carlo calibration seed "
        "(part of cell identity)",
    )


def _add_supervision_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "fault tolerance (without these, the first failed cell stops the run)"
    )
    group.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="extra attempts per failing cell before quarantine (default 0)",
    )
    group.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock deadline; hung workers are reaped",
    )
    group.add_argument(
        "--max-failures",
        type=int,
        default=None,
        metavar="N",
        help="abort the run (exit 1) after more than N quarantined cells",
    )


def _add_execution_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("execution")
    group.add_argument(
        "--profile",
        action="store_true",
        help="profile this invocation with cProfile and write a .pstats "
        "dump next to the store directory",
    )


@contextmanager
def _maybe_profile(args: argparse.Namespace, label: str) -> Iterator[None]:
    """cProfile the wrapped block under ``--profile``.

    The dump lands *next to* the store directory (a sibling file, never
    inside it) so profiling artifacts can't perturb the record set a
    ``merge`` or a store dump inspects.
    """
    if not getattr(args, "profile", False):
        yield
        return
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        anchor = locator_path(args.store)
        path = anchor.parent / f"{anchor.name}-profile-{label}.pstats"
        profiler.dump_stats(path)
        print(f"profile: {path}")


def _supervision_from_args(args: argparse.Namespace) -> Optional[Supervision]:
    """A :class:`Supervision` spec iff any fault-tolerance flag was given.

    With none of them the run is fail-fast (``compute_grid``'s default).
    """
    if not args.retries and args.cell_timeout is None and args.max_failures is None:
        return None
    return Supervision(
        retry=RetryPolicy(max_attempts=args.retries + 1),
        cell_timeout_s=args.cell_timeout,
        max_failures=args.max_failures,
        quarantine=True,
    )


def _report_quarantine(store, grid: Grid) -> int:
    """Print quarantined cells of ``grid``; returns how many there are."""
    failed = store.status(grid.keys()).failed_keys
    for key in failed:
        print(f"  quarantined {key}: {failure_reason(store.failure(key))}")
    return len(failed)


def _grid_from_args(args: argparse.Namespace) -> Grid:
    """The ``--kernel`` grid, built from the options that were given.

    Omitted options take the grid builder's defaults, so the CLI and
    the in-process sweeps enumerate the same canonical grid.
    """
    build = kernel_registry()[args.kernel].grid
    accepted = inspect.signature(build).parameters
    picks = {}
    stray = []
    for dest, keyword in _GRID_KEYWORDS.items():
        value = getattr(args, dest)
        if value is None:
            continue
        if keyword in accepted:
            picks[keyword] = value
        else:
            stray.append("--" + dest.replace("_", "-"))
    if stray:
        raise SystemExit(
            f"{args.kernel} grids do not take {', '.join(stray)} "
            f"(not a parameter of {build.__name__})"
        )
    return build(**picks)


def _cmd_run(args: argparse.Namespace) -> int:
    grid = _grid_from_args(args)
    index, count = parse_shard_spec(args.shard)
    shard = plan_shard(grid, index, count)
    store = open_store(args.store)
    before = store.status(shard.keys())
    kernel = kernel_registry()[grid.kernel]
    try:
        with _maybe_profile(args, f"shard{index}of{count}"):
            compute_grid(
                shard,
                kernel.cell,
                kernel.row_type,
                store=store,
                workers=args.workers,
                supervise=_supervision_from_args(args),
            )
    except TooManyFailures as exc:
        print(f"shard {index}/{count} aborted: {exc}", file=sys.stderr)
        return 1
    print(
        f"shard {index}/{count}: {len(shard)} of {len(grid)} cells "
        f"({before.done} already stored, {before.missing} computed)"
    )
    # Quarantined cells are reported but do not fail the shard: the
    # other K-1 shards' work stays mergeable and a resume can retry.
    _report_quarantine(store, shard)
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    grid = _grid_from_args(args)
    store = open_store(args.store)
    before = store.status(grid.keys())
    kernel = kernel_registry()[grid.kernel]
    try:
        with _maybe_profile(args, "resume"):
            compute_grid(
                grid,
                kernel.cell,
                kernel.row_type,
                store=store,
                workers=args.workers,
                supervise=_supervision_from_args(args),
            )
    except TooManyFailures as exc:
        print(f"resume aborted: {exc}", file=sys.stderr)
        return 1
    print(
        f"resume: {len(grid)} cells ({before.done} already stored, "
        f"{before.missing} computed)"
    )
    _report_quarantine(store, grid)
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    grid = _grid_from_args(args)
    store = open_store(args.store)
    overall = store.status(grid.keys())
    print(
        f"{grid.kernel} grid: {overall.done}/{overall.total} cells "
        f"stored in {args.store}"
        + (f" ({overall.failed} quarantined)" if overall.failed else "")
    )
    if args.shards:
        for index in range(args.shards):
            shard_status = store.status(plan_shard(grid, index, args.shards).keys())
            print(
                f"  shard {index}/{args.shards}: "
                f"{shard_status.done}/{shard_status.total} done"
                + (
                    f", {shard_status.failed} quarantined"
                    if shard_status.failed
                    else ""
                )
            )
    _report_quarantine(store, grid)
    return 0 if overall.complete else 1


def _cmd_merge(args: argparse.Namespace) -> int:
    grid = _grid_from_args(args)
    store = open_store(args.store)
    # Shard artifacts each shipped their own index.json and only one
    # survives a file-level directory merge; records are the truth.
    store.rebuild_index()
    kernel = kernel_registry()[grid.kernel]
    try:
        rows = rows_from_store(
            grid, kernel.row_type, store, allow_missing=args.allow_missing
        )
    except MissingCells as exc:
        print(f"merge failed: {exc}", file=sys.stderr)
        for key in exc.keys[:10]:
            print(f"  missing {key}", file=sys.stderr)
        return 1
    present = [row for row in rows if row is not None]
    if args.allow_missing and len(present) < len(rows):
        # Graceful degradation: name every hole (and why, when a
        # quarantine record says) instead of refusing the whole table.
        print(
            f"merge degraded: {len(rows) - len(present)} of {len(rows)} "
            f"cells missing",
            file=sys.stderr,
        )
        for cell, record in missing_report(grid, store):
            print(f"  missing {cell.key}: {failure_reason(record)}", file=sys.stderr)
    if args.verify:
        # Per cell on purpose: each cell extracts its own trace, an
        # independent cross-check of records written group by group.
        recomputed = [kernel.cell(cell.as_dict()) for cell in grid]
        # Under --allow-missing only the cells that exist are checked;
        # a quarantined hole is reported above, not a verify failure.
        mismatched = [
            index
            for index, row in enumerate(rows)
            if row is not None and recomputed[index] != row
        ]
        if mismatched:
            print(
                "verify FAILED: merged rows differ from a single-process sweep",
                file=sys.stderr,
            )
            return 1
        print(
            f"verify ok: {len(present)} rows bit-identical to a fresh sweep"
            + (
                f" ({len(rows) - len(present)} missing cells skipped)"
                if len(present) < len(rows)
                else ""
            )
        )
    payload = [asdict(row) for row in present]
    if args.output:
        Path(args.output).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"merged {len(present)} rows into {args.output}")
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    grid = _grid_from_args(args)
    store = open_store(args.store)
    from ..analysis.tables import render_table_from_store

    try:
        text = render_table_from_store(
            grid, store, allow_missing=args.allow_missing
        )
    except MissingCells as exc:
        print(f"table failed: {exc}", file=sys.stderr)
        for key in exc.keys[:10]:
            print(f"  missing {key}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # A kernel without a registered renderer (Table 4/5 render
        # through repro.analysis directly).
        print(f"table failed: {exc}", file=sys.stderr)
        return 1
    print(text)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    grid = _grid_from_args(args)
    store = open_store(args.store)
    from ..service.server import run_service

    return run_service(
        store,
        grid,
        host=args.host,
        port=args.port,
        locator=args.store,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Sharded design-space sweeps over a durable result store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="compute one shard's missing cells")
    run.add_argument("--shard", default="0/1", metavar="i/K")
    run.add_argument(
        "--store",
        required=True,
        metavar="URL",
        help="store backend locator: DIR / fs:DIR / sqlite:PATH",
    )
    run.add_argument("--workers", type=int, default=None, metavar="N")
    _add_grid_options(run)
    _add_supervision_options(run)
    _add_execution_options(run)
    run.set_defaults(fn=_cmd_run)

    resume = sub.add_parser(
        "resume", help="compute every missing cell of the whole grid"
    )
    resume.add_argument(
        "--store",
        required=True,
        metavar="URL",
        help="store backend locator: DIR / fs:DIR / sqlite:PATH",
    )
    resume.add_argument("--workers", type=int, default=None, metavar="N")
    _add_grid_options(resume)
    _add_supervision_options(resume)
    _add_execution_options(resume)
    resume.set_defaults(fn=_cmd_resume)

    status = sub.add_parser("status", help="report stored vs missing cells")
    status.add_argument(
        "--store",
        required=True,
        metavar="URL",
        help="store backend locator: DIR / fs:DIR / sqlite:PATH",
    )
    status.add_argument("--shards", type=int, default=None, metavar="K")
    _add_grid_options(status)
    status.set_defaults(fn=_cmd_status)

    merge = sub.add_parser(
        "merge", help="reassemble the single-process row list from the store"
    )
    merge.add_argument(
        "--store",
        required=True,
        metavar="URL",
        help="store backend locator: DIR / fs:DIR / sqlite:PATH",
    )
    merge.add_argument("--output", default=None, metavar="FILE")
    merge.add_argument(
        "--verify",
        action="store_true",
        help="recompute the grid in-process and assert bit-identical rows",
    )
    merge.add_argument(
        "--allow-missing",
        action="store_true",
        help="degrade gracefully: emit the rows that exist plus a failure "
        "footer instead of failing on missing/quarantined cells",
    )
    _add_grid_options(merge)
    merge.set_defaults(fn=_cmd_merge)

    table = sub.add_parser(
        "table",
        help="render the grid's analysis table from the store "
        "(engine_cell / fidelity_cell / transfer_cell; computes nothing)",
    )
    table.add_argument(
        "--store",
        required=True,
        metavar="URL",
        help="store backend locator: DIR / fs:DIR / sqlite:PATH",
    )
    table.add_argument(
        "--allow-missing",
        action="store_true",
        help="degrade gracefully: render — cells and a failure footer "
        "instead of failing on missing/quarantined cells",
    )
    _add_grid_options(table)
    table.set_defaults(fn=_cmd_table)

    serve = sub.add_parser(
        "serve",
        help="HTTP query service over a store: tables, status, cell "
        "lookups, streamed progress (read-only; computes nothing)",
    )
    serve.add_argument(
        "--store",
        required=True,
        metavar="URL",
        help="store backend locator: DIR / fs:DIR / sqlite:PATH",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        metavar="ADDR",
        help="bind address (default 127.0.0.1; 0.0.0.0 for other hosts)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8123,
        metavar="N",
        help="bind port (default 8123; 0 picks an ephemeral port)",
    )
    _add_grid_options(serve)
    serve.set_defaults(fn=_cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)
