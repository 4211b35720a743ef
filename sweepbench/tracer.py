"""Span recorder for the traced benchmark run.

The recorder times calls into each layer's public functions from the
outside: it swaps the module (or class) attribute that the caller looks
up at call time for a timing wrapper, and restores the original on
exit.  Nothing in ``src/`` is edited or imported differently.

Spans (name, start, end, parent, thread) stay in memory while the run
is measured and are written out as JSON lines at the end.  A span's
self time is its duration minus the time its child spans cover; child
spans run on the parent's thread, one after another, so the covered
time is the sum of their durations.

Every ``simulate_hierarchy_run`` span is tagged with the engine path
its arguments select, following the dispatch in
:func:`repro.sim.levels.simulate_hierarchy_run`:

* ``fastsplit`` -- split-transaction model, fast engine;
* ``split_reference`` -- split-transaction model, reference fallback
  (``supports_fast_split`` is false for the policy/prefetcher pair);
* ``recorded_reservation`` -- reservation model with a residency
  recorder attached (event-kernel engine);
* ``replay`` -- reservation model through movement-trace extraction
  and pricing.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (module, class or None, attribute, span name).  The module is the
#: one the *caller* reads the attribute from, which is not always the
#: defining module (``logical_error_rate`` is looked up in
#: ``repro.sim.residency``; ``compute_grid`` and ``rows_from_store`` in
#: ``repro.sweep.cli``; ``rows_from_store`` again in ``repro.sweep.runner``
#: for the table renderer).
TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.circuits.workloads", None, "build_workload", "circuits.build_workload"),
    ("repro.sim.cache", None, "simulate_optimized", "sim.cache.simulate_optimized"),
    ("repro.sim.levels", None, "simulate_optimized", "sim.cache.simulate_optimized"),
    ("repro.sim.levels", None, "simulate_hierarchy_run", "sim.levels.simulate_hierarchy_run"),
    ("repro.sim.fastsplit", None, "simulate_split_fast", "sim.fastsplit.simulate_split_fast"),
    ("repro.sim.replay", None, "extract_movement_trace", "sim.replay.extract_movement_trace"),
    ("repro.sim.replay", None, "price_movement_trace", "sim.replay.price_movement_trace"),
    ("repro.sim.replay", None, "price_movement_trace_batch", "sim.replay.price_movement_trace_batch"),
    ("repro.sim.replay", None, "price_movement_traces_multi", "sim.replay.price_movement_traces_multi"),
    ("repro.sim.residency", None, "simulate_fidelity_run", "sim.residency.simulate_fidelity_run"),
    ("repro.sim.residency", None, "accrue_residency", "sim.residency.accrue_residency"),
    ("repro.sim.residency", None, "stack_noise", "sim.residency.stack_noise"),
    ("repro.sim.residency", None, "logical_error_rate", "ecc.montecarlo.logical_error_rate"),
    ("repro.perf.store", "ResultStore", "put", "perf.store.put"),
    ("repro.perf.store", "ResultStore", "get", "perf.store.get"),
    ("repro.perf.store", "ResultStore", "clear_failure", "perf.store.clear_failure"),
    ("repro.perf.store", "ResultStore", "index_add", "perf.store.index_add"),
    ("repro.perf.store", "ResultStore", "rebuild_index", "perf.store.rebuild_index"),
    ("repro.perf.backends", "SqliteStore", "put", "perf.backends.put"),
    ("repro.perf.backends", "SqliteStore", "get", "perf.backends.get"),
    ("repro.perf.backends", "SqliteStore", "record", "perf.backends.record"),
    ("repro.perf.backends", "SqliteStore", "status", "perf.backends.status"),
    ("repro.perf.backends", "SqliteStore", "clear_failure", "perf.backends.clear_failure"),
    ("repro.perf.backends", "SqliteStore", "index_add", "perf.backends.index_add"),
    ("repro.perf.backends", "SqliteStore", "rebuild_index", "perf.backends.rebuild_index"),
    ("repro.sweep.cli", None, "compute_grid", "sweep.runner.compute_grid"),
    ("repro.sweep.cli", None, "rows_from_store", "sweep.runner.rows_from_store"),
    ("repro.sweep.runner", None, "rows_from_store", "sweep.runner.rows_from_store"),
    ("repro.analysis.tables", None, "render_table_from_store", "analysis.tables.render_table_from_store"),
    ("repro.service.server", "SweepService", "table_text", "service.table_text"),
    ("repro.service.server", "SweepService", "status_payload", "service.status_payload"),
    ("repro.service.server", "SweepService", "cell_payload", "service.cell_payload"),
)

#: Span names reported as ``<name>.calls``/``.busy_s``/``.self_s``.
LAYER_SPANS = tuple(dict.fromkeys(
    name for *_, name in TARGETS
    if name not in (
        "sim.levels.simulate_hierarchy_run",
        "sim.replay.extract_movement_trace",
    )
))

#: Engine paths of ``simulate_hierarchy_run`` (see the module docstring).
ENGINE_PATHS = ("fastsplit", "split_reference", "recorded_reservation", "replay")


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "tag", "child_s")

    def __init__(self, name: str, parent: Optional["Span"], tag: Optional[str]):
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.tag = tag
        self.child_s = 0.0
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Recorder:
    """Context manager: wraps every :data:`TARGETS` entry while active."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------
    @contextmanager
    def span(self, name: str, tag: Optional[str] = None) -> Iterator[Span]:
        stack = self._local.__dict__.setdefault("stack", [])
        record = Span(name, stack[-1] if stack else None, tag)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            if record.parent is not None:
                record.parent.child_s += record.duration
            self.spans.append(record)

    def _wrap(self, name: str, original: Callable, tagger=None) -> Callable:
        def timed(*args, **kwargs):
            with self.span(name, tagger(args, kwargs) if tagger else None):
                return original(*args, **kwargs)

        timed.__wrapped__ = original
        return timed

    # -- install / restore -------------------------------------------------
    def __enter__(self) -> "Recorder":
        for module_name, class_name, attr, name in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            tagger = (
                _engine_path_tagger(original)
                if name == "sim.levels.simulate_hierarchy_run"
                else None
            )
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, tagger))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------
    def write(self, path) -> None:
        """Every span as one JSON line, in completion order."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": None if span.parent is None else ids.get(id(span.parent)),
                    "thread": span.thread,
                    "tag": span.tag,
                }) + "\n")

    def layers(self, *, cells_computed: int) -> Dict[str, float]:
        """The per-layer metrics of this run (see ``README.md``)."""
        calls: Dict[str, int] = {}
        busy: Dict[str, float] = {}
        own: Dict[str, float] = {}
        for span in self.spans:
            key = span.name if span.tag is None else f"{span.name}[{span.tag}]"
            calls[key] = calls.get(key, 0) + 1
            busy[key] = busy.get(key, 0.0) + span.duration
            own[key] = own.get(key, 0.0) + span.self_s

        def run_path(path: str) -> str:
            return f"sim.levels.simulate_hierarchy_run[{path}]"

        out: Dict[str, float] = {}
        for name in LAYER_SPANS:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.busy_s"] = busy.get(name, 0.0)
            out[f"{name}.self_s"] = own.get(name, 0.0)
        runs = {path: calls.get(run_path(path), 0) for path in ENGINE_PATHS}
        out["sim.levels.simulate_hierarchy_run.calls"] = sum(runs.values())
        out["sim.levels.simulate_hierarchy_run.busy_s"] = sum(
            busy.get(run_path(path), 0.0) for path in ENGINE_PATHS
        )
        # The reference split engine and the recorded reservation engine
        # have no public entry of their own: their time is the self time
        # of the simulate_hierarchy_run calls dispatched to them.
        for path, name in (
            ("split_reference", "sim.levels.split_reference"),
            ("recorded_reservation", "sim.levels.recorded_reservation"),
        ):
            out[f"{name}.calls"] = runs[path]
            out[f"{name}.busy_s"] = own.get(run_path(path), 0.0)
        pipelined = runs["fastsplit"] + runs["split_reference"]
        out["sim.fastsplit.share"] = runs["fastsplit"] / pipelined if pipelined else 0.0
        # Replay-path extraction is simulate_hierarchy_run minus its
        # pricing child; batched extraction has its own public entry.
        extractions = runs["replay"] + calls.get("sim.replay.extract_movement_trace", 0)
        out["sim.replay.extract.calls"] = extractions
        out["sim.replay.extract.busy_s"] = own.get(run_path("replay"), 0.0) + busy.get(
            "sim.replay.extract_movement_trace", 0.0
        )
        out["sim.replay.extractions_per_cell"] = (
            extractions / cells_computed if cells_computed else 0.0
        )
        return out

    def http_overhead_ms(self) -> float:
        """Median of client latency minus handler busy time, in ms.

        Handler time is every root span on another thread (the service's
        executor) that starts inside the request's client span; the
        closed loop keeps exactly one request in flight.
        """
        main = threading.get_ident()
        requests = sorted(
            (span for span in self.spans if span.name.startswith("client.")),
            key=lambda span: span.start,
        )
        handlers = sorted(
            (span for span in self.spans if span.parent is None and span.thread != main),
            key=lambda span: span.start,
        )
        overheads = []
        cursor = 0
        for request in requests:
            while cursor < len(handlers) and handlers[cursor].start < request.start:
                cursor += 1
            handled = 0.0
            while cursor < len(handlers) and handlers[cursor].start < request.end:
                handled += handlers[cursor].duration
                cursor += 1
            overheads.append(request.duration - handled)
        return 1000.0 * statistics.median(overheads) if overheads else 0.0


def _engine_path_tagger(original: Callable):
    """Classify a ``simulate_hierarchy_run`` call by the engine it takes."""
    from repro.sim.fastsplit import supports_fast_split

    signature = inspect.signature(original)

    def tag(args, kwargs) -> str:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        params = bound.arguments
        prefetch = params["prefetch"]
        pipeline = params["pipeline"]
        if pipeline is None:
            pipeline = prefetch != "none"
        if pipeline:
            if supports_fast_split(params["policy"], prefetch):
                return "fastsplit"
            return "split_reference"
        return "replay" if params["recorder"] is None else "recorded_reservation"

    return tag
