"""Design-space enumeration for the CQLA studies (Tables 4 and 5).

The paper evaluates each input size at two compute-block counts — a
utilization-leaning point and a performance-leaning point, both perfect
squares near ``n/8`` data-qubit-blocks.  The published pairs are kept
verbatim; other sizes fall back to the nearest-square rule.

Beyond the paper's tables, :func:`engine_sweep` enumerates the
generalized hierarchy engine over (depth, eviction policy, workload,
prefetcher) — the design axes the two-level adder-only reproduction
hard-coded — with the same store read-through and process-pool fan-out
as the published sweeps.

Every sweep enumerates its cells through one shared abstraction: a
``*_grid()`` builder returns the canonical :class:`repro.sweep.grid.Grid`
(kernel name + ordered, content-hashed cells), and
:func:`repro.sweep.runner.compute_grid` executes it — reading through an
optional durable :class:`repro.perf.store.ResultStore` (``store=``)
before computing, so a sweep can be sharded across processes and hosts
(``python -m repro.sweep``) and still reassemble bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..sim.residency import FIDELITY_SEED, FIDELITY_TRIALS
from ..sweep.grid import Cell, Grid, stable_key
from ..sweep.runner import compute_grid, kernel_batch_spec
from .cqla import CqlaDesign
from .hierarchy import MemoryHierarchy

#: Input sizes of the paper's evaluation.
PAPER_INPUT_SIZES = (32, 64, 128, 256, 512, 1024)

#: Code families of the paper's evaluation (Tables 2/4/5).
PAPER_CODE_KEYS = ("steane", "bacon_shor")

#: Input sizes / parallel-transfer options of the Table 5 study.
TABLE5_SIZES = (256, 512, 1024)
TABLE5_TRANSFER_OPTIONS = (10, 5)

#: Published (utilization-leaning, performance-leaning) block pairs.
PAPER_BLOCK_CHOICES: Dict[int, Tuple[int, int]] = {
    32: (4, 9),
    64: (9, 16),
    128: (16, 25),
    256: (36, 49),
    512: (64, 81),
    1024: (100, 121),
}


def block_choices(n_bits: int) -> Tuple[int, int]:
    """The two compute-block counts studied for an input size."""
    if n_bits in PAPER_BLOCK_CHOICES:
        return PAPER_BLOCK_CHOICES[n_bits]
    if n_bits < 2:
        raise ValueError("input size must be at least 2 bits")
    side = max(2, round(math.sqrt(n_bits / 8.0)))
    return side * side, (side + 1) * (side + 1)


def performance_blocks(n_bits: int) -> int:
    """The performance-leaning block count for one input size."""
    return block_choices(n_bits)[1]


@dataclass(frozen=True)
class SpecializationRow:
    """One row of Table 4."""

    n_bits: int
    n_blocks: int
    code_key: str
    area_reduction: float
    speedup: float
    gain_product: float


def specialization_cell(params: Mapping[str, Any]) -> SpecializationRow:
    """One Table 4 cell; module-level so worker processes can pickle it."""
    n_bits = params["n_bits"]
    n_blocks = params["n_blocks"]
    code_key = params["code_key"]
    design = CqlaDesign(code_key, n_bits, n_blocks)
    return SpecializationRow(
        n_bits=n_bits,
        n_blocks=n_blocks,
        code_key=code_key,
        area_reduction=design.area_reduction(),
        speedup=design.speedup(),
        gain_product=design.gain_product(),
    )


def specialization_grid(
    sizes: Sequence[int] = PAPER_INPUT_SIZES,
    code_keys: Sequence[str] = PAPER_CODE_KEYS,
) -> Grid:
    """The canonical Table 4 cell enumeration."""
    cells = tuple(
        Cell.make(
            "specialization_cell",
            n_bits=n_bits,
            n_blocks=n_blocks,
            code_key=code_key,
        )
        for n_bits in sizes
        for n_blocks in block_choices(n_bits)
        for code_key in code_keys
    )
    return Grid("specialization_cell", cells)


def specialization_sweep(
    sizes: Sequence[int] = PAPER_INPUT_SIZES,
    code_keys: Sequence[str] = PAPER_CODE_KEYS,
    *,
    workers: Optional[int] = None,
    store=None,
    supervise=None,
) -> List[SpecializationRow]:
    """Evaluate every Table 4 cell.

    ``workers=N`` fans the independent cells out over a process pool;
    a ``store`` (locator, path or backend) persists and reads through
    per-cell records shared with sharded workers, so a warm re-run
    against the same store recomputes nothing; ``supervise`` (a
    :class:`repro.perf.supervise.Supervision`) runs under the
    fault-tolerant pool, quarantining terminally failing cells as
    ``None`` rows.
    """
    return compute_grid(
        specialization_grid(sizes, code_keys), specialization_cell,
        SpecializationRow, store=store, workers=workers, supervise=supervise,
    )


@dataclass(frozen=True)
class HierarchyRow:
    """One row of Table 5."""

    code_key: str
    parallel_transfers: int
    n_bits: int
    l1_speedup: float
    l2_speedup: float
    adder_speedup: float
    area_reduction: float
    gain_product: float


def hierarchy_cell(params: Mapping[str, Any]) -> HierarchyRow:
    """One Table 5 cell; module-level so worker processes can pickle it."""
    code_key = params["code_key"]
    par = params["parallel_transfers"]
    n_bits = params["n_bits"]
    design = CqlaDesign(code_key, n_bits, performance_blocks(n_bits))
    hierarchy = MemoryHierarchy(design, parallel_transfers=par)
    return HierarchyRow(
        code_key=code_key,
        parallel_transfers=par,
        n_bits=n_bits,
        l1_speedup=hierarchy.l1_speedup(),
        l2_speedup=hierarchy.l2_speedup(),
        adder_speedup=hierarchy.adder_speedup(),
        area_reduction=design.area_reduction(),
        gain_product=hierarchy.gain_product(),
    )


def hierarchy_grid(
    sizes: Sequence[int] = TABLE5_SIZES,
    code_keys: Sequence[str] = PAPER_CODE_KEYS,
    transfer_options: Sequence[int] = TABLE5_TRANSFER_OPTIONS,
) -> Grid:
    """The canonical Table 5 cell enumeration."""
    cells = tuple(
        Cell.make(
            "hierarchy_cell",
            code_key=code_key,
            parallel_transfers=par,
            n_bits=n_bits,
        )
        for code_key in code_keys
        for par in transfer_options
        for n_bits in sizes
    )
    return Grid("hierarchy_cell", cells)


def hierarchy_sweep(
    sizes: Sequence[int] = TABLE5_SIZES,
    code_keys: Sequence[str] = PAPER_CODE_KEYS,
    transfer_options: Sequence[int] = TABLE5_TRANSFER_OPTIONS,
    *,
    workers: Optional[int] = None,
    store=None,
    supervise=None,
) -> List[HierarchyRow]:
    """Evaluate every Table 5 cell.

    ``workers``, ``store`` and ``supervise`` behave as in
    :func:`specialization_sweep`.
    """
    return compute_grid(
        hierarchy_grid(sizes, code_keys, transfer_options), hierarchy_cell,
        HierarchyRow, store=store, workers=workers, supervise=supervise,
    )


# ----------------------------------------------------------------------
# Table 3 — the full (source, destination) transfer-latency matrix
# ----------------------------------------------------------------------

#: Code-recursion levels of the Table 3 study: together with
#: :data:`PAPER_CODE_KEYS` they span the four encoding points 7-L1,
#: 7-L2, 9-L1, 9-L2.
TABLE3_LEVELS = (1, 2)


@dataclass(frozen=True)
class TransferRow:
    """One cell of the Table 3 transfer-latency matrix.

    Off-diagonal cells (``source_code_key != dest_code_key``) are the
    cross-code transfers a mixed-code hierarchy stack prices its
    boundaries from; ``channels_per_transfer`` is the teleport-channel
    occupancy of one such transfer (the wider of the two codes').
    """

    source: str
    dest: str
    source_code_key: str
    source_level: int
    dest_code_key: str
    dest_level: int
    transfer_s: float
    channels_per_transfer: int


def transfer_cell(params: Mapping[str, Any]) -> TransferRow:
    """One Table 3 cell; module-level so worker processes can pickle it."""
    from ..ecc.concatenated import by_key
    from ..ecc.transfer import CodePoint, transfer_time_s

    source = CodePoint(params["source_code_key"], params["source_level"])
    dest = CodePoint(params["dest_code_key"], params["dest_level"])
    return TransferRow(
        source=source.label,
        dest=dest.label,
        source_code_key=source.code_key,
        source_level=source.level,
        dest_code_key=dest.code_key,
        dest_level=dest.level,
        transfer_s=transfer_time_s(source, dest),
        channels_per_transfer=max(
            by_key(source.code_key).spec.teleport_channels,
            by_key(dest.code_key).spec.teleport_channels,
        ),
    )


def transfer_grid(
    code_keys: Sequence[str] = PAPER_CODE_KEYS,
    levels: Sequence[int] = TABLE3_LEVELS,
) -> Grid:
    """The canonical Table 3 cell enumeration (all ordered point pairs).

    Points enumerate code-major then level-major, matching
    :func:`repro.ecc.transfer.standard_points`; the full default grid
    is the 16-cell 4x4 matrix, diagonal and off-diagonal alike.
    """
    points = [
        (code_key, level) for code_key in code_keys for level in levels
    ]
    cells = tuple(
        Cell.make(
            "transfer_cell",
            source_code_key=src_code,
            source_level=src_level,
            dest_code_key=dst_code,
            dest_level=dst_level,
        )
        for src_code, src_level in points
        for dst_code, dst_level in points
    )
    return Grid("transfer_cell", cells)


def transfer_sweep(
    code_keys: Sequence[str] = PAPER_CODE_KEYS,
    levels: Sequence[int] = TABLE3_LEVELS,
    *,
    workers: Optional[int] = None,
    store=None,
    supervise=None,
) -> List[TransferRow]:
    """Evaluate every Table 3 cell.

    The cells are tiny (closed-form latency arithmetic) — the sweep
    exists so the Table 3 matrix flows through the same grid/store
    machinery as every other table: sharded workers can fill a store
    (``python -m repro.sweep run --kernel transfer_cell``) and
    :func:`repro.analysis.tables.table3_from_store` renders from it.
    ``workers``, ``store`` and ``supervise`` behave as in
    :func:`specialization_sweep`.
    """
    return compute_grid(
        transfer_grid(code_keys, levels), transfer_cell, TransferRow,
        store=store, workers=workers, supervise=supervise,
    )


# ----------------------------------------------------------------------
# generalized-engine sweep: (depth, policy, workload, prefetch)
# ----------------------------------------------------------------------

#: Workloads of the engine study (all registered in repro.circuits).
ENGINE_WORKLOADS = ("draper_adder", "qft", "modexp_trace")

#: Prefetchers of the engine study.  ``"none"`` is the PR 2 reservation
#: model; anything else runs the split-transaction transfer model with
#: exact prefetching down the static fetch order.
ENGINE_PREFETCHERS = ("none", "next_k")

#: Remaining default engine-study axes, shared by :func:`engine_grid`
#: and :func:`engine_sweep` so the sharded CLI (which enumerates via the
#: grid) and the in-process sweep can never drift apart.
ENGINE_SIZES = (16, 32)
ENGINE_CODE_KEYS = ("steane",)
ENGINE_DEPTHS = (2, 3)
ENGINE_TRANSFER_OPTIONS = (10,)

#: Default mixed-code (compute code, memory code) pairs of the engine
#: study.  Empty by default: pure-code grids stay cell-for-cell
#: identical to the pre-mixed-stack enumeration (same parameter sets,
#: same content hashes — though records written under the old
#: :class:`EngineRow` schema are recomputed, not misread; see the row
#: docstring).  Pass e.g. ``code_pairs=[("bacon_shor", "steane")]`` —
#: or ``--code-pairs bacon_shor:steane`` on the sharded CLI — to add
#: the mixed axis.
ENGINE_CODE_PAIRS: Tuple[Tuple[str, str], ...] = ()

#: Default Monte Carlo calibration budget of the fidelity axis — the
#: shared :mod:`repro.sim.residency` defaults, re-exported so grid
#: builders, the CLI, and in-process sweeps agree on cell identity.
ENGINE_FIDELITY_TRIALS = FIDELITY_TRIALS
ENGINE_FIDELITY_SEED = FIDELITY_SEED


@dataclass(frozen=True)
class EngineRow:
    """One cell of the (depth, policy, workload, prefetch) engine sweep.

    ``memory_code_key`` is the code family of every level below the
    compute level; it equals ``code_key`` for pure-code stacks and
    differs on the mixed-code (``code_pairs``) axis.  It has no default
    on purpose: records persisted by pre-mixed-stack layouts fail
    reconstruction and are recomputed rather than silently misread.
    """

    workload: str
    n_bits: int
    code_key: str
    memory_code_key: str
    depth: int
    policy: str
    prefetch: str
    parallel_transfers: int
    hit_rate: float
    speedup: float
    transfer_bound_fraction: float
    transfers: int
    makespan_s: float


#: Engine-study compute-region size.  The paper's 81-qubit region would
#: swallow these small study workloads whole (no evictions, so every
#: policy degenerates to compulsory misses); a 12-qubit region with a
#: matching cache keeps the resident set under pressure, which is the
#: regime where replacement policies actually separate.
ENGINE_COMPUTE_QUBITS = 12

#: Engine-study cache factor (cache capacity = factor * compute region).
ENGINE_CACHE_FACTOR = 1.0


@lru_cache(maxsize=1)
def _engine_circuit(workload: str, n_bits: int):
    """The circuit every cell of one (workload, size) pair runs on.

    Grids enumerate workload and size outermost, so a one-entry memo
    builds each circuit once per sweep while holding only one in
    memory; the cells then share its cached scan program, next-use
    array and Belady keys.  Engines treat circuits as immutable.
    ``build_workload`` is looked up at call time, so patching the
    module attribute still intercepts every build.
    """
    from ..circuits.workloads import build_workload

    return build_workload(workload, n_bits)


@lru_cache(maxsize=None)
def _fetch_order(
    workload: str, n_bits: int, compute_qubits: int, cache_factor: float
) -> tuple:
    """The optimized fetch schedule shared by every cell of one
    (workload, size) pair.

    It depends only on (circuit, compute capacity) — never on depth,
    policy, or transfer count — so it is computed once per process and
    reused; sharded workers on other hosts recompute it deterministically.
    """
    from ..sim.cache import simulate_optimized
    from ..sim.levels import l1_capacity

    capacity = l1_capacity(compute_qubits, cache_factor)
    # A tuple, not the scheduler's list: the lru_cache shares one object
    # with every cell in the process, so it must be immutable.
    return tuple(simulate_optimized(_engine_circuit(workload, n_bits), capacity).order)


def _engine_stack(params: Mapping[str, Any]):
    """The hierarchy stack one engine cell's parameters describe.

    A ``memory_code_key`` parameter (present only on mixed-code cells,
    so pure-code cell hashes are unchanged) encodes every level below
    the compute level in that code family via
    :func:`repro.sim.levels.mixed_stack`.
    """
    from ..sim.levels import mixed_stack, standard_stack

    code_key = params["code_key"]
    memory_code_key = params.get("memory_code_key", code_key)
    if memory_code_key != code_key:
        return mixed_stack(
            code_key, memory_code_key, params["depth"],
            compute_qubits=params["compute_qubits"],
            cache_factor=params["cache_factor"],
            parallel_transfers=params["parallel_transfers"],
        )
    return standard_stack(
        code_key, params["depth"],
        compute_qubits=params["compute_qubits"],
        cache_factor=params["cache_factor"],
        parallel_transfers=params["parallel_transfers"],
    )


def _engine_row(params: Mapping[str, Any], run) -> EngineRow:
    """Fold one engine run into its row (shared by both kernels)."""
    return EngineRow(
        workload=params["workload"],
        n_bits=params["n_bits"],
        code_key=params["code_key"],
        memory_code_key=params.get("memory_code_key", params["code_key"]),
        depth=params["depth"],
        policy=params["policy"],
        prefetch=params["prefetch"],
        parallel_transfers=params["parallel_transfers"],
        hit_rate=run.hit_rate,
        speedup=run.speedup,
        transfer_bound_fraction=run.transfer_bound_fraction,
        transfers=run.transfers,
        makespan_s=run.total_time_s,
    )


def engine_cell(params: Mapping[str, Any]) -> EngineRow:
    """One engine cell; module-level so worker processes can pickle it."""
    from ..sim.levels import simulate_hierarchy_run

    circuit = _engine_circuit(params["workload"], params["n_bits"])
    stack = _engine_stack(params)
    order = _fetch_order(
        params["workload"], params["n_bits"],
        params["compute_qubits"], params["cache_factor"],
    )
    run = simulate_hierarchy_run(
        stack, circuit, policy=params["policy"], order=order,
        prefetch=params["prefetch"],
    )
    return _engine_row(params, run)


# ----------------------------------------------------------------------
# batched engine execution: one traffic extraction, many priced cells
# ----------------------------------------------------------------------

#: Engine axes that only re-*price* the time domain.  The movement
#: trace — every replacement decision, transfer count, and cache
#: counter — is invariant across them (the PR 5 traffic-invariance
#: pin), so cells differing only here share one extraction.
ENGINE_PRICED_AXES = ("code_key", "memory_code_key", "parallel_transfers")

#: Fidelity-cell axes that only re-price the noise model (the Monte
#: Carlo calibration budget); the movement trace is invariant across
#: them too, so fidelity and engine cells of one traffic group share
#: one trace (and one trace-cache blob).
FIDELITY_PRICED_AXES = ("fidelity_trials", "fidelity_seed")


def engine_traffic_key(params: Mapping[str, Any]) -> Optional[str]:
    """The traffic-group identity of one engine or fidelity cell, or None.

    Cells with equal traffic keys share one movement trace and may be
    priced together by :func:`engine_batch_cell` (or recorded together
    by :func:`fidelity_batch_cell`).  Returns ``None`` for cells that
    must run the full simulation per cell: any prefetching cell runs
    the split-transaction model, whose traffic is time-coupled (a
    prefetch accepted under one latency assignment can be vetoed under
    another), so batching is bypassed there.
    """
    if params.get("prefetch", "none") != "none":
        return None
    traffic = {
        name: value
        for name, value in params.items()
        if name not in ENGINE_PRICED_AXES and name not in FIDELITY_PRICED_AXES
    }
    return stable_key("engine_traffic", **traffic)


def _group_trace(group: Sequence[Mapping[str, Any]], trace_cache=None):
    """One traffic group's (trace, stacks), extracting or cache-loading.

    Validates that every member shares one :func:`engine_traffic_key`,
    builds each member's stack, and produces the group's movement trace
    — from the ``trace_cache`` (a :class:`repro.perf.tracecache.
    TraceCache`) when it holds a verified blob under the group's
    :func:`repro.sim.replay.trace_key`, by running the replacement
    simulation otherwise (persisting the result for every later shard,
    resume, and run).
    """
    from ..sim.replay import extract_movement_trace, trace_key

    first = group[0]
    key = engine_traffic_key(first)
    if key is None:
        raise ValueError(
            "a traffic group requires batchable cells "
            "(prefetch='none'); got a time-coupled cell"
        )
    for params in group[1:]:
        if engine_traffic_key(params) != key:
            raise ValueError(
                "traffic group members must share one traffic key "
                "(the shard planner groups by it)"
            )
    stacks = [_engine_stack(params) for params in group]

    def extract():
        circuit = _engine_circuit(first["workload"], first["n_bits"])
        order = _fetch_order(
            first["workload"], first["n_bits"],
            first["compute_qubits"], first["cache_factor"],
        )
        return extract_movement_trace(
            stacks[0], circuit, first["policy"], order=order
        )

    if trace_cache is None:
        return extract(), stacks
    blob_key = trace_key(
        key, stacks[0].depth, [lvl.capacity for lvl in stacks[0].levels[:-1]]
    )
    return trace_cache.load_or_extract(blob_key, extract), stacks


def engine_batch_cell(
    group: Sequence[Mapping[str, Any]], trace_cache=None
) -> List[EngineRow]:
    """Rows for one traffic group of engine cells, from one extraction.

    Every member must share the same :func:`engine_traffic_key` — the
    replacement machinery runs once against the group's shared
    geometry (or is loaded from ``trace_cache``), then
    :func:`repro.sim.replay.price_movement_trace_batch` replays the
    movement trace across every member's codes and port widths.  Each
    row is bit-identical to :func:`engine_cell` on the same
    parameters.  Module-level so worker processes can pickle it.
    """
    from ..sim.replay import price_movement_trace_batch

    trace, stacks = _group_trace(group, trace_cache)
    runs = price_movement_trace_batch(trace, stacks)
    return [_engine_row(params, run) for params, run in zip(group, runs)]


@dataclass(frozen=True)
class _TrafficGroupKernel:
    """Picklable per-group kernel bound to a trace-cache dir.

    ``kernel`` names the grid kernel whose group function runs
    (``engine_cell`` or ``fidelity_cell``; looked up at call time so
    the group functions stay patchable module attributes).  Pool
    workers reconstruct the :class:`TraceCache` from the directory
    string on every call — the cache object itself holds a lock and is
    not picklable, and per-call construction keeps the durable
    ``stats.json`` tally correct across processes.
    """

    kernel: str = "engine_cell"
    trace_cache_dir: Optional[str] = None

    def _cache(self):
        if self.trace_cache_dir is None:
            return None
        from ..perf.tracecache import TraceCache

        return TraceCache(self.trace_cache_dir)

    def __call__(self, group: Sequence[Mapping[str, Any]]) -> List[EngineRow]:
        fn = engine_batch_cell if self.kernel == "engine_cell" else fidelity_batch_cell
        return fn(group, trace_cache=self._cache())


def engine_batch_spec(trace_cache=None, kernel: str = "engine_cell"):
    """The engine (or fidelity) grid's :class:`repro.sweep.runner.BatchSpec`.

    :func:`repro.sweep.runner.compute_grid` takes it on its own for
    engine and fidelity grids (through
    :func:`repro.sweep.runner.kernel_batch_spec`): cells sharing one
    :func:`engine_traffic_key` run as one group — one extraction
    re-priced per member by :func:`engine_batch_cell`, or re-priced
    with a residency recorder and accrued per member by
    :func:`fidelity_batch_cell` when ``kernel="fidelity_cell"``.

    ``trace_cache`` (anything
    :func:`repro.perf.tracecache.resolve_trace_cache` accepts) makes
    every group's movement trace a durable shared artifact, shared by
    both kernels: a warm cache turns repeated and resumed sweeps into
    pure pricing runs with zero traffic simulation.
    """
    from ..perf.tracecache import resolve_trace_cache
    from ..sweep.runner import BatchSpec

    if kernel not in ("engine_cell", "fidelity_cell"):
        raise ValueError(f"kernel {kernel!r} has no traffic groups")
    resolved = resolve_trace_cache(trace_cache)
    directory = None if resolved is None else str(resolved.directory)
    return BatchSpec(
        group_key=engine_traffic_key, fn=_TrafficGroupKernel(kernel, directory)
    )


def _normalize_code_pairs(
    code_pairs: Sequence[Sequence[str]],
) -> Tuple[Tuple[str, str], ...]:
    """Validate and canonicalize a (compute code, memory code) axis.

    Both keys must name registered codes — an unknown code fails here,
    at grid-build time, rather than mid-shard inside a worker process.
    """
    from ..ecc.concatenated import by_key

    pairs = []
    for pair in code_pairs:
        compute_code, memory_code = pair
        by_key(compute_code)
        by_key(memory_code)
        if compute_code == memory_code:
            raise ValueError(
                f"code pair {compute_code!r}:{memory_code!r} is not mixed; "
                "pure-code stacks belong on the code_keys axis"
            )
        pairs.append((compute_code, memory_code))
    return tuple(pairs)


def engine_grid(
    workloads: Sequence[str] = ENGINE_WORKLOADS,
    sizes: Sequence[int] = ENGINE_SIZES,
    code_keys: Sequence[str] = ENGINE_CODE_KEYS,
    depths: Sequence[int] = ENGINE_DEPTHS,
    policies: Optional[Sequence[str]] = None,
    prefetches: Sequence[str] = ENGINE_PREFETCHERS,
    transfer_options: Sequence[int] = ENGINE_TRANSFER_OPTIONS,
    compute_qubits: int = ENGINE_COMPUTE_QUBITS,
    cache_factor: float = ENGINE_CACHE_FACTOR,
    code_pairs: Sequence[Sequence[str]] = ENGINE_CODE_PAIRS,
) -> Grid:
    """The canonical engine-sweep cell enumeration.

    ``policies=None`` resolves to every registered eviction policy, so
    a sharded worker and a single-process sweep agree on the grid
    without passing the policy list around.

    ``code_pairs`` is the mixed-code stack axis: each (compute code,
    memory code) pair extends the stack axis after the pure codes, one
    stack configuration per remaining axis combination.  Mixed cells
    carry an extra ``memory_code_key`` parameter; pure cells keep the
    exact parameter set (and so the exact content hashes) of the
    pre-mixed-stack grid — cell identity is stable, though records
    stored under the pre-mixed :class:`EngineRow` schema fail
    reconstruction and are recomputed rather than misread.
    """
    if policies is None:
        from ..sim.policies import available_policies

        policies = available_policies()
    stacks = [(code_key, None) for code_key in code_keys]
    stacks.extend(_normalize_code_pairs(code_pairs))
    cells = tuple(
        Cell.make(
            "engine_cell",
            workload=workload,
            n_bits=n_bits,
            code_key=code_key,
            depth=depth,
            policy=policy,
            prefetch=prefetch,
            parallel_transfers=par,
            compute_qubits=compute_qubits,
            cache_factor=cache_factor,
            **(
                {} if memory_code_key is None
                else {"memory_code_key": memory_code_key}
            ),
        )
        for workload in workloads
        for n_bits in sizes
        for code_key, memory_code_key in stacks
        for depth in depths
        for policy in policies
        for prefetch in prefetches
        for par in transfer_options
    )
    return Grid("engine_cell", cells)


def engine_sweep(
    workloads: Sequence[str] = ENGINE_WORKLOADS,
    sizes: Sequence[int] = ENGINE_SIZES,
    code_keys: Sequence[str] = ENGINE_CODE_KEYS,
    depths: Sequence[int] = ENGINE_DEPTHS,
    policies: Optional[Sequence[str]] = None,
    prefetches: Sequence[str] = ENGINE_PREFETCHERS,
    transfer_options: Sequence[int] = ENGINE_TRANSFER_OPTIONS,
    compute_qubits: int = ENGINE_COMPUTE_QUBITS,
    cache_factor: float = ENGINE_CACHE_FACTOR,
    code_pairs: Sequence[Sequence[str]] = ENGINE_CODE_PAIRS,
    *,
    workers: Optional[int] = None,
    store=None,
    supervise=None,
    trace_cache=None,
    fidelity=None,
) -> List[EngineRow]:
    """Evaluate the generalized engine over its design axes.

    ``policies=None`` takes every registered eviction policy;
    ``prefetches`` is the sweep's fourth axis (pass
    ``repro.sim.prefetch.available_prefetchers()`` for every registered
    prefetcher); ``code_pairs`` the mixed-code stack axis (each
    (compute code, memory code) pair simulates that compute code over
    that memory code — see :func:`engine_grid`).  ``workers=N`` fans
    the independent cells out over a process pool; a ``store``
    (locator, path or backend) persists and reads through per-cell
    records, which is how sharded workers (``python -m repro.sweep``)
    and this function share work, and why a warm re-run against the
    same store recomputes nothing.

    Cells differing only in priced axes (codes, transfer width) run as
    one traffic group: simulated once, re-priced per member (see
    :func:`engine_batch_cell`) — bit-identical rows and store records.
    ``trace_cache`` (see :func:`repro.perf.tracecache.resolve_trace_cache`
    for accepted values) persists each group's movement trace, so a
    re-run or resume with a warm cache performs zero traffic simulation.

    ``fidelity`` adds the noise-aware axis: pass ``True`` (the default
    :data:`ENGINE_FIDELITY_TRIALS`/:data:`ENGINE_FIDELITY_SEED` Monte
    Carlo budget) or a ``{"trials": ..., "seed": ...}`` mapping, and
    every cell runs with a residency recorder attached, returning
    :class:`FidelityRow` rows (``EngineRow`` plus ``logical_error`` and
    its breakdown) under a distinct grid kernel (``fidelity_cell``), so
    its cell keys never collide with the engine grid's.
    ``fidelity=None`` leaves the sweep — including its cell keys and
    store records — byte-identical to a pre-fidelity build.  Fidelity
    cells group by the same traffic key (see
    :func:`fidelity_batch_cell`): the movement trace carries qubit
    identities, so one extraction — or one trace-cache load, shared
    with the engine grid — serves every member's residency recording.
    """
    if fidelity:
        trials, seed = _fidelity_budget(fidelity)
        budget = dict(fidelity_trials=trials, fidelity_seed=seed)
        build, cell_fn, row_type = fidelity_grid, fidelity_cell, FidelityRow
    else:
        budget = {}
        build, cell_fn, row_type = engine_grid, engine_cell, EngineRow
    grid = build(
        workloads, sizes, code_keys, depths, policies, prefetches,
        transfer_options, compute_qubits, cache_factor, code_pairs, **budget,
    )
    return compute_grid(
        grid, cell_fn, row_type,
        store=store, workers=workers, supervise=supervise,
        batch=kernel_batch_spec(grid.kernel, trace_cache),
    )


# ----------------------------------------------------------------------
# fidelity axis: noise-aware cells and the time-vs-fidelity front
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FidelityRow(EngineRow):
    """One noise-aware engine cell: an :class:`EngineRow` plus fidelity.

    ``logical_error`` is the survival-model probability that at least
    one logical failure occurred anywhere in the run (see
    :func:`repro.sim.residency.accrue_residency`); ``level_errors[l]``
    and ``transit_error`` are the isolated per-level and in-flight
    contributions.  ``fidelity_trials``/``fidelity_seed`` pin the Monte
    Carlo calibration budget into the row (and the cell hash), so rows
    from different budgets can never be conflated.
    """

    fidelity_trials: int
    fidelity_seed: int
    logical_error: float
    level_errors: Tuple[float, ...]
    transit_error: float

    def __post_init__(self) -> None:
        # Store records round-trip through JSON, which turns the tuple
        # into a list; coerce back so reconstructed rows compare equal.
        object.__setattr__(self, "level_errors", tuple(self.level_errors))


def _fidelity_budget(fidelity) -> Tuple[int, int]:
    """The (trials, seed) Monte Carlo budget a ``fidelity=`` value selects."""
    if fidelity is True:
        return ENGINE_FIDELITY_TRIALS, ENGINE_FIDELITY_SEED
    return (
        int(fidelity.get("trials", ENGINE_FIDELITY_TRIALS)),
        int(fidelity.get("seed", ENGINE_FIDELITY_SEED)),
    )


def fidelity_cell(params: Mapping[str, Any]) -> FidelityRow:
    """One fidelity cell; module-level so worker processes can pickle it.

    The engine run underneath is the exact :func:`engine_cell` run —
    the recorder only observes it — so every shared field of the
    resulting row is bit-identical to the ``engine_cell`` row of the
    same engine parameters.
    """
    from ..sim.residency import simulate_fidelity_run

    circuit = _engine_circuit(params["workload"], params["n_bits"])
    stack = _engine_stack(params)
    order = _fetch_order(
        params["workload"], params["n_bits"],
        params["compute_qubits"], params["cache_factor"],
    )
    run, fid = simulate_fidelity_run(
        stack, circuit, params["policy"], order=order,
        prefetch=params["prefetch"],
        trials=params["fidelity_trials"], seed=params["fidelity_seed"],
    )
    return _fidelity_row(params, run, fid)


def _fidelity_row(params: Mapping[str, Any], run, fid) -> FidelityRow:
    """Fold one recorded run and its accrual into a fidelity row."""
    return FidelityRow(
        **asdict(_engine_row(params, run)),
        fidelity_trials=params["fidelity_trials"],
        fidelity_seed=params["fidelity_seed"],
        logical_error=fid.logical_error,
        level_errors=fid.level_errors,
        transit_error=fid.transit_error,
    )


def fidelity_batch_cell(
    group: Sequence[Mapping[str, Any]], trace_cache=None
) -> List[FidelityRow]:
    """Rows for one traffic group of fidelity cells, from one extraction.

    The group's movement trace (extracted once, or loaded from
    ``trace_cache`` — the same blob the engine grid's group uses) is
    re-priced per member with a
    :class:`~repro.sim.residency.ResidencyRecorder` attached: the
    pricer emits exactly the reservation engine's movement records, so
    each row is bit-identical to :func:`fidelity_cell` on the same
    parameters.  A member whose residency walk counts a source-level
    mismatch raises, failing (and under supervision quarantining) the
    group.  Module-level so worker processes can pickle it.
    """
    from ..sim.replay import price_movement_trace
    from ..sim.residency import ResidencyRecorder, accrue_residency

    trace, stacks = _group_trace(group, trace_cache)
    rows = []
    for params, stack in zip(group, stacks):
        recorder = ResidencyRecorder()
        run = price_movement_trace(trace, stack, recorder)
        fid = accrue_residency(
            recorder, stack,
            trials=params["fidelity_trials"], seed=params["fidelity_seed"],
        )
        rows.append(_fidelity_row(params, run, fid))
    return rows


def fidelity_grid(
    workloads: Sequence[str] = ENGINE_WORKLOADS,
    sizes: Sequence[int] = ENGINE_SIZES,
    code_keys: Sequence[str] = ENGINE_CODE_KEYS,
    depths: Sequence[int] = ENGINE_DEPTHS,
    policies: Optional[Sequence[str]] = None,
    prefetches: Sequence[str] = ENGINE_PREFETCHERS,
    transfer_options: Sequence[int] = ENGINE_TRANSFER_OPTIONS,
    compute_qubits: int = ENGINE_COMPUTE_QUBITS,
    cache_factor: float = ENGINE_CACHE_FACTOR,
    code_pairs: Sequence[Sequence[str]] = ENGINE_CODE_PAIRS,
    fidelity_trials: int = ENGINE_FIDELITY_TRIALS,
    fidelity_seed: int = ENGINE_FIDELITY_SEED,
) -> Grid:
    """The canonical fidelity-sweep cell enumeration.

    Cell-for-cell the :func:`engine_grid` enumeration with the Monte
    Carlo budget folded into every cell's parameters (and so its
    content hash), under the ``fidelity_cell`` kernel.
    """
    base = engine_grid(
        workloads, sizes, code_keys, depths, policies, prefetches,
        transfer_options, compute_qubits, cache_factor, code_pairs,
    )
    cells = tuple(
        Cell.make(
            "fidelity_cell",
            fidelity_trials=fidelity_trials,
            fidelity_seed=fidelity_seed,
            **cell.as_dict(),
        )
        for cell in base.cells
    )
    return Grid("fidelity_cell", cells)


def pareto_rows(rows: Sequence[FidelityRow]) -> List[FidelityRow]:
    """The time-vs-fidelity Pareto front of a fidelity row set.

    A row is on the front when no other row is at least as fast *and*
    at least as reliable (with one of the two strictly better).  Rows
    come back sorted by ascending makespan; ties in makespan keep only
    the most reliable row.  ``None`` entries (quarantined cells from a
    supervised sweep) are ignored.
    """
    ordered = sorted(
        (row for row in rows if row is not None),
        key=lambda row: (row.makespan_s, row.logical_error),
    )
    front: List[FidelityRow] = []
    best = math.inf
    for row in ordered:
        if row.logical_error < best:
            front.append(row)
            best = row.logical_error
    return front

