#!/usr/bin/env python
"""Machine-readable benchmark runner for the perf trajectory.

Times the named hot-path kernels (and, optionally, the whole
pytest-benchmark suite) and writes ``BENCH_<timestamp>.json`` mapping
kernel name -> seconds, so successive PRs can compare before/after
numbers mechanically::

    PYTHONPATH=src python benchmarks/run_bench.py              # kernels
    PYTHONPATH=src python benchmarks/run_bench.py --quick      # CI smoke
    PYTHONPATH=src python benchmarks/run_bench.py --pytest     # + suite

The kernel set covers the two acceptance-criteria paths (optimized
fetch on the 1024-bit Draper adder, 4000-trial Monte Carlo decoding)
plus the Table 4/5 sweeps that sit on top of them.  Module-level caches
(fetch orders, the shared engine circuit, the level-1 adder run) are
cleared between repeats, so those are rebuilt cold in every repeat.
Not every kernel is cold, though: the engine, prefetch and residency
kernels (``_bench_engine``, ``_bench_prefetch``,
``_bench_residency_accrual_overhead``) build their circuit once at
set-up, and :func:`repro.sim.replay._scan_program` caches the scan
program on that circuit instance, so only their first run builds it
and their best-of times a warm scan program.
"""

from __future__ import annotations

import argparse
import importlib
import json
import platform
import subprocess
import sys
import time
from datetime import datetime
from pathlib import Path


def _oracle(name: str):
    """A reference engine module from ``tests/oracles/`` — the
    executable specifications the speedup kernels time the production
    paths against."""
    tests = str(Path(__file__).resolve().parent.parent / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    return importlib.import_module(f"oracles.{name}")


def _bench_fetch(n_bits: int, capacity: int = 243):
    from repro.sim.cache import simulate_optimized
    from repro.sim.scheduler import _adder_circuit

    circuit = _adder_circuit(n_bits, False)

    def run():
        return simulate_optimized(circuit, capacity)

    return run


def _bench_mc(code_key: str, trials: int):
    from repro.ecc.bacon_shor import bacon_shor_code
    from repro.ecc.montecarlo import logical_error_rate
    from repro.ecc.steane import steane_code

    code = {"steane": steane_code, "bacon_shor": bacon_shor_code}[code_key]()
    code.decode_table()  # table build is one-time setup, not the kernel

    def run():
        return logical_error_rate(code, 0.01, trials=trials, seed=11)

    return run


def _bench_hierarchy_sweep():
    from repro.core.design_space import hierarchy_sweep

    def run():
        return hierarchy_sweep()

    return run


#: The policy set the engine kernels time — pinned so the kernels keep
#: measuring the same workload as the committed baseline when the
#: policy registry grows (a new policy changes the *registry*, not what
#: these numbers mean).  ``engine_3level_generic_512`` gates the
#: ``fidelity`` policy, whose flattened state is the Belady heap with a
#: trip term (the kernel keeps its name and baseline entry).
BENCH_POLICIES = ("belady", "fifo", "lru", "score")


def _bench_engine(n_bits: int, depth: int = 3, policies=BENCH_POLICIES):
    """The generalized hierarchy engine: a 3-level stack under the
    pinned ``BENCH_POLICIES`` set on one adder workload.
    ``policies=("fidelity",)`` times the replacement kernel's
    trip-keyed heap, the flattened ``fidelity`` state."""
    from repro.circuits.workloads import build_workload
    from repro.core.design_space import (
        ENGINE_CACHE_FACTOR,
        ENGINE_COMPUTE_QUBITS,
    )
    from repro.sim.levels import simulate_hierarchy_run, standard_stack

    from repro.sim.cache import simulate_optimized

    circuit = build_workload("draper_adder", n_bits)
    stack = standard_stack("steane", depth,
                           compute_qubits=ENGINE_COMPUTE_QUBITS,
                           cache_factor=ENGINE_CACHE_FACTOR)
    # The fetch schedule is policy-independent one-time setup; without
    # it the kernel would mostly time the scheduler, not the engine.
    order = simulate_optimized(circuit, stack.levels[0].capacity).order

    def run():
        return [
            simulate_hierarchy_run(stack, circuit, policy=policy,
                                   order=order)
            for policy in policies
        ]

    return run


def _bench_prefetch(n_bits: int, depth: int = 3, policy: str = "lru"):
    """The split-transaction event-kernel path: a 3-level stack under
    exact next_k prefetching on one adder workload (demand on the
    reservation model is the engine kernel above; this one times the
    event loop, movement queues, and prefetch walk).
    ``policy="fidelity"`` times the same loop on the trip-keyed heap,
    the flattened ``fidelity`` state."""
    from repro.circuits.workloads import build_workload
    from repro.core.design_space import (
        ENGINE_CACHE_FACTOR,
        ENGINE_COMPUTE_QUBITS,
    )
    from repro.sim.cache import simulate_optimized
    from repro.sim.levels import simulate_hierarchy_run, standard_stack

    circuit = build_workload("draper_adder", n_bits)
    stack = standard_stack("steane", depth,
                           compute_qubits=ENGINE_COMPUTE_QUBITS,
                           cache_factor=ENGINE_CACHE_FACTOR)
    # Policy-independent one-time setup, as in the engine kernel.
    order = simulate_optimized(circuit, stack.levels[0].capacity).order

    def run():
        return simulate_hierarchy_run(stack, circuit, policy, order=order,
                                      prefetch="next_k")

    return run


def _bench_residency_accrual_overhead(n_bits: int = 512, depth: int = 3,
                                      alternations: int = 2):
    """The residency recorder's tax on the fastsplit next_k path, as a
    ratio (recorded / bare - 1).  The bare arm is the exact pre-fidelity
    engine run — ``recorder=None`` keeps every fast path byte-identical,
    and the committed *seconds* kernels (``prefetch_3level_next_k_512``,
    ``engine_3level_policies_512_x3``) gate that fidelity-off side against
    their unchanged baselines.  The recorded arm attaches a
    :class:`~repro.sim.residency.ResidencyRecorder` and accrues it,
    timing the movement log plus the residency walk that integrates it
    (the Monte Carlo calibration is lru_cached per (code, trials, seed)
    and amortizes to zero across a sweep, so a warm-up call excludes it;
    no :class:`~repro.sim.residency.Interval` objects are built on this
    path).  The arms
    alternate so clock drift hits both equally; the committed baseline
    pins the honest measured tax and ``OVERHEAD_SLACK`` bounds its
    drift."""
    from repro.circuits.workloads import build_workload
    from repro.core.design_space import (
        ENGINE_CACHE_FACTOR,
        ENGINE_COMPUTE_QUBITS,
    )
    from repro.sim.cache import simulate_optimized
    from repro.sim.levels import simulate_hierarchy_run, standard_stack
    from repro.sim.residency import ResidencyRecorder, accrue_residency, stack_noise

    circuit = build_workload("draper_adder", n_bits)
    stack = standard_stack("steane", depth,
                           compute_qubits=ENGINE_COMPUTE_QUBITS,
                           cache_factor=ENGINE_CACHE_FACTOR)
    order = simulate_optimized(circuit, stack.levels[0].capacity).order

    def run():
        stack_noise(stack)  # warm the lru_cached calibration
        bare = recorded = None
        for _ in range(alternations):
            t0 = time.perf_counter()
            simulate_hierarchy_run(stack, circuit, order=order,
                                   prefetch="next_k")
            elapsed = time.perf_counter() - t0
            bare = elapsed if bare is None else min(bare, elapsed)
            t0 = time.perf_counter()
            rec = ResidencyRecorder()
            result = simulate_hierarchy_run(stack, circuit, order=order,
                                            prefetch="next_k", recorder=rec)
            rec.finish(result.total_time_s)
            accrue_residency(rec, stack)
            elapsed = time.perf_counter() - t0
            recorded = elapsed if recorded is None else min(recorded, elapsed)
        return recorded / bare - 1.0

    return run


def _bench_engine_replay_speedup(n_bits: int = 512, depth: int = 3,
                                 alternations: int = 10):
    """The traffic/price factorization payoff on the reservation-model
    policy cell, as a speedup ratio (reference arithmetic / replay
    engine).  ``simulate_hierarchy_run`` extracts the movement trace
    and re-prices it; ``simulate_hierarchy_run_audited`` (the oracle in
    ``tests/oracles/levels.py``) runs the retained per-gate reference
    the fast path is pinned against.  The
    arms alternate so clock drift hits both equally; machine speed
    cancels out of the ratio, so the baseline gate holds it above an
    absolute floor (``SPEEDUP_FLOORS``) instead of scaling it.  Each
    arm is the best of ten alternations: with two, one reading on a
    loaded 2-vCPU host ranged from 3.3 to 7.3 with the code unchanged;
    with ten, eight readings stayed between 5.3 and 6.5."""
    from repro.circuits.workloads import build_workload
    from repro.core.design_space import (
        ENGINE_CACHE_FACTOR,
        ENGINE_COMPUTE_QUBITS,
    )
    from repro.sim.cache import simulate_optimized
    from repro.sim.levels import simulate_hierarchy_run, standard_stack

    simulate_hierarchy_run_audited = _oracle("levels").simulate_hierarchy_run_audited

    circuit = build_workload("draper_adder", n_bits)
    stack = standard_stack("steane", depth,
                           compute_qubits=ENGINE_COMPUTE_QUBITS,
                           cache_factor=ENGINE_CACHE_FACTOR)
    policies = BENCH_POLICIES
    order = simulate_optimized(circuit, stack.levels[0].capacity).order

    def run():
        reference = fast = None
        for _ in range(alternations):
            t0 = time.perf_counter()
            for policy in policies:
                simulate_hierarchy_run_audited(stack, circuit, policy=policy,
                                               order=order)
            elapsed = time.perf_counter() - t0
            reference = elapsed if reference is None else min(reference,
                                                              elapsed)
            t0 = time.perf_counter()
            for policy in policies:
                simulate_hierarchy_run(stack, circuit, policy=policy,
                                       order=order)
            elapsed = time.perf_counter() - t0
            fast = elapsed if fast is None else min(fast, elapsed)
        return reference / fast

    return run


def _bench_fidelity_replay_speedup(n_bits: int = 512, depth: int = 3,
                                   alternations: int = 2):
    """The identity-carrying trace payoff on a fidelity traffic group,
    as a speedup ratio (per-cell event kernel / grouped replay).  The
    group is one reservation-model cell priced over four code
    configurations (both pure stacks and both mixed pairs).  The
    per-cell arm runs the retained event-kernel engine with a residency
    recorder (``simulate_hierarchy_run_audited`` from
    ``tests/oracles/levels.py``) and accrues each
    configuration; the grouped arm extracts the movement trace once and
    re-prices it per configuration with a recorder attached
    (``price_movement_trace(..., recorder)``), then accrues — what
    fidelity grids now do per traffic group.  Both arms record the same
    movement log (pinned by the residency tests); machine speed cancels
    out of the ratio, so ``SPEEDUP_FLOORS`` gates it directly."""
    from repro.circuits.workloads import build_workload
    from repro.core.design_space import (
        ENGINE_CACHE_FACTOR,
        ENGINE_COMPUTE_QUBITS,
    )
    from repro.sim.cache import simulate_optimized
    from repro.sim.levels import mixed_stack, standard_stack
    from repro.sim.replay import extract_movement_trace, price_movement_trace
    from repro.sim.residency import ResidencyRecorder, accrue_residency, stack_noise

    simulate_hierarchy_run_audited = _oracle("levels").simulate_hierarchy_run_audited

    geometry = dict(compute_qubits=ENGINE_COMPUTE_QUBITS,
                    cache_factor=ENGINE_CACHE_FACTOR)
    stacks = [
        standard_stack("steane", depth, **geometry),
        standard_stack("bacon_shor", depth, **geometry),
        mixed_stack("bacon_shor", "steane", depth, **geometry),
        mixed_stack("steane", "bacon_shor", depth, **geometry),
    ]
    circuit = build_workload("draper_adder", n_bits)
    order = simulate_optimized(circuit, stacks[0].levels[0].capacity).order

    def run():
        for stack in stacks:
            stack_noise(stack)  # warm the lru_cached calibrations
        percell = grouped = None
        for _ in range(alternations):
            t0 = time.perf_counter()
            for stack in stacks:
                rec = ResidencyRecorder()
                result, _ = simulate_hierarchy_run_audited(
                    stack, circuit, order=order, recorder=rec
                )
                rec.finish(result.total_time_s)
                accrue_residency(rec, stack)
            elapsed = time.perf_counter() - t0
            percell = elapsed if percell is None else min(percell, elapsed)
            t0 = time.perf_counter()
            trace = extract_movement_trace(stacks[0], circuit, order=order)
            for stack in stacks:
                rec = ResidencyRecorder()
                price_movement_trace(trace, stack, rec)
                accrue_residency(rec, stack)
            elapsed = time.perf_counter() - t0
            grouped = elapsed if grouped is None else min(grouped, elapsed)
        return percell / grouped

    return run


#: The engine grid slice the batched-sweep kernels time: one traffic
#: group (fixed workload/size/depth/policy, no prefetch) whose priced
#: axis spans four code configurations — both pure stacks plus both
#: mixed-code pairs.
_BATCH_BENCH_GRID = dict(
    workloads=("draper_adder",), sizes=(512,), depths=(3,),
    policies=("lru",), prefetches=("none",),
)
_BATCH_BENCH_CODES = dict(
    code_keys=("steane", "bacon_shor"),
    code_pairs=(("bacon_shor", "steane"), ("steane", "bacon_shor")),
)


def _bench_batched_codepairs_speedup(alternations: int = 2):
    """Batched vs per-cell sweep execution over one four-config traffic
    group, as a speedup ratio (per-cell / batched).  The per-cell arm
    (a direct ``engine_cell`` loop) simulates the workload once per
    code configuration; the batched arm (``compute_grid``, which groups
    engine grids on its own) simulates it once and re-prices every
    configuration — the rows are pinned bit-identical elsewhere, this
    kernel times the payoff and gates its floor."""
    from repro.core.design_space import EngineRow, engine_cell, engine_grid
    from repro.sweep.runner import compute_grid

    grid = engine_grid(**_BATCH_BENCH_GRID, **_BATCH_BENCH_CODES)
    params = [cell.as_dict() for cell in grid]

    def run():
        # One warm pass builds the shared fetch-order cache so both
        # arms time simulation + pricing, not the scheduler.
        [engine_cell(p) for p in params]
        percell = batched = None
        for _ in range(alternations):
            t0 = time.perf_counter()
            [engine_cell(p) for p in params]
            elapsed = time.perf_counter() - t0
            percell = elapsed if percell is None else min(percell, elapsed)
            t0 = time.perf_counter()
            compute_grid(grid, engine_cell, EngineRow)
            elapsed = time.perf_counter() - t0
            batched = elapsed if batched is None else min(batched, elapsed)
        return percell / batched

    return run


def _bench_batched_scaling_overhead(alternations: int = 3):
    """Marginal cost of the priced axis on the batched path: the same
    traffic group swept with four code configurations vs one, returned
    as ``t(4)/t(1) - 1``.  The acceptance bar is that four
    configurations cost *less than twice* one (overhead < 1.0) because
    the simulation happens once and only the numpy/scalar re-pricing
    scales with the axis; the committed baseline pins the measured
    overhead far below that."""
    from repro.core.design_space import EngineRow, engine_cell, engine_grid
    from repro.sweep.runner import compute_grid

    grid_four = engine_grid(**_BATCH_BENCH_GRID, **_BATCH_BENCH_CODES)
    grid_one = engine_grid(**_BATCH_BENCH_GRID)

    def run():
        compute_grid(grid_four, engine_cell, EngineRow)
        four = one = None
        for _ in range(alternations):
            t0 = time.perf_counter()
            compute_grid(grid_four, engine_cell, EngineRow)
            elapsed = time.perf_counter() - t0
            four = elapsed if four is None else min(four, elapsed)
            t0 = time.perf_counter()
            compute_grid(grid_one, engine_cell, EngineRow)
            elapsed = time.perf_counter() - t0
            one = elapsed if one is None else min(one, elapsed)
        return four / one - 1.0

    return run


def _bench_wide_group_pricing_speedup(alternations: int = 3):
    """Vectorized vs scalar pricing of one wide traffic group, as a
    speedup ratio (scalar / vectorized).  One 256-bit Draper adder
    depth-3 trace is priced across 64 stacks (16 transfer widths x the
    four code stacks): the scalar arm runs ``price_movement_trace`` per
    stack, the vectorized arm ``price_movement_trace_batch``, which
    from ``NUMPY_PRICING_CELLS`` stacks up replays the trace once with
    one numpy column per stack.  Both are pinned ``==``-identical
    elsewhere; this kernel times the vectorization payoff at a group
    size no benchmark workload reaches and gates its floor."""
    from repro.circuits.workloads import build_workload
    from repro.core.design_space import (
        ENGINE_CACHE_FACTOR,
        ENGINE_COMPUTE_QUBITS,
        _engine_stack,
        _fetch_order,
    )
    from repro.sim.replay import (
        extract_movement_trace,
        price_movement_trace,
        price_movement_trace_batch,
    )

    n_bits, depth, policy = 256, 3, "lru"
    widths = tuple(range(3, 19))
    codes = (("steane", "steane"), ("steane", "bacon_shor"),
             ("bacon_shor", "steane"), ("bacon_shor", "bacon_shor"))
    circuit = build_workload("draper_adder", n_bits)
    order = _fetch_order("draper_adder", n_bits, ENGINE_COMPUTE_QUBITS,
                         ENGINE_CACHE_FACTOR)
    stacks = [
        _engine_stack(dict(
            workload="draper_adder", n_bits=n_bits, depth=depth,
            policy=policy, parallel_transfers=width, code_key=ck,
            memory_code_key=mk, prefetch="none",
            compute_qubits=ENGINE_COMPUTE_QUBITS,
            cache_factor=ENGINE_CACHE_FACTOR,
        ))
        for width in widths for ck, mk in codes
    ]
    trace = extract_movement_trace(stacks[0], circuit, policy, order=order)

    def run():
        scalar = vectorized = None
        for _ in range(alternations):
            t0 = time.perf_counter()
            for stack in stacks:
                price_movement_trace(trace, stack)
            elapsed = time.perf_counter() - t0
            scalar = elapsed if scalar is None else min(scalar, elapsed)
            t0 = time.perf_counter()
            price_movement_trace_batch(trace, stacks)
            elapsed = time.perf_counter() - t0
            vectorized = (elapsed if vectorized is None
                          else min(vectorized, elapsed))
        return scalar / vectorized

    return run


def _bench_specialization_sweep():
    from repro.core.design_space import specialization_sweep

    def run():
        return specialization_sweep()

    return run


def _bench_sweep_store(loops: int = 3, backend: str = "fs"):
    """The sharded-sweep store round trip: compute a small engine grid
    into a fresh ``backend`` store (cold, one write per traffic group
    plus one index update), then reassemble the rows read-only (warm
    merge path, one bulk read)."""
    import shutil
    import tempfile

    from repro.core.design_space import EngineRow, engine_cell, engine_grid
    from repro.perf.backends import open_store
    from repro.sweep.runner import compute_grid, rows_from_store

    grid = engine_grid(workloads=("draper_adder",), sizes=(16,), depths=(2,),
                       prefetches=("none",))

    def run():
        rows = None
        for _ in range(loops):
            tmp = tempfile.mkdtemp(prefix="bench-sweep-store-")
            try:
                store = open_store(
                    f"fs:{tmp}" if backend == "fs" else f"sqlite:{tmp}/store.db"
                )
                compute_grid(grid, engine_cell, EngineRow, store=store)
                rows = rows_from_store(grid, EngineRow, store)
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
        return rows

    return run


def _bench_supervised_overhead(alternations: int = 3):
    """The fault-free sweep runner's whole overhead, as a ratio.

    Runs the same small engine grid (every traffic group a singleton,
    so nothing batches) as a direct ``engine_cell`` loop and through
    ``compute_grid`` — the supervised executor, grouping and row
    assembly — in alternation (so clock drift hits both arms equally)
    and returns ``runner/raw - 1`` on the best-of times.  Unlike every other kernel this one measures
    *itself* and returns a dimensionless fraction, signalled by the
    ``_overhead`` name suffix: machine speed cancels out of a ratio,
    so the baseline gate compares it with an absolute budget instead
    of calibration scaling.
    """
    from repro.core.design_space import EngineRow, engine_cell, engine_grid
    from repro.sweep.runner import compute_grid

    grid = engine_grid(workloads=("draper_adder",), sizes=(256,),
                       depths=(3,), prefetches=("none",))
    params = [cell.as_dict() for cell in grid]

    def run():
        # One warm pass builds the fetch-order / speedup caches both
        # arms share, so the ratio times the runner, not the scheduler.
        [engine_cell(p) for p in params]
        raw = supervised = None
        for _ in range(alternations):
            t0 = time.perf_counter()
            [engine_cell(p) for p in params]
            elapsed = time.perf_counter() - t0
            raw = elapsed if raw is None else min(raw, elapsed)
            t0 = time.perf_counter()
            compute_grid(grid, engine_cell, EngineRow)
            elapsed = time.perf_counter() - t0
            supervised = (elapsed if supervised is None
                          else min(supervised, elapsed))
        return supervised / raw - 1.0

    return run


def _bench_service_table_query_overhead(queries: int = 8):
    """Warm-store table query latency through the live service, seconds.

    Fills a small sqlite store, binds a :class:`BackgroundService` over
    it, and times ``GET /v1/table`` end to end best-of over several
    queries.  The warm-up query opens the client's persistent
    connection and renders and memoizes the table, so the timed ones
    are HTTP round trip + generation-token read + memo hit.  The value is a
    wall-clock latency, not a ratio, but like the other ``_overhead``
    kernels it gates against an absolute budget
    (``OVERHEAD_CEILINGS``): the promise is "a warm table query
    answers well under a second", not a drift band around a noisy
    millisecond number.
    """
    import shutil
    import tempfile
    from pathlib import Path

    from repro.core.design_space import (
        TransferRow, transfer_cell, transfer_grid)
    from repro.perf.backends import open_store
    from repro.service import BackgroundService, ServiceClient
    from repro.sweep.runner import compute_grid

    grid = transfer_grid()

    def run():
        tmp = tempfile.mkdtemp(prefix="bench-service-")
        try:
            store = open_store(f"sqlite:{Path(tmp) / 'bench.db'}")
            compute_grid(grid, transfer_cell, TransferRow, store=store)
            with BackgroundService(store, grid) as svc:
                with ServiceClient(svc.url) as client:
                    client.table()  # connection + import warm-up
                    best = None
                    for _ in range(queries):
                        t0 = time.perf_counter()
                        client.table()
                        elapsed = time.perf_counter() - t0
                        best = elapsed if best is None else min(best, elapsed)
            return best
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    return run


def _clear_process_caches() -> None:
    """Reset the module-level caches between repeats.

    Scan programs cached on a circuit instance survive this: kernels
    that build their circuit at set-up (engine, prefetch, residency)
    time a warm scan program after their first run.
    """
    from repro.core.design_space import _engine_circuit, _fetch_order
    from repro.sim import hierarchy_sim

    hierarchy_sim._adder_l1_run.cache_clear()
    _fetch_order.cache_clear()
    _engine_circuit.cache_clear()


def _times(fn, n: int):
    """Loop a kernel so its best-of time is large against timer noise
    and the baseline gate's absolute slack."""
    def run():
        result = None
        for _ in range(n):
            result = fn()
        return result
    return run


def kernel_set(quick: bool):
    if quick:
        # Quick kernels are looped to >= ~0.1 s apiece: the baseline
        # regression gate adds a small absolute slack, and a
        # millisecond-scale kernel would let multi-x slowdowns hide
        # inside it.
        return {
            "fetch_optimized_1024_x4": _times(_bench_fetch(1024), 4),
            "mc_steane_2000_x8": _times(_bench_mc("steane", 2000), 8),
            "engine_3level_policies_512_x3": _times(_bench_engine(512), 3),
            "engine_3level_generic_512":
                _bench_engine(512, policies=("fidelity",)),
            "prefetch_3level_next_k_512": _bench_prefetch(512),
            "prefetch_3level_fidelity_next_k_512":
                _bench_prefetch(512, policy="fidelity"),
            "sweep_store_roundtrip_x20": _bench_sweep_store(20),
            "sweep_store_roundtrip_sqlite_x20":
                _bench_sweep_store(20, "sqlite"),
            "supervised_runner_overhead": _bench_supervised_overhead(),
            "residency_accrual_overhead": _bench_residency_accrual_overhead(),
            "engine_replay_speedup": _bench_engine_replay_speedup(512),
            "fidelity_replay_speedup": _bench_fidelity_replay_speedup(512),
            "batched_vs_percell_codepairs_speedup":
                _bench_batched_codepairs_speedup(),
            "batched_codepairs_scaling_overhead":
                _bench_batched_scaling_overhead(),
            "wide_group_pricing_speedup":
                _bench_wide_group_pricing_speedup(),
            "service_table_query_overhead":
                _bench_service_table_query_overhead(),
        }
    return {
        "fetch_optimized_256": _bench_fetch(256),
        "fetch_optimized_1024": _bench_fetch(1024),
        "mc_steane_4000": _bench_mc("steane", 4000),
        "mc_bacon_shor_4000": _bench_mc("bacon_shor", 4000),
        "specialization_sweep": _bench_specialization_sweep(),
        "hierarchy_sweep": _bench_hierarchy_sweep(),
        "engine_3level_policies_256": _bench_engine(256),
        "engine_3level_generic_512":
            _bench_engine(512, policies=("fidelity",)),
        "prefetch_3level_next_k_512": _bench_prefetch(512),
        "prefetch_3level_fidelity_next_k_512":
            _bench_prefetch(512, policy="fidelity"),
        "sweep_store_roundtrip_x20": _bench_sweep_store(20),
        "sweep_store_roundtrip_sqlite_x20": _bench_sweep_store(20, "sqlite"),
        "supervised_runner_overhead": _bench_supervised_overhead(),
        "residency_accrual_overhead": _bench_residency_accrual_overhead(),
        "engine_replay_speedup": _bench_engine_replay_speedup(512),
        "fidelity_replay_speedup": _bench_fidelity_replay_speedup(512),
        "batched_vs_percell_codepairs_speedup":
            _bench_batched_codepairs_speedup(),
        "batched_codepairs_scaling_overhead":
            _bench_batched_scaling_overhead(),
        "wide_group_pricing_speedup":
            _bench_wide_group_pricing_speedup(),
        "service_table_query_overhead":
            _bench_service_table_query_overhead(),
    }


def time_kernels(quick: bool, repeats: int) -> dict:
    results: dict = {}
    for name, fn in kernel_set(quick).items():
        ratio = name.endswith(("_overhead", "_speedup"))
        best = None
        for _ in range(repeats):
            _clear_process_caches()
            t0 = time.perf_counter()
            value = fn()
            if not ratio:
                value = time.perf_counter() - t0
            if best is None:
                best = value
            elif name.endswith("_speedup"):
                # Speedups: bigger is better, best-of is the max.
                best = max(best, value)
            else:
                best = min(best, value)
        results[name] = best
        print(f"  {name:36s} {best:9.4f} {'(ratio)' if ratio else 's'}")
    return results


def calibration_seconds() -> float:
    """Time a fixed pure-python workload to normalize across machines.

    Baseline JSONs are committed from one machine and checked on
    another (CI runners), so raw kernel seconds are not comparable.
    Scaling the baseline by the ratio of this deterministic spin on
    both machines turns the check into a same-machine comparison to
    first order.
    """
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(2_000_000):
            acc += i * i
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


def calibration_numpy_seconds() -> float:
    """Time a fixed NumPy workload (matmul-bound, like the Monte Carlo
    kernels).  Interpreter speed and BLAS throughput vary independently
    across machines, so the gate scales by whichever calibration makes
    the limit more lenient — a fast interpreter with ordinary BLAS must
    not shrink the limit of a NumPy-bound kernel."""
    import numpy as np

    a = np.arange(300 * 300, dtype=np.float64).reshape(300, 300) % 7.0
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(10):
            a = (a @ a) % 7.0
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


#: Absolute grace added to every baseline limit: timer noise can
#: exceed any relative tolerance on a too-small kernel.  Kept small
#: relative to the quick kernels (>= ~0.1 s) so the relative tolerance
#: remains the binding constraint.
BASELINE_SLACK_S = 0.01

#: Absolute budget for ``*_overhead`` ratio kernels: the measured
#: overhead fraction may exceed its baseline by at most this much.
#: Machine speed cancels out of a ratio, so no calibration scaling and
#: no relative tolerance apply — this keeps the fault-free supervision
#: tax pinned under ~5 points regardless of the runner.
OVERHEAD_SLACK = 0.05

#: Absolute floors for ``*_speedup`` ratio kernels (PR acceptance
#: criteria, not baseline-relative drift limits): the replay engine
#: must stay >= 5x the retained reference on the policy cell, the
#: batched sweep >= 2x the per-cell path on a four-config traffic
#: group, grouped fidelity replay >= 3x per-cell recorded event-kernel
#: runs on the same group, and vectorized pricing of one 64-stack
#: group >= 1.3x the scalar loop over it.
#: Ratios are machine-independent, so the floors gate directly —
#: falling below one means the factorization stopped paying for
#: itself, whatever the baseline says.
SPEEDUP_FLOORS = {
    "engine_replay_speedup": 5.0,
    "fidelity_replay_speedup": 3.0,
    "batched_vs_percell_codepairs_speedup": 2.0,
    "wide_group_pricing_speedup": 1.3,
}

#: Absolute ceilings overriding the drift budget for ``*_overhead``
#: kernels whose bar is an acceptance criterion rather than a committed
#: measurement.  The batched scaling kernel divides two ~50 ms arms, so
#: run-to-run noise dwarfs ``OVERHEAD_SLACK``; what the PR promises is
#: only that four priced configurations cost less than twice one
#: (overhead < 1.0), and that is what gates.  The supervised-runner
#: kernel has the same problem — the fault-free runner costs within
#: measurement noise of a direct cell loop, so its ratio swings +/-0.1
#: run to run; the committed bar is "the runner stays under a quarter
#: of a direct cell loop", not a 5% drift budget around a noise floor.
#: The service query kernel is a latency in seconds, not a ratio, but
#: the same logic applies: what the PR promises is "a warm-store table
#: query over HTTP answers in well under a second", and millisecond
#: best-of latencies are all noise against a drift budget.
#: The residency-recorder kernel divides two sub-second engine arms and
#: swings ~0.2-0.35 run to run; the promise is "recording residency
#: costs less than half the bare run" (fidelity-*off* runs pay nothing —
#: the unchanged engine seconds kernels gate that side), so the half
#: bar gates rather than a drift band around a noisy ratio.
OVERHEAD_CEILINGS = {
    "batched_codepairs_scaling_overhead": 1.0,
    "supervised_runner_overhead": 0.25,
    "service_table_query_overhead": 0.5,
    "residency_accrual_overhead": 0.5,
}


def check_baseline(
    kernels: dict,
    calibration: float,
    baseline_path: Path,
    tolerance: float,
    calibration_numpy: float = None,
) -> int:
    """Compare kernel times against a committed baseline JSON.

    Returns the number of kernels slower than ``baseline * scale *
    (1 + tolerance) + slack``, where ``scale`` normalizes for machine
    speed via the calibration workloads and ``slack`` absorbs absolute
    timer noise on tiny kernels.  The kernels mix interpreter-bound
    and NumPy-bound work, and those speeds vary independently across
    machines, so ``scale`` is the *most lenient* of the python and
    NumPy calibration ratios — a machine that is only faster at one of
    them must never shrink the other kind of kernel's limit into a
    false regression.  ``*_overhead`` kernels are dimensionless ratios
    and get an absolute budget instead (``baseline + OVERHEAD_SLACK``,
    no scaling, no slack); ``*_speedup`` kernels are held above their
    ``SPEEDUP_FLOORS`` acceptance floor, independent of the baseline
    value.  A kernel new to this run is reported but not
    failed (it needs a baseline refresh, not a red build); a baseline
    kernel *missing* from the run counts as a failure — otherwise
    renaming or dropping a gated kernel would silently disable its
    regression coverage.
    """
    data = json.loads(baseline_path.read_text())
    base_kernels = data.get("kernels", {})
    meta = data.get("meta", {})
    ratios = []
    if meta.get("calibration_s"):
        ratios.append(calibration / meta["calibration_s"])
    if meta.get("calibration_numpy_s") and calibration_numpy:
        ratios.append(calibration_numpy / meta["calibration_numpy_s"])
    scale = max(ratios) if ratios else 1.0
    print(f"baseline check vs {baseline_path} "
          f"(machine scale {scale:.2f}x, tolerance {tolerance:.0%})")
    failures = 0
    for name in sorted(set(base_kernels) | set(kernels)):
        if name not in kernels:
            print(f"  {name:36s} MISSING from this run — refresh the "
                  f"baseline JSON if the kernel was renamed or removed")
            failures += 1
            continue
        actual = kernels[name]
        if name.endswith("_speedup"):
            # Dimensionless speedup with an absolute acceptance floor:
            # bigger is better, regression means dropping below it.
            # The floor gates even before the baseline JSON lists the
            # kernel — an acceptance criterion has no grace period.
            floor = SPEEDUP_FLOORS.get(name, 1.0)
            verdict = "ok" if actual >= floor else "REGRESSION"
            print(f"  {name:36s} {actual:9.4f}x "
                  f"(floor {floor:9.4f}x) {verdict}")
            if actual < floor:
                failures += 1
            continue
        if name not in base_kernels:
            print(f"  {name:36s} new kernel, no baseline — refresh the "
                  f"baseline JSON to track it")
            continue
        if name.endswith("_overhead"):
            # Dimensionless ratio: no machine scaling, no timer slack.
            limit = OVERHEAD_CEILINGS.get(
                name, base_kernels[name] + OVERHEAD_SLACK
            )
            unit = ""
        else:
            limit = (base_kernels[name] * scale * (1.0 + tolerance)
                     + BASELINE_SLACK_S)
            unit = " s"
        verdict = "ok" if actual <= limit else "REGRESSION"
        print(f"  {name:36s} {actual:9.4f}{unit} "
              f"(limit {limit:9.4f}{unit}) {verdict}")
        if actual > limit:
            failures += 1
    return failures


def run_pytest_suite(out: dict) -> None:
    """Run the pytest-benchmark suite, folding mean times into ``out``."""
    tmp = Path("benchmarks") / ".pytest_bench.json"
    cmd = [
        sys.executable, "-m", "pytest", "benchmarks/", "--benchmark-only",
        "-q", f"--benchmark-json={tmp}",
    ]
    print(f"  running: {' '.join(cmd)}")
    subprocess.run(cmd, check=True)
    data = json.loads(tmp.read_text())
    for bench in data.get("benchmarks", []):
        out[f"pytest::{bench['name']}"] = bench["stats"]["mean"]
    tmp.unlink(missing_ok=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small kernel sizes for CI smoke runs")
    parser.add_argument("--pytest", action="store_true",
                        help="also run the pytest-benchmark suite")
    parser.add_argument("--repeats", type=int, default=1,
                        help="timing repeats per kernel (best-of)")
    parser.add_argument("--output", type=Path, default=None,
                        help="output path (default BENCH_<timestamp>.json)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="committed baseline JSON to regress against; "
                             "exit 1 if any kernel is slower than the "
                             "calibration-scaled baseline by more than "
                             "--tolerance")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed slowdown over baseline (default 0.25)")
    args = parser.parse_args(argv)
    if args.baseline is not None and not args.baseline.is_file():
        # Fail in milliseconds, not after minutes of kernel timing.
        parser.error(f"baseline file not found: {args.baseline}")

    print("timing kernels...")
    kernels = time_kernels(args.quick, max(1, args.repeats))
    if args.pytest:
        run_pytest_suite(kernels)
    calibration = calibration_seconds()
    calibration_numpy = calibration_numpy_seconds()

    stamp = datetime.now().strftime("%Y%m%d_%H%M%S")
    path = args.output or Path(f"BENCH_{stamp}.json")
    payload = {
        "meta": {
            "timestamp": stamp,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "quick": args.quick,
            "calibration_s": calibration,
            "calibration_numpy_s": calibration_numpy,
        },
        "kernels": kernels,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")

    if args.baseline is not None:
        failures = check_baseline(
            kernels, calibration, args.baseline, args.tolerance,
            calibration_numpy=calibration_numpy,
        )
        if failures:
            print(f"{failures} kernel(s) regressed past tolerance")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
