"""Simulators: the hierarchy engine, scheduling, caching, traffic.

This package owns every timing simulation between a logical circuit
and a makespan:

* :mod:`repro.sim.levels` — the N-level memory-hierarchy engine:
  :class:`HierarchyStack`\\ s of per-level codes (pure via
  :func:`standard_stack`, mixed via :func:`mixed_stack`), exclusive
  residency, cascaded write-backs, and
  :func:`simulate_hierarchy_run` over any registered workload/policy;
  it dispatches each time-model dialect to its one engine —
  :mod:`repro.sim.replay` (extract a movement trace, price it) for
  greedy port reservations, :mod:`repro.sim.fastsplit` for split
  transactions that pipeline hops;
* :mod:`repro.sim.policies` / :mod:`repro.sim.prefetch` — the
  shipped eviction-policy and exact-prefetcher names and the registries
  of user ones; :mod:`repro.sim.flatpolicy` is the replacement kernel
  both engines run (the shipped policies exist only there);
* :mod:`repro.sim.cache` — the two-level optimized-fetch cache
  simulator of Figure 7 (the fetch scheduler every engine run reuses);
* :mod:`repro.sim.hierarchy_sim` — the legacy Table 5 surface
  (:func:`simulate_l1_run`), a thin wrapper over the engine;
* :mod:`repro.sim.scheduler` / :mod:`repro.sim.comm` — block-level
  list scheduling (Figure 2) and communication accounting (Figure 8).

The public surface is re-exported below; ``docs/architecture.md``
explains how the pieces compose.  The retained reference engines the
fast paths are pinned against are test code (``tests/oracles/``), not
part of this package.
"""

from .cache import (
    CacheStats,
    HitRatePoint,
    LruCache,
    OptimizedFetchResult,
    hit_rate_study,
    simulate_in_order,
    simulate_optimized,
)
from .comm import (
    CommBreakdown,
    adder_transfer_count,
    modexp_breakdown,
    qft_breakdown,
    superblock_bandwidth_per_period,
)
from .hierarchy_sim import (
    DEFAULT_COMPUTE_QUBITS,
    HierarchyRunResult,
    l1_speedup,
    simulate_l1_run,
)
from .levels import (
    HierarchyEngineResult,
    HierarchyStack,
    LevelStat,
    MemoryLevel,
    mixed_stack,
    simulate_hierarchy_run,
    standard_stack,
    three_level_stack,
    two_level_stack,
)
from .policies import (
    EvictionPolicy,
    available_policies,
    make_policy,
    register_policy,
    validate_policy,
)
from .prefetch import (
    Prefetcher,
    available_prefetchers,
    make_prefetcher,
    register_prefetcher,
    validate_prefetcher,
)
from .scheduler import (
    ScheduleResult,
    adder_critical_slots,
    adder_makespan_slots,
    adder_schedule,
    adder_utilization,
    list_schedule,
    parallelism_profiles,
)

__all__ = [
    "CacheStats",
    "CommBreakdown",
    "DEFAULT_COMPUTE_QUBITS",
    "EvictionPolicy",
    "HierarchyEngineResult",
    "HierarchyRunResult",
    "HierarchyStack",
    "HitRatePoint",
    "LevelStat",
    "LruCache",
    "MemoryLevel",
    "OptimizedFetchResult",
    "Prefetcher",
    "ScheduleResult",
    "adder_critical_slots",
    "adder_makespan_slots",
    "adder_schedule",
    "adder_transfer_count",
    "adder_utilization",
    "available_policies",
    "available_prefetchers",
    "hit_rate_study",
    "l1_speedup",
    "list_schedule",
    "make_policy",
    "make_prefetcher",
    "mixed_stack",
    "modexp_breakdown",
    "parallelism_profiles",
    "qft_breakdown",
    "register_policy",
    "register_prefetcher",
    "simulate_hierarchy_run",
    "simulate_in_order",
    "simulate_l1_run",
    "simulate_optimized",
    "standard_stack",
    "superblock_bandwidth_per_period",
    "three_level_stack",
    "two_level_stack",
    "validate_policy",
    "validate_prefetcher",
]
