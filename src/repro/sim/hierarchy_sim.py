"""Two-level compatibility wrapper over the N-level hierarchy engine.

This module keeps the original Table 5 surface — ``simulate_l1_run``
returning a :class:`HierarchyRunResult` — but the simulation itself now
runs on the general engine of :mod:`repro.sim.levels`: the call builds
the paper's two-level stack (L1 compute+cache over L2 memory, LRU
replacement, optimized fetch) and maps the engine result back onto the
legacy fields.  The pre-refactor event loop is test code
(``tests/oracles/hierarchy_sim.py``), and the equivalence tests pin the
engine-backed path to it bit for bit — Table 5 is unchanged.

The level-1 speedup of Table 5 is the ratio between executing the same
instruction stream entirely at level 2 and this simulated level-1 run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Optional

from ..circuits.circuit import Circuit
from ..ecc.concatenated import by_key
from ..perf.memo import resolve_cache, stable_key
from .levels import (
    DEFAULT_COMPUTE_QUBITS,
    l1_capacity,
    mixed_stack,
    simulate_hierarchy_run,
    two_level_stack,
)
from .policies import validate_policy
from .prefetch import validate_prefetcher
from .scheduler import _adder_circuit

__all__ = [
    "DEFAULT_COMPUTE_QUBITS",
    "HierarchyRunResult",
    "l1_speedup",
    "simulate_l1_run",
]


@dataclass(frozen=True)
class HierarchyRunResult:
    """Timing breakdown of one simulated level-1 adder execution."""

    code_key: str
    n_bits: int
    parallel_transfers: int
    l1_time_s: float
    l2_time_s: float
    compute_time_s: float
    transfer_wait_s: float
    hit_rate: float
    transfers: int

    @property
    def l1_speedup(self) -> float:
        """Table 5's "L1 SpeedUp": level-2 serial time over level-1."""
        return self.l2_time_s / self.l1_time_s

    @property
    def transfer_bound_fraction(self) -> float:
        return self.transfer_wait_s / self.l1_time_s if self.l1_time_s else 0.0


def _validate_l1_args(
    parallel_transfers: int,
    compute_qubits: int,
    cache_factor: float,
    circuit: Optional[Circuit],
    eviction_policy: str = "lru",
    prefetch: str = "none",
    l1_code_key: Optional[str] = None,
) -> None:
    """Boundary validation: fail fast with a clear message instead of
    deep inside the event loop."""
    if l1_code_key is not None:
        by_key(l1_code_key)  # validates the key before any memo lookup
    if parallel_transfers < 1:
        raise ValueError(
            f"parallel_transfers must be at least 1, got {parallel_transfers}"
        )
    if compute_qubits < 1:
        raise ValueError(
            f"compute_qubits must be at least 1, got {compute_qubits}"
        )
    if cache_factor < 0.0:
        raise ValueError(
            f"cache_factor cannot be negative, got {cache_factor}"
        )
    capacity = l1_capacity(compute_qubits, cache_factor)
    if capacity < 2:
        raise ValueError(
            "level-1 cache capacity must be at least 2 logical qubits; "
            f"(1 + {cache_factor}) * {compute_qubits} rounds to {capacity}"
        )
    if circuit is not None and not circuit.gates:
        raise ValueError("cannot simulate an empty circuit")
    validate_policy(eviction_policy)
    validate_prefetcher(prefetch)


def simulate_l1_run(
    code_key: str,
    n_bits: int,
    parallel_transfers: int = 10,
    compute_qubits: int = DEFAULT_COMPUTE_QUBITS,
    cache_factor: float = 2.0,
    circuit: Optional[Circuit] = None,
    cache=None,
    eviction_policy: str = "lru",
    prefetch: str = "none",
    l1_code_key: Optional[str] = None,
) -> HierarchyRunResult:
    """Simulate one adder at level 1 behind the transfer network.

    The resident set spans the compute region plus the cache
    (``(1 + cache_factor) * compute_qubits`` logical qubits).  With the
    default ``prefetch="none"`` transfer ports speak the
    greedy-reservation dialect — a miss occupies a port for the
    demotion (memory -> cache) and the paired promotion of the evicted
    qubit, bit-identical to the pre-engine simulator — while any real
    prefetcher switches the run to the split-transaction dialect, where
    a port is busy only while a transfer is in flight.
    Either way the instruction waits for its operands' arrivals, and
    computation on already-resident operands continues to overlap.

    ``eviction_policy`` selects the level-1 replacement policy from the
    :mod:`repro.sim.policies` registry; the default ``"lru"`` is the
    paper's configuration, bit-identical to the pre-engine simulator.
    ``prefetch`` selects a :mod:`repro.sim.prefetch` prefetcher;
    anything but the default ``"none"`` switches the engine to the
    split-transaction transfer model and promotes upcoming operands of
    the static fetch order ahead of demand.

    ``l1_code_key`` optionally encodes the level-1 compute+cache region
    in a different code family than the level-2 memory (``None``, the
    default, is the paper's same-code configuration): the run then
    simulates on a mixed-code two-level stack whose transfer network is
    priced from both codes (the off-diagonal Table 3 cells), while
    ``code_key`` remains the memory-side code and the level-2 serial
    baseline.

    Runs with the default adder circuit are memoized through
    :mod:`repro.perf.memo` (keyed on every parameter that affects the
    result); pass ``cache=False`` to force a fresh simulation, or an
    explicit :class:`~repro.perf.memo.SweepCache` / directory to control
    where results persist.  Caller-supplied circuits bypass the cache —
    there is no stable key for an arbitrary gate list.
    """
    _validate_l1_args(
        parallel_transfers, compute_qubits, cache_factor, circuit,
        eviction_policy, prefetch, l1_code_key,
    )
    if l1_code_key == code_key:
        l1_code_key = None
    if circuit is not None:
        return _simulate_l1_run_uncached(
            code_key, n_bits, parallel_transfers, compute_qubits,
            cache_factor, circuit, eviction_policy, prefetch, l1_code_key,
        )
    memo = resolve_cache(cache)
    # Same-code runs keep the historical key (no l1_code_key entry), so
    # persisted caches written before the mixed-code axis stay warm.
    key_kwargs = dict(
        code_key=code_key, n_bits=n_bits,
        parallel_transfers=parallel_transfers,
        compute_qubits=compute_qubits, cache_factor=cache_factor,
        eviction_policy=eviction_policy, prefetch=prefetch,
    )
    if l1_code_key is not None:
        key_kwargs["l1_code_key"] = l1_code_key
    key = stable_key("simulate_l1_run", **key_kwargs)
    if memo is not None:
        hit = memo.get(key)
        if hit is not None:
            try:
                return HierarchyRunResult(**hit)
            except TypeError:
                pass  # malformed persisted entry: fall through, recompute
    result = _simulate_l1_run_uncached(
        code_key, n_bits, parallel_transfers, compute_qubits,
        cache_factor, None, eviction_policy, prefetch, l1_code_key,
    )
    if memo is not None:
        memo.put(key, asdict(result))
    return result


def _simulate_l1_run_uncached(
    code_key: str,
    n_bits: int,
    parallel_transfers: int,
    compute_qubits: int,
    cache_factor: float,
    circuit: Optional[Circuit],
    eviction_policy: str = "lru",
    prefetch: str = "none",
    l1_code_key: Optional[str] = None,
) -> HierarchyRunResult:
    """Engine-backed two-level run mapped onto the legacy result."""
    if circuit is None:
        circuit = _adder_circuit(n_bits, False)
    if l1_code_key is not None:
        stack = mixed_stack(
            l1_code_key, code_key,
            compute_qubits=compute_qubits,
            cache_factor=cache_factor,
            parallel_transfers=parallel_transfers,
        )
    else:
        stack = two_level_stack(
            code_key,
            compute_qubits=compute_qubits,
            cache_factor=cache_factor,
            parallel_transfers=parallel_transfers,
        )
    run = simulate_hierarchy_run(
        stack, circuit, policy=eviction_policy, prefetch=prefetch,
    )
    return HierarchyRunResult(
        code_key=code_key,
        n_bits=n_bits,
        parallel_transfers=parallel_transfers,
        l1_time_s=run.total_time_s,
        l2_time_s=run.serial_bottom_time_s,
        compute_time_s=run.compute_time_s,
        transfer_wait_s=run.transfer_wait_s,
        hit_rate=run.hit_rate,
        transfers=run.level_stats[0].misses,
    )


@lru_cache(maxsize=None)
def l1_speedup(
    code_key: str,
    n_bits: int,
    parallel_transfers: int = 10,
    compute_qubits: int = DEFAULT_COMPUTE_QUBITS,
    cache_factor: float = 2.0,
) -> float:
    """Cached Table 5 "L1 SpeedUp" for one configuration.

    Every input that affects the result is an explicit parameter of the
    cached function — ``compute_qubits`` and ``cache_factor`` included —
    so callers varying them can never receive a stale entry keyed only
    on the first three arguments.
    """
    return simulate_l1_run(
        code_key, n_bits, parallel_transfers=parallel_transfers,
        compute_qubits=compute_qubits, cache_factor=cache_factor,
    ).l1_speedup
