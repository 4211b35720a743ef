"""N-level memory-hierarchy engine (generalizing the Table 5 simulator).

The paper evaluates exactly one organization: a level-1 compute region
plus cache in front of level-2 memory, LRU replacement, Draper adder
workload.  This module is the general form: a :class:`HierarchyStack`
of N >= 2 :class:`MemoryLevel`\\ s — level 0 is the compute level, the
last level the unbounded backing store — connected by the Table 3
:class:`~repro.ecc.transfer.TransferNetwork` between each adjacent
pair, driven by any :class:`~repro.circuits.circuit.Circuit` under any
registered eviction policy (:mod:`repro.sim.policies`).  Each level
carries its own code family: a boundary between two different codes is
priced from both endpoints' EC periods and teleport-channel
requirements (the off-diagonal Table 3 cells), so load/store-style
organizations like a Bacon-Shor compute level over Steane memory
(:func:`mixed_stack`) simulate on the same engine as the paper's pure
stacks.

The hierarchy is *exclusive*: logical qubits cannot be copied, so each
lives at exactly one level.  A gate operand found below level 0 is
teleported up hop by hop (each hop occupies a port of that hop's
network); the insertion at level 0 may evict a resident, whose paired
write-back may cascade further evictions down the stack.  Intermediate
levels therefore behave as victim caches: a qubit evicted from level 0
is one cheap hop away on its next use instead of a full climb from
memory.

Two transfer models (time-model dialects) are available, each with
exactly one engine:

* the **reservation model** (``pipeline=False``, the default) reserves
  ports greedily at scan time and a miss's paired write-back holds the
  arrival port.  Replacement traffic never observes time, so a run is
  a movement-trace extraction followed by pricing
  (:mod:`repro.sim.replay`);
* the **split-transaction model** (``pipeline=True``) occupies a port
  only while a transfer is actually in flight, so multi-hop promotions
  pipeline across networks and short transfers backfill the idle
  windows the greedy model wastes.  On top of it, a registered
  prefetcher (:mod:`repro.sim.prefetch`) walks the *static* optimized
  fetch order and promotes upcoming operands into idle ports —
  prefetching is exact, not speculative, and prefetched qubits are
  pinned against eviction until first use.  It runs on the flattened
  event loop of :mod:`repro.sim.fastsplit`.

The retained reference engines (the original sequential loop and the
event-kernel engines with their invariant audits) are test code under
``tests/oracles/``; the equivalence tests pin both dialects to them bit
for bit.  With a two-level stack and the ``lru`` policy the reservation
model reproduces the original Table 5 simulator exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ..circuits.circuit import Circuit
from ..ecc.concatenated import by_key
from ..ecc.transfer import TransferNetwork
from .cache import simulate_optimized
from .policies import validate_policy
from .prefetch import validate_prefetcher

#: Level-1 compute-region size used across the hierarchy studies: one
#: optimally sized superblock (36 blocks) of 9 data qubits... the paper
#: studies cache sizes against the compute-region qubit count n; we use
#: a 9-block compute region (81 qubits), the superblock granularity of
#: Figure 3, with the standard cache factor of 2.
DEFAULT_COMPUTE_QUBITS = 81

#: Standard cache-capacity multiple of the compute-region size.
DEFAULT_CACHE_FACTOR = 2.0


@dataclass(frozen=True)
class MemoryLevel:
    """One level of the hierarchy: an encoding point plus a capacity.

    ``capacity`` is the number of logical qubits the level can hold;
    ``None`` marks the unbounded backing store (the last level).  The
    access cost and the per-transfer channel requirement derive from
    the level's concatenated code.
    """

    name: str
    code_key: str
    code_level: int
    capacity: Optional[int]

    def __post_init__(self) -> None:
        by_key(self.code_key)  # validates the key
        if self.code_level < 1:
            raise ValueError("memory levels must be encoded (code_level >= 1)")
        if self.capacity is not None and self.capacity < 2:
            raise ValueError(
                "level capacity must be at least 2 logical qubits "
                "(or None for an unbounded backing store)"
            )

    @property
    def is_bounded(self) -> bool:
        return self.capacity is not None

    @property
    def op_time_s(self) -> float:
        """Sustained logical-gate period at this level's encoding."""
        return by_key(self.code_key).logical_op_time_s(self.code_level)

    @property
    def ec_time_s(self) -> float:
        return by_key(self.code_key).ec_time_s(self.code_level)

    @property
    def channels_per_transfer(self) -> int:
        """Teleport channels one logical transfer occupies (Table 3)."""
        return by_key(self.code_key).spec.teleport_channels


@dataclass(frozen=True)
class HierarchyStack:
    """An ordered stack of levels joined by transfer networks.

    ``levels[0]`` is the compute level (gates execute there),
    ``levels[-1]`` the unbounded backing store.  ``parallel_transfers``
    is either one "Par Xfer" count broadcast to every network or a
    tuple with one entry per adjacent-level network (index ``i`` joins
    level ``i+1`` to level ``i``).
    """

    levels: Tuple[MemoryLevel, ...]
    parallel_transfers: Tuple[int, ...] = (10,)

    def __post_init__(self) -> None:
        levels = tuple(self.levels)
        object.__setattr__(self, "levels", levels)
        if len(levels) < 2:
            raise ValueError("a hierarchy needs at least two levels")
        for level in levels[:-1]:
            if not level.is_bounded:
                raise ValueError(
                    "only the last (backing-store) level may be unbounded"
                )
        if levels[-1].is_bounded:
            raise ValueError(
                "the last level is the backing store and must be unbounded "
                "(capacity=None)"
            )
        pt = self.parallel_transfers
        if isinstance(pt, int):
            pt = (pt,) * (len(levels) - 1)
        else:
            pt = tuple(pt)
            if len(pt) == 1:
                pt = pt * (len(levels) - 1)
        if len(pt) != len(levels) - 1:
            raise ValueError(
                "parallel_transfers needs one entry per adjacent-level "
                f"network ({len(levels) - 1}), got {len(pt)}"
            )
        for i, count in enumerate(pt):
            if count < 1:
                raise ValueError("need at least one parallel transfer")
            lower, upper = levels[i], levels[i + 1]
            # A cross-code boundary's transfer terminates in both
            # encodings, so it needs the wider channel requirement
            # (matches TransferNetwork.channels_per_transfer).
            channels = max(
                lower.channels_per_transfer, upper.channels_per_transfer
            )
            if count < channels:
                boundary = (
                    f"{upper.code_key} {upper.name} to "
                    f"{lower.code_key} {lower.name}"
                )
                raise ValueError(
                    f"network {i} (joining {boundary}) has "
                    f"parallel_transfers={count} but one transfer across "
                    f"this boundary occupies {channels} channels — the "
                    "network cannot fit even one transfer, and the port "
                    "model would silently over-provision it to a single "
                    "lane"
                )
        object.__setattr__(self, "parallel_transfers", pt)

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def code_key(self) -> str:
        """The compute-level code family (the whole stack's, if pure)."""
        return self.levels[0].code_key

    @property
    def code_keys(self) -> Tuple[str, ...]:
        """Each level's code family, top (compute) to bottom (store)."""
        return tuple(level.code_key for level in self.levels)

    @property
    def is_mixed(self) -> bool:
        """Does any boundary of this stack bridge two code families?"""
        return len(set(self.code_keys)) > 1

    def network(self, index: int) -> TransferNetwork:
        """The transfer network joining level ``index+1`` to ``index``.

        Both endpoints are routed through the builder: the cache side
        is the lower level's (code, code level), the memory side the
        upper level's, so a cross-code boundary prices its transfers
        from both codes' EC periods (the off-diagonal Table 3 cells).
        """
        lower, upper = self.levels[index], self.levels[index + 1]
        return TransferNetwork(
            code_key=lower.code_key,
            memory_level=upper.code_level,
            cache_level=lower.code_level,
            parallel_transfers=self.parallel_transfers[index],
            memory_code_key=upper.code_key,
        )

    def networks(self) -> Tuple[TransferNetwork, ...]:
        return tuple(self.network(i) for i in range(self.depth - 1))


def l1_capacity(compute_qubits: int, cache_factor: float) -> int:
    """Resident-set size of a compute level: region plus cache."""
    return int(round((1.0 + cache_factor) * compute_qubits))


def two_level_stack(
    code_key: str,
    compute_qubits: int = DEFAULT_COMPUTE_QUBITS,
    cache_factor: float = DEFAULT_CACHE_FACTOR,
    parallel_transfers: Union[int, Sequence[int]] = 10,
) -> HierarchyStack:
    """The paper's design point: L1 compute+cache over L2 memory."""
    return _leveled_stack(
        (code_key, code_key), compute_qubits, cache_factor,
        parallel_transfers,
    )


def _leveled_stack(
    code_keys: Sequence[str],
    compute_qubits: int,
    cache_factor: float,
    parallel_transfers: Union[int, Sequence[int]],
) -> HierarchyStack:
    """The shared standard geometry over one code per level: code level
    ``i+1`` at stack level ``i``, capacities doubling below the compute
    level, the deepest level the unbounded store."""
    depth = len(code_keys)
    if depth < 2:
        raise ValueError("a hierarchy needs at least two levels")
    base = l1_capacity(compute_qubits, cache_factor)
    levels: List[MemoryLevel] = [
        MemoryLevel(f"L{i + 1}", code_keys[i], i + 1, base * (2 ** i))
        for i in range(depth - 1)
    ]
    levels.append(MemoryLevel("memory", code_keys[-1], depth, None))
    return HierarchyStack(tuple(levels), parallel_transfers)


def standard_stack(
    code_key: str,
    depth: int,
    compute_qubits: int = DEFAULT_COMPUTE_QUBITS,
    cache_factor: float = DEFAULT_CACHE_FACTOR,
    parallel_transfers: Union[int, Sequence[int]] = 10,
) -> HierarchyStack:
    """A depth-N stack: code level ``i+1`` at stack level ``i``.

    Capacities double per level below the compute level (each tier
    trades speed for space), the deepest level is the unbounded store.
    ``depth=2`` is exactly :func:`two_level_stack`.
    """
    if depth < 2:
        raise ValueError("a hierarchy needs at least two levels")
    return _leveled_stack(
        (code_key,) * depth, compute_qubits, cache_factor,
        parallel_transfers,
    )


def three_level_stack(code_key: str, **kwargs) -> HierarchyStack:
    """Convenience: the default depth-3 organization."""
    return standard_stack(code_key, 3, **kwargs)


def mixed_stack(
    compute_code_key: str,
    memory_code_key: str,
    depth: int = 2,
    compute_qubits: int = DEFAULT_COMPUTE_QUBITS,
    cache_factor: float = DEFAULT_CACHE_FACTOR,
    parallel_transfers: Union[int, Sequence[int]] = 10,
) -> HierarchyStack:
    """A mixed-code stack: one code computes, another code stores.

    Level 0 (the compute level plus its cache capacity) is encoded in
    ``compute_code_key``; every level below it — intermediate victim
    caches and the unbounded backing store — in ``memory_code_key``.
    Geometry matches :func:`standard_stack`: code level ``i+1`` at
    stack level ``i``, capacities doubling below the compute level.

    This is the load/store-style organization of e.g. a Bacon-Shor
    compute region over Steane memory: the compute-memory boundary's
    transfers are priced from *both* codes' teleport channels and EC
    periods (the off-diagonal Table 3 cells).  With
    ``compute_code_key == memory_code_key`` the result is exactly
    :func:`standard_stack` (and ``depth=2``, :func:`two_level_stack`) —
    both builders share one geometry constructor, so they cannot drift.
    """
    if depth < 2:
        raise ValueError("a hierarchy needs at least two levels")
    return _leveled_stack(
        (compute_code_key,) + (memory_code_key,) * (depth - 1),
        compute_qubits, cache_factor, parallel_transfers,
    )


# ----------------------------------------------------------------------
# engine results
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LevelStat:
    """Access counters of one level over a run."""

    name: str
    capacity: Optional[int]
    accesses: int
    hits: int
    misses: int
    evictions: int
    final_occupancy: int

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


@dataclass(frozen=True)
class HierarchyEngineResult:
    """Timing and traffic breakdown of one N-level simulated run."""

    workload: str
    policy: str
    depth: int
    total_time_s: float
    serial_bottom_time_s: float
    compute_time_s: float
    transfer_wait_s: float
    level_stats: Tuple[LevelStat, ...]
    fetches: Tuple[int, ...]
    writebacks: Tuple[int, ...]
    prefetch: str = "none"
    prefetches_issued: int = 0
    prefetches_used: int = 0

    @property
    def hit_rate(self) -> float:
        """Hit rate at the compute level (the paper's cache hit rate)."""
        return self.level_stats[0].hit_rate

    @property
    def speedup(self) -> float:
        """Serial bottom-level execution time over hierarchy time."""
        return self.serial_bottom_time_s / self.total_time_s

    @property
    def transfers(self) -> int:
        """Total logical-qubit moves across every network, both ways."""
        return sum(self.fetches) + sum(self.writebacks)

    @property
    def transfer_bound_fraction(self) -> float:
        if not self.total_time_s:
            return 0.0
        return self.transfer_wait_s / self.total_time_s


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------

def _resolve_workload(workload: Union[Circuit, str]) -> Circuit:
    if isinstance(workload, Circuit):
        return workload
    if isinstance(workload, str):
        from ..circuits.workloads import build_workload

        return build_workload(workload)
    raise TypeError(
        "workload must be a Circuit or a registered workload name, "
        f"got {type(workload).__name__}"
    )


def _resolve_order(
    circuit: Circuit,
    capacity: int,
    window: Optional[int],
    fetch: str,
    order: Optional[Sequence[int]],
) -> Sequence[int]:
    """Shared fetch-order validation and scheduling."""
    gates = circuit.gates
    if fetch not in ("optimized", "in-order"):
        raise ValueError(
            f"unknown fetch mode {fetch!r}; use 'optimized' or 'in-order'"
        )
    if window is not None and (order is not None or fetch != "optimized"):
        raise ValueError(
            "window only applies to fetch='optimized' without a "
            "precomputed order; it would be silently ignored here"
        )
    if order is not None and fetch != "optimized":
        raise ValueError(
            "order and fetch='in-order' contradict each other; a "
            "precomputed order already fixes the schedule"
        )
    if order is not None:
        if sorted(order) != list(range(len(gates))):
            raise ValueError(
                "order must be a permutation of the circuit's gate indices"
            )
        return order
    if fetch == "optimized":
        return simulate_optimized(circuit, capacity, window=window).order
    return range(len(gates))


def simulate_hierarchy_run(
    stack: HierarchyStack,
    workload: Union[Circuit, str],
    policy: str = "lru",
    *,
    window: Optional[int] = None,
    fetch: str = "optimized",
    order: Optional[Sequence[int]] = None,
    prefetch: str = "none",
    pipeline: Optional[bool] = None,
    recorder=None,
) -> HierarchyEngineResult:
    """Simulate ``workload`` on the compute level of ``stack``.

    Instructions issue in the optimized fetch order computed against
    the compute level's capacity (``fetch="in-order"`` keeps program
    order instead; ``window`` bounds the fetch lookahead).  Every
    finite level replaces residents with a fresh instance of the named
    eviction ``policy``.  All qubits start at the backing store.

    ``prefetch`` names a registered prefetcher
    (:mod:`repro.sim.prefetch`); anything but ``"none"`` walks the
    static fetch order and promotes upcoming operands ahead of demand.
    ``pipeline`` selects the transfer model: ``False`` is the
    reservation model, ``True`` the split-transaction model.  The
    default (``None``) picks the reservation model for
    ``prefetch="none"`` and the split-transaction model otherwise —
    prefetching requires it.

    The fetch schedule depends only on (circuit, compute capacity,
    window), never on the eviction policy — callers comparing policies
    can compute ``simulate_optimized(circuit, capacity).order`` once
    and pass it as ``order`` to skip redundant scheduling runs.

    ``recorder`` (a :class:`~repro.sim.residency.ResidencyRecorder`)
    observes per-qubit residency intervals in both dialects, and every
    returned float is unchanged: recording never touches engine
    arithmetic.

    The reservation model runs through :mod:`repro.sim.replay`
    (extract the movement trace, price it); the split-transaction
    model through :mod:`repro.sim.fastsplit` (the flattened event loop,
    for every registered policy and prefetcher).
    """
    circuit = _resolve_workload(workload)
    if not circuit.gates:
        raise ValueError("cannot simulate an empty circuit")
    validate_prefetcher(prefetch)
    if pipeline is None:
        pipeline = prefetch != "none"
    if prefetch != "none" and not pipeline:
        raise ValueError(
            f"prefetch={prefetch!r} requires the split-transaction "
            "pipeline; pipeline=False contradicts it"
        )
    validate_policy(policy)
    order = _resolve_order(
        circuit, stack.levels[0].capacity, window, fetch, order
    )
    if pipeline:
        from .fastsplit import simulate_split_fast

        return simulate_split_fast(
            stack, circuit, order, policy, prefetch, recorder=recorder
        )
    from .replay import _extract_program, _scan_program, price_movement_trace

    movement = _extract_program(stack, circuit, policy, _scan_program(circuit, order))
    return price_movement_trace(movement, stack, recorder)
