"""Quantum cache simulator (Section 5.2, Figure 7).

Models the level-1 cache of the CQLA memory hierarchy.  The simulator
consumes an instruction sequence (logical gates over qubit ids) and
tracks which logical qubits are resident at level 1; every gate operand
is an access, misses fetch from level-2 memory, and replacement is least
recently used.  Because qubits cannot be copied, every eviction is a
write-back (the evicted qubit must be promoted back to memory).

Two fetch policies are implemented, exactly as the paper describes:

* **in-order** — execute the program in generated order; hit rates stall
  around 20% for the Draper adder;
* **optimized** — the fetch window is the whole (statically known)
  program: build the dependency list, then repeatedly pick the ready
  instruction with the most operands already resident.  This raises hit
  rates to ~85% "immaterial of adder size and cache size".

:func:`simulate_optimized` is an incremental scheduler: it maintains a
qubit -> pending-ready-gate index and a per-gate resident-operand
count, updates scores only for gates touching qubits whose residency
actually changed on an access or eviction, and keeps ready gates in
score-keyed lazy heaps so each pick is O(1) amortized instead of
rescanning the whole ready list.  The original O(ready) rescan per pick
is test code (``tests/oracles/cache.py``); the equivalence tests assert
both produce the identical ``order`` and :class:`CacheStats`.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..circuits.circuit import Circuit
from ..circuits.dag import CircuitDag
from ..circuits.gates import Gate


@dataclass
class CacheStats:
    """Access counters for one simulation run."""

    capacity: int
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return 1.0 - self.hit_rate if self.accesses else 0.0


class LruCache:
    """LRU-resident set of logical qubits (ids are hashable ints)."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._resident: "OrderedDict[int, None]" = OrderedDict()
        self.stats = CacheStats(capacity=capacity)

    def __contains__(self, qubit: int) -> bool:
        return qubit in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    def resident(self) -> List[int]:
        return list(self._resident)

    def access(self, qubit: int) -> bool:
        """Touch ``qubit``; returns True on hit, fetching on miss."""
        hit, _ = self.access_evicting(qubit)
        return hit

    def access_evicting(self, qubit: int) -> Tuple[bool, Optional[int]]:
        """Touch ``qubit``; returns ``(hit, evicted_qubit_or_None)``.

        Identical to :meth:`access` but additionally reports which qubit
        the miss displaced, which is what lets the incremental scheduler
        update exactly the scores affected by the residency change.
        """
        self.stats.accesses += 1
        if qubit in self._resident:
            self._resident.move_to_end(qubit)
            self.stats.hits += 1
            return True, None
        self.stats.misses += 1
        evicted: Optional[int] = None
        if len(self._resident) >= self.capacity:
            evicted, _ = self._resident.popitem(last=False)
            self.stats.evictions += 1
        self._resident[qubit] = None
        return False, evicted

    def peek_hits(self, qubits: Iterable[int]) -> int:
        """Resident operands of a candidate gate, without touching LRU."""
        return sum(1 for q in qubits if q in self._resident)


def simulate_in_order(circuit: Circuit, capacity: int) -> CacheStats:
    """Run the program in generated order through an LRU cache."""
    cache = LruCache(capacity)
    for gate in circuit.gates:
        for q in gate.qubits:
            cache.access(q)
    return cache.stats


@dataclass
class OptimizedFetchResult:
    """Stats plus the reordered instruction sequence it produced."""

    stats: CacheStats
    order: List[int] = field(default_factory=list)

    def reordered_gates(self, circuit: Circuit) -> List[Gate]:
        return [circuit.gates[i] for i in self.order]


class _IncrementalFetch:
    """Incremental optimized-fetch scheduler state.

    Every ready gate carries a monotonically increasing arrival sequence
    number (its position in the rescan oracle's ready list)
    and a maintained score — the number of its operand occurrences
    currently resident.  Scores change only when a qubit enters or
    leaves the cache, and only for the ready gates touching that qubit,
    which the ``_gates_on`` index finds directly.

    Picking uses score-keyed heaps of ``(seq, gate)`` with lazy
    invalidation: a *saturated* gate (score == operand count) anywhere
    in the ready set wins outright, earliest arrival first, mirroring
    the reference scan's early break; otherwise the highest-scoring
    bucket's earliest arrival wins.  With a finite fetch ``window`` the
    heaps are bypassed and the first ``window`` ready gates are scanned
    in arrival order, exactly like the reference's ``ready[:window]``.
    """

    def __init__(self, circuit: Circuit, capacity: int,
                 window: Optional[int]) -> None:
        self.gates = circuit.gates
        self.dag = CircuitDag.build(circuit)
        self.indegree = [len(p) for p in self.dag.preds]
        self.cache = LruCache(capacity)
        self.window = window
        self.use_heaps = window is None

        self.order: List[int] = []
        self.score: Dict[int, int] = {}
        self.seq_of: Dict[int, int] = {}
        self.ready_order: "OrderedDict[int, int]" = OrderedDict()  # seq -> gate
        self._next_seq = 0
        # qubit -> {ready gate -> operand-occurrence count}
        self._gates_on: Dict[int, Dict[int, int]] = {}
        # score -> lazy min-heap of (seq, gate); plus the saturated heap
        self._buckets: Dict[int, List[Tuple[int, int]]] = {}
        self._full: List[Tuple[int, int]] = []
        self._max_score = 0

        for idx in self.dag.ready_at_start():
            self._make_ready(idx)

    # -- ready-set maintenance -----------------------------------------
    def _make_ready(self, idx: int) -> None:
        seq = self._next_seq
        self._next_seq += 1
        self.seq_of[idx] = seq
        self.ready_order[seq] = idx
        qubits = self.gates[idx].qubits
        for q in qubits:
            self._gates_on.setdefault(q, {})
            self._gates_on[q][idx] = self._gates_on[q].get(idx, 0) + 1
        score = self.cache.peek_hits(qubits)
        self.score[idx] = score
        self._push(idx, seq, score)

    def _push(self, idx: int, seq: int, score: int) -> None:
        if not self.use_heaps:
            return
        if score == len(self.gates[idx].qubits):
            heapq.heappush(self._full, (seq, idx))
        heapq.heappush(self._buckets.setdefault(score, []), (seq, idx))
        if score > self._max_score:
            self._max_score = score

    def _remove_ready(self, idx: int) -> None:
        seq = self.seq_of.pop(idx)
        del self.ready_order[seq]
        del self.score[idx]
        for q in set(self.gates[idx].qubits):
            bucket = self._gates_on.get(q)
            if bucket is not None:
                bucket.pop(idx, None)
                if not bucket:
                    del self._gates_on[q]

    def _residency_changed(self, qubit: int, delta: int) -> None:
        for idx, count in self._gates_on.get(qubit, {}).items():
            new_score = self.score[idx] + delta * count
            self.score[idx] = new_score
            self._push(idx, self.seq_of[idx], new_score)

    # -- picking ---------------------------------------------------------
    def _pick_heaps(self) -> int:
        full = self._full
        while full:
            seq, idx = full[0]
            if self.seq_of.get(idx) == seq and (
                    self.score[idx] == len(self.gates[idx].qubits)):
                return idx
            heapq.heappop(full)
        for s in range(self._max_score, -1, -1):
            heap = self._buckets.get(s)
            while heap:
                seq, idx = heap[0]
                if self.seq_of.get(idx) == seq and self.score[idx] == s:
                    return idx
                heapq.heappop(heap)
        raise RuntimeError("ready set empty")  # pragma: no cover

    def _pick_window(self, window: int) -> int:
        best_idx = -1
        best_score = -1
        for idx in islice(self.ready_order.values(), window):
            score = self.score[idx]
            if score == len(self.gates[idx].qubits):
                return idx
            if score > best_score:
                best_score = score
                best_idx = idx
        return best_idx

    # -- main loop -------------------------------------------------------
    def run(self) -> OptimizedFetchResult:
        gates = self.gates
        succs = self.dag.succs
        indegree = self.indegree
        total = len(gates)
        while len(self.order) < total:
            idx = (self._pick_heaps() if self.use_heaps
                   else self._pick_window(self.window))
            self._remove_ready(idx)
            for q in gates[idx].qubits:
                hit, evicted = self.cache.access_evicting(q)
                if hit:
                    continue
                if evicted is not None:
                    self._residency_changed(evicted, -1)
                self._residency_changed(q, +1)
            self.order.append(idx)
            for succ in succs[idx]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    self._make_ready(succ)
        return OptimizedFetchResult(stats=self.cache.stats, order=self.order)


def simulate_optimized(
    circuit: Circuit,
    capacity: int,
    window: Optional[int] = None,
) -> OptimizedFetchResult:
    """Dependency-aware fetch maximizing operands found in cache.

    ``window`` optionally limits how many ready instructions (in arrival
    order) are examined per pick; ``None`` scans the whole ready set,
    matching the paper's whole-program fetch window.

    Incremental implementation — bit-identical to the original rescan
    oracle (same ``order``, same :class:`CacheStats`) but O(1)
    amortized per pick instead of rescanning the ready list.
    """
    if capacity < 2:
        raise ValueError(
            "cache capacity must be at least 2 logical qubits "
            f"(a two-operand gate needs both resident), got {capacity}"
        )
    if not circuit.gates:
        raise ValueError("cannot simulate an empty circuit")
    if window is not None and window < 1:
        raise ValueError("fetch window must be positive")
    return _IncrementalFetch(circuit, capacity, window).run()


@dataclass(frozen=True)
class HitRatePoint:
    """One bar of Figure 7."""

    n_bits: int
    capacity: int
    policy: str
    hit_rate: float


def hit_rate_study(
    n_bits_list: Sequence[int],
    compute_qubits: int,
    cache_factors: Sequence[float] = (1.0, 1.5, 2.0),
) -> List[HitRatePoint]:
    """Figure 7 sweep: hit rates for both policies and cache sizes.

    ``compute_qubits`` is the level-1 compute-region size ``PE``; cache
    capacities are ``factor * PE``.
    """
    from ..sim.scheduler import _adder_circuit

    points: List[HitRatePoint] = []
    for n_bits in n_bits_list:
        circuit = _adder_circuit(n_bits, False)
        for factor in cache_factors:
            capacity = int(round(factor * compute_qubits))
            in_order = simulate_in_order(circuit, capacity)
            optimized = simulate_optimized(circuit, capacity)
            points.append(HitRatePoint(
                n_bits, capacity, "in-order", in_order.hit_rate))
            points.append(HitRatePoint(
                n_bits, capacity, "optimized", optimized.stats.hit_rate))
    return points
