"""The original optimized-fetch scheduler (test oracle).

:func:`repro.sim.cache.simulate_optimized` is pinned to this O(ready)
rescan-per-pick loop: same ``order``, same
:class:`~repro.sim.cache.CacheStats`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.circuits.circuit import Circuit
from repro.circuits.dag import CircuitDag
from repro.sim.cache import LruCache, OptimizedFetchResult

__all__ = ["simulate_optimized_reference"]


def simulate_optimized_reference(
    circuit: Circuit,
    capacity: int,
    window: Optional[int] = None,
) -> OptimizedFetchResult:
    """Reference dependency-aware fetch: O(ready) rescan per pick.

    This is the original implementation, kept as the executable
    specification for :func:`repro.sim.cache.simulate_optimized`.  Selection rule: the
    first ready instruction (in ready-list order, which is insertion
    order) whose operands are all resident wins outright; otherwise the
    highest resident-operand count wins, ties going to the earliest
    ready-list position.
    """
    dag = CircuitDag.build(circuit)
    gates = circuit.gates
    indegree = [len(p) for p in dag.preds]
    ready: List[int] = list(dag.ready_at_start())
    ready_set = set(ready)
    cache = LruCache(capacity)
    order: List[int] = []

    while ready:
        candidates = ready if window is None else ready[:window]
        # Most resident operands wins; ties go to program order (the
        # earliest instruction), which also keeps the schedule stable.
        best_pos = 0
        best_score = -1
        for pos, idx in enumerate(candidates):
            score = cache.peek_hits(gates[idx].qubits)
            if score == len(gates[idx].qubits):
                best_pos = pos
                break
            if score > best_score:
                best_score = score
                best_pos = pos
        idx = candidates[best_pos]
        ready.remove(idx)
        ready_set.discard(idx)
        for q in gates[idx].qubits:
            cache.access(q)
        order.append(idx)
        for succ in dag.succs[idx]:
            indegree[succ] -= 1
            if indegree[succ] == 0 and succ not in ready_set:
                ready.append(succ)
                ready_set.add(succ)
    return OptimizedFetchResult(stats=cache.stats, order=order)
