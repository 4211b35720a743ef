"""Resource-constrained list scheduler (Figures 2, 6a; Tables 4, 5).

Compute blocks are the schedulable resource: a logical gate occupies one
block for its duration (fifteen gate-EC slots for a Toffoli, one for
everything else).  Scheduling is event-driven list scheduling with
critical-path priority — gates with the longest remaining dependent
chain issue first — which is also how the paper's scheduler extracts the
"available parallelism" of an application.

Workload generators emit *round-structured* code (``stages``): a gate of
round ``s+1`` cannot start before every gate of round ``s`` has
finished.  For the Draper adder this reproduces the published Toffoli
depth of ``4 lg n + O(1)``; without the barriers the idealized DAG would
be about twice as shallow.

With ``n_blocks=None`` resources are unlimited and the makespan equals
the (round-respecting) critical path: the QLA's maximal-parallelism
execution.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence

from ..circuits.circuit import Circuit
from ..circuits.dag import CircuitDag
from ..circuits.draper import DraperAdder, carry_lookahead_adder


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of scheduling one circuit onto compute blocks."""

    makespan: int
    busy: int
    n_gates: int
    n_blocks: Optional[int]
    profile: Optional[List[int]] = None

    @property
    def utilization(self) -> float:
        """Busy block-slots over offered block-slots (1.0 = saturated)."""
        if self.n_blocks is None:
            raise ValueError("utilization needs a finite block count")
        if self.makespan == 0:
            return 0.0
        return self.busy / (self.n_blocks * self.makespan)


def list_schedule(
    circuit: Circuit,
    n_blocks: Optional[int] = None,
    unit_time: bool = False,
    keep_profile: bool = False,
    stages: Optional[Sequence[int]] = None,
) -> ScheduleResult:
    """Schedule ``circuit`` onto ``n_blocks`` compute blocks.

    ``unit_time=True`` treats every gate as one time step (the gate-level
    parallelism view of Figure 2); otherwise gates take their EC-slot
    durations.  ``stages`` adds round barriers (see module docstring).
    ``keep_profile=True`` additionally returns the number of busy blocks
    at every time step (only sensible for small makespans).
    """
    dag = CircuitDag.build(circuit)
    gates = circuit.gates
    n = len(gates)
    if n == 0:
        return ScheduleResult(0, 0, 0, n_blocks, [] if keep_profile else None)
    if n_blocks is not None and n_blocks < 1:
        raise ValueError("block count must be positive")
    if stages is not None and len(stages) != n:
        raise ValueError("stages must annotate every gate")

    priority = dag.downstream_slack()
    indegree = [len(p) for p in dag.preds]
    durations = [1 if unit_time else g.ec_slots for g in gates]
    stage_of = list(stages) if stages is not None else [0] * n
    n_stages = max(stage_of) + 1
    stage_total = [0] * n_stages
    for s in stage_of:
        stage_total[s] += 1
    stage_finished = [0] * n_stages
    pending_by_stage: List[List[int]] = [[] for _ in range(n_stages)]
    unlocked = 0
    while unlocked < n_stages - 1 and stage_total[unlocked] == 0:
        unlocked += 1

    ready: List = []  # (-priority, index)

    def make_eligible(idx: int) -> None:
        if stage_of[idx] <= unlocked:
            heapq.heappush(ready, (-priority[idx], idx))
        else:
            pending_by_stage[stage_of[idx]].append(idx)

    for i in dag.ready_at_start():
        make_eligible(i)
    running: List = []  # (finish_time, index)
    free = float("inf") if n_blocks is None else n_blocks

    time = 0
    makespan = 0
    busy = 0
    starts = [0] * n if keep_profile else None
    scheduled = 0
    while scheduled < n:
        # Issue as many ready gates as blocks allow at the current time.
        while ready and free > 0:
            _, idx = heapq.heappop(ready)
            finish = time + durations[idx]
            heapq.heappush(running, (finish, idx))
            if starts is not None:
                starts[idx] = time
            busy += durations[idx]
            makespan = max(makespan, finish)
            free -= 1
            scheduled += 1
        if scheduled == n:
            break
        if not running:  # pragma: no cover - defensive (cyclic DAG)
            raise RuntimeError("no gate running and none ready")
        # Advance to the next completion and release its successors.
        time, idx = heapq.heappop(running)
        free += 1
        done_now = [idx]
        while running and running[0][0] == time:
            _, idx2 = heapq.heappop(running)
            free += 1
            done_now.append(idx2)
        for done in done_now:
            stage_finished[stage_of[done]] += 1
            for succ in dag.succs[done]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    make_eligible(succ)
        # Unlock subsequent rounds once the current one fully completes.
        while (
            unlocked < n_stages - 1
            and stage_finished[unlocked] == stage_total[unlocked]
        ):
            unlocked += 1
            for idx2 in pending_by_stage[unlocked]:
                if indegree[idx2] == 0:
                    heapq.heappush(ready, (-priority[idx2], idx2))
            pending_by_stage[unlocked] = []

    profile = None
    if keep_profile:
        profile = [0] * makespan
        for idx, start in enumerate(starts):
            for t in range(start, start + durations[idx]):
                profile[t] += 1
    return ScheduleResult(
        makespan=makespan,
        busy=busy,
        n_gates=n,
        n_blocks=n_blocks,
        profile=profile,
    )


# ----------------------------------------------------------------------
# Adder-specific cached entry points
# ----------------------------------------------------------------------
#
# Architecture results schedule the *out-of-place* carry-lookahead adder:
# the modexp generators recycle carry and propagate-tree registers across
# the conditional-addition tree, so the steady-state per-addition cost
# excludes the erasure mirror (see EXPERIMENTS.md for the comparison
# against the full in-place adder).


@lru_cache(maxsize=None)
def cached_adder(n_bits: int, in_place: bool = False) -> DraperAdder:
    """Cached adder instance (construction is O(n log n) gates)."""
    return carry_lookahead_adder(n_bits, in_place=in_place)


def _adder_circuit(n_bits: int, in_place: bool = False) -> Circuit:
    """Circuit of the cached adder (compat helper for the simulators)."""
    return cached_adder(n_bits, in_place).circuit


@lru_cache(maxsize=None)
def adder_schedule(
    n_bits: int,
    n_blocks: Optional[int],
    in_place: bool = False,
) -> ScheduleResult:
    """Cached round-respecting schedule of an adder on ``n_blocks``."""
    adder = cached_adder(n_bits, in_place)
    return list_schedule(
        adder.circuit, n_blocks=n_blocks, stages=adder.stages
    )


def adder_makespan_slots(
    n_bits: int, n_blocks: Optional[int], in_place: bool = False
) -> int:
    return adder_schedule(n_bits, n_blocks, in_place).makespan


def adder_critical_slots(n_bits: int, in_place: bool = False) -> int:
    """Unlimited-resource makespan (the QLA execution)."""
    return adder_schedule(n_bits, None, in_place).makespan


def adder_utilization(n_bits: int, n_blocks: int, in_place: bool = False) -> float:
    """Figure 6a metric: block utilization at a given block count."""
    return adder_schedule(n_bits, n_blocks, in_place).utilization


def adder_balanced_slots(n_bits: int, n_blocks: Optional[int]) -> int:
    """Work-conserving (Brent-bound) makespan on ``n_blocks`` blocks.

    ``max(T_inf, ceil(W / k))``: execution is limited either by the
    round-structured critical path or by total work over the block
    count.  This fluid model is what the specialization study (Table 4)
    reports — block-level pipelining across rounds washes out the
    per-round quantization that a discrete barrier schedule would add;
    the discrete :func:`adder_schedule` gives the conservative variant.
    """
    unlimited = adder_schedule(n_bits, None)
    if n_blocks is None:
        return unlimited.makespan
    if n_blocks < 1:
        raise ValueError("block count must be positive")
    work_bound = -(-unlimited.busy // n_blocks)  # ceil division
    return max(unlimited.makespan, work_bound)


def adder_balanced_utilization(n_bits: int, n_blocks: int) -> float:
    """Utilization under the work-conserving schedule (Figure 6a)."""
    unlimited = adder_schedule(n_bits, None)
    makespan = adder_balanced_slots(n_bits, n_blocks)
    return unlimited.busy / (n_blocks * makespan)


def toffoli_subcircuit(n_bits: int) -> Circuit:
    """The adder's Toffoli gates only (the paper's gate-count unit).

    One- and two-qubit gates are an order of magnitude cheaper than the
    fault-tolerant Toffoli and fold into its fifteen-period budget, so
    the parallelism study counts Toffoli units.
    """
    from ..circuits.gates import GateKind

    circuit = cached_adder(n_bits, False).circuit
    gates = [g for g in circuit.gates if g.kind is GateKind.TOFFOLI]
    return Circuit(n_qubits=circuit.n_qubits, gates=gates,
                   name=f"draper-{n_bits}-toffolis")


def parallelism_profiles(n_bits: int, n_blocks: int) -> dict:
    """Figure 2 series: Toffolis in flight per cycle, unlimited vs capped.

    The unlimited series is the round-structured profile of the adder's
    Toffoli gates; the capped series re-flows the same work through
    ``n_blocks`` blocks (work-conserving).  The paper's observation —
    that 15 blocks run the 64-qubit adder as fast as unlimited hardware
    — falls out because the average parallelism is below the cap.
    """
    circuit = toffoli_subcircuit(n_bits)
    adder = cached_adder(n_bits, False)
    from ..circuits.gates import GateKind

    stages = tuple(
        s for s, g in zip(adder.stages, adder.circuit.gates)
        if g.kind is GateKind.TOFFOLI
    )
    unlimited = list_schedule(
        circuit, None, unit_time=True, keep_profile=True, stages=stages
    )
    capped = list_schedule(
        circuit, n_blocks, unit_time=True, keep_profile=True
    )
    return {
        "unlimited": unlimited.profile,
        "capped": capped.profile,
        "makespan_unlimited": unlimited.makespan,
        "makespan_capped": capped.makespan,
    }
