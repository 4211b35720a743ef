"""Reference hierarchy engines (test oracles).

The production engine of :mod:`repro.sim.levels` has one fast path per
time-model dialect: movement-trace extraction and pricing
(:mod:`repro.sim.replay`) for the reservation model, and the flattened
event loop (:mod:`repro.sim.fastsplit`) for the split-transaction
model.  This module keeps the executable specifications both are
pinned against:

* :func:`simulate_hierarchy_run_reference` — the original sequential
  reservation loop, verbatim;
* :func:`_run_reservation` — the same reservation arithmetic on the
  event kernel's :class:`~oracles.events.PortServer`;
* :class:`_SplitTransactionRun` — the split-transaction model as an
  event kernel driving closure-based continuation chains, with the
  reference policy and prefetcher objects (``oracles.policies``,
  ``oracles.prefetch``; the registry's for user-registered names);
* :func:`simulate_hierarchy_run_audited` — either event-kernel engine
  plus the :class:`EngineAudit` invariant counters (port occupancy,
  pinned evictions, conservation, residency partition).

Nothing under ``src/`` imports this module; the equivalence tests and
the ``engine_replay_speedup``/``fidelity_replay_speedup`` bench kernels
do.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.circuits.circuit import Circuit, TraceIndex
from repro.sim.cache import simulate_optimized
from repro.sim.levels import (
    HierarchyEngineResult,
    HierarchyStack,
    LevelStat,
    _resolve_order,
    _resolve_workload,
)
from repro.sim.prefetch import validate_prefetcher

from .events import EventKernel, PortServer
from .policies import oracle_policy
from .policycache import PolicyCache
from .prefetch import oracle_prefetcher

__all__ = [
    "EngineAudit",
    "simulate_hierarchy_run_audited",
    "simulate_hierarchy_run_reference",
]


@dataclass(frozen=True)
class EngineAudit:
    """Invariant bookkeeping of one engine run (for tests and studies).

    ``port_peak_concurrency`` is computed from the recorded busy
    intervals of each network, independently of the dispatch
    accounting; ``pinned_evictions`` counts evictions of in-flight or
    prefetched-unused qubits (must stay 0 — the pin budget guarantees
    an unpinned victim always exists); ``conservation_ok`` is the
    end-of-run exclusive-residency check (every qubit at exactly one
    level, caches and location map agreeing).
    """

    port_lanes: Tuple[int, ...]
    port_peak_concurrency: Tuple[int, ...]
    prefetches_vetoed: int
    pinned_evictions: int
    conservation_ok: bool
    #: Residency-recorder invariants (defaults when no recorder ran):
    #: time inversions monotonized away (reservation dialect only),
    #: source-level disagreements (an accounting bug; always 0), and
    #: the exact interval-partition check over every qubit's timeline.
    residency_clamped: int = 0
    residency_mismatches: int = 0
    residency_partition_ok: bool = True


def simulate_hierarchy_run_audited(
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
) -> Tuple[HierarchyEngineResult, EngineAudit]:
    """The event-kernel reference run plus its :class:`EngineAudit`.

    Same arguments and result as
    :func:`repro.sim.levels.simulate_hierarchy_run`, which is pinned to
    this function bit for bit.  With a ``recorder`` attached the
    audit's ``residency_*`` fields are filled from the finished
    recorder's invariant checks.
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
    top = stack.levels[0]
    # One policy instance per finite level, built before the (much more
    # expensive) fetch scheduling so a bad policy name fails fast.
    level_policies = [oracle_policy(policy) for _ in stack.levels[:-1]]
    order = _resolve_order(circuit, top.capacity, window, fetch, order)
    trace = circuit.operand_trace(order)
    if pipeline:
        run = _SplitTransactionRun(
            stack, circuit, order, trace, policy, level_policies, prefetch,
            recorder=recorder,
        )
        return run.run()
    return _run_reservation(
        stack, circuit, order, trace, policy, level_policies,
        recorder=recorder,
    )


# ----------------------------------------------------------------------
# reservation model on the event kernel (bit-identical to the reference)
# ----------------------------------------------------------------------

def _run_reservation(
    stack: HierarchyStack,
    circuit: Circuit,
    order: Sequence[int],
    trace: Sequence[int],
    policy_name: str,
    level_policies: list,
    recorder=None,
) -> Tuple[HierarchyEngineResult, EngineAudit]:
    """The reservation time model on :class:`~oracles.events.PortServer`.

    Ports are greedily reserved at scan time and the paired write-back
    of an evicted qubit holds the arrival port — exactly the retained
    sequential loop's arithmetic, so every float matches
    :func:`simulate_hierarchy_run_reference` bit for bit.  A
    ``recorder`` only observes the already-computed reservation times
    (scan order is not per-qubit causal here — the recorder's
    clamp-truncation handles the inversions).
    """
    gates = circuit.gates
    top = stack.levels[0]
    bottom = stack.depth - 1
    caches = [
        PolicyCache(level.capacity, level_policy, trace)
        for level, level_policy in zip(stack.levels[:-1], level_policies)
    ]
    networks = stack.networks()
    demote = [net.demote_time_s for net in networks]
    promote = [net.promote_time_s for net in networks]
    servers = [
        PortServer(max(1, round(net.effective_concurrency)), name=f"net{i}",
                   record=True)
        for i, net in enumerate(networks)
    ]

    location = {q: bottom for q in circuit.touched_qubits()}
    if recorder is not None:
        recorder.begin(location)
    rec = None if recorder is None else recorder.transfer
    fetches = [0] * len(networks)
    writebacks = [0] * len(networks)
    bottom_hits = 0

    top_op = top.op_time_s
    compute_free = 0.0
    transfer_wait = 0.0
    compute_time = 0.0
    pos = 0
    for idx in order:
        gate = gates[idx]
        arrivals = 0.0
        # Operands already touched for this gate are pinned: they are
        # part of the issuing gate and cannot be evicted mid-gate.
        # (LRU never picks them anyway — they sit at the MRU end — so
        # the two-level-LRU compatibility path is unaffected.)
        issued: set = set()
        for q in gate.qubits:
            src = location[q]
            if src == 0:
                caches[0].access_evicting(q, pos)  # guaranteed hit
                issued.add(q)
                pos += 1
                continue
            # The search walks down the stack: a miss at every level
            # above the qubit's, a hit where it lives.
            for k in range(1, src):
                caches[k].record_miss()
            if src == bottom:
                bottom_hits += 1
            else:
                caches[src].lookup_remove(q, pos)
            # Teleport the qubit up hop by hop; each hop occupies a
            # port of its network, and the qubit cannot start a hop
            # before finishing the previous one.
            prev = 0.0
            for k in range(src - 1, 0, -1):
                start = servers[k].reserve(prev, demote[k])
                prev = start + demote[k]
                fetches[k] += 1
                if rec is not None:
                    rec(q, k + 1, k, start, prev, k)
            # The eviction decision precedes the final-hop reservation
            # (it does not touch the ports) so the paired write-back's
            # port hold can be reserved in one step.
            _, evicted = caches[0].access_evicting(q, pos, issued)
            location[q] = 0
            issued.add(q)
            hold = promote[0] if evicted is not None else 0.0
            start = servers[0].reserve(prev, demote[0], hold)
            arrival = start + demote[0]
            fetches[0] += 1
            if rec is not None:
                rec(q, 1, 0, start, arrival, 0)
            if evicted is not None:
                # The paired write-back of the evicted qubit keeps the
                # arrival port busy after the demotion completes.
                writebacks[0] += 1
                location[evicted] = 1
                victim = evicted
                available = arrival + promote[0]
                if rec is not None:
                    rec(evicted, 0, 1, arrival, available, 0)
                lvl = 1
                while lvl < bottom:
                    bumped = caches[lvl].insert(victim, pos)
                    if bumped is None:
                        break
                    writebacks[lvl] += 1
                    location[bumped] = lvl + 1
                    start2 = servers[lvl].reserve(available, promote[lvl])
                    available = start2 + promote[lvl]
                    if rec is not None:
                        rec(bumped, lvl, lvl + 1, start2, available, lvl)
                    victim = bumped
                    lvl += 1
            if arrival > arrivals:
                arrivals = arrival
            pos += 1
        start = compute_free if compute_free > arrivals else arrivals
        if arrivals > compute_free:
            transfer_wait += arrivals - compute_free
        duration = gate.ec_slots * top_op
        compute_free = start + duration
        compute_time += duration

    level_stats = _collect_level_stats(
        stack, caches, location, bottom_hits
    )
    serial_bottom = (
        sum(g.ec_slots for g in gates) * stack.levels[bottom].op_time_s
    )
    result = HierarchyEngineResult(
        workload=circuit.name or f"circuit-{circuit.n_qubits}q",
        policy=policy_name,
        depth=stack.depth,
        total_time_s=compute_free,
        serial_bottom_time_s=serial_bottom,
        compute_time_s=compute_time,
        transfer_wait_s=transfer_wait,
        level_stats=tuple(level_stats),
        fetches=tuple(fetches),
        writebacks=tuple(writebacks),
    )
    if recorder is not None:
        recorder.finish(compute_free)
    audit = EngineAudit(
        port_lanes=tuple(s.lanes for s in servers),
        port_peak_concurrency=tuple(s.max_concurrency() for s in servers),
        prefetches_vetoed=0,
        pinned_evictions=0,
        conservation_ok=_check_conservation(stack, caches, location),
        **_residency_audit(recorder),
    )
    return result, audit


def _residency_audit(recorder) -> Dict[str, object]:
    """The audit's ``residency_*`` keywords from a finished recorder."""
    if recorder is None:
        return {}
    return {
        "residency_clamped": recorder.clamped,
        "residency_mismatches": recorder.mismatches,
        "residency_partition_ok": recorder.partition_ok(),
    }


def _collect_level_stats(
    stack: HierarchyStack,
    caches: List[PolicyCache],
    location: Dict[int, int],
    bottom_hits: int,
) -> List[LevelStat]:
    occupancy = [0] * stack.depth
    for level in location.values():
        occupancy[level] += 1
    level_stats: List[LevelStat] = []
    for i, cache in enumerate(caches):
        level = stack.levels[i]
        s = cache.stats
        level_stats.append(LevelStat(
            name=level.name,
            capacity=level.capacity,
            accesses=s.accesses,
            hits=s.hits,
            misses=s.misses,
            evictions=s.evictions,
            final_occupancy=occupancy[i],
        ))
    bottom_level = stack.levels[-1]
    level_stats.append(LevelStat(
        name=bottom_level.name,
        capacity=None,
        accesses=bottom_hits,
        hits=bottom_hits,
        misses=0,
        evictions=0,
        final_occupancy=occupancy[-1],
    ))
    return level_stats


def _check_conservation(
    stack: HierarchyStack,
    caches: List[PolicyCache],
    location: Dict[int, int],
) -> bool:
    """Exclusive residency: caches and the location map must agree."""
    for i, cache in enumerate(caches):
        at_level = {q for q, lvl in location.items() if lvl == i}
        if set(cache.resident()) != at_level:
            return False
    bottom = stack.depth - 1
    return all(0 <= lvl <= bottom for lvl in location.values())


# ----------------------------------------------------------------------
# split-transaction model (pipelined transfers + exact prefetch)
# ----------------------------------------------------------------------

#: Dispatch priorities among simultaneously-ready transfers.
_DEMAND, _WRITEBACK, _PREFETCH = 0, 1, 2

#: Compute-level slots never given to prefetch pins: headroom for the
#: operands of the issuing gate (up to three) plus one spare victim, so
#: a demand insertion can always find an unpinned qubit to evict.
_PIN_MARGIN = 4


class _Trigger:
    """A one-shot event time: subscribers fire at (or after) it."""

    __slots__ = ("time", "_subscribers")

    def __init__(self) -> None:
        self.time: Optional[float] = None
        self._subscribers: List[Callable[[float], None]] = []

    def subscribe(self, fn: Callable[[float], None]) -> None:
        if self.time is None:
            self._subscribers.append(fn)
        else:
            fn(self.time)

    def fire(self, time: float) -> None:
        self.time = time
        subscribers, self._subscribers = self._subscribers, []
        for fn in subscribers:
            fn(time)


class _Fetch:
    """One in-flight promotion to the compute level."""

    __slots__ = ("qubit", "priority", "pending", "server_k")

    def __init__(self, qubit: int, priority: int) -> None:
        self.qubit = qubit
        self.priority = priority
        self.pending = None  # the TransferRequest of the current hop
        self.server_k = -1


class _SplitTransactionRun:
    """One engine run under the split-transaction transfer model.

    Cache state (residency, policy bookkeeping, hit/miss counters)
    advances in *scan order* — the static fetch schedule — exactly as
    in the reservation model, so replacement decisions are identical
    across transfer models.  Only the time domain differs: transfers
    are queued requests against the port servers of an
    :class:`~oracles.events.EventKernel`, a port is busy only while a
    transfer is in flight, and each qubit's movements serialize through
    a per-qubit movement queue (a qubit mid-write-back must land before
    it can climb again).
    """

    def __init__(
        self,
        stack: HierarchyStack,
        circuit: Circuit,
        order: Sequence[int],
        trace: Sequence[int],
        policy_name: str,
        level_policies: list,
        prefetch_name: str,
        recorder=None,
    ) -> None:
        self.stack = stack
        self.circuit = circuit
        self.order = order
        self.trace = trace
        self.policy_name = policy_name
        self.prefetch_name = prefetch_name
        self.bottom = stack.depth - 1
        self.caches = [
            PolicyCache(level.capacity, level_policy, trace)
            for level, level_policy in zip(stack.levels[:-1], level_policies)
        ]
        networks = stack.networks()
        self.demote = [net.demote_time_s for net in networks]
        self.promote = [net.promote_time_s for net in networks]
        self.kernel = EventKernel()
        self.servers = [
            PortServer(
                max(1, round(net.effective_concurrency)),
                kernel=self.kernel, name=f"net{i}", record=True,
            )
            for i, net in enumerate(networks)
        ]
        touched = circuit.touched_qubits()
        self.location = {q: self.bottom for q in touched}
        self.recorder = recorder
        if recorder is not None:
            recorder.begin(self.location)
        self._rec = None if recorder is None else recorder.transfer
        self.avail = {q: 0.0 for q in touched}
        #: Per-qubit queue of movements waiting on the active one; a
        #: qubit is present exactly while some movement is unfinished.
        self.moving: Dict[int, List[Callable[[float], None]]] = {}
        #: In-flight promotions by qubit (all are at location 0).
        self.in_flight_up: Dict[int, _Fetch] = {}
        #: Prefetched qubits not yet demanded: pinned against eviction.
        self.pinned: Set[int] = set()
        self.index = TraceIndex.build(trace)
        self.prefetcher = oracle_prefetcher(prefetch_name)
        self.prefetcher.reset(trace, self.index, stack.depth)
        self.fetches = [0] * len(networks)
        self.writebacks = [0] * len(networks)
        self.bottom_hits = 0
        self.prefetches_issued = 0
        self.prefetches_used = 0
        self.prefetches_vetoed = 0
        self.pinned_evictions = 0
        self.pos = 0

    # -- per-qubit movement sequencing ---------------------------------
    def _enqueue_move(self, q: int, launch: Callable[[float], None]) -> None:
        """Schedule a movement of ``q``: ``launch(settle_t)`` runs once
        any earlier movement of ``q`` lands."""
        queue = self.moving.get(q)
        if queue is None:
            self.moving[q] = []
            launch(self.avail[q])
        else:
            queue.append(launch)

    def _movement_done(self, q: int, t: float) -> None:
        self.avail[q] = t
        queue = self.moving[q]
        if queue:
            queue.pop(0)(t)
        else:
            del self.moving[q]

    # -- promotions ----------------------------------------------------
    def _launch_fetch(
        self,
        q: int,
        src: int,
        issue_t: float,
        priority: int,
        chain: List[Tuple[int, int]],
    ) -> None:
        fetch = _Fetch(q, priority)
        self.in_flight_up[q] = fetch
        arrival = _Trigger()
        trigger = arrival
        for net_k, victim in chain:
            trigger = self._pair_writeback(trigger, net_k, victim)

        def launch(settle_t: float) -> None:
            ready = issue_t if issue_t > settle_t else settle_t
            self._hop(fetch, src - 1, ready, arrival)

        self._enqueue_move(q, launch)

    def _hop(
        self, fetch: _Fetch, k: int, ready: float, arrival: _Trigger
    ) -> None:
        def done(end: float) -> None:
            self.fetches[k] += 1
            if self._rec is not None:
                self._rec(
                    fetch.qubit, k + 1, k, end - self.demote[k], end, k
                )
            fetch.pending = None
            if k == 0:
                q = fetch.qubit
                del self.in_flight_up[q]
                self._movement_done(q, end)
                arrival.fire(end)
            else:
                self._hop(fetch, k - 1, end, arrival)

        fetch.server_k = k
        fetch.pending = self.servers[k].request(
            ready, self.demote[k], done, priority=fetch.priority,
        )

    def _upgrade_priority(self, fetch: _Fetch) -> None:
        """Promote a queued prefetch transfer to demand priority."""
        fetch.priority = _DEMAND
        req = fetch.pending
        if req is None:
            return
        server = self.servers[fetch.server_k]
        if server.withdraw(req):
            fetch.pending = server.request(
                req.ready, req.duration, req.on_complete, priority=_DEMAND,
            )

    # -- demotions -----------------------------------------------------
    def _pair_writeback(
        self, trigger: _Trigger, net_k: int, victim: int
    ) -> _Trigger:
        """Schedule ``victim``'s write-back once ``trigger`` fires (the
        incoming qubit's arrival, or the previous cascade hop)."""
        done_trigger = _Trigger()

        def launch(settle_t: float) -> None:
            def fire(t: float) -> None:
                ready = t if t > settle_t else settle_t

                def done(end: float) -> None:
                    self.writebacks[net_k] += 1
                    if self._rec is not None:
                        self._rec(
                            victim, net_k, net_k + 1,
                            end - self.promote[net_k], end, net_k,
                        )
                    self._movement_done(victim, end)
                    done_trigger.fire(end)

                self.servers[net_k].request(
                    ready, self.promote[net_k], done, priority=_WRITEBACK,
                )

            trigger.subscribe(fire)

        self._enqueue_move(victim, launch)
        return done_trigger

    def _evict_cascade(
        self, evicted: Optional[int]
    ) -> List[Tuple[int, int]]:
        """Scan-order cascade of an eviction at the compute level.

        Returns the write-back chain as (network, victim) pairs; cache
        state and the location map update immediately (scan order), the
        transfers themselves run later in the time domain.
        """
        if evicted is None:
            return []
        if evicted in self.pinned or evicted in self.in_flight_up:
            # The pin budget should make this unreachable; count it so
            # the invariant tests can assert it never happens.
            self.pinned_evictions += 1
            self.pinned.discard(evicted)
        chain = [(0, evicted)]
        self.location[evicted] = 1
        victim = evicted
        lvl = 1
        while lvl < self.bottom:
            bumped = self.caches[lvl].insert(victim, self.pos)
            if bumped is None:
                break
            chain.append((lvl, bumped))
            self.location[bumped] = lvl + 1
            victim = bumped
            lvl += 1
        return chain

    # -- prefetching ---------------------------------------------------
    def _victim_exclusions(self, issued) -> Set[int]:
        pinned = set(self.pinned)
        pinned.update(self.in_flight_up)
        pinned.update(issued)
        return pinned

    def _issue_prefetches(self, issue_t: float, issued: Set[int]) -> None:
        cache0 = self.caches[0]
        cap = cache0.capacity
        budget = cap - _PIN_MARGIN - len(self.pinned)
        if budget <= 0:
            return
        # The victim choice and exclusion set only change when a
        # prefetch is actually accepted (vetoed candidates mutate
        # nothing), so both are cached per acceptance epoch instead of
        # being recomputed for every candidate.
        exclusions: Optional[Set[int]] = None
        victim: Optional[int] = None
        victim_next: float = 0.0
        for q in self.prefetcher.candidates(self.pos - 1, self.location):
            if budget <= 0:
                break
            src = self.location[q]
            if src == 0 or q in self.moving:
                continue
            if exclusions is None:
                # ``issued`` keeps the current gate's operands out of
                # victim selection: they cannot be teleported away
                # mid-gate (a last-use operand would otherwise be the
                # lookahead policies' favorite victim, stalling the
                # gate on its own prefetch-induced write-back).
                exclusions = self._victim_exclusions(issued)
                victim = None
                if len(cache0) >= cap:
                    victim = cache0.peek_victim(self.pos, exclusions)
                    if victim is not None and victim in exclusions:
                        break  # unsatisfiable pin: no victim this gate
                    if victim is not None:
                        victim_next = self.index.next_use(
                            victim, self.pos - 1
                        )
            if victim is not None:
                # Exactness veto: an exact prefetch may reorder
                # transfers but never displace a qubit the static
                # schedule needs no later than the prefetched one —
                # the injected miss (and its serialized refill wait)
                # costs more than the prefetch hides.
                if victim_next <= self.index.next_use(q, self.pos - 1):
                    self.prefetches_vetoed += 1
                    continue
            if src != self.bottom:
                # A prefetch is not a demand access: pull the qubit out
                # quietly, without perturbing the level's hit counters.
                self.caches[src].remove(q)
            evicted = cache0.insert(q, self.pos, exclusions)
            self.location[q] = 0
            self.pinned.add(q)
            chain = self._evict_cascade(evicted)
            self._launch_fetch(q, src, issue_t, _PREFETCH, chain)
            self.prefetches_issued += 1
            budget -= 1
            exclusions = None  # state changed: recompute next round

    # -- the run -------------------------------------------------------
    def run(self) -> Tuple[HierarchyEngineResult, EngineAudit]:
        gates = self.circuit.gates
        caches = self.caches
        top_op = self.stack.levels[0].op_time_s
        compute_free = 0.0
        transfer_wait = 0.0
        compute_time = 0.0
        for idx in self.order:
            gate = gates[idx]
            issue_t = compute_free
            issued: Set[int] = set()
            for q in gate.qubits:
                src = self.location[q]
                if src == 0:
                    caches[0].access_evicting(q, self.pos)  # guaranteed hit
                    if q in self.pinned:
                        self.pinned.discard(q)
                        self.prefetches_used += 1
                    fetch = self.in_flight_up.get(q)
                    if fetch is not None and fetch.priority != _DEMAND:
                        self._upgrade_priority(fetch)
                else:
                    for k in range(1, src):
                        caches[k].record_miss()
                    if src == self.bottom:
                        self.bottom_hits += 1
                    else:
                        caches[src].lookup_remove(q, self.pos)
                    _, evicted = caches[0].access_evicting(
                        q, self.pos, self._victim_exclusions(issued)
                    )
                    self.location[q] = 0
                    chain = self._evict_cascade(evicted)
                    self._launch_fetch(q, src, issue_t, _DEMAND, chain)
                issued.add(q)
                self.pos += 1
            self._issue_prefetches(issue_t, issued)
            operands = set(gate.qubits)
            while any(q in self.moving for q in operands):
                self.kernel.step()
            arrivals = 0.0
            for q in operands:
                if self.avail[q] > arrivals:
                    arrivals = self.avail[q]
            start = compute_free if compute_free > arrivals else arrivals
            if arrivals > compute_free:
                transfer_wait += arrivals - compute_free
            duration = gate.ec_slots * top_op
            compute_free = start + duration
            compute_time += duration
        # Let trailing write-backs land so the audit sees settled state;
        # the makespan is the compute-level completion, as in the
        # reservation model.
        self.kernel.run()
        if self.recorder is not None:
            self.recorder.finish(compute_free)

        level_stats = _collect_level_stats(
            self.stack, caches, self.location, self.bottom_hits
        )
        serial_bottom = (
            sum(g.ec_slots for g in gates)
            * self.stack.levels[self.bottom].op_time_s
        )
        circuit = self.circuit
        result = HierarchyEngineResult(
            workload=circuit.name or f"circuit-{circuit.n_qubits}q",
            policy=self.policy_name,
            depth=self.stack.depth,
            total_time_s=compute_free,
            serial_bottom_time_s=serial_bottom,
            compute_time_s=compute_time,
            transfer_wait_s=transfer_wait,
            level_stats=tuple(level_stats),
            fetches=tuple(self.fetches),
            writebacks=tuple(self.writebacks),
            prefetch=self.prefetch_name,
            prefetches_issued=self.prefetches_issued,
            prefetches_used=self.prefetches_used,
        )
        conservation = (
            not self.moving
            and not self.in_flight_up
            and _check_conservation(self.stack, caches, self.location)
        )
        audit = EngineAudit(
            port_lanes=tuple(s.lanes for s in self.servers),
            port_peak_concurrency=tuple(
                s.max_concurrency() for s in self.servers
            ),
            prefetches_vetoed=self.prefetches_vetoed,
            pinned_evictions=self.pinned_evictions,
            conservation_ok=conservation,
            **_residency_audit(self.recorder),
        )
        return result, audit


# ----------------------------------------------------------------------
# retained reference (the original sequential loop, verbatim)
# ----------------------------------------------------------------------

def simulate_hierarchy_run_reference(
    stack: HierarchyStack,
    workload: Union[Circuit, str],
    policy: str = "lru",
    *,
    window: Optional[int] = None,
    fetch: str = "optimized",
    order: Optional[Sequence[int]] = None,
) -> HierarchyEngineResult:
    """The original sequential engine loop, retained verbatim.

    This is the executable specification the event-kernel engine's
    reservation model is pinned against: same fetch order, same
    replacement decisions, same greedy port arithmetic, field-for-field
    identical :class:`HierarchyEngineResult` (the prefetch fields stay
    at their defaults).
    """
    circuit = _resolve_workload(workload)
    if not circuit.gates:
        raise ValueError("cannot simulate an empty circuit")
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
    gates = circuit.gates
    top = stack.levels[0]
    level_policies = [oracle_policy(policy) for _ in stack.levels[:-1]]
    if order is not None:
        if sorted(order) != list(range(len(gates))):
            raise ValueError(
                "order must be a permutation of the circuit's gate indices"
            )
    elif fetch == "optimized":
        order = simulate_optimized(circuit, top.capacity, window=window).order
    else:
        order = range(len(gates))
    trace = [q for idx in order for q in gates[idx].qubits]

    bottom = stack.depth - 1
    caches = [
        PolicyCache(level.capacity, level_policy, trace)
        for level, level_policy in zip(stack.levels[:-1], level_policies)
    ]
    networks = stack.networks()
    demote = [net.demote_time_s for net in networks]
    promote = [net.promote_time_s for net in networks]
    ports: List[List[float]] = []
    for net in networks:
        lanes = max(1, round(net.effective_concurrency))
        heap = [0.0] * lanes
        heapq.heapify(heap)
        ports.append(heap)

    location = {q: bottom for q in circuit.touched_qubits()}
    fetches = [0] * len(networks)
    writebacks = [0] * len(networks)
    bottom_hits = 0

    top_op = top.op_time_s
    compute_free = 0.0
    transfer_wait = 0.0
    compute_time = 0.0
    pos = 0
    for idx in order:
        gate = gates[idx]
        arrivals = 0.0
        issued: set = set()
        for q in gate.qubits:
            src = location[q]
            if src == 0:
                caches[0].access_evicting(q, pos)  # guaranteed hit
                issued.add(q)
                pos += 1
                continue
            for k in range(1, src):
                caches[k].record_miss()
            if src == bottom:
                bottom_hits += 1
            else:
                caches[src].lookup_remove(q, pos)
            prev = 0.0
            for k in range(src - 1, 0, -1):
                port = heapq.heappop(ports[k])
                start = port if port > prev else prev
                prev = start + demote[k]
                fetches[k] += 1
                heapq.heappush(ports[k], prev)
            port = heapq.heappop(ports[0])
            start = port if port > prev else prev
            arrival = start + demote[0]
            fetches[0] += 1
            _, evicted = caches[0].access_evicting(q, pos, issued)
            location[q] = 0
            issued.add(q)
            busy = arrival
            if evicted is not None:
                busy = arrival + promote[0]
                writebacks[0] += 1
                location[evicted] = 1
                victim = evicted
                available = busy
                lvl = 1
                while lvl < bottom:
                    bumped = caches[lvl].insert(victim, pos)
                    if bumped is None:
                        break
                    writebacks[lvl] += 1
                    location[bumped] = lvl + 1
                    lower_port = heapq.heappop(ports[lvl])
                    start2 = (lower_port if lower_port > available
                              else available)
                    available = start2 + promote[lvl]
                    heapq.heappush(ports[lvl], available)
                    victim = bumped
                    lvl += 1
            heapq.heappush(ports[0], busy)
            if arrival > arrivals:
                arrivals = arrival
            pos += 1
        start = compute_free if compute_free > arrivals else arrivals
        if arrivals > compute_free:
            transfer_wait += arrivals - compute_free
        duration = gate.ec_slots * top_op
        compute_free = start + duration
        compute_time += duration

    level_stats = _collect_level_stats(stack, caches, location, bottom_hits)
    bottom_level = stack.levels[bottom]
    serial_bottom = sum(g.ec_slots for g in gates) * bottom_level.op_time_s
    return HierarchyEngineResult(
        workload=circuit.name or f"circuit-{circuit.n_qubits}q",
        policy=policy,
        depth=stack.depth,
        total_time_s=compute_free,
        serial_bottom_time_s=serial_bottom,
        compute_time_s=compute_time,
        transfer_wait_s=transfer_wait,
        level_stats=tuple(level_stats),
        fetches=tuple(fetches),
        writebacks=tuple(writebacks),
    )
