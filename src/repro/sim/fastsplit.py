"""Flattened split-transaction engine for every policy and prefetcher.

The split-transaction model's executable specification is an event
kernel driving closure-based continuation chains, a policy-driven
resident set per level, and a prefetch walk that re-slices the operand
trace at every gate (test code: ``tests/oracles/levels.py``).  This
module is the compiled-down replica that
:func:`~repro.sim.levels.simulate_hierarchy_run` runs for every
pipelined cell:

* the event heap holds int-coded ``(time, seq, code, request)`` tuples
  — no callback objects — and port lanes are slot-indexed idle counters
  with one ``(priority, seq, request)`` heap per network;
* fetches, write-backs and transfer requests are flat list records;
  the per-qubit movement queues hold those records directly, so a
  completed movement launches its successor without allocating a
  closure;
* replacement decisions come from :mod:`repro.sim.flatpolicy`, the
  kernel movement-trace extraction runs too: flattened state for
  ``lru``, ``fifo``, ``score`` and ``belady``, whose victim queries
  are non-destructive peeks (a prefetch veto may leave the victim
  resident), and the real :class:`~repro.sim.policies.EvictionPolicy`
  objects for every other registered policy (``fidelity``, and any
  user-registered one), whose ``on_hit``/``on_insert``/``on_remove``
  hooks the engine calls exactly where the reference's resident sets
  do;
* the shipped prefetch walks (``next_k``, ``distance``) read a sorted
  next-use index where the reference walk re-slices the trace: the
  ascending list of ``nu_now[q]`` over every touched qubit outside the
  compute level.  Its entries are exactly the first occurrences of
  non-resident qubits the reference walk reports, in trace order
  (``trace[nu_now[q]] == q``), so ``distance`` slices its first k
  entries below the horizon and ``next_k`` advances through it lazily
  by bisection (the reference walk has no side effects, so candidates
  the budget never reaches are never visited); every other
  registered prefetcher drives its real
  :class:`~repro.sim.prefetch.Prefetcher` object — ``reset`` once,
  ``candidates`` once per gate over a read-only view of the location
  array, materialized before the issue loop like the reference's;
* the exactness veto reads next uses from an incrementally-maintained
  array instead of bisecting a ``TraceIndex``;
* the first veto ends a ``next_k`` walk.  This is exact, not a
  heuristic: ``next_k`` candidates arrive in ascending trace position,
  and the peeked victim (with its next use) stays fixed until a
  prefetch is accepted, so once one candidate is vetoed every later
  one is too.  Every other prefetcher ranks candidates its own way, so
  it keeps walking past a veto.

Every kernel-schedule and queue-insertion call site mirrors the
reference one-to-one, so the (time, seq) event order — and therefore
every float in the result — is bit-identical.  The equivalence suite
pins this across every (depth, policy, workload, prefetch) cell.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right, insort
from collections.abc import Mapping
from typing import List, Optional, Sequence, Set

from ..circuits.circuit import Circuit, TraceIndex
from .levels import HierarchyEngineResult, HierarchyStack, LevelStat
from .flatpolicy import flat_policy
from .policies import available_policies
from .prefetch import available_prefetchers, make_prefetcher
from .replay import _scan_program

__all__ = ["simulate_split_fast", "supports_fast_split"]

#: Dispatch priorities among simultaneously-ready transfers.
_DEMAND, _WRITEBACK, _PREFETCH = 0, 1, 2
_PIN_MARGIN = 4

#: The shipped prefetcher parameters (``NextKPrefetcher()`` defaults).
_PREFETCH_K = 64
_PREFETCH_HORIZON = 512

#: Request lifecycle states.
_SCHEDULED, _QUEUED, _ACTIVE, _DONE, _WITHDRAWN = 0, 1, 2, 3, 4

#: Event heap opcodes: a request becomes ready, or a transfer completes.
_EV_ENQUEUE, _EV_COMPLETE = 0, 1

#: Request kinds: a fetch hop or a paired write-back.
_K_HOP, _K_WB = 0, 1

# Flat record layouts (lists beat attribute access in the hot loop):
#   request: [ready, duration, priority, state, kind, owner, server]
#   fetch:   [0, qubit, priority, pending_req, server_k, issue_t, src,
#             first_wb]
#   wb:      [1, net_k, victim, settle, trigger_time, next_wb]
# A fetch's arrival "trigger" is the k==0 hop completion; a write-back
# chain is linked through ``next_wb``, each element firing its
# successor — the reference engine's trigger subscriptions, flattened
# (each trigger ever has at most one subscriber).

#: Prefetchers with a hand-flattened walk; every other registered
#: prefetcher runs through its real ``Prefetcher`` object.
_SPECIALIZED_PREFETCHERS = frozenset({"distance", "next_k"})


def supports_fast_split(policy: str, prefetch: str) -> bool:
    """True when (policy, prefetch) names a registered pair.

    The flattened engine covers every registered policy and prefetcher
    — the shipped ones with specialized state, all others through
    their real registry objects — so this is a registry check.
    """
    return policy in available_policies() and prefetch in available_prefetchers()


class _LocationView(Mapping):
    """Read-only ``{qubit: level}`` view over the engine's location
    array, keyed by the touched qubits (the reference's location dict)."""

    __slots__ = ("_location", "_touched")

    def __init__(self, location: List[int], touched: Sequence[int]) -> None:
        self._location = location
        self._touched = touched

    def __getitem__(self, qubit: int) -> int:
        level = self._location[qubit] if 0 <= qubit < len(self._location) else -1
        if level < 0:
            raise KeyError(qubit)
        return level

    def __iter__(self):
        return iter(self._touched)

    def __len__(self) -> int:
        return len(self._touched)


def simulate_split_fast(
    stack: HierarchyStack,
    circuit: Circuit,
    order: Sequence[int],
    policy: str,
    prefetch: str,
    recorder=None,
) -> HierarchyEngineResult:
    """One split-transaction engine run, flattened.

    ``order`` is already resolved and validated by the caller;
    ``policy`` and ``prefetch`` name registered entries.

    ``recorder`` (a :class:`~repro.sim.residency.ResidencyRecorder`)
    observes completed hops at their completion events — the same
    ``end - duration`` span arithmetic as the reference engine, so the
    recorded intervals are bit-identical to the reference's.
    Recording never touches the engine's floats.
    """
    program = _scan_program(circuit, order)
    trace = program.trace
    n = len(trace)
    n_qubits = circuit.n_qubits
    bottom = stack.depth - 1
    caps = [level.capacity for level in stack.levels[:-1]]
    n_finite = len(caps)
    networks = stack.networks()
    n_nets = len(networks)
    demote = [net.demote_time_s for net in networks]
    promote = [net.promote_time_s for net in networks]

    heappush = heapq.heappush
    heappop = heapq.heappop

    # --- event kernel + port servers ---------------------------------
    events: List[tuple] = []
    ev_seq = 0
    now = 0.0
    idle = [max(1, round(net.effective_concurrency)) for net in networks]
    port_queues: List[List[tuple]] = [[] for _ in range(n_nets)]
    qseq = [0] * n_nets

    # --- replacement state (repro.sim.flatpolicy) ---------------------
    flat = flat_policy(policy, caps, program, n_qubits)
    orders_ = flat.orders
    select_victim = flat.victim
    d0 = orders_[0]
    cap0 = caps[0]
    # Any policy without flattened state drives its real policy
    # objects; ``orders_`` then only tracks residency.
    pols = flat.pols
    generic = bool(pols)
    pol0 = pols[0] if generic else None
    refresh_on_hit = flat.refresh_on_hit
    track_nu = flat.track_nu
    keybase = flat.keybase
    qkb = flat.qkb
    cur_key = flat.cur_key
    bheaps = flat.bheaps
    bh0 = bheaps[0]
    bseq = 0
    span = flat.span

    # --- run state ----------------------------------------------------
    location = [-1] * n_qubits
    avail = [0.0] * n_qubits
    for q in program.touched:
        location[q] = bottom
    if recorder is not None:
        recorder.begin({q: bottom for q in program.touched})
    rec = None if recorder is None else recorder.transfer
    moving: dict = {}
    in_flight_up: dict = {}
    pinned: Set[int] = set()
    fetches = [0] * n_nets
    writebacks = [0] * n_nets
    acc = [0] * n_finite
    hit = [0] * n_finite
    mis = [0] * n_finite
    evc = [0] * n_finite
    bottom_hits = 0
    prefetches_issued = 0
    prefetches_used = 0
    pos = 0

    prefetching = prefetch != "none"
    in_order = prefetch == "next_k"  # candidates ascend in position
    # A prefetcher without a specialized walk drives its real object.
    walker = None
    if prefetching and prefetch not in _SPECIALIZED_PREFETCHERS:
        walker = make_prefetcher(prefetch)
        walker.reset(trace, TraceIndex.build(trace), stack.depth)
        location_view = _LocationView(location, program.touched)
    next_pos: Sequence[int] = ()
    nu_now: List[int] = []
    # The shipped walks' next-use index: sorted nu_now[q] over every
    # touched qubit outside the compute level.  Kept exact by three
    # transitions: a demotion out of level 0 inserts, a demand miss and
    # an accepted prefetch delete.
    outside: List[int] = []
    if prefetching:
        next_pos = program.next_pos()
        # nu_now[q]: first occurrence of q at/after the scan pointer —
        # the reference's TraceIndex.next_use(q, pos - 1), maintained
        # incrementally (one store per operand) instead of bisected.
        nu_now = [n] * n_qubits
        for p in range(n - 1, -1, -1):
            nu_now[trace[p]] = p
        outside = sorted(nu_now[q] for q in program.touched)

    # --- the flattened event machinery --------------------------------
    def _request(server, ready, duration, priority, kind, owner):
        nonlocal ev_seq
        if ready < now:
            ready = now
        req = [ready, duration, priority, _SCHEDULED, kind, owner, server]
        ev_seq += 1
        heappush(events, (ready, ev_seq, _EV_ENQUEUE, req))
        return req

    def _hop(fetch, k, ready):
        fetch[4] = k
        fetch[3] = _request(k, ready, demote[k], fetch[2], _K_HOP, fetch)

    def _wb_fired(wb, t):
        """The write-back's trigger (arrival or previous cascade hop)."""
        wb[4] = t
        settle = wb[3]
        if settle is not None:
            k = wb[1]
            _request(k, t if t > settle else settle, promote[k],
                     _WRITEBACK, _K_WB, wb)

    def _launch(rec, settle):
        """A movement reached the front of its qubit's queue."""
        if rec[0]:  # write-back
            rec[3] = settle
            t = rec[4]
            if t is not None:
                k = rec[1]
                _request(k, t if t > settle else settle, promote[k],
                         _WRITEBACK, _K_WB, rec)
        else:  # fetch
            issue_t = rec[5]
            _hop(rec, rec[6] - 1, issue_t if issue_t > settle else settle)

    def _movement_done(q, t):
        avail[q] = t
        queue = moving[q]
        if queue:
            _launch(queue.pop(0), t)
        else:
            del moving[q]

    def _enqueue_move(q, rec):
        waiting = moving.get(q)
        if waiting is None:
            moving[q] = []
            _launch(rec, avail[q])
        else:
            waiting.append(rec)

    def _launch_fetch(q, src, issue_t, priority, chain):
        fetch = [0, q, priority, None, -1, issue_t, src, None]
        in_flight_up[q] = fetch
        prev = None
        for net_k, victim in chain:
            wb = [1, net_k, victim, None, None, None]
            if prev is None:
                fetch[7] = wb
            else:
                prev[5] = wb
            prev = wb
            _enqueue_move(victim, wb)
        _enqueue_move(q, fetch)

    def _upgrade(fetch):
        """Promote a queued prefetch transfer to demand priority."""
        fetch[2] = _DEMAND
        req = fetch[3]
        if req is None:
            return
        state = req[3]
        if state == _SCHEDULED or state == _QUEUED:
            req[3] = _WITHDRAWN
            fetch[3] = _request(req[6], req[0], req[1], _DEMAND,
                                _K_HOP, fetch)

    def _dispatch(k):
        nonlocal ev_seq
        queue = port_queues[k]
        while idle[k] and queue:
            _, _, req = heappop(queue)
            if req[3] == _WITHDRAWN:
                continue
            req[3] = _ACTIVE
            idle[k] -= 1
            ev_seq += 1
            heappush(events, (now + req[1], ev_seq, _EV_COMPLETE, req))

    def _step():
        nonlocal now
        if not events:
            raise RuntimeError(
                "event heap is empty but the simulation still expects "
                "progress — a transfer chain was dropped"
            )
        t, _, code, req = heappop(events)
        now = t
        k = req[6]
        if code == _EV_ENQUEUE:
            if req[3] == _WITHDRAWN:
                return
            req[3] = _QUEUED
            qseq[k] += 1
            heappush(port_queues[k], (req[2], qseq[k], req))
            _dispatch(k)
            return
        req[3] = _DONE
        idle[k] += 1
        owner = req[5]
        if req[4] == _K_HOP:
            fetches[k] += 1
            if rec is not None:
                rec(owner[1], k + 1, k, t - demote[k], t, k)
            owner[3] = None
            if k == 0:
                q = owner[1]
                del in_flight_up[q]
                _movement_done(q, t)
                wb = owner[7]  # arrival fires the write-back chain
                if wb is not None:
                    _wb_fired(wb, t)
            else:
                _hop(owner, k - 1, t)
        else:
            writebacks[k] += 1
            if rec is not None:
                rec(owner[2], k, k + 1, t - promote[k], t, k)
            _movement_done(owner[2], t)
            nxt = owner[5]
            if nxt is not None:
                _wb_fired(nxt, t)
        _dispatch(k)

    # --- scan-order cache transitions ---------------------------------
    def _evict_cascade(evicted):
        nonlocal bseq
        if evicted is None:
            return ()
        if evicted in pinned or evicted in in_flight_up:
            pinned.discard(evicted)
        chain = [(0, evicted)]
        location[evicted] = 1
        if prefetching:
            insort(outside, nu_now[evicted])
        victim = evicted
        lvl = 1
        while lvl < bottom:
            d = orders_[lvl]
            bumped = None
            if len(d) >= caps[lvl]:
                bumped = select_victim(lvl, pos, ())
                del d[bumped]
                if generic:
                    pols[lvl].on_remove(bumped)
                evc[lvl] += 1
            d[victim] = None
            if generic:
                pols[lvl].on_insert(victim, pos)
            if track_nu:
                # The victim's cached next use carries down unchanged.
                key = bseq + qkb[victim]
                cur_key[victim] = key
                heappush(bheaps[lvl], (key, victim))
                bseq += 1
            if bumped is None:
                break
            chain.append((lvl, bumped))
            location[bumped] = lvl + 1
            victim = bumped
            lvl += 1
        return chain

    def _issue_prefetches(issue_t, issued):
        nonlocal bseq, prefetches_issued
        if not prefetching:
            return
        budget = cap0 - _PIN_MARGIN - len(pinned)
        if budget <= 0:
            return
        start = pos
        end = start + _PREFETCH_HORIZON
        if end > n:
            end = n
        if track_nu and start < n:
            # The cached Belady keys hold each resident's next use
            # *after its last touch* — exact for the reference's
            # next_use(q, pos) except for the one qubit whose next
            # occurrence is exactly ``pos`` (the next gate's first
            # operand): the reference scores it by the occurrence
            # *after* that.  Push the corrected key for this round.
            q0 = trace[start]
            lvl0 = location[q0]
            if 0 <= lvl0 < n_finite:
                # Keep q0's original push sequence so NEVER ties still
                # break by recency order, not by correction time.
                seq0 = cur_key[q0] - qkb[q0]
                base = -next_pos[start] * span
                qkb[q0] = base
                key = seq0 + base
                cur_key[q0] = key
                heappush(bheaps[lvl0], (key, q0))
        # Qubits this round demoted *out of* the compute level: the
        # reference walks with the round-start residency snapshot, so a
        # freshly-demoted victim is not a candidate until next gate.
        round_demoted: Optional[Set[int]] = None
        if in_order:
            # Lazy walk: the reference materializes up to k candidates,
            # but walking is side-effect-free and the pin budget stops
            # far short of k — candidates past the break never cost.
            # Each step bisects past the last position, so the index
            # may change under the walk (accepted candidates leave it,
            # this round's demotions enter it and are skipped).
            def _candidates():
                found = 0
                p = start - 1
                while True:
                    i = bisect_right(outside, p)
                    if i == len(outside):
                        return
                    p = outside[i]
                    if p >= end:
                        return
                    cq = trace[p]
                    if round_demoted is None or cq not in round_demoted:
                        yield cq, p
                        found += 1
                        if found == _PREFETCH_K:
                            return

            candidates = _candidates()
        elif walker is not None:
            # Materialized before the loop, like the reference; a
            # candidate's next use comes from the exact nu_now array.
            candidates = [
                (cq, nu_now[cq])
                for cq in walker.candidates(pos - 1, location_view)
            ]
        else:  # distance: the full walk is ranked before issue
            head = outside[:_PREFETCH_K]
            found_list = [
                (-location[trace[p]], p, trace[p])
                for p in head[:bisect_left(head, end)]
            ]
            found_list.sort()  # deepest first, trace order within
            candidates = iter([(cq, p) for _, p, cq in found_list])
        exclusions: Optional[Set[int]] = None
        victim: Optional[int] = None
        victim_next = 0
        for cq, cand_next in candidates:
            if budget <= 0:
                break
            src = location[cq]
            if src == 0 or cq in moving:
                continue
            if exclusions is None:
                exclusions = set(pinned)
                exclusions.update(in_flight_up)
                exclusions.update(issued)
                victim = None
                if len(d0) >= cap0:
                    victim = select_victim(0, pos, exclusions)
                    if victim is not None and victim in exclusions:
                        break  # unsatisfiable pin: no victim this gate
                    if victim is not None:
                        victim_next = nu_now[victim]
            if victim is not None and victim_next <= cand_next:
                # Exactness veto.  next_k candidates ascend in trace
                # position and the victim holds until an acceptance, so
                # every later candidate would be vetoed too.
                if in_order:
                    break
                continue
            if src != bottom:
                del orders_[src][cq]  # quiet pull: no counters
                if generic:
                    pols[src].on_remove(cq)
            evicted = victim
            if evicted is not None:
                if generic:
                    # The reference's insertion asks the policy again.
                    evicted = pol0.victim(pos, exclusions)
                    pol0.on_remove(evicted)
                del d0[evicted]
                evc[0] += 1
            d0[cq] = None
            if generic:
                pol0.on_insert(cq, pos)
            if track_nu:
                # The candidate's next use *is* its walk position.
                base = -cand_next * span
                qkb[cq] = base
                key = bseq + base
                cur_key[cq] = key
                heappush(bh0, (key, cq))
                bseq += 1
            location[cq] = 0
            if prefetching:
                del outside[bisect_left(outside, cand_next)]
            pinned.add(cq)
            chain = _evict_cascade(evicted)
            if evicted is not None:
                if round_demoted is None:
                    round_demoted = {evicted}
                else:
                    round_demoted.add(evicted)
            _launch_fetch(cq, src, issue_t, _PREFETCH, chain)
            prefetches_issued += 1
            budget -= 1
            exclusions = None  # state changed: recompute next round

    # --- the gate loop -------------------------------------------------
    top_op = stack.levels[0].op_time_s
    gate_ec = program.gate_ec
    compute_free = 0.0
    transfer_wait = 0.0
    compute_time = 0.0
    for gi, qubits in enumerate(program.gate_qubits):
        issue_t = compute_free
        issued: Set[int] = set()
        for q in qubits:
            src = location[q]
            if src == 0:
                # Guaranteed hit at the compute level.
                acc[0] += 1
                hit[0] += 1
                if refresh_on_hit:
                    del d0[q]
                    d0[q] = None
                elif generic:
                    pol0.on_hit(q, pos)
                if track_nu:
                    kb = keybase[pos]
                    qkb[q] = kb
                    key = bseq + kb
                    cur_key[q] = key
                    heappush(bh0, (key, q))
                    bseq += 1
                if q in pinned:
                    pinned.discard(q)
                    prefetches_used += 1
                fetch = in_flight_up.get(q)
                if fetch is not None and fetch[2]:
                    _upgrade(fetch)
            else:
                for k in range(1, src):
                    acc[k] += 1
                    mis[k] += 1
                if src == bottom:
                    bottom_hits += 1
                else:
                    acc[src] += 1
                    hit[src] += 1
                    del orders_[src][q]
                    if generic:
                        pols[src].on_remove(q)
                acc[0] += 1
                mis[0] += 1
                if prefetching:
                    del outside[bisect_left(outside, pos)]
                exclusions = set(pinned)
                exclusions.update(in_flight_up)
                exclusions.update(issued)
                evicted = None
                if len(d0) >= cap0:
                    evicted = select_victim(0, pos, exclusions)
                    del d0[evicted]
                    if generic:
                        pol0.on_remove(evicted)
                    evc[0] += 1
                d0[q] = None
                if generic:
                    pol0.on_insert(q, pos)
                if track_nu:
                    kb = keybase[pos]
                    qkb[q] = kb
                    key = bseq + kb
                    cur_key[q] = key
                    heappush(bh0, (key, q))
                    bseq += 1
                location[q] = 0
                chain = _evict_cascade(evicted)
                _launch_fetch(q, src, issue_t, _DEMAND, chain)
            issued.add(q)
            if prefetching:
                nu_now[q] = next_pos[pos]
            pos += 1
        _issue_prefetches(issue_t, issued)
        while True:
            for q in qubits:
                if q in moving:
                    break
            else:
                break
            _step()
        arrivals = 0.0
        for q in qubits:
            a = avail[q]
            if a > arrivals:
                arrivals = a
        start_t = compute_free if compute_free > arrivals else arrivals
        if arrivals > compute_free:
            transfer_wait += arrivals - compute_free
        duration = gate_ec[gi] * top_op
        compute_free = start_t + duration
        compute_time += duration
    # Let trailing write-backs land, as in the reference (the makespan
    # is the compute-level completion time).
    while events:
        _step()
    if recorder is not None:
        recorder.finish(compute_free)

    # --- result --------------------------------------------------------
    occupancy = [0] * stack.depth
    for q in program.touched:
        occupancy[location[q]] += 1
    level_stats = [
        LevelStat(
            name=stack.levels[i].name,
            capacity=caps[i],
            accesses=acc[i],
            hits=hit[i],
            misses=mis[i],
            evictions=evc[i],
            final_occupancy=occupancy[i],
        )
        for i in range(n_finite)
    ]
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
    serial_bottom = program.total_ec * stack.levels[bottom].op_time_s
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
        prefetch=prefetch,
        prefetches_issued=prefetches_issued,
        prefetches_used=prefetches_used,
    )
