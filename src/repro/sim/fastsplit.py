"""Flattened split-transaction engine for every policy and prefetcher.

The split-transaction model's executable specification is an event
kernel driving closure-based continuation chains, a policy-driven
resident set per level, and a prefetch walk that re-slices the operand
trace at every gate (test code: ``tests/oracles/levels.py``).  This
module is the compiled-down replica that
:func:`~repro.sim.levels.simulate_hierarchy_run` runs for every
pipelined cell:

* one function body with one event loop: the gate loop advances it
  until the gate's operands have landed, and a last pass lets the
  trailing write-backs land.  The event heap holds ``(time, seq,
  request)`` tuples — no callback objects — whose request state says
  what the entry is (a pending request becoming ready, an active one
  completing, or a withdrawn one to skip); port lanes are idle counters
  with one ``(priority, seq, request)`` heap per network, and a request
  that becomes ready at an idle port starts at once (an idle port's
  queue is always empty, so the request is the one the port would
  pop);
* fetches, write-backs and transfer requests are flat list records;
  the per-qubit movement queues hold those records directly, so a
  completed movement launches its successor inline, without a call;
* replacement decisions come from :mod:`repro.sim.flatpolicy`, the
  kernel movement-trace extraction runs too: flattened state for the
  five shipped policies, whose victim queries are non-destructive
  peeks (a prefetch veto may leave the victim resident), and the real
  :class:`~repro.sim.policies.EvictionPolicy` objects for any
  user-registered policy, whose ``on_hit``/``on_insert``/``on_remove``
  hooks the engine calls exactly where the reference's resident sets
  do;
* the shipped prefetch walks (``next_k``, ``distance``) read a sorted
  next-use index where the reference walk re-slices the trace: the
  ascending list of ``nu_now[q]`` over every touched qubit outside the
  compute level.  Its entries are exactly the first occurrences of
  non-resident qubits the reference walk reports, in trace order
  (``trace[nu_now[q]] == q``), so ``distance`` slices its first k
  entries below the horizon and ``next_k`` steps through it lazily,
  inline in the gate loop (the reference walk has no side effects, so
  candidates the budget never reaches are never visited); every other
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
  it keeps walking past a veto;
* a walk builds its victim exclusions (pinned, in-flight and the
  gate's operands) once and adds each accepted candidate to them: the
  candidate joins the pinned, in-flight set, and the evicted victim
  was never in it.  A user policy's victim need not be the peeked
  one, so its exclusions are rebuilt after an acceptance instead.

Every kernel-schedule and queue-insertion call site mirrors the
reference one-to-one (sequence numbers are drawn in the reference's
order), so the (time, seq) event order — and therefore every float in
the result — is bit-identical.  The equivalence suite
pins this across every (depth, policy, workload, prefetch) cell.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right, insort
from collections.abc import Mapping
from itertools import chain
from typing import List, Sequence, Set

from ..circuits.circuit import Circuit, TraceIndex
from .levels import HierarchyEngineResult, HierarchyStack, LevelStat
from .flatpolicy import flat_policy
from .policies import available_policies
from .prefetch import SHIPPED_PREFETCHERS, available_prefetchers, make_prefetcher
from .replay import _scan_program

__all__ = ["simulate_split_fast", "supports_fast_split"]

#: Dispatch priorities among simultaneously-ready transfers.
_DEMAND, _WRITEBACK, _PREFETCH = 0, 1, 2
_PIN_MARGIN = 4

#: The shipped walks' parameters (the reference ``NextKPrefetcher()``
#: defaults in ``tests/oracles/prefetch.py``).
_PREFETCH_K = 64
_PREFETCH_HORIZON = 512

#: Request lifecycle states.  A pending request's heap entry is its
#: ENQUEUE (it becomes ready) and an active one's its completion.
_PENDING, _ACTIVE, _WITHDRAWN = 0, 1, 2

# Flat record layouts (lists beat attribute access in the hot loop):
#   request: [ready, duration, priority, state, owner, server]
#   fetch:   [0, qubit, priority, pending_req, issue_t, src, first_wb]
#   wb:      [1, net_k, victim, settle, trigger_time, next_wb]
# A fetch's arrival "trigger" is the k==0 hop completion; a write-back
# chain is linked through ``next_wb``, each element firing its
# successor — the reference engine's trigger subscriptions, flattened
# (each trigger ever has at most one subscriber).

#: Prefetchers with a hand-flattened walk (the shipped ones but
#: ``none``); every other registered prefetcher runs through its real
#: ``Prefetcher`` object.
_SPECIALIZED_PREFETCHERS = frozenset(SHIPPED_PREFETCHERS) - {"none"}


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
    demote = [net.demote_time_s for net in networks]
    promote = [net.promote_time_s for net in networks]

    heappush = heapq.heappush
    heappop = heapq.heappop

    # --- event heap + port servers ------------------------------------
    events: List[tuple] = []
    ev_seq = 0
    now = 0.0
    idle = [max(1, round(net.effective_concurrency)) for net in networks]
    port_queues: List[List[tuple]] = [[] for _ in networks]
    qseq = 0

    # --- replacement state (repro.sim.flatpolicy) ---------------------
    flat = flat_policy(policy, caps, program, n_qubits)
    orders_ = flat.orders
    select_victim = flat.victim
    d0 = orders_[0]
    cap0 = caps[0]
    # A user-registered policy drives its real policy objects;
    # ``orders_`` then only tracks residency.
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
    trip_keys = flat.trip_keys
    trip_unit = flat.trip_unit
    trips0 = trip_keys[0] if trip_unit else None
    bseq = 0
    span = flat.span

    # --- run state ----------------------------------------------------
    location = [-1] * n_qubits
    avail = [0.0] * n_qubits
    for q in program.touched:
        location[q] = bottom
    if recorder is not None:
        recorder.begin({q: bottom for q in program.touched})
    # The recorder's movement log, appended to directly (one C call per hop).
    log = None if recorder is None else recorder.records.append
    moving: dict = {}
    in_flight_up: dict = {}
    pinned: Set[int] = set()
    fetches = [0] * len(networks)
    writebacks = [0] * len(networks)
    # Demand misses by the level they were found at; every access, hit
    # and miss counter derives from these at the end.
    found_at = [0] * stack.depth
    evc = [0] * n_finite
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
    # touched qubit outside the compute level, closed by a sentinel
    # past every horizon.  Kept exact by three transitions: a demotion
    # out of level 0 inserts, a demand miss and an accepted prefetch
    # delete.
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
        outside.append(n + 1)

    def _place(q, src, evicted, issue_t, priority, at):
        """Cascade ``evicted`` (the compute-level victim, or None) down
        the finite levels and queue the movements that bring ``q`` up
        from ``src``: the fetch record, and one write-back per cascade
        hop, chained off the fetch's arrival."""
        nonlocal bseq, ev_seq
        fetch = [0, q, priority, None, issue_t, src, None]
        if evicted is not None:
            if evicted in pinned or evicted in in_flight_up:
                pinned.discard(evicted)
            location[evicted] = 1
            if prefetching:
                insort(outside, nu_now[evicted])
            prev = None
            victim = evicted
            lvl = 0
            while True:
                wb = [1, lvl, victim, None, None, None]
                if prev is None:
                    fetch[6] = wb
                else:
                    prev[5] = wb
                prev = wb
                queue = moving.get(victim)
                if queue is None:
                    # At the front of its queue: settled, awaiting its
                    # trigger.
                    moving[victim] = []
                    wb[3] = avail[victim]
                else:
                    queue.append(wb)
                lvl += 1
                if lvl >= bottom:
                    break
                d = orders_[lvl]
                bumped = None
                if len(d) >= caps[lvl]:
                    bumped = select_victim(lvl, at, ())
                    del d[bumped]
                    if generic:
                        pols[lvl].on_remove(bumped)
                    evc[lvl] += 1
                d[victim] = None
                if generic:
                    pols[lvl].on_insert(victim, at)
                if track_nu:
                    # The victim's cached next use carries down unchanged.
                    key = bseq + qkb[victim]
                    if trip_unit:
                        trips = trip_keys[lvl]
                        tk = trips[victim] + trip_unit
                        trips[victim] = tk
                        key += tk
                    cur_key[victim] = key
                    heappush(bheaps[lvl], (key, victim))
                    bseq += 1
                if bumped is None:
                    break
                location[bumped] = lvl + 1
                victim = bumped
        in_flight_up[q] = fetch
        queue = moving.get(q)
        if queue is None:
            moving[q] = []
            k = src - 1
            settle = avail[q]
            ready = issue_t if issue_t > settle else settle
            if ready < now:
                ready = now
            req = [ready, demote[k], priority, _PENDING, fetch, k]
            fetch[3] = req
            ev_seq += 1
            heappush(events, (ready, ev_seq, req))
        else:
            queue.append(fetch)

    # --- the gate loop -------------------------------------------------
    top_op = stack.levels[0].op_time_s
    gate_ec = program.gate_ec
    compute_free = 0.0
    transfer_wait = 0.0
    compute_time = 0.0
    gi = 0
    for qubits in chain(program.gate_qubits, (None,)):
        if qubits is None:
            # Let trailing write-backs land, as in the reference (the
            # makespan is the compute-level completion time).
            qubits = tuple(moving)
            gi = -1
        else:
            issue_t = compute_free
            j = 0
            for q in qubits:
                src = location[q]
                if src == 0:
                    # Guaranteed hit at the compute level.
                    if refresh_on_hit:
                        del d0[q]
                        d0[q] = None
                    elif generic:
                        pol0.on_hit(q, pos)
                    if track_nu:
                        kb = keybase[pos]
                        qkb[q] = kb
                        key = bseq + kb
                        if trip_unit:  # fidelity: its unchanged trip term
                            key += trips0[q]
                        cur_key[q] = key
                        heappush(bh0, (key, q))
                        bseq += 1
                    if q in pinned:
                        pinned.discard(q)
                        prefetches_used += 1
                    if q in in_flight_up:
                        fetch = in_flight_up[q]
                        if fetch[2]:
                            # Promote the in-flight prefetch to demand
                            # priority; a hop not yet on its port is
                            # withdrawn and re-requested.
                            fetch[2] = _DEMAND
                            req = fetch[3]
                            if req is not None and req[3] == _PENDING:
                                req[3] = _WITHDRAWN
                                ready = req[0]
                                if ready < now:
                                    ready = now
                                req = [ready, req[1], _DEMAND, _PENDING,
                                       fetch, req[5]]
                                fetch[3] = req
                                ev_seq += 1
                                heappush(events, (ready, ev_seq, req))
                else:
                    found_at[src] += 1
                    if src != bottom:
                        del orders_[src][q]
                        if generic:
                            pols[src].on_remove(q)
                    if prefetching:
                        del outside[bisect_left(outside, pos)]
                    evicted = None
                    if len(d0) >= cap0:
                        exclusions = {*pinned, *in_flight_up, *qubits[:j]}
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
                        if trip_unit:  # fidelity: one more trip to this level
                            tk = trips0[q] + trip_unit
                            trips0[q] = tk
                            key += tk
                        cur_key[q] = key
                        heappush(bh0, (key, q))
                        bseq += 1
                    location[q] = 0
                    _place(q, src, evicted, issue_t, _DEMAND, pos)
                if prefetching:
                    nu_now[q] = next_pos[pos]
                j += 1
                pos += 1

            # --- prefetch issue ---------------------------------------
            budget = cap0 - _PIN_MARGIN - len(pinned) if prefetching else 0
            if budget > 0:
                start = pos
                end = start + _PREFETCH_HORIZON
                if end > n:
                    end = n
                if in_order:
                    # Lazy walk: the reference materializes up to k
                    # candidates, but walking is side-effect-free and
                    # the pin budget stops far short of k — candidates
                    # past the break never cost.  The walk steps through
                    # the index, which only changes at an acceptance
                    # (the accepted candidate leaves it, the round's
                    # demotion enters it and is skipped): then it
                    # re-bisects past its position.
                    wi = bisect_left(outside, start)
                    found = 0
                elif walker is not None:
                    # Materialized before the loop, like the reference;
                    # a candidate's next use comes from the exact nu_now
                    # array.
                    cands = [
                        (cq, nu_now[cq])
                        for cq in walker.candidates(pos - 1, location_view)
                    ]
                else:  # distance: the full walk is ranked before issue
                    head = outside[:_PREFETCH_K]
                    ranked = [
                        (-location[trace[p]], p, trace[p])
                        for p in head[:bisect_left(head, end)]
                    ]
                    ranked.sort()  # deepest first, trace order within
                    cands = [(cq, p) for _, p, cq in ranked]
                ci = 0
                # Qubits this round demoted *out of* the compute level:
                # the reference walks with the round-start residency
                # snapshot, so a freshly-demoted victim is not a
                # candidate until next gate.
                round_demoted = None
                exclusions = None
                victim = None
                victim_next = 0
                stale = True
                rekey = track_nu and start < n
                while True:
                    if in_order:
                        if found == _PREFETCH_K:
                            break
                        p = outside[wi]
                        wi += 1
                        if p >= end:
                            break
                        cq = trace[p]
                        if round_demoted is not None and cq in round_demoted:
                            continue
                        found += 1
                        cand_next = p
                    else:
                        if ci == len(cands):
                            break
                        cq, cand_next = cands[ci]
                        ci += 1
                    src = location[cq]
                    if src == 0 or cq in moving:
                        continue
                    if stale:
                        # The victim, the exclusions and the q0 key only
                        # change at an acceptance.
                        if rekey:
                            # The cached Belady keys hold each resident's
                            # next use *after its last touch* — exact for
                            # the reference's next_use(q, pos) except for
                            # the one qubit whose next occurrence is
                            # exactly ``pos`` (the next gate's first
                            # operand): the reference scores it by the
                            # occurrence *after* that.  Nothing queries
                            # the heaps before this point of the round.
                            rekey = False
                            q0 = trace[start]
                            lvl0 = location[q0]
                            if lvl0 < n_finite:
                                # Keep q0's trip term and original push
                                # sequence so NEVER ties still break by
                                # recency order, not by correction time.
                                tk = trip_keys[lvl0][q0] if trip_unit else 0
                                seq0 = cur_key[q0] - qkb[q0] - tk
                                base = -next_pos[start] * span
                                qkb[q0] = base
                                key = tk + seq0 + base
                                cur_key[q0] = key
                                heappush(bheaps[lvl0], (key, q0))
                        victim = None
                        if len(d0) >= cap0:
                            if exclusions is None:
                                exclusions = {*pinned, *in_flight_up,
                                              *qubits}
                            victim = select_victim(0, pos, exclusions)
                            if victim in exclusions:
                                break  # unsatisfiable pin: no victim this gate
                            victim_next = nu_now[victim]
                        stale = False
                    if victim is not None and victim_next <= cand_next:
                        # Exactness veto.  next_k candidates ascend in
                        # trace position and the victim holds until an
                        # acceptance, so every later candidate would be
                        # vetoed too.
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
                            # The reference's insertion asks the policy
                            # again.
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
                        if trip_unit:
                            tk = trips0[cq] + trip_unit
                            trips0[cq] = tk
                            key += tk
                        cur_key[cq] = key
                        heappush(bh0, (key, cq))
                        bseq += 1
                    location[cq] = 0
                    del outside[bisect_left(outside, cand_next)]
                    pinned.add(cq)
                    _place(cq, src, evicted, issue_t, _PREFETCH, pos)
                    if evicted is not None:
                        if round_demoted is None:
                            round_demoted = {evicted}
                        else:
                            round_demoted.add(evicted)
                    prefetches_issued += 1
                    budget -= 1
                    if not budget:
                        break
                    if in_order:
                        wi = bisect_right(outside, cand_next)
                    stale = True
                    if exclusions is not None:
                        # The accepted candidate joins the pinned,
                        # in-flight set; the evicted victim was never in
                        # it.  A user policy's victim need not be the
                        # peeked one, so its set is rebuilt instead.
                        if generic:
                            exclusions = None
                        else:
                            exclusions.add(cq)

        # --- advance the event loop until the operands have landed -----
        # Only the end of a movement can land an operand.
        waiting = False
        for q in qubits:
            if q in moving:
                waiting = True
                break
        while waiting:
            try:
                t, _, req = heappop(events)
            except IndexError:
                raise RuntimeError(
                    "event heap is empty but the simulation still expects "
                    "progress — a transfer chain was dropped"
                ) from None
            now = t
            state = req[3]
            if state == _PENDING:
                # The request is ready.  An idle port has an empty queue
                # (every dispatch drains it while ports are idle), so
                # the request is the one it would pop: start it now.
                k = req[5]
                if idle[k]:
                    idle[k] -= 1
                    req[3] = _ACTIVE
                    ev_seq += 1
                    heappush(events, (t + req[1], ev_seq, req))
                else:
                    qseq += 1
                    heappush(port_queues[k], (req[2], qseq, req))
                continue
            if state != _ACTIVE:
                continue  # withdrawn before it reached its port
            # A transfer completed.
            k = req[5]
            owner = req[4]
            if owner[0]:  # write-back
                writebacks[k] += 1
                q = owner[2]
                if log is not None:
                    log((q, k, k + 1, t - promote[k], t, k))
                fire = owner[5]
            else:  # fetch hop
                fetches[k] += 1
                q = owner[1]
                if log is not None:
                    log((q, k + 1, k, t - demote[k], t, k))
                if k:
                    nk = k - 1
                    nreq = [t, demote[nk], owner[2], _PENDING, owner, nk]
                    owner[3] = nreq
                    ev_seq += 1
                    heappush(events, (t, ev_seq, nreq))
                    q = -1
                else:
                    owner[3] = None
                    del in_flight_up[q]
                    fire = owner[6]  # arrival fires the write-back chain
            if q >= 0:
                # The qubit's movement is done: launch its next one.
                avail[q] = t
                queue = moving[q]
                if queue:
                    nxt = queue.pop(0)
                    if nxt[0]:  # a write-back settles; runs once fired
                        nxt[3] = t
                        trigger = nxt[4]
                        if trigger is not None:
                            nk = nxt[1]
                            ready = trigger if trigger > t else t
                            nreq = [ready, promote[nk], _WRITEBACK,
                                    _PENDING, nxt, nk]
                            ev_seq += 1
                            heappush(events, (ready, ev_seq, nreq))
                    else:  # a fetch starts its first hop
                        nk = nxt[5] - 1
                        ready = nxt[4]
                        if ready < t:
                            ready = t
                        nreq = [ready, demote[nk], nxt[2], _PENDING, nxt, nk]
                        nxt[3] = nreq
                        ev_seq += 1
                        heappush(events, (ready, ev_seq, nreq))
                else:
                    del moving[q]
                    if q in qubits:
                        for q in qubits:
                            if q in moving:
                                break
                        else:
                            waiting = False
                if fire is not None:
                    fire[4] = t
                    settle = fire[3]
                    if settle is not None:
                        nk = fire[1]
                        ready = t if t > settle else settle
                        nreq = [ready, promote[nk], _WRITEBACK, _PENDING,
                                fire, nk]
                        ev_seq += 1
                        heappush(events, (ready, ev_seq, nreq))
            # Hand the freed port to its next waiting request.
            queue = port_queues[k]
            while queue:
                nreq = heappop(queue)[2]
                if nreq[3] == _PENDING:
                    nreq[3] = _ACTIVE
                    ev_seq += 1
                    heappush(events, (t + nreq[1], ev_seq, nreq))
                    break
            else:
                idle[k] += 1
        if gi < 0:
            break
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
        gi += 1
    if recorder is not None:
        recorder.finish(compute_free)

    # --- result --------------------------------------------------------
    occupancy = [0] * stack.depth
    for q in program.touched:
        occupancy[location[q]] += 1
    # A miss found at level s missed every finite level above s and hit
    # at s; every access ends at the compute level.
    level_stats = []
    misses = sum(found_at)
    for i in range(n_finite):
        hits = n - misses if i == 0 else found_at[i]
        missed = sum(found_at[i + 1:])
        level_stats.append(LevelStat(
            name=stack.levels[i].name,
            capacity=caps[i],
            accesses=hits + missed,
            hits=hits,
            misses=missed,
            evictions=evc[i],
            final_occupancy=occupancy[i],
        ))
    bottom_level = stack.levels[-1]
    bottom_hits = found_at[bottom]
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
