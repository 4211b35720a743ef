"""The flattened replacement kernel both production engines run.

Movement-trace extraction (:mod:`repro.sim.replay`) and the
split-transaction engine (:mod:`repro.sim.fastsplit`) make the same
replacement decisions through this one kernel: the five shipped
policies (:data:`~repro.sim.policies.SHIPPED_POLICIES`) exist only as
the flattened state below, and user-registered ones through their
:class:`~repro.sim.policies.EvictionPolicy` objects.  The reference
classes the flattened state is pinned against are test oracles
(``tests/oracles/policies.py``).  :func:`flat_policy` builds that state
once per run; each engine binds its fields into locals:

* one insertion-ordered dict per finite level, doubling as resident
  set and recency order (a hit that refreshes reinserts, matching
  ``OrderedDict.move_to_end``);
* for ``score``, one sliding lookahead window shared by every level;
* for ``belady`` and ``fidelity``, int-keyed lazily-pruned heaps that
  read next uses from the scan program's ``next_pos`` array instead of
  bisecting; ``fidelity`` prefixes every key with the qubit's trip
  count at that level (its lifetime insertions there), so one heap
  ranks by fewest trips, then farthest next use, then recency;
* for any user-registered policy, the real policy objects, one per
  level, each reset once — the engine calls their ``on_hit``/
  ``on_insert``/``on_remove`` hooks and the dicts only track
  residency;
* one ``victim(level, pos, excl)`` that names the resident to displace
  at ``level`` for the operand access at trace position ``pos``,
  skipping ``excl`` unless every resident is in it (the unsatisfiable
  pin falls back to the least recently used resident, like the
  policies).

``victim`` is a pure query for the five shipped policies: the engines
may peek at a victim they then decide not to evict.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, NamedTuple, Sequence, Set, Tuple

from .policies import SCORE_WINDOW, SHIPPED_POLICIES, EvictionPolicy, make_policy

__all__ = ["FlatPolicy", "flat_policy"]


class FlatPolicy(NamedTuple):
    """The replacement state of one engine run (see the module doc)."""

    #: Per finite level: ``{qubit: None}`` in recency (or FIFO) order.
    orders: List[Dict[int, None]]
    #: A compute-level hit reinserts into ``orders[0]`` (lru, score,
    #: belady, fidelity); False for fifo and for policies with real
    #: objects.
    refresh_on_hit: bool
    #: Belady and fidelity: every insertion or refreshing hit pushes
    #: ``(bseq + base, q)`` into ``bheaps[level]`` — plus, for
    #: fidelity, the trip term ``trip_keys[level][q]``, which an
    #: insertion at ``level`` first raises by ``trip_unit`` — and
    #: records the key in ``cur_key[q]``.
    track_nu: bool
    keybase: Sequence[int]
    qkb: List[int]
    cur_key: List[int]
    bheaps: List[List[Tuple[int, int]]]
    span: int
    #: Fidelity: per finite level, each qubit's trip count there times
    #: ``trip_unit``.  Empty, and ``trip_unit`` 0, for every other
    #: policy.
    trip_keys: List[List[int]]
    trip_unit: int
    #: The real policy objects, one per finite level; empty for the
    #: five shipped policies with flattened state.
    pols: List[EvictionPolicy]
    victim: Callable[[int, int, Sequence[int]], int]


def flat_policy(
    policy: str,
    caps: Sequence[int],
    program,
    n_qubits: int,
) -> FlatPolicy:
    """The replacement state for ``policy`` over finite levels of
    capacities ``caps``, scanning ``program``
    (a :class:`repro.sim.replay._ScanProgram`) on ``n_qubits`` qubits."""
    for cap in caps:
        if cap < 2:
            raise ValueError(
                "cache capacity must be at least 2 (a two-operand gate "
                "needs both operands resident at once)"
            )
    n_finite = len(caps)
    trace = program.trace
    n = len(trace)
    orders: List[Dict[int, None]] = [{} for _ in range(n_finite)]
    heappush = heapq.heappush
    heappop = heapq.heappop

    def victim_recency(i, pos, excl):
        d = orders[i]
        if not excl:
            return next(iter(d))
        for q in d:
            if q not in excl:
                return q
        return next(iter(d))  # unsatisfiable pin: fall back

    # Score: the reference keeps one sliding window per level, but the
    # window content is a pure function of the sync position and every
    # victim call syncs its level to the current operand position — so
    # all levels always observe identical counts, and one shared
    # window suffices.
    counts: List[int] = []
    if policy == "score":
        counts = [0] * n_qubits
        for q in trace[:SCORE_WINDOW]:
            counts[q] += 1
    wpos = -1

    def victim_score(i, pos, excl):
        nonlocal wpos
        while wpos < pos:  # slide the window to cover pos+1..pos+window
            wpos += 1
            counts[trace[wpos]] -= 1
            entering = wpos + SCORE_WINDOW
            if entering < n:
                counts[trace[entering]] += 1
        best = None
        best_score = None
        for q in orders[i]:  # LRU-first iteration breaks ties
            if q in excl:
                continue
            score = counts[q]
            if best_score is None or score < best_score:
                best, best_score = q, score
                if score == 0:
                    break
        if best is None:
            return next(iter(orders[i]))
        return best

    # Belady: one lazily-pruned heap per level over int-keyed 2-tuples
    # ``(seq - dist * span, q)`` where ``dist`` is the next use cached
    # at the qubit's last compute-level access, ``seq`` a monotone push
    # counter (the engine's ``bseq``) and ``span`` exceeds every seq —
    # the min-heap then pops by descending next use, oldest push first,
    # which is the reference scan's LRU-first tie-break (every recency
    # refresh is accompanied by a push; finite next uses are globally
    # unique, so real ties only arise among never-used-again qubits,
    # where push order *is* recency order).  An entry is current iff
    # ``q`` is resident at the level it was pushed for and the entry
    # *is* the latest push for ``q`` (``cur_key[q]`` matches; seq makes
    # keys globally unique): a next use can only change at a
    # compute-level access of ``q`` — where it strictly increases and a
    # fresh entry is pushed — and every insertion into a finite level
    # pushes into that level's heap, so the latest push always lives in
    # the heap of the qubit's current level.  ``keybase`` precomputes
    # the ``-dist * span`` part per trace position (a cascaded victim's
    # next use carries down unchanged — it cannot have recurred since
    # its last touch, the occurrence would have been a demand access
    # pulling it up — so ``qkb[q]`` simply remembers the base from the
    # last compute-level access).  ``span`` must exceed the total push
    # count (at most depth pushes per trace position); a
    # depth-independent value keeps the precomputed key bases shared
    # across stacks of different depths.
    #
    # Fidelity ranks by (trips at the level, farthest next use, LRU):
    # its keys are ``trips * trip_unit + (seq - dist * span)``, where
    # the Belady part lies in ``(-n * span, span)`` (``dist`` is at most
    # ``n``, the never-again encoding), so ``trip_unit = (n + 2) * span``
    # separates trip classes strictly.  A resident's trip count is fixed
    # while it stays resident (it only grows at an insertion, which
    # pushes a fresh key), so the lazy pruning carries over unchanged;
    # the fewest-trips class among unexcluded residents is exactly what
    # the heap yields past the excluded entries.
    span = n * max(n_finite + 1, 64) + 1
    bheaps: List[List[Tuple[int, int]]] = [[] for _ in range(n_finite)]
    keybase: Sequence[int] = ()
    qkb: List[int] = []
    cur_key: List[int] = []
    trip_keys: List[List[int]] = []
    trip_unit = 0
    track_nu = policy in ("belady", "fidelity")
    if track_nu:
        keybase = program.belady_keys(span)
        qkb = [0] * n_qubits
        cur_key = [0] * n_qubits
    if policy == "fidelity":
        trip_keys = [[0] * n_qubits for _ in range(n_finite)]
        trip_unit = (n + 2) * span

    # Excluded qubits whose entries reached the heap top are parked
    # per level instead of being pushed straight back: the engines query
    # with slowly-changing exclusions (the pinned and in-flight qubits,
    # the gate's operands), so a parked qubit usually stays excluded for
    # the next queries too, and its entry ``(cur_key[q], q)`` goes back
    # into the heap only once a query no longer excludes it (and only
    # if it is still resident: a move pushed a fresh entry anyway).
    # A re-pushed entry may duplicate a fresher push of the same key;
    # duplicates are both current, so the answer is unchanged.
    parks: List[Set[int]] = [set() for _ in range(n_finite)]

    def victim_belady(i, pos, excl):
        # A non-destructive peek: the winning entry stays on top of the
        # heap, and an actual eviction stales it through the residency
        # check (the evicted qubit's next insertion pushes a fresh key).
        # A key names one push of one qubit, so the answer does not
        # depend on the heap's layout, on duplicates, or on which
        # qubits are parked.
        h = bheaps[i]
        d = orders[i]
        if len(h) > (len(d) << 2) + 64:
            # Compact: stale entries otherwise accumulate and deepen
            # every subsequent sift.
            h[:] = [e for e in h if cur_key[e[1]] == e[0] and e[1] in d]
            heapq.heapify(h)
        parked = parks[i]
        if parked and not parked.issubset(excl):
            for q in parked.difference(excl):
                if q in d:
                    heappush(h, (cur_key[q], q))
            parked.intersection_update(excl)
        while h:
            key, q = h[0]
            if q not in d or cur_key[q] != key:
                heappop(h)  # stale: the qubit moved since this push
            elif q in excl:
                heappop(h)
                parked.add(q)
            else:
                return q
        return next(iter(d))  # unsatisfiable pin: fall back like the reference

    flattened = {
        "lru": victim_recency,
        "fifo": victim_recency,
        "score": victim_score,
        "belady": victim_belady,
        "fidelity": victim_belady,
    }
    pols: List[EvictionPolicy] = []
    if policy not in SHIPPED_POLICIES:
        pols = [make_policy(policy) for _ in range(n_finite)]
        for pol, cap in zip(pols, caps):
            pol.reset(cap, trace)

    def victim_generic(i, pos, excl):
        return pols[i].victim(pos, excl)

    return FlatPolicy(
        orders=orders,
        refresh_on_hit=policy in SHIPPED_POLICIES and policy != "fifo",
        track_nu=track_nu,
        keybase=keybase,
        qkb=qkb,
        cur_key=cur_key,
        bheaps=bheaps,
        span=span,
        trip_keys=trip_keys,
        trip_unit=trip_unit,
        pols=pols,
        victim=flattened.get(policy, victim_generic),
    )
