"""Traffic/time factorization for batched design-space sweeps.

The engine-grid sweeps re-run :func:`~repro.sim.levels.simulate_hierarchy_run`
for every (code assignment, port provisioning) point even though the
*replacement traffic* — which qubit moves across which boundary, in
what order — is identical across all of them.  PR 5 pinned that
invariance for the reservation model: the caches never observe time,
so their event stream depends only on (capacity, policy, trace).  This
module exploits it:

* :func:`extract_movement_trace` runs the cache machinery **once** per
  (workload, depth, policy) group and records a code-agnostic
  :class:`MovementTrace` — per-gate miss records ``(source level,
  qubit, victim, cascade length)``, the cascade's bumped qubits, plus
  every traffic counter;
* :func:`price_movement_trace` replays that trace against one concrete
  :class:`~repro.sim.levels.HierarchyStack`, reproducing the greedy
  port-reservation arithmetic float-for-float, so its
  :class:`~repro.sim.levels.HierarchyEngineResult` is bit-identical to
  the reservation engine's; the trace carries qubit identities, so an
  attached :class:`~repro.sim.residency.ResidencyRecorder` receives the
  engine's residency records hop for hop;
* :func:`price_movement_trace_batch` prices one trace across many
  stacks.  Below :data:`NUMPY_PRICING_CELLS` stacks it runs the scalar
  loop per stack; from there up it runs the same walk once, with one
  numpy column per stack (every stack shares the miss stream, so only
  the floats are vectors), paying the per-step interpreter overhead
  once for the whole group.

The extraction is one loop for every registered eviction policy: its
replacement decisions come from :mod:`repro.sim.flatpolicy`, the
kernel :mod:`repro.sim.fastsplit` runs too (flattened state for the
five shipped policies, the real policy objects for any
user-registered one).  The equivalence tests pin it to the reference
reservation engines (test code under ``tests/oracles/``).

Batching is bypassed for split-transaction runs with prefetching
(``prefetch != "none"``): port contention feeds back into the
victim-exclusion and veto decisions there, so the traffic is *not*
code-invariant.  Such a cell has no traffic key
(:func:`repro.core.design_space.engine_traffic_key`); the sweep runs it
as a group of one, and its grid's group function simulates it on the
split-transaction engine instead of extracting a trace.  The same bypass will
apply to any future policy whose decisions observe time (per-level
mixed policies with shared state, noise-coupled residency costs).
"""

from __future__ import annotations

import heapq
import json
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..circuits.circuit import Circuit
from .levels import (
    HierarchyEngineResult,
    HierarchyStack,
    LevelStat,
    _resolve_order,
    _resolve_workload,
)
from .flatpolicy import flat_policy
from .policies import validate_policy

__all__ = [
    "MovementTrace",
    "NUMPY_PRICING_CELLS",
    "extract_movement_trace",
    "price_movement_trace",
    "price_movement_trace_batch",
    "price_movement_traces_multi",
]

#: Stack count from which the vectorized pricer (:func:`_price_numpy`)
#: overtakes the scalar loop: numpy pays a fixed per-step overhead that
#: only amortizes across enough columns.  Measured on a 2-vCPU machine
#: (draper_adder 32 bits at depth 2, 64 and 256 bits at depth 3, lru,
#: four code stacks per transfer width; median of 7 interleaved best-of-3
#: pairs), the per-workload medians of scalar/numpy time are 0.45-0.65
#: at 8 stacks, 0.77-1.15 at 16, 1.01-1.36 at 20, 1.16-1.29 at 24 and
#: 1.41-1.74 at 32.  Groups of 8 (four code stacks x two widths) stay
#: on the scalar loop.
NUMPY_PRICING_CELLS = 24


# ----------------------------------------------------------------------
# scan programs (per-(circuit, order) flattened schedules, cached)
# ----------------------------------------------------------------------

class _ScanProgram:
    """The flattened scheduled program one extraction scans.

    Everything here is a pure function of (circuit, order) — the gate
    operand tuples and EC durations in scheduled order, the operand
    trace, the touched-qubit set — so it is computed once and cached on
    the circuit instance, shared by every policy, prefetcher and stack
    that runs on it.  A sweep's cells of one (workload, size) pair run
    on one shared circuit
    (:func:`repro.core.design_space._engine_circuit`), so one program
    and its lazily-built ``next_pos`` and Belady keys serve them all.
    """

    __slots__ = (
        "gate_qubits",
        "gate_ec",
        "gate_ec_tuple",
        "trace",
        "touched",
        "total_ec",
        "_next_pos",
        "_belady_keys",
    )

    def __init__(self, circuit: Circuit, order: Sequence[int]) -> None:
        gates = circuit.gates
        self.gate_qubits: List[Tuple[int, ...]] = [gates[idx].qubits for idx in order]
        self.gate_ec: List[int] = [gates[idx].ec_slots for idx in order]
        self.gate_ec_tuple: Tuple[int, ...] = tuple(self.gate_ec)
        self.trace: List[int] = [q for qubits in self.gate_qubits for q in qubits]
        self.touched: List[int] = circuit.touched_qubits()
        self.total_ec: int = sum(self.gate_ec)
        self._next_pos: Optional[List[int]] = None
        self._belady_keys: Dict[int, List[int]] = {}

    def next_pos(self) -> List[int]:
        """``next_pos[p]``: next position of ``trace[p]`` after ``p``.

        One backward scan gives every Belady next-use query in O(1):
        at a demand access of ``q`` at position ``p`` the next use of
        ``q`` is exactly ``next_pos[p]``.  "Never recurs" is encoded as
        ``len(trace)`` — strictly greater than every finite position,
        so comparisons order exactly like the reference's
        :data:`math.inf` while keeping the array all-int (int keys make
        the Belady heap entries cheap 2-tuples).
        """
        if self._next_pos is None:
            trace = self.trace
            n = len(trace)
            nxt: List[int] = [n] * n
            last: Dict[int, int] = {}
            for p in range(n - 1, -1, -1):
                q = trace[p]
                nxt[p] = last.get(q, n)
                last[q] = p
            self._next_pos = nxt
        return self._next_pos

    def belady_keys(self, span: int) -> List[int]:
        """``-next_pos[p] * span`` — the distance part of a heap key.

        A Belady heap entry pushed at position ``p`` with push counter
        ``seq`` gets the int key ``seq - next_pos[p] * span``; with
        ``span`` exceeding every seq the min-heap pops by descending
        next use, oldest push first.  The distance part depends only on
        the scan program (and ``span``), so it is precomputed here once
        and the hot loop pays a single add per access.
        """
        cache = self._belady_keys
        keys = cache.get(span)
        if keys is None:
            keys = [-nd * span for nd in self.next_pos()]
            cache.clear()  # spans are near-constant; keep one
            cache[span] = keys
        return keys


def _scan_program(circuit: Circuit, order: Sequence[int]) -> _ScanProgram:
    """The cached :class:`_ScanProgram` for (circuit, order).

    Cached on the circuit instance (circuits are immutable once they
    enter the simulator: no engine edits the gate list of the circuit
    it runs, which the sweep's shared circuits rely on); the key
    carries the gate count so a circuit extended after a run cannot
    serve a stale program.
    """
    cache = circuit.__dict__.setdefault("_scan_programs", {})
    key = (len(circuit.gates), circuit.n_qubits, tuple(order))
    program = cache.get(key)
    if program is None:
        program = _ScanProgram(circuit, order)
        cache.clear()  # one schedule per circuit is the norm; don't hoard
        cache[key] = program
    return program


# ----------------------------------------------------------------------
# the movement trace
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MovementTrace:
    """The code-agnostic traffic of one reservation-model run.

    Every miss is a few small integers — the level the operand was
    found at (``miss_src``), the missing qubit (``miss_qubit``), the
    resident the compute-level insertion evicted (``miss_victim``, -1
    when nothing was evicted), and how many cascade write-backs
    rippled down the stack (``miss_clen``) — grouped per scheduled gate
    by ``gate_nmiss``.  ``cascade_qubit`` lists the qubit bumped at
    each cascade level, all misses' cascades concatenated in scan
    order, and ``touched`` is the run's touched-qubit order.  Together
    with the per-gate EC durations this is *everything* the time model
    consumes, and the identities are everything a residency recorder
    needs (see :func:`price_movement_trace`); every cache counter is
    already final (replacement never observes time).
    """

    workload: str
    policy: str
    depth: int
    capacities: Tuple[Optional[int], ...]
    gate_ec: Tuple[int, ...]
    gate_nmiss: Tuple[int, ...]
    miss_src: Tuple[int, ...]
    miss_qubit: Tuple[int, ...]
    miss_victim: Tuple[int, ...]
    miss_clen: Tuple[int, ...]
    cascade_qubit: Tuple[int, ...]
    touched: Tuple[int, ...]
    fetches: Tuple[int, ...]
    writebacks: Tuple[int, ...]
    bottom_hits: int
    level_accesses: Tuple[int, ...]
    level_hits: Tuple[int, ...]
    level_misses: Tuple[int, ...]
    level_evictions: Tuple[int, ...]
    final_occupancy: Tuple[int, ...]
    total_ec: int

    def to_bytes(self) -> bytes:
        """A canonical byte serialization (for invariance pins).

        Two traces are byte-equal iff every field is equal, so the
        PR 5 "traffic is code-agnostic" invariant is assertable as a
        single ``bytes`` comparison across code assignments.
        """
        payload = {
            "workload": self.workload,
            "policy": self.policy,
            "depth": self.depth,
            "capacities": list(self.capacities),
            "gate_ec": list(self.gate_ec),
            "gate_nmiss": list(self.gate_nmiss),
            "miss_src": list(self.miss_src),
            "miss_qubit": list(self.miss_qubit),
            "miss_victim": list(self.miss_victim),
            "miss_clen": list(self.miss_clen),
            "cascade_qubit": list(self.cascade_qubit),
            "touched": list(self.touched),
            "fetches": list(self.fetches),
            "writebacks": list(self.writebacks),
            "bottom_hits": self.bottom_hits,
            "level_accesses": list(self.level_accesses),
            "level_hits": list(self.level_hits),
            "level_misses": list(self.level_misses),
            "level_evictions": list(self.level_evictions),
            "final_occupancy": list(self.final_occupancy),
            "total_ec": self.total_ec,
        }
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ).encode("ascii")

    @property
    def n_misses(self) -> int:
        return len(self.miss_src)


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------

def extract_movement_trace(
    stack: HierarchyStack,
    workload: Union[Circuit, str],
    policy: str = "lru",
    *,
    window: Optional[int] = None,
    fetch: str = "optimized",
    order: Optional[Sequence[int]] = None,
) -> MovementTrace:
    """Run the replacement machinery once; return the movement trace.

    Accepts the same workload/scheduling arguments as
    :func:`~repro.sim.levels.simulate_hierarchy_run` (reservation model
    only — split-transaction traffic with prefetching is time-coupled
    and cannot be factored).  Only the *geometry* of ``stack`` matters
    (depth and per-level capacities); its codes and port provisioning
    are deliberately ignored, which is the whole point: one trace
    prices every code assignment of the same shape.
    """
    circuit = _resolve_workload(workload)
    if not circuit.gates:
        raise ValueError("cannot simulate an empty circuit")
    validate_policy(policy)
    order = _resolve_order(circuit, stack.levels[0].capacity, window, fetch, order)
    return _extract_program(stack, circuit, policy, _scan_program(circuit, order))


def _extract_program(
    stack: HierarchyStack,
    circuit: Circuit,
    policy: str,
    program: _ScanProgram,
) -> MovementTrace:
    """The extraction loop: scan ``program`` through the replacement
    kernel of :mod:`repro.sim.flatpolicy` for any registered policy.

    Identical event stream to the reference reservation engine with
    the port arithmetic deleted.  The five shipped policies run as
    flattened state; Belady and fidelity read next uses from the scan
    program's ``next_pos`` array instead of bisecting (a demand access at
    position ``p`` *is* an occurrence of its qubit, and a cascaded
    victim cannot have recurred since its last touch — the occurrence
    would have been a demand access pulling it up — so cached next
    uses stay exact all the way down the stack).  Every other policy
    drives its real objects through the same hooks the reference's
    per-level resident sets call.

    The loop records only the per-miss ``(src, qubit, victim,
    cascade)`` records; every access/hit/traffic counter is derived
    from them afterwards (see :func:`_trace_from_misses`), which keeps
    counter bookkeeping entirely out of the hot path.
    """
    bottom = stack.depth - 1
    caps = [level.capacity for level in stack.levels[:-1]]
    flat = flat_policy(policy, caps, program, circuit.n_qubits)
    orders = flat.orders
    select_victim = flat.victim
    refresh_on_hit = flat.refresh_on_hit
    pols = flat.pols
    generic = bool(pols)
    pol0 = pols[0] if generic else None
    keybase = flat.keybase
    qkb = flat.qkb
    cur_key = flat.cur_key
    bheaps = flat.bheaps
    trip_keys = flat.trip_keys
    trip_unit = flat.trip_unit
    bseq = 0
    heappush = heapq.heappush

    location = [-1] * circuit.n_qubits
    for q in program.touched:
        location[q] = bottom
    gate_nmiss: List[int] = []
    miss_src: List[int] = []
    miss_qubit: List[int] = []
    miss_victim: List[int] = []
    miss_clen: List[int] = []
    cascade_qubit: List[int] = []
    append_nmiss = gate_nmiss.append
    append_src = miss_src.append
    append_qubit = miss_qubit.append
    append_victim = miss_victim.append
    append_clen = miss_clen.append
    append_cascade = cascade_qubit.append
    d0 = orders[0]
    cap0 = caps[0]
    h0 = bheaps[0]
    pos = 0
    # Two copies of the scan so the per-access policy checks stay out
    # of the inner loop: the heap variant (belady, fidelity) threads
    # the heap pushes, the other one maintains the ordered dicts and
    # calls the real policy objects' hooks when there are any.
    if flat.track_nu:
        t0 = trip_keys[0] if trip_unit else None
        for qubits in program.gate_qubits:
            nmiss = 0
            j = 0
            for q in qubits:
                src = location[q]
                if src == 0:
                    # Guaranteed hit at the compute level.
                    del d0[q]
                    d0[q] = None
                    kb = keybase[pos]
                    qkb[q] = kb
                    key = bseq + kb
                    if trip_unit:  # fidelity: its unchanged trip term
                        key += t0[q]
                    cur_key[q] = key
                    heappush(h0, (key, q))
                    bseq += 1
                    j += 1
                    pos += 1
                    continue
                if src != bottom:
                    del orders[src][q]
                evicted = -1
                if len(d0) >= cap0:
                    # The operands already issued for this gate are
                    # pinned (they cannot be teleported away mid-gate).
                    evicted = select_victim(0, pos, qubits[:j])
                    del d0[evicted]
                d0[q] = None
                kb = keybase[pos]
                qkb[q] = kb
                key = bseq + kb
                if trip_unit:  # fidelity: one more trip to this level
                    tk = t0[q] + trip_unit
                    t0[q] = tk
                    key += tk
                cur_key[q] = key
                heappush(h0, (key, q))
                bseq += 1
                location[q] = 0
                clen = 0
                if evicted >= 0:
                    location[evicted] = 1
                    victim = evicted
                    lvl = 1
                    while lvl < bottom:
                        d = orders[lvl]
                        bumped = None
                        if len(d) >= caps[lvl]:
                            bumped = select_victim(lvl, pos, ())
                            del d[bumped]
                        d[victim] = None
                        # The victim's cached next use carries down
                        # unchanged.
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
                        append_cascade(bumped)
                        victim = bumped
                        lvl += 1
                        clen += 1
                append_src(src)
                append_qubit(q)
                append_victim(evicted)
                append_clen(clen)
                nmiss += 1
                j += 1
                pos += 1
            append_nmiss(nmiss)
    else:
        for qubits in program.gate_qubits:
            nmiss = 0
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
                    j += 1
                    pos += 1
                    continue
                if src != bottom:
                    del orders[src][q]
                    if generic:
                        pols[src].on_remove(q)
                evicted = -1
                if len(d0) >= cap0:
                    # The operands already issued for this gate are
                    # pinned (they cannot be teleported away mid-gate).
                    evicted = select_victim(0, pos, qubits[:j])
                    del d0[evicted]
                    if generic:
                        pol0.on_remove(evicted)
                d0[q] = None
                if generic:
                    pol0.on_insert(q, pos)
                location[q] = 0
                clen = 0
                if evicted >= 0:
                    location[evicted] = 1
                    victim = evicted
                    lvl = 1
                    while lvl < bottom:
                        d = orders[lvl]
                        bumped = None
                        if len(d) >= caps[lvl]:
                            bumped = select_victim(lvl, pos, ())
                            del d[bumped]
                            if generic:
                                pols[lvl].on_remove(bumped)
                        d[victim] = None
                        if generic:
                            pols[lvl].on_insert(victim, pos)
                        if bumped is None:
                            break
                        location[bumped] = lvl + 1
                        append_cascade(bumped)
                        victim = bumped
                        lvl += 1
                        clen += 1
                append_src(src)
                append_qubit(q)
                append_victim(evicted)
                append_clen(clen)
                nmiss += 1
                j += 1
                pos += 1
            append_nmiss(nmiss)

    return _trace_from_misses(
        stack, circuit, policy, program, gate_nmiss, miss_src, miss_qubit,
        miss_victim, miss_clen, cascade_qubit, location,
    )


def _trace_from_misses(
    stack: HierarchyStack,
    circuit: Circuit,
    policy: str,
    program: _ScanProgram,
    gate_nmiss: List[int],
    miss_src: List[int],
    miss_qubit: List[int],
    miss_victim: List[int],
    miss_clen: List[int],
    cascade_qubit: List[int],
    location: Sequence[int],
) -> MovementTrace:
    """Derive every traffic counter from the per-miss records.

    The reservation model's scan fixes each counter as a pure
    function of the miss stream: a miss from ``src`` passes through
    (and is counted a miss at) every level ``k < src`` above its hop
    path, is found at ``src`` (a ``lookup_remove`` hit below the
    backing store, a bottom hit otherwise), and its cascade writes back
    through levels ``1..clen`` — which also pins ``evictions[k] ==
    writebacks[k]`` for ``k >= 1`` and ``evictions[0] ==
    writebacks[0]`` (every compute-level eviction pairs with exactly
    one write-back).  ``location`` maps each qubit to its final level
    (indexed by qubit id; only touched qubits are read).
    """
    bottom = stack.depth - 1
    n_finite = bottom
    n_misses = len(miss_src)
    src_count = [0] * (bottom + 1)
    for s, cnt in Counter(miss_src).items():
        src_count[s] = cnt
    clen_count = [0] * (bottom + 1)
    for c, cnt in Counter(miss_clen).items():
        clen_count[c] = cnt
    evicted0 = n_misses - miss_victim.count(-1)
    accesses = [0] * n_finite
    hits = [0] * n_finite
    misses = [0] * n_finite
    evictions = [0] * n_finite
    fetches = [0] * n_finite
    writebacks = [0] * n_finite
    accesses[0] = len(program.trace)
    misses[0] = n_misses
    hits[0] = accesses[0] - n_misses
    evictions[0] = evicted0
    writebacks[0] = evicted0
    fetches[0] = n_misses
    for k in range(1, n_finite):
        through = sum(src_count[k + 1:])  # searched past this level
        found = src_count[k]  # lookup_remove hits
        accesses[k] = through + found
        misses[k] = through
        hits[k] = found
        fetches[k] = through
        # clen >= k: the cascade reached (and wrote back through) k.
        bumped = sum(clen_count[k:])
        writebacks[k] = bumped
        evictions[k] = bumped
    occupancy = [0] * stack.depth
    for q in program.touched:
        occupancy[location[q]] += 1
    return MovementTrace(
        workload=circuit.name or f"circuit-{circuit.n_qubits}q",
        policy=policy,
        depth=stack.depth,
        capacities=tuple(level.capacity for level in stack.levels),
        gate_ec=program.gate_ec_tuple,
        gate_nmiss=tuple(gate_nmiss),
        miss_src=tuple(miss_src),
        miss_qubit=tuple(miss_qubit),
        miss_victim=tuple(miss_victim),
        miss_clen=tuple(miss_clen),
        cascade_qubit=tuple(cascade_qubit),
        touched=tuple(program.touched),
        fetches=tuple(fetches),
        writebacks=tuple(writebacks),
        bottom_hits=src_count[bottom],
        level_accesses=tuple(accesses),
        level_hits=tuple(hits),
        level_misses=tuple(misses),
        level_evictions=tuple(evictions),
        final_occupancy=tuple(occupancy),
        total_ec=program.total_ec,
    )


# ----------------------------------------------------------------------
# pricing
# ----------------------------------------------------------------------

def _check_geometry(trace: MovementTrace, stack: HierarchyStack) -> None:
    if stack.depth != trace.depth or (
        tuple(level.capacity for level in stack.levels) != trace.capacities
    ):
        raise ValueError(
            "stack geometry does not match the movement trace: the "
            f"trace was extracted at depth {trace.depth} / capacities "
            f"{trace.capacities}, the pricing stack is depth "
            f"{stack.depth} / capacities "
            f"{tuple(lv.capacity for lv in stack.levels)} — traffic is "
            "only invariant across stacks of equal shape"
        )


def price_movement_trace(
    trace: MovementTrace, stack: HierarchyStack, recorder=None
) -> HierarchyEngineResult:
    """Replay ``trace`` against one stack's codes and port widths.

    Reproduces the greedy reservation arithmetic exactly: one plain
    float heap of lane free-times per network (the reference server's
    lane/version entries only tie-break equal floats, which are
    interchangeable), ``start = max(free, ready)``, lanes held through
    ``start + duration + hold``.  Every output float is bit-identical
    to the reservation engine on the same cell.

    ``recorder`` (a :class:`~repro.sim.residency.ResidencyRecorder`)
    receives ``begin`` with the touched qubits at the backing store,
    one ``transfer`` per hop — the fetch hops of each missing qubit,
    its compute-level arrival, the paired write-back of its victim and
    every cascade bump, in exactly the order (and with exactly the
    floats) the reservation engine emits them — and ``finish`` with
    the makespan.  Recording never touches the arithmetic.
    """
    _check_geometry(trace, stack)
    networks = stack.networks()
    demote = [net.demote_time_s for net in networks]
    promote = [net.promote_time_s for net in networks]
    heaps = [[0.0] * max(1, round(net.effective_concurrency)) for net in networks]
    heapreplace = heapq.heapreplace
    top_op = stack.levels[0].op_time_s
    d0 = demote[0]
    p0 = promote[0]
    h0 = heaps[0]
    log = None
    if recorder is not None:
        bottom = trace.depth - 1
        recorder.begin({q: bottom for q in trace.touched})
        # The recorder's movement log, appended to directly: one C
        # call per hop instead of a bound-method call.
        log = recorder.records.append
        miss_qubit = trace.miss_qubit
        cascade_qubit = trace.cascade_qubit
        mi = ci = 0
    misses = zip(trace.miss_src, trace.miss_victim, trace.miss_clen)
    next_miss = misses.__next__
    compute_free = 0.0
    transfer_wait = 0.0
    compute_time = 0.0
    durations = {ec: ec * top_op for ec in set(trace.gate_ec)}
    for ec, nmiss in zip(trace.gate_ec, trace.gate_nmiss):
        duration = durations[ec]
        compute_time += duration
        if not nmiss:
            # No arrivals: start = max(compute_free, 0.0) is just
            # compute_free (times never go negative).
            compute_free += duration
            continue
        arrivals = 0.0
        for _ in range(nmiss):
            src, victim, clen = next_miss()
            prev = 0.0
            if src > 1:
                # Depth 3 dominates real grids: unroll its single hop.
                if src == 2:
                    h = heaps[1]
                    free = h[0]
                    hop = free if free > 0.0 else 0.0
                    prev = hop + demote[1]
                    heapreplace(h, prev)
                else:
                    for k in range(src - 1, 0, -1):
                        h = heaps[k]
                        free = h[0]
                        start = free if free > prev else prev
                        prev = start + demote[k]
                        heapreplace(h, prev)
                        if log is not None:
                            log((miss_qubit[mi], k + 1, k, start, prev, k))
            free = h0[0]
            start = free if free > prev else prev
            arrival = start + d0
            if log is not None:
                q = miss_qubit[mi]
                mi += 1
                if src == 2:
                    log((q, 2, 1, hop, prev, 1))
                log((q, 1, 0, start, arrival, 0))
                if victim >= 0:
                    log((victim, 0, 1, arrival, arrival + p0, 0))
            if victim >= 0:
                # The paired write-back holds the arrival port
                # (busy = start + demote + promote = arrival + promote,
                # matching the reference's left-associated sum).
                available = arrival + p0
                heapreplace(h0, available)
                if clen == 1:
                    h = heaps[1]
                    free = h[0]
                    start2 = free if free > available else available
                    available = start2 + promote[1]
                    heapreplace(h, available)
                    if log is not None:
                        log((cascade_qubit[ci], 1, 2, start2, available, 1))
                        ci += 1
                elif clen:
                    for lvl in range(1, clen + 1):
                        h = heaps[lvl]
                        free = h[0]
                        start2 = free if free > available else available
                        available = start2 + promote[lvl]
                        heapreplace(h, available)
                        if log is not None:
                            cq = cascade_qubit[ci]
                            log((cq, lvl, lvl + 1, start2, available, lvl))
                            ci += 1
            else:
                heapreplace(h0, arrival)
            if arrival > arrivals:
                arrivals = arrival
        start = compute_free if compute_free > arrivals else arrivals
        if arrivals > compute_free:
            transfer_wait += arrivals - compute_free
        compute_free = start + duration

    if recorder is not None:
        recorder.finish(compute_free)
    return _result_from_trace(trace, stack, compute_free, compute_time, transfer_wait)


def _result_from_trace(
    trace: MovementTrace,
    stack: HierarchyStack,
    total_time: float,
    compute_time: float,
    transfer_wait: float,
) -> HierarchyEngineResult:
    level_stats = [
        LevelStat(
            name=level.name,
            capacity=level.capacity,
            accesses=trace.level_accesses[i],
            hits=trace.level_hits[i],
            misses=trace.level_misses[i],
            evictions=trace.level_evictions[i],
            final_occupancy=trace.final_occupancy[i],
        )
        for i, level in enumerate(stack.levels[:-1])
    ]
    bottom_level = stack.levels[-1]
    level_stats.append(LevelStat(
        name=bottom_level.name,
        capacity=None,
        accesses=trace.bottom_hits,
        hits=trace.bottom_hits,
        misses=0,
        evictions=0,
        final_occupancy=trace.final_occupancy[-1],
    ))
    serial_bottom = trace.total_ec * bottom_level.op_time_s
    return HierarchyEngineResult(
        workload=trace.workload,
        policy=trace.policy,
        depth=stack.depth,
        total_time_s=total_time,
        serial_bottom_time_s=serial_bottom,
        compute_time_s=compute_time,
        transfer_wait_s=transfer_wait,
        level_stats=tuple(level_stats),
        fetches=tuple(trace.fetches),
        writebacks=tuple(trace.writebacks),
    )


def price_movement_trace_batch(
    trace: MovementTrace,
    stacks: Sequence[HierarchyStack],
) -> List[HierarchyEngineResult]:
    """Price one movement trace across many stacks.

    Exactly ``[price_movement_trace(trace, s) for s in stacks]``: below
    :data:`NUMPY_PRICING_CELLS` stacks it is that loop, from there up
    the same walk with one numpy column per stack (:func:`_price_numpy`).
    """
    stacks = list(stacks)
    if len(stacks) < NUMPY_PRICING_CELLS:
        return [price_movement_trace(trace, stack) for stack in stacks]
    return _price_numpy(trace, stacks)


def price_movement_traces_multi(
    groups: Sequence[Tuple[MovementTrace, Sequence[HierarchyStack]]],
) -> List[List[HierarchyEngineResult]]:
    """:func:`price_movement_trace_batch` per ``(trace, stacks)`` group."""
    return [price_movement_trace_batch(trace, stacks) for trace, stacks in groups]


def _price_numpy(
    trace: MovementTrace, stacks: Sequence[HierarchyStack]
) -> List[HierarchyEngineResult]:
    """:func:`price_movement_trace` with one numpy column per stack.

    Every stack replays the same miss stream, so each hop and cascade
    decision is the scalar loop's own branch; only the floats are
    vectors.  A network's lane heaps become one ``(stacks, lanes)``
    array of free times, ``inf``-padded for narrower stacks, and
    ``heapreplace`` becomes argmin plus a store: the minimum free time
    is the heap's top, and equal minima are interchangeable.  Each
    column performs the scalar loop's IEEE-754 adds and maxes in the
    same order, so every row is bit-identical to it.
    """
    import numpy as np

    for stack in stacks:
        _check_geometry(trace, stack)
    maximum = np.maximum
    n_cols = len(stacks)
    networks = [stack.networks() for stack in stacks]
    demote = []
    promote = []
    free = []
    for k in range(trace.depth - 1):
        demote.append(np.array([nets[k].demote_time_s for nets in networks]))
        promote.append(np.array([nets[k].promote_time_s for nets in networks]))
        lanes = np.array([
            max(1, round(nets[k].effective_concurrency)) for nets in networks
        ])
        arr = np.where(np.arange(lanes.max()) < lanes[:, None], 0.0, np.inf)
        # Flat view plus row offsets: a 1-D gather/scatter at
        # ``row * width + lane`` is cheaper than ``arr[rows, lane]``.
        free.append((arr, arr.reshape(-1), np.arange(n_cols) * arr.shape[1]))
    top_op = np.array([stack.levels[0].op_time_s for stack in stacks])
    d0 = demote[0]
    p0 = promote[0]
    arr0, flat0, off0 = free[0]
    zeros = np.zeros(n_cols)
    compute_free = np.zeros(n_cols)
    transfer_wait = np.zeros(n_cols)
    compute_time = np.zeros(n_cols)
    next_miss = zip(trace.miss_src, trace.miss_victim, trace.miss_clen).__next__
    durations = {ec: ec * top_op for ec in set(trace.gate_ec)}
    for ec, nmiss in zip(trace.gate_ec, trace.gate_nmiss):
        duration = durations[ec]
        compute_time += duration
        if not nmiss:
            compute_free += duration
            continue
        arrivals = zeros
        for _ in range(nmiss):
            src, victim, clen = next_miss()
            prev = zeros
            for k in range(src - 1, 0, -1):
                arr, flat, off = free[k]
                slot = arr.argmin(axis=1)
                slot += off
                prev = maximum(flat[slot], prev) + demote[k]
                flat[slot] = prev
            slot = arr0.argmin(axis=1)
            slot += off0
            arrival = maximum(flat0[slot], prev) + d0
            if victim >= 0:
                # The paired write-back holds the arrival port.
                available = arrival + p0
                flat0[slot] = available
                for lvl in range(1, clen + 1):
                    arr, flat, off = free[lvl]
                    slot = arr.argmin(axis=1)
                    slot += off
                    available = maximum(flat[slot], available) + promote[lvl]
                    flat[slot] = available
            else:
                flat0[slot] = arrival
            arrivals = maximum(arrivals, arrival)
        # Adding 0.0 where there was no wait preserves bits (the
        # accumulator never goes negative, so x + 0.0 == x exactly).
        transfer_wait += maximum(arrivals - compute_free, 0.0)
        compute_free = maximum(compute_free, arrivals) + duration
    return [
        _result_from_trace(trace, stack, float(compute_free[c]),
                           float(compute_time[c]), float(transfer_wait[c]))
        for c, stack in enumerate(stacks)
    ]
