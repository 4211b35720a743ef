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
* :func:`price_movement_traces_multi` prices **many traces** — one per
  traffic group, each against its own stacks — and
  :func:`price_movement_trace_batch` one trace across many stacks (a
  one-group batch).  Below :data:`NUMPY_PRICING_CELLS` cells each runs
  the scalar loop; from there up the variable-length miss and gate
  streams are padded into one numpy batch whose columns are all
  (group x config) cells, so the per-step interpreter overhead is paid
  once for the whole design space;
* :func:`trace_key` / :meth:`MovementTrace.from_bytes` round-trip a
  trace through a content-addressed blob (see
  :class:`repro.perf.tracecache.TraceCache`): the key folds the
  traffic identity, the stack geometry and
  :data:`TRACE_FORMAT_VERSION`, so a layout change can only ever miss,
  never decode stale bytes wrongly.

The extraction is one loop for every registered eviction policy: its
replacement decisions come from :mod:`repro.sim.flatpolicy`, the
kernel :mod:`repro.sim.fastsplit` runs too (flattened state for
``lru``, ``fifo``, ``score`` and ``belady``, the real policy objects
for any other).  The equivalence tests pin it to the reference
reservation engines (test code under ``tests/oracles/``).

Batching is bypassed — cells fall back to per-cell simulation — for
split-transaction runs with prefetching (``prefetch != "none"``): port
contention feeds back into the victim-exclusion and veto decisions
there, so the traffic is *not* code-invariant.  The same bypass will
apply to any future policy whose decisions observe time (per-level
mixed policies with shared state, noise-coupled residency costs).
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
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
    "TRACE_FORMAT_VERSION",
    "extract_movement_trace",
    "price_movement_trace",
    "price_movement_trace_batch",
    "price_movement_traces_multi",
    "trace_key",
]

_INF = math.inf

#: Total (group x config) cell count from which the vectorized pricer
#: (:func:`_price_multi_numpy`) overtakes the scalar loop: numpy pays a
#: fixed per-step overhead that only amortizes across enough columns.
#: Measured on a 2-vCPU machine (draper_adder 64 and 256 bits, depth 3,
#: four code stacks per transfer width, median of 7 interleaved
#: best-of-3 pairs): scalar/numpy time is 0.86-0.95 at 24 cells and
#: 1.09-1.12 at 32 for one group, 0.93-0.94 at 32 and 1.03-1.08 at 40
#: for four groups.
NUMPY_PRICING_CELLS = 32

#: Serialization version of :meth:`MovementTrace.to_bytes` blobs.
#: Folded into every :func:`trace_key`, so a layout change invalidates
#: persisted traces (a cache miss and re-extraction) instead of ever
#: decoding them under the wrong schema.
TRACE_FORMAT_VERSION = 2


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

    @classmethod
    def from_bytes(cls, blob: bytes) -> "MovementTrace":
        """Rebuild a trace from its :meth:`to_bytes` serialization.

        Strict by construction: after reconstructing the dataclass the
        round-trip ``to_bytes()`` must reproduce ``blob`` exactly, so a
        blob with missing/extra/retyped fields (e.g. written by a
        different layout, or bit-flipped into other valid JSON) raises
        :class:`ValueError` instead of yielding a trace that prices
        differently.  Cache layers treat that error as a miss.
        """
        try:
            payload = json.loads(blob.decode("ascii"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ValueError(f"not a serialized MovementTrace: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError("not a serialized MovementTrace: not an object")
        tuple_fields = (
            "capacities", "gate_ec", "gate_nmiss", "miss_src", "miss_qubit",
            "miss_victim", "miss_clen", "cascade_qubit", "touched",
            "fetches", "writebacks", "level_accesses",
            "level_hits", "level_misses", "level_evictions",
            "final_occupancy",
        )
        fields = dict(payload)
        for name in tuple_fields:
            value = fields.get(name)
            if not isinstance(value, list):
                raise ValueError(
                    f"not a serialized MovementTrace: field {name!r} is "
                    "missing or not a list"
                )
            fields[name] = tuple(value)
        try:
            trace = cls(**fields)
        except TypeError as exc:
            raise ValueError(f"not a serialized MovementTrace: {exc}") from exc
        if trace.to_bytes() != blob:
            raise ValueError(
                "not a canonical MovementTrace serialization (field types "
                "or ordering differ from to_bytes output)"
            )
        return trace

    @property
    def n_misses(self) -> int:
        return len(self.miss_src)


def trace_key(
    traffic_token: str,
    depth: int,
    capacities: Sequence[Optional[int]],
) -> str:
    """Content address of one movement trace in a trace cache.

    ``traffic_token`` is the traffic-group identity (the engine grid
    passes :func:`repro.core.design_space.engine_traffic_key`, which
    already folds every traffic axis plus the package version); depth
    and per-level capacities pin the stack geometry the trace was
    extracted against, and :data:`TRACE_FORMAT_VERSION` pins the blob
    layout — bumping it orphans (never misreads) old blobs.
    """
    payload = json.dumps(
        {
            "v": TRACE_FORMAT_VERSION,
            "traffic": traffic_token,
            "depth": depth,
            "capacities": list(capacities),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:40]


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
    the port arithmetic deleted.  The four shipped policies run as
    flattened state; Belady reads next uses from the scan program's
    ``next_pos`` array instead of bisecting (a demand access at
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
    # of the inner loop: the Belady variant threads the heap pushes,
    # the other one maintains the ordered dicts and calls the real
    # policy objects' hooks when there are any.
    if flat.track_nu:
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
    rec = None
    if recorder is not None:
        bottom = trace.depth - 1
        recorder.begin({q: bottom for q in trace.touched})
        rec = recorder.transfer
        miss_qubit = trace.miss_qubit
        cascade_qubit = trace.cascade_qubit
        mi = ci = 0
    misses = zip(trace.miss_src, trace.miss_victim, trace.miss_clen)
    next_miss = misses.__next__
    compute_free = 0.0
    transfer_wait = 0.0
    compute_time = 0.0
    for ec, nmiss in zip(trace.gate_ec, trace.gate_nmiss):
        duration = ec * top_op
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
                        if rec is not None:
                            rec(miss_qubit[mi], k + 1, k, start, prev, k)
            free = h0[0]
            start = free if free > prev else prev
            arrival = start + d0
            if rec is not None:
                q = miss_qubit[mi]
                mi += 1
                if src == 2:
                    rec(q, 2, 1, hop, prev, 1)
                rec(q, 1, 0, start, arrival, 0)
                if victim >= 0:
                    rec(victim, 0, 1, arrival, arrival + p0, 0)
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
                    if rec is not None:
                        rec(cascade_qubit[ci], 1, 2, start2, available, 1)
                        ci += 1
                elif clen:
                    for lvl in range(1, clen + 1):
                        h = heaps[lvl]
                        free = h[0]
                        start2 = free if free > available else available
                        available = start2 + promote[lvl]
                        heapreplace(h, available)
                        if rec is not None:
                            rec(cascade_qubit[ci], lvl, lvl + 1, start2,
                                available, lvl)
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

    A one-group :func:`price_movement_traces_multi`: exactly
    ``[price_movement_trace(trace, s) for s in stacks]``, vectorized
    from :data:`NUMPY_PRICING_CELLS` stacks up.
    """
    return _price_groups([(trace, stacks)])[0]


def price_movement_traces_multi(
    groups: Sequence[Tuple[MovementTrace, Sequence[HierarchyStack]]],
) -> List[List[HierarchyEngineResult]]:
    """Price many traffic groups' traces in one pass over the grid.

    ``groups`` pairs each movement trace with the stacks it prices
    (every stack must match its trace's geometry); the return value is
    one result list per group, in order — exactly
    :func:`price_movement_trace` per (trace, stack) cell, and pinned
    bit-identical to it.

    Below :data:`NUMPY_PRICING_CELLS` total cells every cell runs the
    scalar loop.  From there up the variable-length miss and gate
    streams are padded into one structured batch whose columns are
    *all* (group x config) cells and replayed in a single vectorized
    pass (see :func:`_price_multi_numpy`), so the whole design space
    pays the per-step interpreter overhead once.
    """
    return _price_groups(groups)


def _price_groups(
    groups: Sequence[Tuple[MovementTrace, Sequence[HierarchyStack]]],
) -> List[List[HierarchyEngineResult]]:
    prepared: List[Tuple[MovementTrace, List[HierarchyStack]]] = []
    for trace, stacks in groups:
        stacks = list(stacks)
        for stack in stacks:
            _check_geometry(trace, stack)
        prepared.append((trace, stacks))
    if sum(len(stacks) for _, stacks in prepared) < NUMPY_PRICING_CELLS:
        return [
            [price_movement_trace(trace, stack) for stack in stacks]
            for trace, stacks in prepared
        ]
    return _price_multi_numpy(prepared)


def _price_multi_numpy(
    prepared: List[Tuple[MovementTrace, List[HierarchyStack]]],
) -> List[List[HierarchyEngineResult]]:
    """One vectorized pass over every (group x config) cell.

    Columns are all configs of all groups side by side; each group's
    miss and gate streams are zero-padded to the longest group's
    (``src == 0`` marks a padded miss, ``ec == 0`` a padded gate — both
    are exact no-ops on every accumulator, so padding never perturbs a
    bit).  Groups are mutually independent — no port array or register
    is shared across columns — so executing step ``m`` of every group
    simultaneously preserves each column's exact reservation order, and
    every per-column float op is the same IEEE-754 add/max/argmin the
    scalar heap performs: results are bit-identical to
    :func:`price_movement_trace` per cell.

    The port phase never reads the compute clock (reservations depend
    only on earlier reservations), so the pass factorizes into a
    miss-stream phase that scatters per-gate arrival maxima and a
    gate-stream phase that replays the compute_free/transfer_wait scan
    — each a single loop over the *longest* group's stream instead of
    one loop per group.
    """
    import numpy as np

    n_groups = len(prepared)
    col_group: List[int] = []
    all_stacks: List[HierarchyStack] = []
    for g, (_, stacks) in enumerate(prepared):
        col_group.extend([g] * len(stacks))
        all_stacks.extend(stacks)
    n_cols = len(all_stacks)
    cg = np.asarray(col_group, dtype=np.intp)
    n_nets = max(trace.depth for trace, _ in prepared) - 1

    demote = np.zeros((n_nets, n_cols))
    promote = np.zeros((n_nets, n_cols))
    lanes = [[1] * n_cols for _ in range(n_nets)]
    for c, stack in enumerate(all_stacks):
        for k, net in enumerate(stack.networks()):
            demote[k, c] = net.demote_time_s
            promote[k, c] = net.promote_time_s
            lanes[k][c] = max(1, round(net.effective_concurrency))
    # One (columns, lanes) free-time array per network, inf-padded for
    # narrower configs; columns of shallower stacks simply never touch
    # the networks beyond their depth.
    free_t = []
    for k in range(n_nets):
        width = max(lanes[k])
        arr = np.full((n_cols, width), np.inf)
        for c in range(n_cols):
            arr[c, : lanes[k][c]] = 0.0
        free_t.append(arr)
    top_op = np.array([stack.levels[0].op_time_s for stack in all_stacks])

    max_misses = max(trace.n_misses for trace, _ in prepared)
    max_gates = max(len(trace.gate_ec) for trace, _ in prepared)
    src_g = np.zeros((max_misses, n_groups), dtype=np.int64)
    evcl_g = np.zeros((max_misses, n_groups), dtype=np.int64)
    ec_g = np.zeros((max_gates, n_groups), dtype=np.int64)
    for g, (trace, _) in enumerate(prepared):
        n_miss = trace.n_misses
        src_g[:n_miss, g] = trace.miss_src
        # evict and cascade length fold into one operand: a cascade
        # only exists under an eviction, so clen >= 1 implies evict,
        # and evict-without-cascade is encoded as clen == 0 with the
        # evict bit carried separately below via the sign-free split
        # evcl = evict + clen (evict in {0,1}, so evcl == 0 iff no
        # eviction, and the cascade reached level lvl iff
        # evcl - 1 >= lvl).
        evict = (np.asarray(trace.miss_victim, dtype=np.int64) >= 0).astype(np.int64)
        evcl_g[:n_miss, g] = evict + np.asarray(trace.miss_clen, dtype=np.int64)
        ec_g[: len(trace.gate_ec), g] = trace.gate_ec
    # Expand the per-group streams to per-column matrices once, so the
    # hot loops index views instead of paying a fancy gather per step.
    src_c = src_g[:, cg]
    evcl_c = evcl_g[:, cg]
    durations = ec_g[:, cg] * top_op

    # Pre-masked per-step operands for the all-active fast path below.
    # ``d_eff[k][m]`` is each column's hop-k demote time, already
    # zeroed where the column's miss does not hop through network k;
    # ``hop_f``/``casc_f`` are the same masks as exact 0.0/1.0 factors.
    # ``*_any[m]`` says whether any group fires the block at step m, so
    # empty blocks are skipped without a per-column scan.
    hop_f = [None] * n_nets
    d_eff = [None] * n_nets
    casc_f = [None] * n_nets
    p_eff = [None] * n_nets
    hop_any = [None] * n_nets
    casc_any = [None] * n_nets
    for k in range(1, n_nets):
        hmask = src_c > k
        hop_f[k] = hmask.astype(np.float64)
        d_eff[k] = demote[k] * hop_f[k]
        cmask = evcl_c > k
        casc_f[k] = cmask.astype(np.float64)
        p_eff[k] = promote[k] * casc_f[k]
        hop_any[k] = (src_g > k).any(axis=1)
        casc_any[k] = (evcl_g > k).any(axis=1)
    p0_eff = promote[0] * (evcl_c > 0)

    # ---- phase 1: the miss streams, all columns in lockstep ---------
    # Each step's arrival vector lands in its own row; the per-gate
    # arrival maxima fold out of the rows afterwards in one
    # ``maximum.reduceat`` per group (max is exact and associative, so
    # the segmented reduction reproduces the sequential fold bit for
    # bit) — cheaper than a fancy-indexed scatter-max on every step.
    arrival_rows = np.empty((max_misses, n_cols))
    zeros_cols = np.zeros(n_cols)
    prev_buf = np.empty(n_cols)
    avail_buf = np.empty(n_cols)
    flatnonzero = np.flatnonzero
    maximum = np.maximum
    rows = np.arange(n_cols)
    # Flat views of the lane arrays plus per-network row offsets: a
    # 1-D gather/scatter at ``row * width + lane`` is several times
    # cheaper than the 2-D ``arr[rows, lane]`` form in the hot loop.
    flat_t = [arr.reshape(-1) for arr in free_t]
    row_off = [rows * arr.shape[1] for arr in free_t]
    d0 = demote[0]
    p0 = promote[0]
    arr0 = free_t[0]
    flat0 = flat_t[0]
    off0 = row_off[0]
    # Steps below the shortest group's stream have every column active,
    # so they run without index subsetting: masked operands make each
    # op an exact identity on non-participating columns (prev == 0 at a
    # skipped hop, so max(free, 0) + 0.0 writes ``free`` back; a masked
    # avail of 0.0 does the same for a skipped cascade level).
    min_misses = min(trace.n_misses for trace, _ in prepared)
    for m in range(min_misses):
        prev = zeros_cols
        # Hop down: network k serves every column whose miss source
        # lies above it (k <= src - 1), highest network first —
        # exactly each column's scalar hop order.
        for k in range(n_nets - 1, 0, -1):
            if not hop_any[k][m]:
                continue
            slot = free_t[k].argmin(axis=1)
            slot += row_off[k]
            flat = flat_t[k]
            busy = maximum(flat[slot], prev) + d_eff[k][m]
            flat[slot] = busy
            prev = busy * hop_f[k][m]
        slot = arr0.argmin(axis=1)
        slot += off0
        arrival = maximum(flat0[slot], prev) + d0
        # The paired write-back holds the arrival port (the reference's
        # left-associated start + demote + promote); a non-evicting
        # miss adds an exact 0.0 instead, which preserves bits.
        busy = arrival + p0_eff[m]
        flat0[slot] = busy
        arrival_rows[m] = arrival
        if n_nets > 1 and casc_any[1][m]:
            avail = busy * casc_f[1][m]
            for lvl in range(1, n_nets):
                if not casc_any[lvl][m]:
                    break
                slot = free_t[lvl].argmin(axis=1)
                slot += row_off[lvl]
                flat = flat_t[lvl]
                nxt = maximum(flat[slot], avail) + p_eff[lvl][m]
                flat[slot] = nxt
                if lvl + 1 < n_nets:
                    avail = nxt * casc_f[lvl + 1][m]
    # The padded tail: shorter groups have run dry (src == 0), so ops
    # subset down to the still-active columns.
    for m in range(min_misses, max_misses):
        src = src_c[m]
        prev = prev_buf
        avail = avail_buf
        prev[:] = 0.0
        # A zero row contributes nothing to any gate's arrival maximum
        # (the accumulators never go negative), so inactive columns are
        # exact no-ops in the segmented reduction below.
        arrival_rows[m] = 0.0
        for k in range(n_nets - 1, 0, -1):
            idx = flatnonzero(src > k)
            if idx.size == 0:
                continue
            arr = free_t[k]
            lane = arr.argmin(axis=1)[idx]
            start = maximum(arr[idx, lane], prev[idx])
            busy = start + demote[k, idx]
            arr[idx, lane] = busy
            prev[idx] = busy
        idx = flatnonzero(src)
        if idx.size == 0:
            continue
        evcl = evcl_c[m]
        lane = arr0.argmin(axis=1)[idx]
        start = maximum(arr0[idx, lane], prev[idx])
        arrival = start + d0[idx]
        busy = arrival + p0[idx] * (evcl[idx] > 0)
        arr0[idx, lane] = busy
        avail[idx] = busy
        arrival_rows[m][idx] = arrival
        for lvl in range(1, n_nets):
            idx = flatnonzero(evcl > lvl)
            if idx.size == 0:
                break
            arr = free_t[lvl]
            lane = arr.argmin(axis=1)[idx]
            start2 = maximum(arr[idx, lane], avail[idx])
            nxt = start2 + promote[lvl, idx]
            arr[idx, lane] = nxt
            avail[idx] = nxt

    # Fold each gate's arrival maximum out of its miss rows.  A gate's
    # misses occupy consecutive rows (``gate_nmiss`` counts them), so
    # one segmented max per group reproduces the sequential per-miss
    # fold exactly.  Trailing miss-free gates are left at zero rather
    # than passed to ``reduceat`` (whose degenerate segments would read
    # out of bounds); interior miss-free gates yield degenerate
    # segments that are overwritten with the 0.0 the reference uses.
    arrivals = np.zeros((max_gates, n_cols))
    offset = 0
    for trace, stacks in prepared:
        sl = slice(offset, offset + len(stacks))
        offset += len(stacks)
        if trace.n_misses == 0:
            continue
        nmiss = np.asarray(trace.gate_nmiss, dtype=np.int64)
        last = int(np.nonzero(nmiss)[0][-1])
        starts = np.zeros(last + 1, dtype=np.int64)
        np.cumsum(nmiss[:last], out=starts[1:])
        seg = np.maximum.reduceat(
            arrival_rows[: trace.n_misses, sl], starts, axis=0
        )
        seg[nmiss[: last + 1] == 0] = 0.0
        arrivals[: last + 1, sl] = seg

    # ---- phase 2: the gate streams, all columns in lockstep ---------
    where = np.where
    compute_free = np.zeros(n_cols)
    transfer_wait = np.zeros(n_cols)
    compute_time = np.zeros(n_cols)
    for i in range(max_gates):
        gate_arrivals = arrivals[i]
        start = maximum(compute_free, gate_arrivals)
        delta = gate_arrivals - compute_free
        # Adding 0.0 where there was no wait preserves bits (the
        # accumulators never go negative, so x + 0.0 == x exactly).
        transfer_wait += where(delta > 0.0, delta, 0.0)
        duration = durations[i]
        compute_free = start + duration
        compute_time = compute_time + duration

    results: List[List[HierarchyEngineResult]] = []
    c = 0
    for trace, stacks in prepared:
        group_rows = []
        for stack in stacks:
            group_rows.append(
                _result_from_trace(
                    trace,
                    stack,
                    float(compute_free[c]),
                    float(compute_time[c]),
                    float(transfer_wait[c]),
                )
            )
            c += 1
        results.append(group_rows)
    return results
