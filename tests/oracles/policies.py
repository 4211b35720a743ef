"""Reference objects of the five shipped eviction policies (test code).

The production engines decide replacement for ``lru``, ``fifo``,
``score``, ``belady`` and ``fidelity`` through the flattened kernel of
:mod:`repro.sim.flatpolicy`; ``repro.sim.policies`` keeps only the
:class:`~repro.sim.policies.EvictionPolicy` interface and the registry
of user policies.  These classes are the specification that kernel is
pinned against: the reference engines of ``oracles.levels`` drive them
through :class:`~oracles.policycache.PolicyCache`, and the
adapter-exactness tests register subclasses of them under new names so
they run through the kernel's real-object path.

:func:`oracle_policy` is the name lookup the oracles use: the class
below for a shipped name, the registry (:func:`repro.sim.policies.make_policy`)
for any user-registered one.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Collection, Dict, Sequence

from repro.circuits.circuit import NEVER_USED, TraceIndex
from repro.sim.policies import SCORE_WINDOW, EvictionPolicy, make_policy

__all__ = [
    "BeladyPolicy",
    "FidelityPolicy",
    "FifoPolicy",
    "LruPolicy",
    "ORACLE_POLICIES",
    "ScorePolicy",
    "oracle_policy",
]

#: Sentinel "never used again" distance for Belady victim selection.
_NEVER = NEVER_USED


class _RecencyOrdered(EvictionPolicy):
    """Shared recency bookkeeping: an OrderedDict of residents, hits
    refreshed to the back.  Subclasses inherit LRU recency (which the
    lookahead policies use for tie-breaking); FIFO opts out."""

    def reset(self, capacity: int, trace: Sequence[int]) -> None:
        self._order: "OrderedDict[int, None]" = OrderedDict()

    def on_insert(self, qubit: int, pos: int) -> None:
        self._order[qubit] = None

    def on_hit(self, qubit: int, pos: int) -> None:
        self._order.move_to_end(qubit)

    def on_remove(self, qubit: int) -> None:
        del self._order[qubit]

    def victim(self, pos: int, pinned: Collection[int] = ()) -> int:
        for qubit in self._order:
            if qubit not in pinned:
                return qubit
        return next(iter(self._order))  # unsatisfiable pin: fall back


class LruPolicy(_RecencyOrdered):
    """Least recently used — evict the longest-untouched resident."""

    name = "lru"


class FifoPolicy(_RecencyOrdered):
    """First-in first-out — hits do not refresh a resident's age."""

    name = "fifo"

    def on_hit(self, qubit: int, pos: int) -> None:
        pass


class ScorePolicy(_RecencyOrdered):
    """Evict the resident qubit least used in the next ``window`` accesses.

    Scores are occurrence counts over a sliding lookahead window of the
    operand trace, maintained incrementally (two counter updates per
    trace step).  Ties break toward the least recently used resident,
    so with an empty window the policy degenerates to LRU.
    """

    name = "score"

    def __init__(self, window: int = SCORE_WINDOW) -> None:
        if window < 1:
            raise ValueError("score lookahead window must be positive")
        self.window = window

    def reset(self, capacity: int, trace: Sequence[int]) -> None:
        super().reset(capacity, trace)
        self._trace = trace
        self._pos = -1
        self._counts: Dict[int, int] = {}
        for q in trace[: self.window]:
            self._counts[q] = self._counts.get(q, 0) + 1

    def _sync(self, pos: int) -> None:
        """Slide the window so it covers trace[pos+1 : pos+1+window]."""
        trace, counts, window = self._trace, self._counts, self.window
        while self._pos < pos:
            self._pos += 1
            leaving = trace[self._pos]
            remaining = counts.get(leaving, 0) - 1
            if remaining > 0:
                counts[leaving] = remaining
            else:
                counts.pop(leaving, None)
            entering = self._pos + window
            if entering < len(trace):
                q = trace[entering]
                counts[q] = counts.get(q, 0) + 1

    def victim(self, pos: int, pinned: Collection[int] = ()) -> int:
        self._sync(pos)
        counts = self._counts
        best = None
        best_score = None
        for qubit in self._order:  # LRU-first iteration breaks ties
            if qubit in pinned:
                continue
            score = counts.get(qubit, 0)
            if best_score is None or score < best_score:
                best, best_score = qubit, score
                if score == 0:
                    break
        if best is None:  # unsatisfiable pin: fall back
            return next(iter(self._order))
        return best


class BeladyPolicy(_RecencyOrdered):
    """Belady's optimal offline replacement (farthest next use).

    The full access trace is available — the program schedule is static
    — so this is the exact replacement-optimal upper bound, not an
    approximation.  Residents that are never used again evict first
    (ties toward the least recently used).
    """

    name = "belady"

    def reset(self, capacity: int, trace: Sequence[int]) -> None:
        super().reset(capacity, trace)
        # The same static-schedule lookahead metadata the prefetchers
        # use (one shared implementation of "when is q needed next?").
        self._index = TraceIndex.build(trace)

    def _next_use(self, qubit: int, pos: int) -> float:
        return self._index.next_use(qubit, pos)

    def victim(self, pos: int, pinned: Collection[int] = ()) -> int:
        best = None
        best_dist = -1.0
        for qubit in self._order:  # LRU-first iteration breaks ties
            if qubit in pinned:
                continue
            dist = self._next_use(qubit, pos)
            if dist == _NEVER:
                return qubit
            if dist > best_dist:
                best, best_dist = qubit, dist
        if best is None:  # unsatisfiable pin: fall back
            return next(iter(self._order))
        return best


class FidelityPolicy(_RecencyOrdered):
    """Evict the qubit that can best afford the trip.

    Under noise-aware residency (:mod:`repro.sim.residency`) every
    transfer costs fidelity: an in-flight qubit accrues error at the
    worse endpoint's rate, so the qubit with the fewest accumulated
    trips has the most error budget left for one more.  Victims are
    ranked by (insertion count so far, then *farthest* next use, then
    LRU order) — the last two mirror Belady so the policy spends its
    fidelity-driven choices where the time cost is smallest.  Like
    ``score``/``belady``, the trip counts derive from the static
    schedule the engine replays, not from runtime oracle knowledge.
    """

    name = "fidelity"

    def reset(self, capacity: int, trace: Sequence[int]) -> None:
        super().reset(capacity, trace)
        self._index = TraceIndex.build(trace)
        #: Lifetime insertion counts — the ledger persists across
        #: evictions so a re-fetched qubit is charged its history.
        self._trips: Dict[int, int] = {}
        #: trip count -> number of *current* residents at it, so the
        #: minimal trip class is known without scanning the order.
        self._resident_trips: Dict[int, int] = {}

    def on_insert(self, qubit: int, pos: int) -> None:
        super().on_insert(qubit, pos)
        # Every insertion at this level is one completed (or issued)
        # climb of the hierarchy — the trip ledger the victim ranking
        # charges against.
        count = self._trips.get(qubit, 0) + 1
        self._trips[qubit] = count
        tally = self._resident_trips
        tally[count] = tally.get(count, 0) + 1

    def on_remove(self, qubit: int) -> None:
        super().on_remove(qubit)
        count = self._trips[qubit]
        tally = self._resident_trips
        remaining = tally[count] - 1
        if remaining:
            tally[count] = remaining
        else:
            del tally[count]

    def victim(self, pos: int, pinned: Collection[int] = ()) -> int:
        # The tally pins down the minimal trip class, so the next-use
        # lookups (the expensive part) only run for its members — a
        # pinned resident can hide the class, in which case the scan
        # recomputes the minimum the slow way.
        trips = self._trips
        if pinned:
            fewest = None
            for qubit in self._order:
                if qubit not in pinned:
                    count = trips[qubit]
                    if fewest is None or count < fewest:
                        fewest = count
            if fewest is None:  # unsatisfiable pin: fall back
                return next(iter(self._order))
        else:
            fewest = min(self._resident_trips)
        best = None
        best_dist = -1.0
        for qubit in self._order:  # LRU-first iteration breaks ties
            if qubit in pinned or trips[qubit] != fewest:
                continue
            dist = self._index.next_use(qubit, pos)
            if dist == _NEVER:
                return qubit
            if dist > best_dist:
                best, best_dist = qubit, dist
        return best


#: Shipped policy name -> its reference class.
ORACLE_POLICIES = {
    cls.name: cls
    for cls in (LruPolicy, FifoPolicy, ScorePolicy, BeladyPolicy,
                FidelityPolicy)
}


def oracle_policy(name: str) -> EvictionPolicy:
    """A fresh policy object for ``name``: the reference class of a
    shipped policy, else the registered user policy."""
    cls = ORACLE_POLICIES.get(name)
    return cls() if cls is not None else make_policy(name)
