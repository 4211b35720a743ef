"""Reference objects of the shipped prefetchers (test code).

The split-transaction engine (:mod:`repro.sim.fastsplit`) runs
``none`` as plain demand fetching and ``next_k``/``distance`` as
hand-flattened walks over a sorted next-use index;
``repro.sim.prefetch`` keeps only the
:class:`~repro.sim.prefetch.Prefetcher` interface and the registry of
user prefetchers.  These classes are the specification those walks are
pinned against: the reference split-transaction engine of
``oracles.levels`` drives them, and test-local prefetchers build on
them.

:func:`oracle_prefetcher` is the name lookup the oracles use: the class
below for a shipped name, the registry
(:func:`repro.sim.prefetch.make_prefetcher`) for any user-registered
one.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Tuple

from repro.circuits.circuit import TraceIndex
from repro.sim.prefetch import Prefetcher, make_prefetcher

__all__ = [
    "DistancePrefetcher",
    "NextKPrefetcher",
    "NonePrefetcher",
    "ORACLE_PREFETCHERS",
    "oracle_prefetcher",
]


class NonePrefetcher(Prefetcher):
    """Demand fetching only — never proposes a promotion."""

    name = "none"

    def candidates(
        self, pos: int, location: Mapping[int, int]
    ) -> List[int]:
        return []


class _OrderWalker(Prefetcher):
    """Shared scan: the next ``k`` distinct *non-resident* qubits.

    The walk measures depth in prefetch candidates, not raw operand
    slots: a stretch of the schedule that is already resident costs no
    lookahead (the window would otherwise stop sliding whenever a
    long-latency miss stalls the issue pointer, collapsing the
    pipeline to one transfer per round trip).  ``horizon`` bounds the
    scan so a run never goes quadratic in the trace length.
    """

    def __init__(self, k: int, horizon_factor: int = 8,
                 min_horizon: int = 512) -> None:
        if k < 1:
            raise ValueError("prefetch depth must be positive")
        self.k = k
        self.horizon = max(horizon_factor * k, min_horizon)

    def _walk(
        self, pos: int, location: Mapping[int, int]
    ) -> List[Tuple[int, int]]:
        """(trace offset, qubit) of upcoming non-resident operands."""
        found: List[Tuple[int, int]] = []
        seen = set()
        for j, q in enumerate(self._trace[pos + 1: pos + 1 + self.horizon]):
            if q in seen:
                continue
            seen.add(q)
            if location.get(q, 0) != 0:
                found.append((j, q))
                if len(found) >= self.k:
                    break
        return found


class NextKPrefetcher(_OrderWalker):
    """Promote the next ``k`` distinct non-resident operands, in trace
    order — the straight exact-prefetch walk down the fetch schedule.

    ``k`` bounds how many prefetches are proposed per issue point; it
    should comfortably exceed the stack's total port count or the
    ports starve between gates.
    """

    name = "next_k"

    def __init__(self, k: int = 64) -> None:
        super().__init__(k)

    def candidates(
        self, pos: int, location: Mapping[int, int]
    ) -> List[int]:
        return [q for _, q in self._walk(pos, location)]


class DistancePrefetcher(Prefetcher):
    """The ``next_k`` walk re-ranked by hop distance: deepest first.

    A qubit more levels down crosses more (and slower) networks, so
    its transfer chain is started earliest; ties break toward trace
    order.  Same candidate set as ``next_k`` — only the issue order
    differs.
    """

    name = "distance"

    def __init__(self, k: int = 64) -> None:
        self._walker = _OrderWalker(k)

    def reset(
        self, trace: Sequence[int], index: TraceIndex, depth: int
    ) -> None:
        super().reset(trace, index, depth)
        self._walker.reset(trace, index, depth)

    def candidates(
        self, pos: int, location: Mapping[int, int]
    ) -> List[int]:
        ranked = [
            (-location.get(q, 0), j, q)
            for j, q in self._walker._walk(pos, location)
        ]
        ranked.sort()
        return [q for _, _, q in ranked]


#: Shipped prefetcher name -> its reference class.
ORACLE_PREFETCHERS = {
    cls.name: cls
    for cls in (NonePrefetcher, NextKPrefetcher, DistancePrefetcher)
}


def oracle_prefetcher(name: str) -> Prefetcher:
    """A fresh prefetcher object for ``name``: the reference class of a
    shipped prefetcher, else the registered user prefetcher."""
    cls = ORACLE_PREFETCHERS.get(name)
    return cls() if cls is not None else make_prefetcher(name)
