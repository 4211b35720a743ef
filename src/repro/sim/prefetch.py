"""Exact prefetchers for the split-transaction hierarchy engine.

The optimized fetch schedule is *static* — every future operand access
is known at compile time — so prefetching here is exact, not
speculative: a prefetcher walks the scheduled operand trace ahead of
the issue point and names qubits worth promoting into idle transfer
ports before their demand use.  The engine pins a prefetched qubit
against eviction until its first use and vetoes any prefetch whose
eviction victim would be needed *sooner* than the prefetched qubit
(next-use distances come from the shared
:class:`~repro.circuits.circuit.TraceIndex`), so an exact prefetch can
reorder transfers but never inject a miss the demand schedule would not
have taken.

Three prefetchers ship with the engine (:data:`SHIPPED_PREFETCHERS`):

* ``none`` — demand fetching only (the reference behavior);
* ``next_k`` — promote the next ``k`` distinct upcoming operands that
  are not already at the compute level, in trace order;
* ``distance`` — the same ``next_k`` candidate walk re-ranked by hop
  distance: the deepest qubits issue first, so the slow bottom
  networks see their requests earliest.

The shipped prefetchers have no prefetcher objects: the
split-transaction engine (:mod:`repro.sim.fastsplit`) runs ``none`` as
demand fetching and the two walks hand-flattened, pinned against
reference classes kept as test oracles (``tests/oracles/prefetch.py``).
A user prefetcher subclasses :class:`Prefetcher` and registers with
:func:`register_prefetcher`; the engine instantiates one fresh object
per run via :func:`make_prefetcher`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Sequence, Tuple, Type

from ..circuits.circuit import TraceIndex

__all__ = [
    "Prefetcher",
    "SHIPPED_PREFETCHERS",
    "available_prefetchers",
    "make_prefetcher",
    "register_prefetcher",
    "validate_prefetcher",
]


#: The prefetchers the engine runs without prefetcher objects;
#: :func:`register_prefetcher` refuses these names.
SHIPPED_PREFETCHERS = ("none", "next_k", "distance")


class Prefetcher:
    """Walks the static operand trace ahead of the issue point.

    The engine calls :meth:`reset` once with the scheduled trace, its
    :class:`~repro.circuits.circuit.TraceIndex`, and the stack depth,
    then :meth:`candidates` at every gate issue.  ``candidates`` names
    qubits worth promoting, best first; the engine filters them against
    residency, in-flight transfers, pinning budget and the exactness
    veto, so a prefetcher only ranks — it never moves anything itself.
    """

    name = "abstract"

    def reset(
        self, trace: Sequence[int], index: TraceIndex, depth: int
    ) -> None:
        self._trace = trace
        self._index = index
        self._depth = depth

    def candidates(
        self, pos: int, location: Mapping[int, int]
    ) -> List[int]:
        """Qubits to promote, best first.

        ``pos`` is the trace position of the operand about to issue;
        ``location`` maps each qubit to its current stack level (0 is
        the compute level).
        """
        raise NotImplementedError


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

_REGISTRY: Dict[str, Callable[[], Prefetcher]] = {}


def register_prefetcher(cls: Type[Prefetcher]) -> Type[Prefetcher]:
    """Class decorator adding a user :class:`Prefetcher` to the
    registry."""
    name = cls.name
    if not name or name == "abstract":
        raise ValueError("prefetcher classes must set a concrete `name`")
    if name in SHIPPED_PREFETCHERS:
        raise ValueError(
            f"prefetcher {name!r} ships with the engine, which runs it "
            "without a prefetcher object; a class registered under that "
            "name would never run"
        )
    if name in _REGISTRY:
        raise ValueError(f"prefetcher {name!r} is already registered")
    _REGISTRY[name] = cls
    return cls


def validate_prefetcher(name: str) -> None:
    """Raise ValueError unless ``name`` is a shipped or registered
    prefetcher."""
    if name not in SHIPPED_PREFETCHERS and name not in _REGISTRY:
        raise ValueError(
            f"unknown prefetcher {name!r}; registered prefetchers: "
            f"{', '.join(available_prefetchers())}"
        )


def make_prefetcher(name: str) -> Prefetcher:
    """A fresh instance of the user prefetcher registered as ``name``,
    for one engine run."""
    if name in SHIPPED_PREFETCHERS:
        raise ValueError(
            f"prefetcher {name!r} ships with the engine "
            "(repro.sim.fastsplit) and has no prefetcher object"
        )
    validate_prefetcher(name)
    return _REGISTRY[name]()


def available_prefetchers() -> Tuple[str, ...]:
    """Every prefetcher name the engine accepts (shipped and
    registered), sorted."""
    return tuple(sorted(SHIPPED_PREFETCHERS + tuple(_REGISTRY)))
