"""Pluggable eviction policies for the memory-hierarchy engine.

Replacement at every finite level of a :class:`~repro.sim.levels.HierarchyStack`
is named by a policy string.  Five policies ship with the engine
(:data:`SHIPPED_POLICIES`):

* ``lru`` — least recently used, the policy of the paper's Section 5.2
  cache study (and of the original two-level simulator, to which it is
  bit-identical);
* ``fifo`` — first-in first-out, the no-recency baseline;
* ``score`` — evict the resident qubit *least referenced by upcoming
  instructions* (the next :data:`SCORE_WINDOW` operand accesses, ties
  toward the least recently used), reusing the statically-known-program
  insight behind the incremental resident-operand scores of
  :mod:`repro.sim.cache`: quantum programs are fully scheduled at
  compile time, so a bounded lookahead over the fetch-ordered operand
  trace is legitimate compile-time information, not an oracle;
* ``belady`` — Belady's optimal offline replacement (evict the qubit
  whose next use is farthest in the future), the upper bound every
  online policy is measured against;
* ``fidelity`` — evict the qubit that can best afford the trip: fewest
  accumulated transfers first (each climb of the hierarchy accrues
  in-flight error under :mod:`repro.sim.residency`), ties broken
  Belady-style toward the farthest next use.

The shipped policies have no policy objects: the production engines
run them as the flattened state of :mod:`repro.sim.flatpolicy`, pinned
against reference classes kept as test oracles
(``tests/oracles/policies.py``).  A user policy subclasses
:class:`EvictionPolicy`, registers with :func:`register_policy`, and
runs through its real objects, one per finite level.  Policies observe
the flattened operand *trace* of the scheduled program at reset time
and receive the current trace position with every event, which is what
lets lookahead policies stay incremental.
"""

from __future__ import annotations

from typing import Callable, Collection, Dict, Sequence, Tuple, Type

#: The policies the engines run as flattened state, without policy
#: objects; :func:`register_policy` refuses these names.
SHIPPED_POLICIES = ("lru", "fifo", "score", "belady", "fidelity")

#: ``score``'s lookahead, in operand accesses.
SCORE_WINDOW = 256


class EvictionPolicy:
    """Replacement decisions for one finite hierarchy level.

    The engine calls :meth:`reset` once with the level capacity and the
    flattened operand trace of the scheduled program, then keeps the
    policy's view of the resident set in sync through
    :meth:`on_insert` / :meth:`on_hit` / :meth:`on_remove`.
    :meth:`victim` names the qubit to displace when the level is full;
    ``pos`` is always the index of the operand access currently being
    processed (cascaded demotions triggered by that access share its
    position), and ``pinned`` holds qubits that must not be chosen —
    operands of the gate currently issuing, which cannot be teleported
    away mid-gate.  When every resident is pinned (capacity smaller
    than the gate's operand count) the pin is unsatisfiable and the
    policy falls back to its unpinned choice.
    """

    name = "abstract"

    def reset(self, capacity: int, trace: Sequence[int]) -> None:
        pass

    def on_insert(self, qubit: int, pos: int) -> None:
        raise NotImplementedError

    def on_hit(self, qubit: int, pos: int) -> None:
        pass

    def on_remove(self, qubit: int) -> None:
        raise NotImplementedError

    def victim(self, pos: int, pinned: Collection[int] = ()) -> int:
        raise NotImplementedError


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

_REGISTRY: Dict[str, Callable[[], EvictionPolicy]] = {}


def register_policy(cls: Type[EvictionPolicy]) -> Type[EvictionPolicy]:
    """Class decorator adding a user :class:`EvictionPolicy` to the
    registry."""
    name = cls.name
    if not name or name == "abstract":
        raise ValueError("policy classes must set a concrete `name`")
    if name in SHIPPED_POLICIES:
        raise ValueError(
            f"eviction policy {name!r} ships with the engine, which runs "
            "it as flattened state; a class registered under that name "
            "would never run"
        )
    if name in _REGISTRY:
        raise ValueError(f"eviction policy {name!r} is already registered")
    _REGISTRY[name] = cls
    return cls


def validate_policy(name: str) -> None:
    """Raise ValueError unless ``name`` is a shipped or registered policy."""
    if name not in SHIPPED_POLICIES and name not in _REGISTRY:
        raise ValueError(
            f"unknown eviction policy {name!r}; registered policies: "
            f"{', '.join(available_policies())}"
        )


def make_policy(name: str) -> EvictionPolicy:
    """A fresh instance of the user policy registered as ``name``."""
    if name in SHIPPED_POLICIES:
        raise ValueError(
            f"eviction policy {name!r} ships with the engine as flattened "
            "state (repro.sim.flatpolicy) and has no policy object"
        )
    validate_policy(name)
    return _REGISTRY[name]()


def available_policies() -> Tuple[str, ...]:
    """Every policy name the engines accept (shipped and registered),
    sorted."""
    return tuple(sorted(SHIPPED_POLICIES + tuple(_REGISTRY)))
