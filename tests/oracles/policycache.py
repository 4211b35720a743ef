"""The policy-driven resident set of the reference engines (test code).

:class:`PolicyCache` pairs an :class:`~repro.sim.policies.EvictionPolicy`
with a resident set and the :class:`~repro.sim.cache.CacheStats`
counters; with the ``lru`` policy its event stream is exactly that of
:class:`~repro.sim.cache.LruCache`.  The oracle engines in
``oracles.levels`` run one per finite level; the production engines
drive the policy objects through :mod:`repro.sim.flatpolicy` instead.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Optional, Sequence, Tuple

from repro.sim.cache import CacheStats
from repro.sim.policies import EvictionPolicy

__all__ = ["PolicyCache"]


class PolicyCache:
    """A finite hierarchy level: resident qubits, a policy, counters.

    Mirrors :class:`~repro.sim.cache.LruCache` (same
    :class:`~repro.sim.cache.CacheStats` semantics) but delegates victim
    selection, and adds the two extra operations a multi-level exclusive
    hierarchy needs: :meth:`lookup_remove` (a hit at an intermediate
    level pulls the qubit out — qubits are uncopyable) and
    :meth:`insert` (a write-back demoted from the level above, which is
    not an access).
    """

    def __init__(
        self,
        capacity: int,
        policy: EvictionPolicy,
        trace: Sequence[int] = (),
    ) -> None:
        if capacity < 2:
            raise ValueError(
                "cache capacity must be at least 2 (a two-operand gate "
                "needs both operands resident at once)"
            )
        self.capacity = capacity
        self.policy = policy
        policy.reset(capacity, trace)
        self._resident: Dict[int, None] = {}
        self.stats = CacheStats(capacity=capacity)

    def __contains__(self, qubit: int) -> bool:
        return qubit in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    def resident(self) -> List[int]:
        return list(self._resident)

    def access_evicting(
        self, qubit: int, pos: int, pinned: Collection[int] = ()
    ) -> Tuple[bool, Optional[int]]:
        """Operand access: ``(hit, evicted_qubit_or_None)``.

        ``pinned`` qubits are exempt from victim selection — the
        operands of the gate currently issuing cannot be teleported
        away mid-gate.
        """
        self.stats.accesses += 1
        if qubit in self._resident:
            self.stats.hits += 1
            self.policy.on_hit(qubit, pos)
            return True, None
        self.stats.misses += 1
        return False, self._insert(qubit, pos, pinned)

    def lookup_remove(self, qubit: int, pos: int) -> bool:
        """Search for ``qubit``; a hit removes it (pulled up a level)."""
        self.stats.accesses += 1
        if qubit in self._resident:
            self.stats.hits += 1
            del self._resident[qubit]
            self.policy.on_remove(qubit)
            return True
        self.stats.misses += 1
        return False

    def record_miss(self) -> None:
        """A search passed through this level without finding its qubit."""
        self.stats.accesses += 1
        self.stats.misses += 1

    def remove(self, qubit: int) -> None:
        """Pull ``qubit`` out without touching the access counters.

        Prefetch promotions use this: a prefetch is not a demand
        access, so it must not perturb the level's hit statistics.
        """
        del self._resident[qubit]
        self.policy.on_remove(qubit)

    def peek_victim(
        self, pos: int, pinned: Collection[int] = ()
    ) -> Optional[int]:
        """The qubit the policy would evict now, without evicting it.

        ``None`` while the level still has free capacity.  Note the
        unsatisfiable-pin fallback applies: the returned qubit may be
        pinned if every resident is — callers vetoing on the victim
        must check membership themselves.
        """
        if len(self._resident) < self.capacity:
            return None
        return self.policy.victim(pos, pinned)

    def insert(
        self, qubit: int, pos: int, pinned: Collection[int] = ()
    ) -> Optional[int]:
        """Accept a non-access insertion (a write-back demoted from the
        level above, or a prefetched promotion); returns the displaced
        qubit."""
        return self._insert(qubit, pos, pinned)

    def _insert(
        self, qubit: int, pos: int, pinned: Collection[int]
    ) -> Optional[int]:
        evicted: Optional[int] = None
        if len(self._resident) >= self.capacity:
            evicted = self.policy.victim(pos, pinned)
            del self._resident[evicted]
            self.policy.on_remove(evicted)
            self.stats.evictions += 1
        self._resident[qubit] = None
        self.policy.on_insert(qubit, pos)
        return evicted
