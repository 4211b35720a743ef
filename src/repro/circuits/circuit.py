"""Logical-circuit container with classical simulation support.

A :class:`Circuit` is an ordered gate list over ``n_qubits`` logical
qubits.  Circuits built from classical reversible gates (X / CNOT /
Toffoli) can be executed directly on computational-basis states, which
is how the test suite proves the Draper adder actually adds.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .gates import Gate, GateKind


@dataclass
class Circuit:
    """An ordered logical-gate program."""

    n_qubits: int
    gates: List[Gate] = field(default_factory=list)
    name: str = ""

    def __post_init__(self) -> None:
        if self.n_qubits <= 0:
            raise ValueError("a circuit needs at least one qubit")
        for gate in self.gates:
            self._check(gate)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _check(self, gate: Gate) -> None:
        if max(gate.qubits) >= self.n_qubits:
            raise ValueError(
                f"gate {gate.label()} outside circuit of {self.n_qubits} qubits"
            )

    def append(self, gate: Gate) -> None:
        self._check(gate)
        self.gates.append(gate)

    def extend(self, gates: Iterable[Gate]) -> None:
        for gate in gates:
            self.append(gate)

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def gate_counts(self) -> Dict[GateKind, int]:
        counts: Dict[GateKind, int] = {}
        for gate in self.gates:
            counts[gate.kind] = counts.get(gate.kind, 0) + 1
        return counts

    def count(self, kind: GateKind) -> int:
        return sum(1 for g in self.gates if g.kind is kind)

    @property
    def toffoli_count(self) -> int:
        return self.count(GateKind.TOFFOLI)

    def total_ec_slots(self) -> int:
        """Total work in gate-EC periods (the paper's time unit)."""
        return sum(g.ec_slots for g in self.gates)

    def is_classical(self) -> bool:
        return all(g.kind.is_classical for g in self.gates)

    def touched_qubits(self) -> List[int]:
        seen = set()
        for gate in self.gates:
            seen.update(gate.qubits)
        return sorted(seen)

    def operand_trace(self, order: Optional[Sequence[int]] = None) -> List[int]:
        """The flattened operand stream of the (scheduled) program.

        ``order`` is a gate-index permutation (e.g. the optimized fetch
        schedule); ``None`` takes program order.  Quantum programs are
        fully scheduled at compile time, so this trace is static — it
        is the lookahead substrate for the score/Belady eviction
        policies and for exact prefetching.
        """
        gates = self.gates
        if order is None:
            return [q for g in gates for q in g.qubits]
        return [q for idx in order for q in gates[idx].qubits]

    # ------------------------------------------------------------------
    # classical simulation
    # ------------------------------------------------------------------
    def simulate_classical(self, bits: Sequence[int]) -> List[int]:
        """Run a reversible classical circuit on a basis state.

        ``bits[q]`` is the initial value of qubit ``q``; the final bit
        vector is returned.  Raises for circuits containing non-classical
        gates.
        """
        if len(bits) != self.n_qubits:
            raise ValueError("bit vector length must equal qubit count")
        state = [int(b) & 1 for b in bits]
        for gate in self.gates:
            if gate.kind is GateKind.X:
                (q,) = gate.qubits
                state[q] ^= 1
            elif gate.kind is GateKind.CNOT:
                c, t = gate.qubits
                state[t] ^= state[c]
            elif gate.kind is GateKind.TOFFOLI:
                c1, c2, t = gate.qubits
                state[t] ^= state[c1] & state[c2]
            else:
                raise ValueError(
                    f"gate {gate.label()} is not classically simulable"
                )
        return state

    # ------------------------------------------------------------------
    # composition
    # ------------------------------------------------------------------
    def concatenate(self, other: "Circuit", name: str = "") -> "Circuit":
        """Sequential composition (qubit spaces must match)."""
        if other.n_qubits != self.n_qubits:
            raise ValueError("circuits act on different qubit counts")
        return Circuit(
            n_qubits=self.n_qubits,
            gates=list(self.gates) + list(other.gates),
            name=name or f"{self.name}+{other.name}",
        )

    def reversed_classical(self) -> "Circuit":
        """The inverse of a self-inverse-gate (classical) circuit."""
        if not self.is_classical():
            raise ValueError("only classical circuits can be auto-reversed")
        return Circuit(
            n_qubits=self.n_qubits,
            gates=list(reversed(self.gates)),
            name=f"{self.name}^-1",
        )


#: Sentinel "never used again" distance for trace lookahead.
NEVER_USED = math.inf


@dataclass(frozen=True)
class TraceIndex:
    """Next-use lookup over a flattened operand trace.

    The index inverts a trace (see :meth:`Circuit.operand_trace`) into
    per-qubit sorted position lists, so "when is ``qubit`` next used
    after position ``pos``?" is one bisect.  This is the shared
    lookahead metadata behind Belady replacement and exact prefetching:
    the schedule is static, so next-use distances are compile-time
    facts, not oracle knowledge.
    """

    trace: Tuple[int, ...]
    positions: Dict[int, List[int]]

    @classmethod
    def build(cls, trace: Sequence[int]) -> "TraceIndex":
        positions: Dict[int, List[int]] = {}
        for i, q in enumerate(trace):
            positions.setdefault(q, []).append(i)
        return cls(trace=tuple(trace), positions=positions)

    def next_use(self, qubit: int, pos: int) -> float:
        """Trace position of ``qubit``'s first use after ``pos``.

        Returns :data:`NEVER_USED` when the qubit is never touched
        again (or never appears in the trace at all).
        """
        uses = self.positions.get(qubit)
        if not uses:
            return NEVER_USED
        idx = bisect_right(uses, pos)
        return uses[idx] if idx < len(uses) else NEVER_USED
