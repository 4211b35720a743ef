"""Dependency analysis of logical circuits.

Builds the data-dependency DAG of a circuit (two gates conflict when
they share a qubit) and derives the quantities the paper's parallelism
study needs: ASAP levels, the dependence-only parallelism profile
(Figure 2's "unlimited resources" curve), critical-path length and
per-gate priorities for list scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .circuit import Circuit


@dataclass
class CircuitDag:
    """Dependency structure of one circuit.

    ``preds[i]``/``succs[i]`` are indices of gates immediately before /
    after gate ``i`` on some shared qubit; duplicates are removed.
    """

    circuit: Circuit
    preds: List[List[int]]
    succs: List[List[int]]

    @staticmethod
    def build(circuit: Circuit) -> "CircuitDag":
        last_writer: Dict[int, int] = {}
        preds: List[List[int]] = []
        succs: List[List[int]] = [[] for _ in circuit.gates]
        for i, gate in enumerate(circuit.gates):
            gate_preds = sorted({
                last_writer[q] for q in gate.qubits if q in last_writer
            })
            preds.append(gate_preds)
            for p in gate_preds:
                succs[p].append(i)
            for q in gate.qubits:
                last_writer[q] = i
        return CircuitDag(circuit=circuit, preds=preds, succs=succs)

    # ------------------------------------------------------------------
    # levels and profiles
    # ------------------------------------------------------------------
    def asap_levels(self) -> List[int]:
        """Earliest dependence level of each gate (unit gate latency)."""
        levels: List[int] = []
        for i in range(len(self.circuit.gates)):
            if self.preds[i]:
                levels.append(1 + max(levels[p] for p in self.preds[i]))
            else:
                levels.append(0)
        return levels

    def asap_start_slots(self) -> List[int]:
        """Earliest start in EC slots, honoring gate durations.

        A Toffoli occupies fifteen slots, everything else one — this is
        the weighted critical-path schedule with unlimited resources.
        """
        starts: List[int] = []
        finish: List[int] = []
        for i, gate in enumerate(self.circuit.gates):
            start = 0
            for p in self.preds[i]:
                start = max(start, finish[p])
            starts.append(start)
            finish.append(start + gate.ec_slots)
        return starts

    def depth(self) -> int:
        """Dependence depth in unit-gate levels."""
        levels = self.asap_levels()
        return (max(levels) + 1) if levels else 0

    def critical_path_slots(self) -> int:
        """Weighted critical path in EC slots (unlimited resources)."""
        if not self.circuit.gates:
            return 0
        starts = self.asap_start_slots()
        return max(
            s + g.ec_slots for s, g in zip(starts, self.circuit.gates)
        )

    def parallelism_profile(self) -> List[int]:
        """Gates in flight per unit level with unlimited resources.

        This is Figure 2's "Unlimited Resources" series: the histogram
        of gates over ASAP levels.
        """
        levels = self.asap_levels()
        if not levels:
            return []
        profile = [0] * (max(levels) + 1)
        for lvl in levels:
            profile[lvl] += 1
        return profile

    def max_parallelism(self) -> int:
        profile = self.parallelism_profile()
        return max(profile) if profile else 0

    # ------------------------------------------------------------------
    # scheduling support
    # ------------------------------------------------------------------
    def downstream_slack(self) -> List[int]:
        """Critical-path-to-exit of each gate in EC slots.

        Used as the list-scheduling priority: gates with the longest
        remaining dependent work schedule first.
        """
        n = len(self.circuit.gates)
        slack = [0] * n
        for i in range(n - 1, -1, -1):
            gate = self.circuit.gates[i]
            tail = max((slack[s] for s in self.succs[i]), default=0)
            slack[i] = gate.ec_slots + tail
        return slack

    def ready_at_start(self) -> List[int]:
        return [i for i, p in enumerate(self.preds) if not p]


def parallelism_series(circuit: Circuit) -> List[int]:
    """Convenience wrapper: Figure 2 profile for a circuit."""
    return CircuitDag.build(circuit).parallelism_profile()
