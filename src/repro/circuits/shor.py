"""End-to-end Shor's-algorithm resource model (Section 6).

Combines the two components the paper analyzes — modular exponentiation
(Toffoli-dominated, Section 6.1) and the quantum Fourier transform
(communication-dominated) — into a single factoring-instance estimate:
logical qubits, serial gate slots, wall-clock time on a CQLA design,
and the K*Q reliability product the fidelity budget consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .modexp import modexp_logical_qubits, serial_adder_depth
from .qft import qft_gate_counts


@dataclass(frozen=True)
class ShorEstimate:
    """Resource estimate for factoring one n-bit number."""

    n_bits: int
    logical_qubits: int
    modexp_serial_adders: int
    qft_gates: int
    modexp_time_s: float
    qft_time_s: float

    @property
    def total_time_s(self) -> float:
        return self.modexp_time_s + self.qft_time_s

    @property
    def total_time_days(self) -> float:
        return self.total_time_s / 86400.0

    @property
    def qft_fraction(self) -> float:
        """QFT share of total runtime — small, per Section 6.1."""
        return self.qft_time_s / self.total_time_s if self.total_time_s else 0.0


def shor_estimate(code_key: str, n_bits: int, n_blocks: int) -> ShorEstimate:
    """Estimate a Shor run on a CQLA design point.

    Modular exponentiation runs at level 2 on the design's compute
    blocks; the QFT (2n-qubit register) is appended at the same level.
    """
    from ..ecc.concatenated import by_key
    from ..sim.scheduler import adder_balanced_slots
    from .qft import qft_gate_counts

    code = by_key(code_key)
    op_s = code.logical_op_time_s(2)
    adders = serial_adder_depth(n_bits)
    adder_slots = adder_balanced_slots(n_bits, n_blocks)
    modexp_time = adders * adder_slots * op_s

    qft_width = 2 * n_bits  # the phase-estimation register
    h_count, cp_count = qft_gate_counts(qft_width)
    # Controlled-phase gates cost two two-qubit slots; rotations fold in.
    qft_time = (2 * cp_count + h_count) * op_s
    return ShorEstimate(
        n_bits=n_bits,
        logical_qubits=modexp_logical_qubits(n_bits) + qft_width,
        modexp_serial_adders=adders,
        qft_gates=h_count + cp_count,
        modexp_time_s=modexp_time,
        qft_time_s=qft_time,
    )


def shor_kq(code_key: str, n_bits: int, n_blocks: int) -> float:
    """K*Q of the full factoring run (fidelity-budget input)."""
    from ..sim.scheduler import adder_balanced_slots

    estimate = shor_estimate(code_key, n_bits, n_blocks)
    slots = estimate.modexp_serial_adders * adder_balanced_slots(
        n_bits, n_blocks
    ) + 2 * estimate.qft_gates
    return float(slots) * estimate.logical_qubits
