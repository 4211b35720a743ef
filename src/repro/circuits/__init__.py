"""Logical circuits: gate IR, DAG analysis, workload generators, ISA.

This package owns everything the simulators consume as *programs*:
the :class:`Circuit` gate IR and its operand traces
(:mod:`repro.circuits.circuit`), dependency analysis
(:mod:`repro.circuits.dag`), the concrete generators — Draper
carry-lookahead adder, QFT, Shor modular exponentiation — and the
workload registry (:mod:`repro.circuits.workloads`) that gives sweeps
stable names and cell keys.  :mod:`repro.circuits.isa` is the
cache-control instruction encoding.  Circuits are code-agnostic:
encoding choices enter only when a circuit meets a
:class:`repro.sim.levels.HierarchyStack`.
"""

from .circuit import Circuit
from .dag import CircuitDag, parallelism_series
from .draper import (
    AdderLayout,
    AdderStats,
    DraperAdder,
    adder_stats,
    carry_lookahead_adder,
)
from .gates import (
    Gate,
    GateKind,
    TOFFOLI_TRAFFIC_QUBITS,
    cnot_gate,
    cphase_gate,
    h_gate,
    toffoli_gate,
    x_gate,
)
from .isa import IsaError, assemble, assemble_line, disassemble, round_trip
from .modexp import (
    ModExpWorkload,
    cached_adder_stats,
    modexp_addition_trace,
    modexp_logical_qubits,
    serial_adder_depth,
    total_additions,
)
from .qft import QftCommunication, qft_circuit, qft_gate_counts
from .shor import ShorEstimate, shor_estimate, shor_kq
from .workloads import (
    WorkloadSpec,
    available_workloads,
    build_workload,
    get_workload,
    register_workload,
)

__all__ = [
    "AdderLayout",
    "AdderStats",
    "Circuit",
    "CircuitDag",
    "DraperAdder",
    "Gate",
    "GateKind",
    "IsaError",
    "ModExpWorkload",
    "QftCommunication",
    "ShorEstimate",
    "TOFFOLI_TRAFFIC_QUBITS",
    "WorkloadSpec",
    "shor_estimate",
    "shor_kq",
    "adder_stats",
    "assemble",
    "available_workloads",
    "build_workload",
    "get_workload",
    "register_workload",
    "assemble_line",
    "cached_adder_stats",
    "carry_lookahead_adder",
    "cnot_gate",
    "cphase_gate",
    "disassemble",
    "h_gate",
    "modexp_addition_trace",
    "modexp_logical_qubits",
    "parallelism_series",
    "qft_circuit",
    "qft_gate_counts",
    "round_trip",
    "serial_adder_depth",
    "toffoli_gate",
    "total_additions",
    "x_gate",
]
