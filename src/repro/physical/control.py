"""Laser-control cost model (the paper's Section 7 future work).

"For ion-traps, lasers can also be a control issue... minimize the
number of lasers and minimize the power consumed by each laser, since
power is proportional to fanout.  Efficiently routing control signals to
all electrodes in an ion-trap is a challenging proposition."

This module provides that analysis for CQLA floorplans: laser-bank
counts from concurrent-gate requirements, per-laser power from MEMS
fanout, and electrode-signal counts per region — allowing control cost
to be traded against the block counts chosen in the design space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .params import DEFAULT_PARAMS, PhysicalParams

if TYPE_CHECKING:  # avoid the physical -> arch -> ecc -> physical cycle
    from ..arch.regions import CqlaFloorplan

#: Ions one laser bank can address concurrently through a MEMS mirror
#: array (Kim et al., cited in Section 2.2).
MEMS_FANOUT = 32

#: Relative power of one laser bank driving ``f`` targets: proportional
#: to fanout, normalized to one target.
def laser_power(fanout: int) -> float:
    if fanout < 1:
        raise ValueError("fanout must be positive")
    return float(fanout)


#: Control electrodes per trapping region (Section 2.2: ~10).
ELECTRODES_PER_REGION = 10


@dataclass(frozen=True)
class ControlBudget:
    """Laser and electrode-signal requirements of one floorplan."""

    laser_banks: int
    total_fanout: int
    electrode_signals: int

    @property
    def power_per_bank(self) -> float:
        return self.total_fanout / self.laser_banks if self.laser_banks else 0.0


def concurrent_gate_sites(plan: "CqlaFloorplan") -> int:
    """Upper bound on simultaneously pulsed ion sites.

    Every compute block may run one logical transversal gate (its data
    sub-qubits pulse together), memory interleaves error corrections at
    the 8:1 ancilla sharing rate, and the cache ECs with compute-like
    density at level 1.
    """
    from ..ecc.concatenated import by_key

    code = by_key(plan.code_key)
    per_l2_gate = code.data_ions(2)
    sites = plan.l2_blocks * per_l2_gate
    memory_ec_groups = plan.memory.ancilla_qubits  # one EC per shared ancilla
    sites += memory_ec_groups * code.data_ions(2)
    if plan.l1_blocks:
        sites += plan.l1_blocks * code.data_ions(1)
        sites += plan.cache.capacity * code.data_ions(1) // 8
    return sites


def control_budget(
    plan: "CqlaFloorplan",
    params: PhysicalParams = DEFAULT_PARAMS,
) -> ControlBudget:
    """Laser-bank count, fanout and electrode signals for a floorplan."""
    fanout = concurrent_gate_sites(plan)
    banks = math.ceil(fanout / MEMS_FANOUT)
    area_mm2 = plan.area_mm2()
    regions = area_mm2 * 1.0e6 / params.region_area_um2
    signals = int(round(regions * ELECTRODES_PER_REGION))
    return ControlBudget(
        laser_banks=banks,
        total_fanout=fanout,
        electrode_signals=signals,
    )


def qla_control_budget(
    n_bits: int,
    params: PhysicalParams = DEFAULT_PARAMS,
) -> ControlBudget:
    """The same budget for the sea-of-qubits baseline.

    Every QLA site may compute concurrently (that is its premise), so
    the fanout covers every logical qubit's data ions — the control
    burden the CQLA's specialization avoids.
    """
    from ..arch.qla import QlaMachine
    from ..ecc.concatenated import steane_concatenated

    qla = QlaMachine(n_bits)
    code = steane_concatenated()
    fanout = qla.logical_qubits * 3 * code.data_ions(2)  # data + 2 ancilla
    banks = math.ceil(fanout / MEMS_FANOUT)
    regions = qla.area_mm2() * 1.0e6 / params.region_area_um2
    return ControlBudget(
        laser_banks=banks,
        total_fanout=fanout,
        electrode_signals=int(round(regions * ELECTRODES_PER_REGION)),
    )


def control_reduction(plan: "CqlaFloorplan", n_bits: int) -> float:
    """Factor by which the CQLA cuts laser-bank requirements vs QLA."""
    cqla = control_budget(plan)
    qla = qla_control_budget(n_bits)
    return qla.laser_banks / cqla.laser_banks
