"""repro — reproduction of "Quantum Memory Hierarchies" (ISCA 2006).

A production-quality model of the Compressed Quantum Logic Array (CQLA)
of Thaker, Metodi, Cross, Chuang and Chong, built from scratch:

* :mod:`repro.physical` — trapped-ion substrate: Table 1 parameters,
  trapping-region grids, cycle-level micro-execution;
* :mod:`repro.ecc` — Pauli/stabilizer algebra, the Steane [[7,1,3]] and
  Bacon-Shor [[9,1,3]] codes, concatenation timing/area/reliability,
  EC schedules and the code-transfer network;
* :mod:`repro.circuits` — logical gate IR, the Draper carry-lookahead
  adder, modular exponentiation and QFT workloads, the cache ISA;
* :mod:`repro.arch` — tiles, memory/compute/cache regions, the QLA
  baseline, teleportation interconnect and bandwidth models;
* :mod:`repro.core` — the CQLA design object, the quantum memory
  hierarchy, fidelity budgeting, the gain-product metrics and the
  design-space grids/sweeps;
* :mod:`repro.sim` — the N-level policy-pluggable hierarchy engine
  (pure and mixed-code stacks, eviction policies, exact prefetchers;
  one engine per transfer model), plus the block scheduler, cache
  simulator and communication accounting;
* :mod:`repro.perf` — process-pool fan-out and the durable
  content-addressed result store, with pluggable backends
  (:mod:`repro.perf.backends`: ``fs:DIR`` / ``sqlite:PATH`` locators);
* :mod:`repro.sweep` — sharded sweep orchestration over that store
  (``python -m repro.sweep``);
* :mod:`repro.service` — the read-only HTTP query service over warm
  sweep stores (``python -m repro.sweep serve``): rendered tables,
  design-point lookups, streamed progress;
* :mod:`repro.analysis` — builders regenerating every table and figure
  of the paper's evaluation, with the published values alongside.

``docs/architecture.md`` maps the layers in detail;
``docs/reproducing-the-paper.md`` maps each paper artifact to its
module, public call and pinning test; ``docs/sweep-service.md`` is the
store-backend and query-service guide.

Quickstart::

    from repro import CqlaDesign, MemoryHierarchy

    design = CqlaDesign("bacon_shor", n_bits=1024, n_blocks=121)
    print(design.area_reduction(), design.speedup())
    hierarchy = MemoryHierarchy(design, parallel_transfers=10)
    print(hierarchy.adder_speedup(), hierarchy.gain_product())
"""

from .arch import CqlaFloorplan, QlaMachine
from .circuits import Circuit, carry_lookahead_adder, qft_circuit
from .core import (
    CqlaDesign,
    FidelityBudget,
    HierarchyPolicy,
    MemoryHierarchy,
    hierarchy_sweep,
    specialization_sweep,
)
from .ecc import ConcatenatedCode, bacon_shor_code, steane_code
from .physical import DEFAULT_PARAMS, PhysicalParams, future_params, now_params

__version__ = "1.0.0"

__all__ = [
    "Circuit",
    "ConcatenatedCode",
    "CqlaDesign",
    "CqlaFloorplan",
    "DEFAULT_PARAMS",
    "FidelityBudget",
    "HierarchyPolicy",
    "MemoryHierarchy",
    "PhysicalParams",
    "QlaMachine",
    "__version__",
    "bacon_shor_code",
    "carry_lookahead_adder",
    "future_params",
    "hierarchy_sweep",
    "now_params",
    "qft_circuit",
    "specialization_sweep",
    "steane_code",
]
