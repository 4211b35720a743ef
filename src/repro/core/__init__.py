"""The CQLA core: design objects, memory hierarchy, fidelity, metrics.

This package owns the paper's *design level* — everything between the
architectural models and the rendered tables:

* :mod:`repro.core.cqla` — :class:`CqlaDesign`, the specialized
  compute/memory design point of Table 4;
* :mod:`repro.core.hierarchy` — :class:`MemoryHierarchy`, the Table 5
  design extended with the level-1 cache (optionally in a different
  code family via ``l1_code_key``, routing the cross-code boundary
  through the Table 3 off-diagonal pricing);
* :mod:`repro.core.fidelity` / :mod:`repro.core.metrics` /
  :mod:`repro.core.granularity` — error budgets, gain products and
  block-granularity studies;
* :mod:`repro.core.design_space` — the canonical sweep grids and
  sweeps (Tables 3/4/5 and the generalized engine design space,
  including the mixed-code ``code_pairs`` axis), all executing through
  :mod:`repro.sweep`, reading through an optional :mod:`repro.perf`
  result store.
"""

from .cqla import CqlaDesign
from .design_space import (
    ENGINE_CODE_PAIRS,
    ENGINE_PREFETCHERS,
    ENGINE_WORKLOADS,
    EngineRow,
    HierarchyRow,
    PAPER_BLOCK_CHOICES,
    PAPER_INPUT_SIZES,
    SpecializationRow,
    TransferRow,
    block_choices,
    engine_grid,
    engine_sweep,
    hierarchy_grid,
    hierarchy_sweep,
    performance_blocks,
    specialization_grid,
    specialization_sweep,
    transfer_grid,
    transfer_sweep,
)
from .fidelity import FidelityBudget, application_kq
from .granularity import (
    GranularityStudy,
    fine_grained_gain,
    granularity_study,
)
from .hierarchy import DEFAULT_POLICY, HierarchyPolicy, MemoryHierarchy
from .metrics import DesignMetrics, gain_product, utilization_efficiency

__all__ = [
    "CqlaDesign",
    "DEFAULT_POLICY",
    "DesignMetrics",
    "ENGINE_CODE_PAIRS",
    "ENGINE_PREFETCHERS",
    "ENGINE_WORKLOADS",
    "EngineRow",
    "FidelityBudget",
    "GranularityStudy",
    "HierarchyPolicy",
    "engine_grid",
    "engine_sweep",
    "fine_grained_gain",
    "granularity_study",
    "HierarchyRow",
    "MemoryHierarchy",
    "PAPER_BLOCK_CHOICES",
    "PAPER_INPUT_SIZES",
    "SpecializationRow",
    "TransferRow",
    "application_kq",
    "block_choices",
    "gain_product",
    "hierarchy_grid",
    "hierarchy_sweep",
    "performance_blocks",
    "specialization_grid",
    "specialization_sweep",
    "transfer_grid",
    "transfer_sweep",
    "utilization_efficiency",
]
