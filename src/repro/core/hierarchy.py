"""The quantum memory hierarchy (Sections 3.3, 5.2; Table 5).

Adds the level-1 cache and compute region to a CQLA design.  Modular
exponentiation is a stream of additions; to preserve system fidelity the
paper interleaves **one level-1 addition for every two level-2
additions** (the level-1 share of *time* then stays in the low percent
range).  Per-addition speedups compose as their workload average:
additions running at level 1 gain ``S1`` (hierarchy) on top of ``S2``
(code/specialization), the rest gain ``S2``:

``S_adder = (S1 * S2 + 2 * S2) / 3 = S2 * (S1 + 2) / 3``

which is the composition that reproduces the published Table 5 adder
speedups from its own L1/L2 columns (10 of 12 cells within 2%).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from ..ecc.concatenated import by_key
from ..sim.hierarchy_sim import HierarchyRunResult, simulate_l1_run
from ..sim.levels import HierarchyStack, mixed_stack, two_level_stack
from ..sim.policies import validate_policy
from ..sim.prefetch import validate_prefetcher
from .cqla import CqlaDesign
from .fidelity import FidelityBudget
from .metrics import DesignMetrics


@dataclass(frozen=True)
class HierarchyPolicy:
    """Interleaving ratio between level-1 and level-2 additions."""

    l1_additions: int = 1
    l2_additions: int = 2

    def __post_init__(self) -> None:
        if self.l1_additions < 0 or self.l2_additions < 0:
            raise ValueError("addition counts cannot be negative")
        if self.l1_additions + self.l2_additions == 0:
            raise ValueError("policy must schedule at least one addition")

    @property
    def l1_fraction(self) -> float:
        total = self.l1_additions + self.l2_additions
        return self.l1_additions / total

    def adder_speedup(self, l1_speedup: float, l2_speedup: float) -> float:
        """Average per-addition speedup under the interleave."""
        if l1_speedup <= 0 or l2_speedup <= 0:
            raise ValueError("speedups must be positive")
        total = self.l1_additions + self.l2_additions
        weighted = (
            self.l1_additions * l1_speedup * l2_speedup
            + self.l2_additions * l2_speedup
        )
        return weighted / total


#: The paper's fidelity-driven default: one L1 add per two L2 adds.
DEFAULT_POLICY = HierarchyPolicy(l1_additions=1, l2_additions=2)


@dataclass(frozen=True)
class MemoryHierarchy:
    """A CQLA design extended with the level-1 cache hierarchy.

    ``eviction_policy`` selects the level-1 replacement policy from the
    :mod:`repro.sim.policies` registry; the default ``"lru"`` is the
    paper's configuration and runs through the Table 5 compatibility
    path (:func:`repro.sim.hierarchy_sim.simulate_l1_run`).  ``prefetch`` selects a
    :mod:`repro.sim.prefetch` prefetcher; anything but ``"none"``
    simulates on the split-transaction transfer model with exact
    prefetching down the static fetch order.

    ``l1_code_key`` optionally encodes the level-1 compute+cache region
    in a different code family than the design's memory code (``None``
    keeps the paper's same-code hierarchy): the stack, the floorplan's
    transfer ports and the simulated run then all route the cross-code
    boundary through the Table 3 off-diagonal latency model.  The
    fidelity budget stays governed by the design's (memory/L2) code.
    """

    design: CqlaDesign
    parallel_transfers: int = 10
    policy: HierarchyPolicy = DEFAULT_POLICY
    eviction_policy: str = "lru"
    prefetch: str = "none"
    l1_code_key: Optional[str] = None

    def __post_init__(self) -> None:
        if self.parallel_transfers < 1:
            raise ValueError("need at least one parallel transfer")
        validate_policy(self.eviction_policy)
        validate_prefetcher(self.prefetch)
        if self.l1_code_key is not None:
            by_key(self.l1_code_key)  # fail here, not deep inside stack()
        if self.l1_code_key == self.design.code_key:
            # Normalize: a same-code hierarchy compares equal whether
            # the level-1 code was spelled out or not.
            object.__setattr__(self, "l1_code_key", None)

    def stack(self) -> HierarchyStack:
        """The two-level stack this hierarchy simulates on."""
        if self.l1_code_key is not None:
            return mixed_stack(
                self.l1_code_key,
                self.design.code_key,
                parallel_transfers=self.parallel_transfers,
            )
        return two_level_stack(
            self.design.code_key, parallel_transfers=self.parallel_transfers
        )

    # -- simulated speedups ------------------------------------------------
    @cached_property
    def l1_run(self) -> HierarchyRunResult:
        return simulate_l1_run(
            self.design.code_key,
            self.design.n_bits,
            parallel_transfers=self.parallel_transfers,
            eviction_policy=self.eviction_policy,
            prefetch=self.prefetch,
            l1_code_key=self.l1_code_key,
        )

    def l1_speedup(self) -> float:
        """Table 5 "L1 SpeedUp": level-1 vs level-2 execution."""
        return self.l1_run.l1_speedup

    def l2_speedup(self) -> float:
        """Table 5 "L2 SpeedUp" — the Table 4 speedup of the design."""
        return self.design.speedup()

    def adder_speedup(self) -> float:
        """Table 5 "Adder SpeedUp" under the interleaving policy."""
        return self.policy.adder_speedup(self.l1_speedup(), self.l2_speedup())

    # -- fidelity ------------------------------------------------------------
    def fidelity_budget(self) -> FidelityBudget:
        return FidelityBudget(
            code_key=self.design.code_key,
            n_bits=self.design.n_bits,
            adder_slots=self.design.adder_makespan_slots(),
        )

    def policy_is_safe(self) -> bool:
        """Does the interleave respect the application error budget?"""
        return self.fidelity_budget().policy_is_safe(self.policy.l1_fraction)

    def l1_time_fraction(self) -> float:
        return self.fidelity_budget().l1_time_fraction(self.policy.l1_fraction)

    # -- combined --------------------------------------------------------------
    def area_reduction(self) -> float:
        """Area factor including cache/L1-region/transfer overheads."""
        from ..arch.regions import CqlaFloorplan
        from ..circuits.modexp import modexp_logical_qubits

        plan = CqlaFloorplan(
            code_key=self.design.code_key,
            memory_qubits=modexp_logical_qubits(self.design.n_bits),
            l2_blocks=self.design.n_blocks,
            l1_blocks=9,  # one superblock-granule L1 region (81 qubits)
            parallel_transfers=self.parallel_transfers,
            l1_code_key=self.l1_code_key,
        )
        return self.design.baseline.area_mm2() / plan.area_mm2()

    def metrics(self) -> DesignMetrics:
        return DesignMetrics(
            area_reduction=self.design.area_reduction(),
            speedup=self.adder_speedup(),
        )

    def gain_product(self) -> float:
        """Table 5 "Gain Product" (QLA = 1.0).

        Uses the specialization-only area factor, matching the paper's
        Table 5 area column (which repeats Table 4's values).
        """
        return self.metrics().gain_product
