"""The benchmark's three workloads and how their grids are spelled.

Each workload is one grid of the sweep CLI (``python -m repro.sweep``)
plus the store backend it writes to.  The same options build the grid
in-process through the public grid builders of
:mod:`repro.core.design_space`, so the benchmark knows every cell key
without parsing CLI output.  Why each workload exists is in
``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping

#: The four code stacks of the code-pair and fidelity grids: two
#: pure-code stacks and both mixed orders.
FOUR_STACKS: Dict[str, Any] = {
    "code_keys": ("steane", "bacon_shor"),
    "code_pairs": (("bacon_shor", "steane"), ("steane", "bacon_shor")),
}

#: Grid keyword -> sweep CLI flag.
_FLAGS = {
    "workloads": "--workloads",
    "sizes": "--sizes",
    "code_keys": "--codes",
    "depths": "--depths",
    "policies": "--policies",
    "prefetches": "--prefetches",
    "transfer_options": "--transfers",
    "code_pairs": "--code-pairs",
}

#: Option overrides of the self-test's tiny grids: one workload at one
#: size and depth.
TINY = {"workloads": ("qft",), "sizes": (16,), "depths": (2,)}


@dataclass(frozen=True)
class Workload:
    name: str
    #: Store backend scheme of the fresh store (``fs`` or ``sqlite``).
    backend: str
    kernel: str
    options: Mapping[str, Any]

    def grid_options(self, tiny: bool = False) -> Dict[str, Any]:
        return {**self.options, **(TINY if tiny else {})}

    def argv(self, tiny: bool = False) -> List[str]:
        """The grid options as sweep CLI arguments."""
        args = ["--kernel", self.kernel]
        for name, values in self.grid_options(tiny).items():
            args.append(_FLAGS[name])
            for value in values:
                args.append(":".join(value) if name == "code_pairs" else str(value))
        return args

    def grid(self, tiny: bool = False):
        """The canonical grid the CLI enumerates for :meth:`argv`."""
        from repro.core import design_space

        build = {
            "engine_cell": design_space.engine_grid,
            "fidelity_cell": design_space.fidelity_grid,
        }[self.kernel]
        return build(**self.grid_options(tiny))


WORKLOADS: Dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload(
            "prefetch_sweep",
            "fs",
            "engine_cell",
            {"prefetches": ("next_k",), "sizes": (16, 32, 64)},
        ),
        Workload(
            "codepair_time_sweep",
            "sqlite",
            "engine_cell",
            {
                "prefetches": ("none",),
                **FOUR_STACKS,
                "transfer_options": (10, 20),
                "sizes": (32, 64),
            },
        ),
        Workload(
            "fidelity_sweep",
            "fs",
            "fidelity_cell",
            {"prefetches": ("none",), **FOUR_STACKS, "transfer_options": (10, 20)},
        ),
    )
}
