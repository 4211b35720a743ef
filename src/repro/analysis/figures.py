"""Builders regenerating every figure series of the paper's evaluation.

Each ``figN()`` returns the numeric series behind the published plot;
each ``figN_text()`` renders them as aligned columns.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..arch.bandwidth import optimal_superblock_size, sweep as bandwidth_sweep
from ..core.design_space import PAPER_INPUT_SIZES, performance_blocks
from ..sim.cache import HitRatePoint, hit_rate_study
from ..sim.comm import CommBreakdown, modexp_breakdown, qft_breakdown
from ..sim.hierarchy_sim import DEFAULT_COMPUTE_QUBITS
from ..sim.scheduler import adder_balanced_utilization, parallelism_profiles
from .report import format_series, format_table

#: Block counts of the Figure 6a x-axis.
FIG6A_BLOCK_COUNTS = (4, 16, 36, 64, 100, 144, 196)

#: Superblock sizes of the Figure 6b x-axis.
FIG6B_BLOCK_COUNTS = tuple(range(4, 84, 4))

#: Adder sizes of the Figure 7 x-axis.
FIG7_SIZES = (64, 128, 256, 512, 1024)

#: Register sizes of the Figure 8b x-axis.
FIG8B_SIZES = (100, 200, 300, 400, 500, 600, 700, 800, 900, 1000)


# ----------------------------------------------------------------------
# Figure 2 — adder parallelism profile
# ----------------------------------------------------------------------

def fig2(n_bits: int = 64, n_blocks: int = 15) -> Dict[str, object]:
    """Gates in flight per cycle: unlimited vs ``n_blocks`` blocks."""
    return parallelism_profiles(n_bits, n_blocks)


def fig2_text(n_bits: int = 64, n_blocks: int = 15) -> str:
    data = fig2(n_bits, n_blocks)
    unlimited: List[int] = data["unlimited"]
    capped: List[int] = data["capped"]
    span = max(len(unlimited), len(capped))
    unlimited = unlimited + [0] * (span - len(unlimited))
    capped = capped + [0] * (span - len(capped))
    text = format_series(
        "cycle",
        {"unlimited": unlimited, f"{n_blocks} blocks": capped},
        list(range(span)),
        title=(
            f"Figure 2: {n_bits}-qubit adder parallelism "
            f"(makespan {data['makespan_unlimited']} vs "
            f"{data['makespan_capped']} cycles)"
        ),
    )
    return text


# ----------------------------------------------------------------------
# Figure 6a — utilization vs compute blocks
# ----------------------------------------------------------------------

def fig6a(
    sizes: Sequence[int] = PAPER_INPUT_SIZES,
    block_counts: Sequence[int] = FIG6A_BLOCK_COUNTS,
) -> Dict[int, List[float]]:
    """Per-adder-size utilization series over block counts."""
    return {
        n: [adder_balanced_utilization(n, k) for k in block_counts]
        for n in sizes
    }


def fig6a_text() -> str:
    series = fig6a()
    return format_series(
        "blocks",
        {f"{n}-qubit": vals for n, vals in series.items()},
        list(FIG6A_BLOCK_COUNTS),
        title="Figure 6a: overall utilization vs number of compute blocks",
    )


# ----------------------------------------------------------------------
# Figure 6b — superblock bandwidth crossover
# ----------------------------------------------------------------------

def fig6b(block_counts: Sequence[int] = FIG6B_BLOCK_COUNTS):
    """The three bandwidth curves plus the crossover size."""
    return {
        "points": bandwidth_sweep(block_counts),
        "crossover": optimal_superblock_size(),
    }


def fig6b_text() -> str:
    data = fig6b()
    rows = [
        (p.n_blocks, p.available, p.required_draper, p.required_worst_case)
        for p in data["points"]
    ]
    return format_table(
        ["blocks", "B/W available", "B/W required (Draper)",
         "B/W required (worst case)"],
        rows,
        title=(
            "Figure 6b: superblock bandwidth "
            f"(crossover at {data['crossover']} blocks; paper: 36)"
        ),
    )


# ----------------------------------------------------------------------
# Figure 7 — cache hit rates
# ----------------------------------------------------------------------

def fig7(
    sizes: Sequence[int] = FIG7_SIZES,
    compute_qubits: int = DEFAULT_COMPUTE_QUBITS,
) -> List[HitRatePoint]:
    return hit_rate_study(sizes, compute_qubits)


def fig7_text(sizes: Sequence[int] = FIG7_SIZES) -> str:
    points = fig7(sizes)
    by_key = {}
    capacities = sorted({p.capacity for p in points})
    for p in points:
        by_key[(p.n_bits, p.policy, p.capacity)] = p.hit_rate
    rows = []
    for n in sizes:
        row = [n]
        for cap in capacities:
            row.append(by_key[(n, "in-order", cap)])
        for cap in capacities:
            row.append(by_key[(n, "optimized", cap)])
        rows.append(row)
    headers = (
        ["bits"]
        + [f"in-order c={c}" for c in capacities]
        + [f"optimized c={c}" for c in capacities]
    )
    return format_table(
        headers, rows,
        title="Figure 7: cache hit rate by fetch policy and cache size",
    )


# ----------------------------------------------------------------------
# Figure 8 — computation vs communication
# ----------------------------------------------------------------------

def fig8a(
    sizes: Sequence[int] = PAPER_INPUT_SIZES,
    code_key: str = "bacon_shor",
) -> List[CommBreakdown]:
    """Modular exponentiation computation/communication totals."""
    return [
        modexp_breakdown(code_key, n, performance_blocks(n)) for n in sizes
    ]


def fig8a_text() -> str:
    rows = [
        (b.n_bits, b.computation_hours, b.communication_hours, b.ratio)
        for b in fig8a()
    ]
    return format_table(
        ["bits", "computation (h)", "communication (h)", "ratio"],
        rows,
        title="Figure 8a: modular exponentiation times (Bacon-Shor)",
    )


def fig8b(
    sizes: Sequence[int] = FIG8B_SIZES,
    code_key: str = "bacon_shor",
) -> List[CommBreakdown]:
    """QFT computation/communication totals."""
    return [qft_breakdown(code_key, n) for n in sizes]


def fig8b_text() -> str:
    rows = [
        (b.n_bits, b.computation_s, b.communication_s, b.ratio)
        for b in fig8b()
    ]
    return format_table(
        ["register", "computation (s)", "communication (s)", "ratio"],
        rows,
        title="Figure 8b: QFT times (Bacon-Shor)",
    )


#: Name -> builder mapping for programmatic access.
FIGURE_BUILDERS = {
    "fig2": fig2, "fig6a": fig6a, "fig6b": fig6b,
    "fig7": fig7, "fig8a": fig8a, "fig8b": fig8b,
}
