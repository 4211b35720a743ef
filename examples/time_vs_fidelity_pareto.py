"""Time vs fidelity: the Pareto front of a 3-level Draper-adder stack.

Every engine run can be priced in *both* currencies: makespan from the
event kernel, and logical error from `repro.sim.residency`, which
integrates each qubit's per-level residency intervals against
Monte-Carlo-calibrated noise rates (qubits parked in the leakier outer
levels, and qubits in flight across a boundary, decohere faster than
qubits held in the compute level).

This example sweeps a 3-level Steane stack over the eviction-policy and
prefetcher axes — the plain `lru` policy against the noise-aware
`fidelity` policy, demand fetching against `next_k` prefetching — and
reports the two-objective results with the Pareto-front rows starred:
no other configuration is both at least as fast and at least as
reliable.

Run:  python examples/time_vs_fidelity_pareto.py [n_bits]
"""

import sys

from repro.analysis.report import format_table
from repro.core.design_space import engine_sweep, pareto_rows

POLICIES = ("lru", "fidelity")
PREFETCHES = ("none", "next_k")
TRIALS = 500
SEED = 7


def main() -> None:
    n_bits = int(sys.argv[1]) if len(sys.argv) > 1 else 32

    rows = engine_sweep(
        workloads=["draper_adder"],
        sizes=[n_bits],
        code_keys=["steane"],
        depths=[3],
        policies=list(POLICIES),
        prefetches=list(PREFETCHES),
        transfer_options=[10],
        code_pairs=(),
        fidelity={"trials": TRIALS, "seed": SEED},
    )
    front = {id(row) for row in pareto_rows(rows)}

    print("Time vs fidelity on a 3-level Steane stack "
          f"(draper_adder at {n_bits} bits, {TRIALS} MC trials)\n")
    table = []
    for row in sorted(rows, key=lambda r: r.makespan_s):
        table.append([
            row.policy, row.prefetch, row.makespan_s,
            f"{row.logical_error:.3e}", f"{row.transit_error:.3e}",
            "*" if id(row) in front else "",
        ])
    print(format_table(
        ["policy", "prefetch", "makespan (s)", "logical err",
         "transit err", "pareto"],
        table,
    ))
    print()

    fastest = min(rows, key=lambda r: r.makespan_s)
    safest = min(rows, key=lambda r: r.logical_error)
    print(f"fastest: {fastest.policy}/{fastest.prefetch} at "
          f"{fastest.makespan_s:.1f}s ({fastest.logical_error:.3e})")
    print(f"most reliable: {safest.policy}/{safest.prefetch} at "
          f"{safest.makespan_s:.1f}s ({safest.logical_error:.3e})")
    print("rows marked * form the pareto front: nothing else is both "
          "at least as fast and at least as reliable")


if __name__ == "__main__":
    main()
