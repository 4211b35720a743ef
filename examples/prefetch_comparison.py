"""Compare transfer models and prefetchers on the hierarchy engine.

Runs every registered eviction policy x every registered prefetcher on
a 3-level stack for the Draper adder and the QFT, printing the engine
design-space table.  The ``none`` rows are the reservation transfer
model (PR 2 semantics: greedily reserved ports, coupled write-backs);
the ``next_k`` / ``distance`` rows run the split-transaction model,
where a port is busy only while a transfer is in flight and the
prefetcher walks the *static* optimized fetch order to promote
upcoming operands into idle ports — exact prefetching, pinned against
eviction until first use.

The headline number is the makespan ratio on the adder: split
transactions plus exact prefetch reclaim the port idle-time the greedy
reservations waste.  The QFT rows show the other side: under
all-to-all traffic with a tiny compute level, a bounded lookahead
window cannot cover the working set, and the reservation model's
implicit whole-program lookahead stays ahead.

Run:  python examples/prefetch_comparison.py [n_bits]
"""

import sys

from repro.analysis import engine_table_text
from repro.circuits.workloads import build_workload
from repro.core.design_space import (
    ENGINE_CACHE_FACTOR,
    ENGINE_COMPUTE_QUBITS,
)
from repro.sim.cache import simulate_optimized
from repro.sim.levels import simulate_hierarchy_run, standard_stack
from repro.sim.prefetch import available_prefetchers


def main() -> None:
    n_bits = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    print("Prefetch comparison on the 3-level hierarchy engine")
    print(f"  workloads: draper_adder, qft at {n_bits} bits; "
          f"prefetchers: {', '.join(available_prefetchers())}\n")

    print(engine_table_text(
        workloads=("draper_adder", "qft"),
        sizes=(n_bits,),
        depths=(3,),
        prefetches=available_prefetchers(),
    ))
    print()

    # The headline: demand fetching on the reservation model vs exact
    # next_k prefetching on the split-transaction model, LRU, adder.
    stack = standard_stack(
        "steane", 3,
        compute_qubits=ENGINE_COMPUTE_QUBITS,
        cache_factor=ENGINE_CACHE_FACTOR,
    )
    circuit = build_workload("draper_adder", n_bits)
    order = simulate_optimized(circuit, stack.levels[0].capacity).order
    demand = simulate_hierarchy_run(stack, circuit, order=order)
    prefetched = simulate_hierarchy_run(
        stack, circuit, order=order, prefetch="next_k"
    )
    ratio = demand.total_time_s / prefetched.total_time_s
    print(f"draper_adder({n_bits}) makespan: "
          f"demand {demand.total_time_s:.1f}s -> "
          f"next_k {prefetched.total_time_s:.1f}s "
          f"({ratio:.2f}x lower, "
          f"{prefetched.prefetches_used}/{prefetched.prefetches_issued} "
          "prefetches used)")


if __name__ == "__main__":
    main()
