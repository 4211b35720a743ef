"""The original two-level Table 5 event loop (test oracle).

:func:`repro.sim.hierarchy_sim.simulate_l1_run` runs on the N-level
engine and is pinned to this loop field for field.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from repro.circuits.circuit import Circuit
from repro.ecc.concatenated import by_key
from repro.ecc.transfer import TransferNetwork
from repro.sim.cache import LruCache, simulate_optimized
from repro.sim.hierarchy_sim import HierarchyRunResult
from repro.sim.levels import DEFAULT_COMPUTE_QUBITS
from repro.sim.scheduler import _adder_circuit

__all__ = ["simulate_l1_run_reference"]


def simulate_l1_run_reference(
    code_key: str,
    n_bits: int,
    parallel_transfers: int = 10,
    compute_qubits: int = DEFAULT_COMPUTE_QUBITS,
    cache_factor: float = 2.0,
    circuit: Optional[Circuit] = None,
) -> HierarchyRunResult:
    """The original two-level event loop, retained verbatim.

    This is the executable specification the engine-backed
    :func:`simulate_l1_run` is pinned against: same fetch order, same
    LRU replacement, same port-server timing, field-for-field identical
    :class:`HierarchyRunResult`.
    """
    code = by_key(code_key)
    network = TransferNetwork(
        code_key=code_key, parallel_transfers=parallel_transfers
    )
    if circuit is None:
        circuit = _adder_circuit(n_bits, False)
    capacity = int(round((1.0 + cache_factor) * compute_qubits))
    fetch = simulate_optimized(circuit, capacity)

    op_l1 = code.logical_op_time_s(1)
    op_l2 = code.logical_op_time_s(2)
    t_demote = network.demote_time_s
    t_promote = network.promote_time_s
    lanes = max(1, round(network.effective_concurrency))

    # Replay the fetch order against a fresh cache, timing transfers.
    cache = LruCache(capacity)
    port_free: List[float] = [0.0] * lanes
    heapq.heapify(port_free)
    compute_free = 0.0
    transfer_wait = 0.0
    compute_time = 0.0
    transfers = 0
    for idx in fetch.order:
        gate = circuit.gates[idx]
        arrivals = 0.0
        for q in gate.qubits:
            was_full = len(cache) >= cache.capacity
            hit = cache.access(q)
            if hit:
                continue
            transfers += 1
            port = heapq.heappop(port_free)
            start = port
            arrival = start + t_demote
            # The paired promotion of the evicted qubit keeps the port
            # busy after the demotion completes.
            busy_until = arrival + (t_promote if was_full else 0.0)
            heapq.heappush(port_free, busy_until)
            arrivals = max(arrivals, arrival)
        start = max(compute_free, arrivals)
        if arrivals > compute_free:
            transfer_wait += arrivals - compute_free
        duration = gate.ec_slots * op_l1
        compute_free = start + duration
        compute_time += duration

    l1_time = compute_free
    l2_time = sum(g.ec_slots for g in circuit.gates) * op_l2
    return HierarchyRunResult(
        code_key=code_key,
        n_bits=n_bits,
        parallel_transfers=parallel_transfers,
        l1_time_s=l1_time,
        l2_time_s=l2_time,
        compute_time_s=compute_time,
        transfer_wait_s=transfer_wait,
        hit_rate=fetch.stats.hit_rate,
        transfers=transfers,
    )
