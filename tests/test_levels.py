"""The N-level hierarchy engine: stacks, workload registry, engine runs."""

import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.workloads import (
    available_workloads,
    build_workload,
    get_workload,
)
from repro.ecc.transfer import TransferNetwork
from repro.sim.cache import simulate_optimized
from repro.sim.levels import (
    HierarchyStack,
    MemoryLevel,
    simulate_hierarchy_run,
    standard_stack,
    three_level_stack,
    two_level_stack,
)
from repro.sim.policies import available_policies


class TestMemoryLevel:
    def test_derived_costs(self):
        level = MemoryLevel("L1", "steane", 1, 100)
        assert level.op_time_s > 0
        assert level.ec_time_s > 0
        assert level.channels_per_transfer == 1
        assert MemoryLevel("m", "bacon_shor", 2, None).channels_per_transfer == 3

    def test_deeper_code_level_is_slower(self):
        times = [
            MemoryLevel(f"L{lvl}", "steane", lvl, None).op_time_s
            for lvl in (1, 2, 3)
        ]
        assert times == sorted(times)
        assert times[0] < times[1] < times[2]

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            MemoryLevel("L1", "steane", 1, 1)
        with pytest.raises(ValueError, match="encoded"):
            MemoryLevel("L1", "steane", 0, 100)
        with pytest.raises(ValueError, match="unknown code key"):
            MemoryLevel("L1", "shor_code", 1, 100)


class TestHierarchyStack:
    def test_two_level_matches_legacy_network(self):
        stack = two_level_stack("steane", parallel_transfers=10)
        legacy = TransferNetwork(code_key="steane", parallel_transfers=10)
        (net,) = stack.networks()
        assert net.demote_time_s == legacy.demote_time_s
        assert net.promote_time_s == legacy.promote_time_s
        assert stack.levels[0].capacity == 243
        assert stack.levels[-1].capacity is None

    def test_parallel_transfers_broadcast(self):
        stack = standard_stack("steane", 4, parallel_transfers=5)
        assert stack.parallel_transfers == (5, 5, 5)
        explicit = standard_stack("steane", 3, parallel_transfers=(10, 4))
        assert [n.parallel_transfers for n in explicit.networks()] == [10, 4]

    def test_validation(self):
        memory = MemoryLevel("memory", "steane", 2, None)
        cache = MemoryLevel("L1", "steane", 1, 100)
        with pytest.raises(ValueError, match="at least two levels"):
            HierarchyStack((memory,))
        with pytest.raises(ValueError, match="unbounded"):
            HierarchyStack((cache, MemoryLevel("m", "steane", 2, 500)))
        with pytest.raises(ValueError, match="unbounded"):
            HierarchyStack((memory, memory))
        # Mixed-code stacks are supported since the multi-backend-codes
        # change: the boundary prices from both codes (Table 3
        # off-diagonals).  Construction must succeed.
        mixed = HierarchyStack((cache, MemoryLevel("m", "bacon_shor", 2, None)))
        assert mixed.is_mixed
        assert mixed.code_keys == ("steane", "bacon_shor")
        with pytest.raises(ValueError, match="one entry per"):
            HierarchyStack((cache, memory), parallel_transfers=(10, 5, 2))
        with pytest.raises(ValueError, match="parallel transfer"):
            HierarchyStack((cache, memory), parallel_transfers=0)
        with pytest.raises(ValueError, match="at least two levels"):
            standard_stack("steane", 1)

    def test_parallel_transfers_below_channel_requirement_rejected(self):
        # One Bacon-Shor transfer occupies 3 teleport channels; a
        # network provisioned with fewer could never dispatch a single
        # transfer once ports model channel occupancy.  Fail at
        # construction, naming the starved network.
        with pytest.raises(ValueError, match="network 0"):
            two_level_stack("bacon_shor", parallel_transfers=2)
        with pytest.raises(ValueError, match="network 1"):
            standard_stack("bacon_shor", 3, parallel_transfers=(3, 2))
        # At exactly the channel requirement the stack is valid.
        stack = two_level_stack("bacon_shor", parallel_transfers=3)
        assert stack.parallel_transfers == (3,)
        # Steane needs one channel, so parallel_transfers=1 stays legal.
        assert two_level_stack("steane", parallel_transfers=1)


class TestWorkloadRegistry:
    def test_required_workloads_registered(self):
        names = available_workloads()
        for expected in ("draper_adder", "qft", "modexp_trace"):
            assert expected in names

    def test_build_sizes(self):
        qft = build_workload("qft", 12)
        assert qft.n_qubits == 12
        default = build_workload("qft")
        assert default.n_qubits == get_workload("qft").default_bits

    def test_unknown_workload_raises(self):
        with pytest.raises(ValueError, match="unknown workload"):
            build_workload("grover")

    def test_specs_have_descriptions(self):
        for name in available_workloads():
            assert get_workload(name).description


class TestEngineRuns:
    @pytest.mark.parametrize("workload", ["draper_adder", "qft", "modexp_trace"])
    @pytest.mark.parametrize("policy", available_policies())
    def test_three_level_stack_runs(self, workload, policy):
        stack = three_level_stack("steane", compute_qubits=12,
                                  cache_factor=1.0)
        run = simulate_hierarchy_run(stack, workload, policy=policy)
        assert run.depth == 3
        assert len(run.level_stats) == 3
        assert len(run.fetches) == len(run.writebacks) == 2
        assert run.total_time_s >= run.compute_time_s
        assert run.total_time_s == pytest.approx(
            run.compute_time_s + run.transfer_wait_s, rel=0.01
        )
        assert 0.0 < run.hit_rate < 1.0
        assert run.speedup > 1.0
        # Everything starts in memory, so the bottom network carries at
        # least the compulsory fetches.
        assert run.fetches[1] > 0
        assert run.fetches[0] >= run.fetches[1]

    def test_workload_accepts_circuit_and_name(self):
        stack = two_level_stack("steane")
        by_name = simulate_hierarchy_run(stack, "qft")
        by_circuit = simulate_hierarchy_run(stack, build_workload("qft"))
        assert by_name == by_circuit

    def test_victim_caching_beats_cold_climb(self):
        # A qubit evicted from L1 parks at L2; re-fetching it crosses
        # one network, not two, so intermediate levels must see hits.
        stack = three_level_stack("steane", compute_qubits=12,
                                  cache_factor=1.0)
        run = simulate_hierarchy_run(stack, "draper_adder", policy="lru")
        assert run.level_stats[1].hits > 0

    def test_more_ports_never_slower(self):
        slow = simulate_hierarchy_run(
            three_level_stack("steane", parallel_transfers=2), "draper_adder"
        )
        fast = simulate_hierarchy_run(
            three_level_stack("steane", parallel_transfers=10), "draper_adder"
        )
        assert fast.total_time_s <= slow.total_time_s + 1e-12

    def test_in_order_fetch_mode(self):
        stack = two_level_stack("steane", compute_qubits=12, cache_factor=1.0)
        optimized = simulate_hierarchy_run(stack, "draper_adder")
        in_order = simulate_hierarchy_run(stack, "draper_adder",
                                          fetch="in-order")
        # The paper's point: optimized fetch massively out-hits in-order.
        assert optimized.hit_rate > in_order.hit_rate

    def test_simulate_l1_run_policy_kwarg(self):
        from repro.sim.hierarchy_sim import simulate_l1_run

        base = simulate_l1_run("steane", 64)
        fifo = simulate_l1_run("steane", 64, eviction_policy="fifo")
        assert fifo.l1_time_s > 0
        assert base.transfers <= fifo.transfers  # LRU wins on this trace
        with pytest.raises(ValueError, match="unknown eviction policy"):
            simulate_l1_run("steane", 64, eviction_policy="mru")

    def test_memory_hierarchy_policy_knob(self):
        from repro.core.cqla import CqlaDesign
        from repro.core.hierarchy import MemoryHierarchy

        design = CqlaDesign("steane", 64, 16)
        hierarchy = MemoryHierarchy(design, eviction_policy="belady")
        assert hierarchy.l1_speedup() > 1.0
        assert hierarchy.stack().depth == 2
        with pytest.raises(ValueError, match="unknown eviction policy"):
            MemoryHierarchy(design, eviction_policy="mru")

    def test_engine_validation(self):
        stack = two_level_stack("steane")
        with pytest.raises(ValueError, match="empty circuit"):
            simulate_hierarchy_run(stack, Circuit(n_qubits=4))
        with pytest.raises(ValueError, match="unknown fetch mode"):
            simulate_hierarchy_run(stack, "qft", fetch="random")
        with pytest.raises(ValueError, match="unknown eviction policy"):
            simulate_hierarchy_run(stack, "qft", policy="mru")
        with pytest.raises(TypeError, match="workload"):
            simulate_hierarchy_run(stack, 42)
        with pytest.raises(ValueError, match="window"):
            simulate_hierarchy_run(stack, "qft", fetch="in-order", window=2)
        with pytest.raises(ValueError, match="permutation"):
            simulate_hierarchy_run(stack, "qft", order=[0, 0, 1])
        with pytest.raises(ValueError, match="contradict"):
            simulate_hierarchy_run(stack, "qft", fetch="in-order",
                                   order=[0, 1])
        with pytest.raises(ValueError, match="unknown prefetcher"):
            simulate_hierarchy_run(stack, "qft", prefetch="oracle")

    def test_prefetch_knob_threads_through(self):
        from repro.core.cqla import CqlaDesign
        from repro.core.design_space import engine_sweep
        from repro.core.hierarchy import MemoryHierarchy
        from repro.sim.hierarchy_sim import simulate_l1_run

        run = simulate_l1_run("steane", 32, prefetch="next_k")
        assert run.l1_time_s > 0
        with pytest.raises(ValueError, match="unknown prefetcher"):
            simulate_l1_run("steane", 32, prefetch="oracle")

        design = CqlaDesign("steane", 64, 16)
        hierarchy = MemoryHierarchy(design, prefetch="next_k")
        assert hierarchy.l1_speedup() > 0
        with pytest.raises(ValueError, match="unknown prefetcher"):
            MemoryHierarchy(design, prefetch="oracle")

        rows = engine_sweep(
            workloads=("draper_adder",), sizes=(16,), depths=(3,),
            policies=("lru",), prefetches=("none", "next_k"),
        )
        by_prefetch = {row.prefetch: row for row in rows}
        assert set(by_prefetch) == {"none", "next_k"}
        assert by_prefetch["none"].makespan_s > 0
        assert by_prefetch["next_k"].makespan_s > 0

    def test_precomputed_order_matches_inline_scheduling(self):
        stack = two_level_stack("steane", compute_qubits=12,
                                cache_factor=1.0)
        circuit = build_workload("modexp_trace", 16)
        order = simulate_optimized(
            circuit, stack.levels[0].capacity
        ).order
        for policy in available_policies():
            inline = simulate_hierarchy_run(stack, circuit, policy=policy)
            shared = simulate_hierarchy_run(stack, circuit, policy=policy,
                                            order=order)
            assert inline == shared
        with pytest.raises(ValueError, match="window"):
            simulate_hierarchy_run(stack, circuit, order=order, window=2)
