"""Eviction-policy registry and policy invariants.

Every registered policy must (a) keep the resident set within
capacity at all times, (b) pair each eviction with exactly one
write-back transfer — qubits are uncopyable, an eviction *is* a move —
and (c) lose to Belady's offline-optimal replacement on no tested
workload.
"""

import pytest

from repro.circuits.workloads import build_workload
from repro.sim import fastsplit, policies
from repro.sim.cache import LruCache
from repro.sim.levels import (
    simulate_hierarchy_run,
    standard_stack,
    two_level_stack,
)
from repro.sim.policies import (
    SHIPPED_POLICIES,
    EvictionPolicy,
    available_policies,
    make_policy,
    register_policy,
)
from repro.sim.prefetch import SHIPPED_PREFETCHERS, Prefetcher
from oracles import policies as oracle_policies
from oracles import prefetch as oracle_prefetch
from oracles.policies import ORACLE_POLICIES, oracle_policy
from oracles.policycache import PolicyCache

#: Small stacks keep the resident set under pressure so replacement
#: decisions actually differ between policies.
PRESSURED = dict(compute_qubits=12, cache_factor=1.0)

WORKLOADS = [
    ("draper_adder", 32),
    ("qft", 32),
    ("modexp_trace", 16),
]


def _trace(workload, n_bits):
    circuit = build_workload(workload, n_bits)
    return [q for gate in circuit.gates for q in gate.qubits]


class TestRegistry:
    def test_shipped_policies_registered(self):
        assert available_policies() == (
            "belady", "fidelity", "fifo", "lru", "score",
        )

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown eviction policy"):
            make_policy("clairvoyant")

    @pytest.mark.parametrize("name", SHIPPED_POLICIES)
    def test_shipped_policy_has_no_object(self, name):
        with pytest.raises(ValueError, match="flattened state"):
            make_policy(name)

    def test_fresh_instance_per_call(self):
        assert oracle_policy("lru") is not oracle_policy("lru")

    @pytest.mark.parametrize("name", SHIPPED_POLICIES)
    def test_shipped_name_registration_rejected(self, name):
        shadow = type("Shadow", (EvictionPolicy,), {"name": name})
        with pytest.raises(ValueError, match="ships with the engine"):
            register_policy(shadow)
        assert name not in policies._REGISTRY

    def test_duplicate_registration_rejected(self, monkeypatch):
        monkeypatch.setattr(policies, "_REGISTRY", {})

        class Mine(ORACLE_POLICIES["lru"]):
            name = "test_dup"

        assert register_policy(Mine) is Mine
        assert isinstance(make_policy("test_dup"), Mine)
        assert "test_dup" in available_policies()
        with pytest.raises(ValueError, match="already registered"):
            register_policy(Mine)

    def test_abstract_name_rejected(self):
        class Anon(EvictionPolicy):
            pass

        with pytest.raises(ValueError, match="concrete"):
            register_policy(Anon)


def _named_classes(module, base):
    """The classes ``module`` defines with their own concrete ``name``."""
    return {
        obj.name
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, base)
        and obj.__module__ == module.__name__ and "name" in vars(obj)
    }


class TestShippedNames:
    """``SHIPPED_POLICIES``/``SHIPPED_PREFETCHERS`` are the one list of
    shipped names: fastsplit's walks and the oracle classes agree with
    them (``TestGenericAdapterExactness`` in
    ``tests/test_replay_property.py`` pins that ``flat_policy`` takes
    the flattened path for every shipped policy and the real-object
    path for its registered twin)."""

    def test_fastsplit_walks_the_shipped_prefetchers(self):
        assert (set(SHIPPED_PREFETCHERS) - {"none"}
                == fastsplit._SPECIALIZED_PREFETCHERS)

    def test_oracle_classes_cover_exactly_the_shipped_names(self):
        assert (_named_classes(oracle_policies, EvictionPolicy)
                == set(SHIPPED_POLICIES) == set(ORACLE_POLICIES))
        assert (_named_classes(oracle_prefetch, Prefetcher)
                == set(SHIPPED_PREFETCHERS)
                == set(oracle_prefetch.ORACLE_PREFETCHERS))


class TestResidentSetInvariant:
    @pytest.mark.parametrize("policy_name", available_policies())
    @pytest.mark.parametrize("workload,n_bits", WORKLOADS)
    def test_resident_never_exceeds_capacity(
        self, policy_name, workload, n_bits
    ):
        trace = _trace(workload, n_bits)
        capacity = 8
        cache = PolicyCache(capacity, oracle_policy(policy_name), trace)
        for pos, q in enumerate(trace):
            cache.access_evicting(q, pos)
            assert len(cache) <= capacity
        stats = cache.stats
        assert stats.accesses == len(trace)
        assert stats.hits + stats.misses == stats.accesses
        assert stats.evictions <= stats.misses

    def test_capacity_below_two_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            PolicyCache(1, oracle_policy("lru"), [])


class TestLruMatchesLegacyCache:
    @pytest.mark.parametrize("workload,n_bits", WORKLOADS)
    def test_stats_identical_to_lrucache(self, workload, n_bits):
        trace = _trace(workload, n_bits)
        legacy = LruCache(16)
        policy = PolicyCache(16, oracle_policy("lru"), trace)
        for pos, q in enumerate(trace):
            legacy_hit = legacy.access(q)
            policy_hit, _ = policy.access_evicting(q, pos)
            assert legacy_hit == policy_hit
        assert policy.stats == legacy.stats
        assert sorted(policy.resident()) == sorted(legacy.resident())


class TestEvictionWritebackPairing:
    @pytest.mark.parametrize("policy_name", available_policies())
    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("workload,n_bits", WORKLOADS)
    def test_each_eviction_is_a_writeback(
        self, policy_name, depth, workload, n_bits
    ):
        stack = standard_stack("steane", depth, **PRESSURED)
        run = simulate_hierarchy_run(stack, build_workload(workload, n_bits),
                                     policy=policy_name)
        # level_stats[k].evictions are the qubits pushed out of level k;
        # writebacks[k] are the moves across network k away from the
        # compute level.  Uncopyable qubits: these must match 1:1.
        for k in range(depth - 1):
            assert run.level_stats[k].evictions == run.writebacks[k]

    @pytest.mark.parametrize("policy_name", available_policies())
    def test_qubit_conservation(self, policy_name):
        circuit = build_workload("draper_adder", 32)
        stack = standard_stack("steane", 3, **PRESSURED)
        run = simulate_hierarchy_run(stack, circuit, policy=policy_name)
        assert sum(s.final_occupancy for s in run.level_stats) == len(
            circuit.touched_qubits()
        )
        for level, stat in zip(stack.levels, run.level_stats):
            if level.capacity is not None:
                assert stat.final_occupancy <= level.capacity


class TestOperandPinning:
    """A gate's operands cannot be teleported away while it issues:
    victim selection must skip the in-flight operands (qubits are
    uncopyable, and the gate needs all of them resident at once)."""

    def _tiny_stack(self):
        from repro.sim.levels import HierarchyStack, MemoryLevel

        return HierarchyStack((
            MemoryLevel("L1", "steane", 1, 2),
            MemoryLevel("memory", "steane", 2, None),
        ))

    @pytest.mark.parametrize("policy_name", available_policies())
    def test_current_gate_operand_never_evicted(self, policy_name):
        from repro.circuits.gates import cnot_gate
        from repro.circuits.circuit import Circuit

        # Capacity-2 compute level, gates (0,1), (0,2), (0,3) in order.
        # Without pinning, FIFO/score/Belady may evict qubit 0 while
        # gate (0,2) is issuing (0 is the oldest/least-useful-looking
        # resident), making 0 a spurious miss at gate (0,3).  With
        # pinning, 0 stays resident through every gate: exactly 2 hits.
        circuit = Circuit(n_qubits=4, gates=[
            cnot_gate(0, 1), cnot_gate(0, 2), cnot_gate(0, 3),
        ])
        run = simulate_hierarchy_run(
            self._tiny_stack(), circuit, policy=policy_name,
            fetch="in-order",
        )
        assert run.level_stats[0].hits == 2
        assert run.level_stats[0].misses == 4

    def test_unsatisfiable_pin_falls_back(self):
        from repro.circuits.gates import toffoli_gate
        from repro.circuits.circuit import Circuit

        # A Toffoli has three operands but the level holds two: the pin
        # cannot be satisfied, and the engine must still make progress
        # (the reference LRU model evicts an in-gate operand here too).
        circuit = Circuit(n_qubits=3, gates=[toffoli_gate(0, 1, 2)])
        for policy_name in available_policies():
            run = simulate_hierarchy_run(
                self._tiny_stack(), circuit, policy=policy_name,
                fetch="in-order",
            )
            assert run.level_stats[0].misses == 3


class TestBeladyUpperBound:
    @pytest.mark.parametrize("workload,n_bits", WORKLOADS)
    @pytest.mark.parametrize("other", ["lru", "fifo", "score"])
    def test_belady_hit_rate_dominates(self, workload, n_bits, other):
        circuit = build_workload(workload, n_bits)
        stack = two_level_stack("steane", **PRESSURED)
        belady = simulate_hierarchy_run(stack, circuit, policy="belady")
        online = simulate_hierarchy_run(stack, circuit, policy=other)
        assert belady.hit_rate >= online.hit_rate - 1e-12

    def test_policies_actually_differ_under_pressure(self):
        circuit = build_workload("modexp_trace", 16)
        stack = two_level_stack("steane", **PRESSURED)
        rates = {
            name: simulate_hierarchy_run(stack, circuit, policy=name).hit_rate
            for name in available_policies()
        }
        assert len(set(rates.values())) > 1, rates
