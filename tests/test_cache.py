"""Tests for the quantum cache simulator (Section 5.2 / Figure 7)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.cache import simulate_optimized_reference
from repro.circuits.circuit import Circuit
from repro.circuits.dag import CircuitDag
from repro.circuits.gates import cnot_gate, x_gate
from repro.sim.cache import (
    LruCache,
    hit_rate_study,
    simulate_in_order,
    simulate_optimized,
)
from repro.sim.scheduler import _adder_circuit


class TestLruCache:
    def test_capacity_enforced(self):
        cache = LruCache(2)
        for q in range(5):
            cache.access(q)
        assert len(cache) == 2
        assert cache.stats.evictions == 3

    def test_lru_eviction_order(self):
        cache = LruCache(2)
        cache.access(0)
        cache.access(1)
        cache.access(0)   # 0 is now most recent
        cache.access(2)   # evicts 1
        assert 0 in cache and 2 in cache and 1 not in cache

    def test_hit_miss_counting(self):
        cache = LruCache(4)
        assert not cache.access(7)   # miss
        assert cache.access(7)       # hit
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_peek_does_not_touch(self):
        cache = LruCache(1)
        cache.access(0)
        assert cache.peek_hits([0, 1]) == 1
        assert cache.stats.accesses == 1  # peek not counted

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            LruCache(0)

    @given(st.lists(st.integers(min_value=0, max_value=9), max_size=60))
    @settings(max_examples=40)
    def test_never_exceeds_capacity(self, refs):
        cache = LruCache(3)
        for q in refs:
            cache.access(q)
            assert len(cache) <= 3

    @given(st.lists(st.integers(min_value=0, max_value=5), max_size=40))
    @settings(max_examples=40)
    def test_counters_consistent(self, refs):
        cache = LruCache(2)
        for q in refs:
            cache.access(q)
        s = cache.stats
        assert s.hits + s.misses == s.accesses == len(refs)


class TestInOrder:
    def test_streaming_never_hits(self):
        c = Circuit(n_qubits=16, gates=[x_gate(q) for q in range(16)])
        stats = simulate_in_order(c, capacity=4)
        assert stats.hit_rate == 0.0

    def test_tight_loop_always_hits_after_warmup(self):
        gates = [cnot_gate(0, 1) for _ in range(10)]
        c = Circuit(n_qubits=2, gates=gates)
        stats = simulate_in_order(c, capacity=2)
        assert stats.misses == 2
        assert stats.hits == 18


class TestOptimized:
    def test_order_is_valid_topological_permutation(self):
        circuit = _adder_circuit(16, False)
        result = simulate_optimized(circuit, capacity=24)
        order = result.order
        assert sorted(order) == list(range(len(circuit.gates)))
        position = {idx: pos for pos, idx in enumerate(order)}
        dag = CircuitDag.build(circuit)
        for i, preds in enumerate(dag.preds):
            for p in preds:
                assert position[p] < position[i]

    def test_beats_in_order_on_the_adder(self):
        circuit = _adder_circuit(64, False)
        in_order = simulate_in_order(circuit, capacity=81)
        optimized = simulate_optimized(circuit, capacity=81)
        assert optimized.stats.hit_rate > 2 * in_order.hit_rate

    def test_window_limits_lookahead(self):
        circuit = _adder_circuit(16, False)
        full = simulate_optimized(circuit, capacity=24)
        narrow = simulate_optimized(circuit, capacity=24, window=1)
        assert narrow.stats.hit_rate <= full.stats.hit_rate + 1e-9

    def test_reordered_gates_helper(self):
        circuit = _adder_circuit(8, False)
        result = simulate_optimized(circuit, capacity=12)
        gates = result.reordered_gates(circuit)
        assert len(gates) == len(circuit.gates)


class TestWindowedFetch:
    """Regression coverage for ``simulate_optimized(window=k)``."""

    def test_window_one_picks_arrival_order(self):
        # With a single-entry window there is no choice to make: every
        # pick takes the oldest ready instruction, so the schedule is
        # the dependency-respecting analogue of in-order issue.
        circuit = _adder_circuit(16, False)
        result = simulate_optimized(circuit, capacity=24, window=1)
        assert sorted(result.order) == list(range(len(circuit.gates)))
        position = {idx: pos for pos, idx in enumerate(result.order)}
        dag = CircuitDag.build(circuit)
        for i, preds in enumerate(dag.preds):
            for p in preds:
                assert position[p] < position[i]

    def test_window_one_matches_reference(self):
        circuit = _adder_circuit(32, False)
        fast = simulate_optimized(circuit, capacity=40, window=1)
        ref = simulate_optimized_reference(circuit, capacity=40, window=1)
        assert fast.order == ref.order
        assert fast.stats == ref.stats

    def test_window_none_is_whole_program(self):
        # A window at least as large as the gate count is the same as
        # no window at all.
        circuit = _adder_circuit(16, False)
        unwindowed = simulate_optimized(circuit, capacity=24, window=None)
        huge = simulate_optimized(
            circuit, capacity=24, window=len(circuit.gates)
        )
        assert unwindowed.order == huge.order
        assert unwindowed.stats == huge.stats

    def test_window_hit_rates_monotone_in_practice(self):
        circuit = _adder_circuit(32, False)
        narrow = simulate_optimized(circuit, capacity=40, window=1)
        full = simulate_optimized(circuit, capacity=40, window=None)
        assert narrow.stats.hit_rate <= full.stats.hit_rate + 1e-9
        # The whole-program window is what recovers the paper's ~85%
        # region; a unit window falls well short of it.
        assert full.stats.hit_rate > narrow.stats.hit_rate

    def test_stats_account_every_access(self):
        circuit = _adder_circuit(16, False)
        for window in (1, 4, None):
            stats = simulate_optimized(
                circuit, capacity=24, window=window
            ).stats
            expected = sum(len(g.qubits) for g in circuit.gates)
            assert stats.accesses == expected
            assert stats.hits + stats.misses == expected

    def test_invalid_window_rejected(self):
        circuit = _adder_circuit(8, False)
        with pytest.raises(ValueError):
            simulate_optimized(circuit, capacity=12, window=0)


class TestHitRateStudy:
    def test_study_covers_policies_and_sizes(self):
        points = hit_rate_study([16, 32], compute_qubits=20,
                                cache_factors=(1.0, 2.0))
        assert len(points) == 2 * 2 * 2
        policies = {p.policy for p in points}
        assert policies == {"in-order", "optimized"}

    def test_optimized_dominates_each_config(self):
        points = hit_rate_study([32], compute_qubits=27)
        by_cap = {}
        for p in points:
            by_cap.setdefault(p.capacity, {})[p.policy] = p.hit_rate
        for rates in by_cap.values():
            assert rates["optimized"] > rates["in-order"]
