"""Equivalence tests: rewritten hot paths vs retained references.

The incremental fetch scheduler, the batched Monte Carlo decoder, and
the N-level hierarchy engine are rewrites of paths whose numbers the
paper tables depend on — each must produce *bit-identical* output to
the implementation it replaced.  The references are kept as test
oracles under ``tests/oracles/`` (``simulate_optimized_reference``,
``logical_error_rate_reference``, ``simulate_l1_run_reference``,
``simulate_hierarchy_run_reference``) as executable specifications, and
these tests pin the production paths to them.
"""

import pytest

from oracles.cache import simulate_optimized_reference
from oracles.hierarchy_sim import simulate_l1_run_reference
from oracles.levels import simulate_hierarchy_run_reference
from oracles.montecarlo import logical_error_rate_reference
from repro.circuits.workloads import build_workload
from repro.core.design_space import hierarchy_sweep
from repro.ecc.bacon_shor import bacon_shor_code
from repro.ecc.montecarlo import (
    logical_error_rate,
    sample_depolarizing_batch,
)
from repro.ecc.steane import steane_code
from repro.sim.cache import simulate_optimized
from repro.sim.hierarchy_sim import simulate_l1_run
from repro.sim.levels import simulate_hierarchy_run, standard_stack
from repro.sim.policies import available_policies
from repro.sim.scheduler import _adder_circuit

COMPUTE_QUBITS = 27


class TestSchedulerEquivalence:
    @pytest.mark.parametrize("n_bits", [8, 32, 128])
    @pytest.mark.parametrize("cache_factor", [1.0, 1.5, 2.0])
    def test_order_and_stats_identical(self, n_bits, cache_factor):
        circuit = _adder_circuit(n_bits, False)
        capacity = max(1, int(round(cache_factor * COMPUTE_QUBITS)))
        fast = simulate_optimized(circuit, capacity)
        ref = simulate_optimized_reference(circuit, capacity)
        assert fast.order == ref.order
        assert fast.stats == ref.stats

    @pytest.mark.parametrize("window", [1, 2, 5, 16])
    def test_windowed_identical(self, window):
        circuit = _adder_circuit(32, False)
        fast = simulate_optimized(circuit, 40, window=window)
        ref = simulate_optimized_reference(circuit, 40, window=window)
        assert fast.order == ref.order
        assert fast.stats == ref.stats


class TestHierarchyEngineEquivalence:
    """The generalized N-level engine, run as a two-level LRU stack,
    must reproduce the original Table 5 simulator field for field."""

    @pytest.mark.parametrize("code_key", ["steane", "bacon_shor"])
    @pytest.mark.parametrize("n_bits", [32, 64])
    @pytest.mark.parametrize("par", [5, 10])
    def test_two_level_lru_bit_identical(self, code_key, n_bits, par):
        engine = simulate_l1_run(code_key, n_bits, parallel_transfers=par)
        ref = simulate_l1_run_reference(
            code_key, n_bits, parallel_transfers=par
        )
        # Frozen-dataclass equality: every field exactly equal, floats
        # included — no tolerance.
        assert engine == ref

    @pytest.mark.parametrize("compute_qubits,cache_factor", [
        (27, 1.0), (27, 1.5), (81, 2.0),
    ])
    def test_cache_geometry_variants_identical(
        self, compute_qubits, cache_factor
    ):
        engine = simulate_l1_run(
            "steane", 64, compute_qubits=compute_qubits,
            cache_factor=cache_factor,
        )
        ref = simulate_l1_run_reference(
            "steane", 64, compute_qubits=compute_qubits,
            cache_factor=cache_factor,
        )
        assert engine == ref

    def test_caller_supplied_circuit_identical(self):
        circuit = _adder_circuit(32, False)
        engine = simulate_l1_run("steane", 32, circuit=circuit)
        ref = simulate_l1_run_reference("steane", 32, circuit=circuit)
        assert engine == ref

    def test_table5_speedups_unchanged(self):
        """Every Table 5 cell's L1 speedup survives the refactor exactly."""
        rows = hierarchy_sweep()
        assert rows
        for row in rows:
            ref = simulate_l1_run_reference(
                row.code_key, row.n_bits,
                parallel_transfers=row.parallel_transfers,
            )
            assert row.l1_speedup == ref.l1_speedup


class TestEventKernelEngineEquivalence:
    """The event-kernel engine's reservation model (prefetch="none",
    pipelining disabled) must reproduce the retained PR 2 sequential
    loop field for field on every engine-sweep cell shape."""

    @pytest.mark.parametrize("workload", ["draper_adder", "qft",
                                          "modexp_trace"])
    @pytest.mark.parametrize("depth", [2, 3, 4])
    @pytest.mark.parametrize("policy", available_policies())
    def test_engine_sweep_cells_bit_identical(self, workload, depth, policy):
        stack = standard_stack("steane", depth, compute_qubits=12,
                               cache_factor=1.0)
        circuit = build_workload(workload, 16)
        engine = simulate_hierarchy_run(stack, circuit, policy=policy)
        ref = simulate_hierarchy_run_reference(stack, circuit, policy=policy)
        # Frozen-dataclass equality: every field exactly equal, floats
        # included — no tolerance.
        assert engine == ref

    @pytest.mark.parametrize("code_key", ["steane", "bacon_shor"])
    def test_paper_geometry_bit_identical(self, code_key):
        stack = standard_stack(code_key, 3)
        circuit = build_workload("draper_adder", 64)
        engine = simulate_hierarchy_run(stack, circuit)
        ref = simulate_hierarchy_run_reference(stack, circuit)
        assert engine == ref

    def test_explicit_pipeline_false_with_prefetch_raises(self):
        stack = standard_stack("steane", 3, compute_qubits=12,
                               cache_factor=1.0)
        with pytest.raises(ValueError, match="pipeline"):
            simulate_hierarchy_run(stack, "qft", prefetch="next_k",
                                   pipeline=False)

    def test_reference_validates_like_the_engine(self):
        # The reference is the executable spec: a typo'd fetch mode
        # must raise, not silently run the in-order schedule.
        stack = standard_stack("steane", 3, compute_qubits=12,
                               cache_factor=1.0)
        with pytest.raises(ValueError, match="unknown fetch mode"):
            simulate_hierarchy_run_reference(stack, "qft",
                                             fetch="optimised")
        with pytest.raises(ValueError, match="contradict"):
            simulate_hierarchy_run_reference(stack, "qft",
                                             fetch="in-order", order=[0, 1])


class TestMonteCarloEquivalence:
    @pytest.mark.parametrize("code_fn", [steane_code, bacon_shor_code])
    @pytest.mark.parametrize("p,trials,seed", [
        (0.002, 500, 11),
        (0.01, 800, 7),
        (0.05, 400, 3),
        (0.2, 200, 42),
    ])
    def test_failure_counts_identical(self, code_fn, p, trials, seed):
        code = code_fn()
        fast = logical_error_rate(code, p, trials=trials, seed=seed)
        ref = logical_error_rate_reference(code, p, trials=trials, seed=seed)
        assert fast.failures == ref.failures
        assert fast.trials == ref.trials
        assert fast.physical_error_rate == ref.physical_error_rate

    def test_batch_sampler_matches_scalar_stream(self):
        """Batch sampling must consume the RNG exactly like the scalar
        sampler: trial t of a batch equals the t-th scalar draw."""
        import numpy as np

        from repro.ecc.montecarlo import sample_depolarizing

        batch_rng = np.random.default_rng(5)
        scalar_rng = np.random.default_rng(5)
        batch = sample_depolarizing_batch(7, 0.3, 20, batch_rng)
        for t in range(20):
            pauli = sample_depolarizing(7, 0.3, scalar_rng)
            assert tuple(batch[t, :7]) == pauli.x
            assert tuple(batch[t, 7:]) == pauli.z
