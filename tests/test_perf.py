"""Tests for the repro.perf subsystem and its sweep wiring."""

from dataclasses import FrozenInstanceError

import pytest

import storefiles
from repro.core.design_space import (
    hierarchy_sweep,
    specialization_grid,
    specialization_sweep,
)
from repro.perf.store import ResultStore
from repro.sim.hierarchy_sim import (
    _adder_circuit,
    _adder_l1_run,
    l1_speedup,
    simulate_l1_run,
)
from repro.sweep.grid import stable_key


class TestStableKey:
    def test_deterministic(self):
        assert stable_key("k", a=1, b=[2, 3]) == stable_key("k", b=[2, 3], a=1)

    def test_sensitive_to_kernel_and_params(self):
        base = stable_key("k", a=1)
        assert stable_key("other", a=1) != base
        assert stable_key("k", a=2) != base
        assert stable_key("k", a=1, b=0) != base


class TestSweepWiring:
    def test_specialization_sweep_store_and_workers_agree(self, tmp_path):
        plain = specialization_sweep(sizes=(32, 64))
        first = specialization_sweep(sizes=(32, 64), store=tmp_path)
        warm = specialization_sweep(sizes=(32, 64), store=tmp_path)
        fanned = specialization_sweep(sizes=(32, 64), workers=2)
        assert plain == first == warm == fanned

    def test_malformed_stored_record_recomputes(self, tmp_path):
        good = specialization_sweep(sizes=(32,), store=tmp_path)
        store = ResultStore(tmp_path)
        for key in specialization_grid(sizes=(32,)).keys():
            storefiles.plant(store, key, '{"value": "garbage"}')
        again = specialization_sweep(sizes=(32,), store=tmp_path)
        assert again == good


class TestAdderL1RunCache:
    """Default-adder ``simulate_l1_run`` results are cached per process:
    the cached result equals a fresh run on the same adder circuit."""

    def test_simulate_l1_run_memo_identical(self):
        a = simulate_l1_run("steane", 64)
        b = simulate_l1_run("steane", 64)
        fresh = simulate_l1_run("steane", 64, circuit=_adder_circuit(64, False))
        assert a == b == fresh
        assert a is b  # one shared entry ...
        with pytest.raises(FrozenInstanceError):
            a.l1_time_s = 0.0  # ... that no caller can mutate

    def test_hierarchy_sweep_cached_identical(self):
        a = hierarchy_sweep(sizes=(256,))
        hits = _adder_l1_run.cache_info().hits
        b = hierarchy_sweep(sizes=(256,))
        assert a == b
        assert _adder_l1_run.cache_info().hits > hits

    def test_same_code_l1_key_shares_the_same_code_entry(self):
        assert simulate_l1_run("steane", 64, l1_code_key="steane") is (
            simulate_l1_run("steane", 64)
        )

    def test_explicit_circuit_bypasses_cache(self):
        circuit = _adder_circuit(32, False)
        size = _adder_l1_run.cache_info().currsize
        a = simulate_l1_run("bacon_shor", 32, circuit=circuit)
        b = simulate_l1_run("bacon_shor", 32, circuit=circuit)
        assert a == b and a is not b
        assert _adder_l1_run.cache_info().currsize == size

    @pytest.mark.parametrize("policy, prefetch", [
        ("lru", "none"), ("belady", "none"), ("lru", "next_k"),
    ])
    def test_policy_and_prefetch_are_part_of_the_key(self, policy, prefetch):
        cached = simulate_l1_run(
            "steane", 64, eviction_policy=policy, prefetch=prefetch,
        )
        fresh = simulate_l1_run(
            "steane", 64, circuit=_adder_circuit(64, False),
            eviction_policy=policy, prefetch=prefetch,
        )
        assert cached == fresh


class TestL1SpeedupKeying:
    def test_explicit_parameters_are_part_of_the_key(self):
        base = l1_speedup("steane", 64)
        small = l1_speedup("steane", 64, 10, 27, 1.0)
        # A smaller compute region / cache must not alias the default
        # entry: the cached function now keys on every input.
        assert small != base
        assert base == l1_speedup("steane", 64)
        assert small == l1_speedup("steane", 64, 10, 27, 1.0)

    def test_defaults_match_explicit_defaults(self):
        from repro.sim.hierarchy_sim import DEFAULT_COMPUTE_QUBITS

        assert l1_speedup("steane", 64) == l1_speedup(
            "steane", 64, 10, DEFAULT_COMPUTE_QUBITS, 2.0
        )
