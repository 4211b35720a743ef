"""Tests for the repro.perf subsystem and its sweep wiring."""

from dataclasses import FrozenInstanceError

import pytest

from repro.core.design_space import (
    hierarchy_sweep,
    specialization_grid,
    specialization_sweep,
)
from repro.perf.store import ResultStore
from repro.perf.parallel import parallel_indexed, parallel_iter, parallel_map
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


class TestParallelMap:
    def test_serial_matches_comprehension(self):
        assert parallel_map(abs, [-2, 1, -3]) == [2, 1, 3]
        assert parallel_map(abs, [], workers=8) == []

    def test_parallel_preserves_order(self):
        items = list(range(20))
        assert parallel_map(_square, items, workers=4) == [
            i * i for i in items
        ]

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            parallel_map(abs, [1], workers=-1)
        with pytest.raises(ValueError):
            parallel_iter(abs, [1], workers=-1)

    def test_iter_streams_lazily_in_order(self):
        computed = []

        def record(x):
            computed.append(x)
            return x * x

        stream = parallel_iter(record, [1, 2, 3])
        assert computed == []  # nothing runs until the caller advances
        assert next(stream) == 1
        assert computed == [1]
        assert list(stream) == [4, 9]

    def test_iter_parallel_matches_map(self):
        items = list(range(12))
        assert list(parallel_iter(_square, items, workers=3)) == [
            i * i for i in items
        ]


def _square(x):
    return x * x


def _square_or_raise(x):
    if x < 0:
        raise RuntimeError(f"scripted failure for {x}")
    return x * x


def _square_or_raise_slowly(x):
    import time

    if x < 0:
        time.sleep(0.5)
        raise RuntimeError(f"scripted failure for {x}")
    return x * x


def _mark_and_square(args):
    import time
    from pathlib import Path

    x, directory = args
    if x < 0:
        raise RuntimeError(f"scripted failure for {x}")
    time.sleep(0.3)
    Path(directory, f"ran-{x}").write_text("")
    return x * x


class TestParallelIndexed:
    def test_serial_yields_input_order(self):
        assert list(parallel_indexed(_square, [3, 1, 2])) == [
            (0, 9), (1, 1), (2, 4)
        ]

    def test_pool_yields_every_pair_once(self):
        items = list(range(12))
        pairs = sorted(parallel_indexed(_square, items, workers=3))
        assert pairs == [(i, i * i) for i in items]

    def test_serial_failure_propagates(self):
        with pytest.raises(RuntimeError, match="scripted failure"):
            list(parallel_indexed(_square_or_raise, [1, -2, 3]))

    def test_pool_drains_completed_before_raising(self):
        """A consumer persisting incrementally keeps every finished
        cell: the failure surfaces only after completed futures drain —
        even though the failing cell holds the lowest index."""
        items = [-1, 1, 2, 3]  # index 0 fails, after the others finish
        seen = []
        with pytest.raises(RuntimeError, match="scripted failure for -1"):
            for index, value in parallel_indexed(
                _square_or_raise_slowly, items, workers=4
            ):
                seen.append((index, value))
        assert sorted(seen) == [(1, 1), (2, 4), (3, 9)]

    def test_pool_failure_cancels_queued_cells(self, tmp_path):
        """Teardown after a failure must not start queued cells."""
        items = [(x, str(tmp_path)) for x in [-1] + list(range(10))]
        with pytest.raises(RuntimeError, match="scripted failure"):
            list(parallel_indexed(_mark_and_square, items, workers=2))
        started = list(tmp_path.glob("ran-*"))
        # Only cells already running or in the pool's bounded call
        # queue (workers + 1 deep) can still finish; the rest of the
        # queue was cancelled, never drained.  2 running + 3 queued,
        # plus one slot of scheduling slop.
        assert len(started) <= 6


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
            store.record_path(key).write_text('{"value": "garbage"}')
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
