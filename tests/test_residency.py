"""Noise-aware residency: the property/equivalence harness.

Pins the coupling between the engine dialects and the ECC Monte Carlo:

* **Partition properties** — for every (policy x prefetch) cell on all
  three study workloads, each qubit's residency intervals are
  non-overlapping, level/network-tagged, and exactly partition
  ``[0, horizon]`` (no gaps, float-exact telescoping), with the checks
  also wired through the oracle engines' ``EngineAudit``
  ``residency_*`` counters.
* **Equivalence pins** — a recorder never changes engine arithmetic
  (recorded runs are bit-identical to recorder-less runs in every
  dialect); the split-transaction reference and the flattened fastsplit
  engine record bit-identical interval lists; every dialect agrees on
  each qubit's untimed hop sequence for ``prefetch="none"``; and with
  fidelity off, engine cells, memo keys and store records are pinned
  byte-identical to the pre-fidelity layout.
* **Seed determinism** — fidelity accrual is reproducible across the
  process-pool fan-out (4 workers vs serial, byte-compared) and
  consistent with the traffic-grouped replay engine's pricing.
* **Grouped replay** — the identity-carrying movement trace, re-priced
  with a recorder, emits the event-kernel oracle's records exactly
  (clamps included); traffic-grouped fidelity sweeps extract once per
  group and write records byte-identical to per-cell runs; a corrupt
  trace fails the residency audit and quarantines its group.
"""

import json
import math
from dataclasses import asdict, fields

import pytest

from oracles.levels import simulate_hierarchy_run_audited
from repro.circuits.workloads import build_workload
from repro.core.design_space import (
    ENGINE_FIDELITY_SEED,
    ENGINE_FIDELITY_TRIALS,
    EngineRow,
    FidelityRow,
    engine_cell,
    engine_sweep,
    fidelity_cell,
    fidelity_grid,
    pareto_rows,
)
from repro.ecc.concatenated import by_key
from repro.perf.memo import SweepCache, stable_key
from repro.sim.cache import simulate_optimized
from repro.sim.fastsplit import supports_fast_split
from repro.sim.levels import (
    l1_capacity,
    mixed_stack,
    simulate_hierarchy_run,
    three_level_stack,
)
from repro.sim.policies import available_policies
from repro.sim.residency import (
    LEVEL,
    P_CAL,
    TRANSIT,
    FidelityResult,
    ResidencyRecorder,
    accrue_residency,
    code_noise,
    simulate_fidelity_run,
    stack_noise,
)
from repro.sweep.grid import Cell
from repro.sweep.runner import compute_grid

WORKLOADS = ("draper_adder", "qft", "modexp_trace")
N_BITS = 16
COMPUTE_QUBITS = 12
CACHE_FACTOR = 1.0

#: Content hash of the canonical lru/none engine cell and the memo key
#: of its one-cell fidelity-off sweep.  These literals pin the
#: fidelity-off design space to the pre-fidelity layout: adding the
#: fidelity axis must not perturb existing cell identity, store
#: records, or memoized sweeps.
PINNED_CELL_KEY = "d3355bf582b62096c3127457047b96867454ee06"
PINNED_SWEEP_KEY = "320ac717401318287d72bf3802591240824c1fa1"

#: Small Monte Carlo budget for tests that only need determinism, not
#: the calibration default.
TRIALS = 300
SEED = 7


def _stack():
    return three_level_stack(
        "steane",
        compute_qubits=COMPUTE_QUBITS,
        cache_factor=CACHE_FACTOR,
        parallel_transfers=10,
    )


_ORDERS = {}


def _order(workload):
    if workload not in _ORDERS:
        circuit = build_workload(workload, N_BITS)
        capacity = l1_capacity(COMPUTE_QUBITS, CACHE_FACTOR)
        _ORDERS[workload] = (
            circuit,
            tuple(simulate_optimized(circuit, capacity).order),
        )
    return _ORDERS[workload]


def _check_partition(recorder, stack):
    """The full interval-partition property set on a finished recorder."""
    assert recorder.finished
    assert recorder.partition_ok()
    assert recorder.mismatches == 0
    assert recorder.horizon >= recorder.makespan
    depth = stack.depth
    for q, timeline in recorder.intervals.items():
        assert timeline, f"qubit {q} has an empty timeline"
        t = 0.0
        for iv in timeline:
            # Contiguous and non-overlapping: float-exact, no gaps.
            assert iv.start == t
            assert iv.end >= iv.start
            assert iv.kind in (LEVEL, TRANSIT)
            if iv.kind == LEVEL:
                assert 0 <= iv.place < depth
            else:
                assert 0 <= iv.place < depth - 1
            t = iv.end
        assert t == recorder.horizon
        # Summed interval time is conserved (telescoping is exact; the
        # re-summed durations only see float addition error).
        total = sum(iv.duration for iv in timeline)
        assert math.isclose(total, recorder.horizon, rel_tol=1e-9)
        by_kind = sum(recorder.level_time(q).values()) + recorder.transit_time(q)
        assert math.isclose(by_kind, recorder.horizon, rel_tol=1e-9)
        # A timeline that ends parked closes at the qubit's final
        # level; one that ends exactly at a hop's completion may close
        # on the transit interval itself.
        if timeline[-1].kind == LEVEL:
            assert timeline[-1].place == recorder.final_level[q]


class TestPartitionProperties:
    """Satellite 1: the invariant matrix over every engine cell."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("policy", available_policies())
    @pytest.mark.parametrize("prefetch", ("none", "next_k"))
    def test_audited_dialects(self, workload, policy, prefetch):
        # prefetch="none" runs the reservation reference, anything else
        # the split-transaction reference — both through the audit.
        circuit, order = _order(workload)
        recorder = ResidencyRecorder()
        result, audit = simulate_hierarchy_run_audited(
            _stack(), circuit, policy, order=order, prefetch=prefetch,
            recorder=recorder,
        )
        recorder.finish(result.total_time_s)
        stack = _stack()
        _check_partition(recorder, stack)
        assert set(recorder.intervals) == set(circuit.touched_qubits())
        assert audit.residency_partition_ok
        assert audit.residency_mismatches == 0
        if prefetch != "none":
            # Per-qubit movement queues serialize split-transaction
            # transfers: recorded times are exact, never monotonized.
            assert recorder.clamped == 0
            assert audit.residency_clamped == 0
        else:
            assert audit.residency_clamped == recorder.clamped

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("policy", available_policies())
    @pytest.mark.parametrize("prefetch", ("none", "next_k"))
    def test_fastsplit_dialect(self, workload, policy, prefetch):
        circuit, order = _order(workload)
        recorder = ResidencyRecorder()
        result = simulate_hierarchy_run(
            _stack(), circuit, policy, order=order, prefetch=prefetch,
            pipeline=True, recorder=recorder,
        )
        recorder.finish(result.total_time_s)
        _check_partition(recorder, _stack())
        assert recorder.clamped == 0

    @pytest.mark.parametrize("policy", available_policies())
    def test_reservation_partitions_against_own_horizon(self, policy):
        # Reservation write-backs can complete after the compute level
        # frees: the partition closes at the horizon, not the makespan.
        circuit, order = _order("draper_adder")
        recorder = ResidencyRecorder()
        result = simulate_hierarchy_run(
            _stack(), circuit, policy, order=order, recorder=recorder,
        )
        recorder.finish(result.total_time_s)
        _check_partition(recorder, _stack())

    def test_mixed_stack_partition(self):
        stack = mixed_stack(
            "steane", "bacon_shor", 3,
            compute_qubits=COMPUTE_QUBITS, cache_factor=CACHE_FACTOR,
            parallel_transfers=10,
        )
        circuit, order = _order("draper_adder")
        recorder = ResidencyRecorder()
        result, audit = simulate_hierarchy_run_audited(
            stack, circuit, "lru", order=order, prefetch="next_k",
            recorder=recorder,
        )
        recorder.finish(result.total_time_s)
        _check_partition(recorder, stack)
        assert audit.residency_partition_ok


class TestRecorderUnit:
    def test_clamp_truncation_monotonizes(self):
        recorder = ResidencyRecorder()
        recorder.begin({0: 2})
        recorder.transfer(0, 2, 1, 5.0, 6.0, 1)
        # Scan-time inversion: booked before the previous arrival.
        recorder.transfer(0, 1, 0, 4.0, 4.5, 0)
        recorder.finish(10.0)
        assert recorder.clamped == 1
        assert recorder.mismatches == 0
        assert recorder.partition_ok()
        # The inverted transit span truncates to zero width at t=6.
        kinds = [(iv.kind, iv.place) for iv in recorder.intervals[0]]
        assert kinds == [(LEVEL, 2), (TRANSIT, 1), (LEVEL, 0)]
        assert recorder.final_level[0] == 0

    def test_mismatch_counted(self):
        recorder = ResidencyRecorder()
        recorder.begin({0: 2})
        recorder.transfer(0, 1, 0, 1.0, 2.0, 0)  # src 1, but parked at 2
        recorder.finish(5.0)
        assert recorder.mismatches == 1
        assert recorder.partition_ok()

    def test_finish_idempotent(self):
        recorder = ResidencyRecorder()
        recorder.begin({0: 1})
        recorder.finish(3.0)
        first = recorder.intervals[0]
        recorder.finish(99.0)  # no-op: horizon unchanged
        assert recorder.horizon == 3.0
        assert recorder.intervals[0] == first

    def test_horizon_extends_past_makespan(self):
        recorder = ResidencyRecorder()
        recorder.begin({0: 1})
        recorder.transfer(0, 1, 2, 2.0, 7.0, 1)
        recorder.finish(5.0)
        assert recorder.makespan == 5.0
        assert recorder.horizon == 7.0
        assert recorder.partition_ok()

    def test_unfinished_guards(self):
        recorder = ResidencyRecorder()
        recorder.begin({0: 1})
        with pytest.raises(RuntimeError, match="before finish"):
            recorder.partition_ok()
        with pytest.raises(ValueError, match="finished recorder"):
            accrue_residency(recorder, _stack())


class TestDialectEquivalence:
    """Satellite 2: recorded intervals agree across the dialects."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("policy", available_policies())
    @pytest.mark.parametrize("prefetch", ("none", "next_k", "distance"))
    def test_fastsplit_intervals_bit_identical_to_reference(
        self, workload, policy, prefetch
    ):
        assert supports_fast_split(policy, prefetch)
        circuit, order = _order(workload)
        fast_rec = ResidencyRecorder()
        fast = simulate_hierarchy_run(
            _stack(), circuit, policy, order=order, prefetch=prefetch,
            pipeline=True, recorder=fast_rec,
        )
        ref_rec = ResidencyRecorder()
        ref, _ = simulate_hierarchy_run_audited(
            _stack(), circuit, policy, order=order, prefetch=prefetch,
            pipeline=True, recorder=ref_rec,
        )
        assert fast == ref
        fast_rec.finish(fast.total_time_s)
        ref_rec.finish(ref.total_time_s)
        # Same floats, same interval objects — not just "close".
        assert fast_rec.intervals == ref_rec.intervals
        assert fast_rec.final_level == ref_rec.final_level

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("policy", available_policies())
    def test_cross_dialect_hop_sequences(self, workload, policy):
        # Untimed equivalence: for prefetch="none" every dialect moves
        # each qubit through the same hop sequence (same residency
        # *structure*; the time prices differ by transfer model).
        circuit, order = _order(workload)
        res_rec = ResidencyRecorder()
        res = simulate_hierarchy_run(
            _stack(), circuit, policy, order=order, recorder=res_rec,
        )
        split_rec = ResidencyRecorder()
        split = simulate_hierarchy_run(
            _stack(), circuit, policy, order=order, pipeline=True,
            recorder=split_rec,
        )
        res_rec.finish(res.total_time_s)
        split_rec.finish(split.total_time_s)
        assert res.fetches == split.fetches
        assert res.writebacks == split.writebacks
        for q in res_rec.intervals:
            hops_res = [
                (rec[1], rec[2]) for rec in res_rec.records if rec[0] == q
            ]
            hops_split = [
                (rec[1], rec[2]) for rec in split_rec.records if rec[0] == q
            ]
            assert hops_res == hops_split

    @pytest.mark.parametrize("prefetch", ("none", "next_k"))
    def test_recorder_never_changes_results(self, prefetch):
        circuit, order = _order("draper_adder")
        for policy in available_policies():
            plain = simulate_hierarchy_run(
                _stack(), circuit, policy, order=order, prefetch=prefetch,
            )
            recorded = simulate_hierarchy_run(
                _stack(), circuit, policy, order=order, prefetch=prefetch,
                recorder=ResidencyRecorder(),
            )
            assert recorded == plain  # bit-identical dataclass floats


class TestAccrual:
    def test_parked_qubit_hand_computed(self):
        stack = _stack()
        noise = stack_noise(stack, trials=TRIALS, seed=SEED)
        recorder = ResidencyRecorder()
        recorder.begin({0: 2})
        recorder.finish(100.0)
        fid = accrue_residency(recorder, stack, trials=TRIALS, seed=SEED)
        expected = 100.0 * noise.level_rates[2]
        assert fid.level_exponents == (0.0, 0.0, expected)
        assert fid.transit_exponent == 0.0
        assert fid.logical_error == -math.expm1(-expected)

    def test_transit_charged_at_worse_endpoint(self):
        stack = _stack()
        noise = stack_noise(stack, trials=TRIALS, seed=SEED)
        for k in range(stack.depth - 1):
            assert noise.transit_rates[k] == max(
                noise.level_rates[k], noise.level_rates[k + 1]
            )
        # Shallower levels (lower code level here) are noisier.
        assert noise.level_rates[0] > noise.level_rates[-1]

    def test_breakdown_consistency(self):
        circuit, order = _order("qft")
        _, fid = simulate_fidelity_run(
            _stack(), circuit, "lru", order=order, prefetch="next_k",
            trials=TRIALS, seed=SEED,
        )
        assert isinstance(fid, FidelityResult)
        assert fid.total_exponent == sum(fid.level_exponents) + fid.transit_exponent
        assert fid.logical_error == -math.expm1(-fid.total_exponent)
        assert len(fid.level_errors) == _stack().depth
        assert 0.0 < fid.logical_error < 1.0
        assert fid.makespan_s > 0 and fid.horizon_s >= fid.makespan_s

    def test_longer_residency_accrues_more_error(self):
        recorder_short, recorder_long = ResidencyRecorder(), ResidencyRecorder()
        for recorder, horizon in ((recorder_short, 10.0), (recorder_long, 1000.0)):
            recorder.begin({0: 0})
            recorder.finish(horizon)
        stack = _stack()
        short = accrue_residency(recorder_short, stack, trials=TRIALS, seed=SEED)
        long = accrue_residency(recorder_long, stack, trials=TRIALS, seed=SEED)
        assert long.logical_error > short.logical_error

    def test_code_noise_is_mc_calibrated(self):
        noise = code_noise("steane", 1)  # default calibration budget
        code = by_key("steane")
        analytic = code.failure_rate(1)
        # The default seed resolves a nonzero failure count at P_CAL, so
        # the rate is the *scaled* analytic value, not the raw one.
        assert noise.cycle_error_rate != analytic
        assert noise.cycle_error_rate > 0
        assert noise.cycle_time_s == code.ec_time_s(1)
        assert math.isclose(
            noise.coherence_time_s * noise.cycle_error_rate,
            noise.cycle_time_s,
        )
        # Deeper recursion: doubly-exponentially more reliable.
        assert code_noise("steane", 2).cycle_error_rate < noise.cycle_error_rate
        assert 0 < P_CAL < 1

    def test_simulate_fidelity_run_result_unchanged(self):
        circuit, order = _order("draper_adder")
        plain = simulate_hierarchy_run(_stack(), circuit, "lru", order=order)
        result, _ = simulate_fidelity_run(
            _stack(), circuit, "lru", order=order, trials=TRIALS, seed=SEED,
        )
        assert result == plain


class TestFidelityOffPins:
    """Satellite 2 (cont.): fidelity off == pre-fidelity bytes."""

    def test_pinned_cell_hash(self):
        cell = Cell.make(
            "engine_cell", workload="draper_adder", n_bits=N_BITS,
            code_key="steane", depth=2, policy="lru", prefetch="none",
            parallel_transfers=10, compute_qubits=COMPUTE_QUBITS,
            cache_factor=CACHE_FACTOR,
        )
        assert cell.key == PINNED_CELL_KEY

    def test_fidelity_off_memo_key_and_store_records(self, tmp_path):
        memo = SweepCache(directory=tmp_path / "memo")
        store = tmp_path / "store"
        rows = engine_sweep(
            workloads=("draper_adder",), sizes=(N_BITS,), depths=(2,),
            policies=("lru",), prefetches=("none",),
            cache=memo, store=str(store),
        )
        assert len(rows) == 1 and type(rows[0]) is EngineRow
        # The memoized sweep landed under the exact pre-fidelity key.
        assert memo.get(PINNED_SWEEP_KEY) is not None
        # The store record holds exactly the EngineRow fields — no
        # fidelity leakage into fidelity-off record bytes.
        from repro.perf.store import ResultStore

        record = ResultStore(store).get(PINNED_CELL_KEY)
        assert record is not None
        assert sorted(record) == sorted(f.name for f in fields(EngineRow))

    @pytest.mark.parametrize(
        "params",
        [
            {"policy": "lru", "prefetch": "none"},
            {"policy": "fidelity", "prefetch": "next_k"},
            {"policy": "belady", "prefetch": "next_k", "depth": 3},
            {
                "policy": "lru", "prefetch": "none",
                "memory_code_key": "bacon_shor",
            },
        ],
    )
    def test_fidelity_cell_embeds_exact_engine_row(self, params):
        base = {
            "workload": "draper_adder", "n_bits": N_BITS,
            "code_key": "steane", "depth": 2, "parallel_transfers": 10,
            "compute_qubits": COMPUTE_QUBITS, "cache_factor": CACHE_FACTOR,
        }
        base.update(params)
        engine_row = engine_cell(base)
        fid_row = fidelity_cell(
            dict(base, fidelity_trials=TRIALS, fidelity_seed=SEED)
        )
        for field in fields(EngineRow):
            assert getattr(fid_row, field.name) == getattr(
                engine_row, field.name
            )
        assert fid_row.fidelity_trials == TRIALS
        assert 0 < fid_row.logical_error < 1
        assert len(fid_row.level_errors) == base["depth"]

    def test_fidelity_grid_mirrors_engine_grid(self):
        from repro.core.design_space import engine_grid

        kwargs = dict(
            workloads=("qft",), sizes=(N_BITS,), depths=(2,),
            policies=("lru", "fidelity"), prefetches=("none", "next_k"),
        )
        base = engine_grid(**kwargs)
        grid = fidelity_grid(fidelity_trials=TRIALS, fidelity_seed=SEED, **kwargs)
        assert grid.kernel == "fidelity_cell"
        assert len(grid.cells) == len(base.cells)
        for fid_cell, eng_cell in zip(grid.cells, base.cells):
            params = fid_cell.as_dict()
            assert params.pop("fidelity_trials") == TRIALS
            assert params.pop("fidelity_seed") == SEED
            assert params == eng_cell.as_dict()


class TestSeedDeterminism:
    """Satellite 3: same seed, same bytes — across workers and engines."""

    GRID_KW = dict(
        workloads=("draper_adder",), sizes=(N_BITS,), depths=(2,),
        policies=("lru", "fidelity"), prefetches=("none", "next_k"),
        fidelity_trials=TRIALS, fidelity_seed=SEED,
    )

    @staticmethod
    def _row_bytes(rows):
        return json.dumps([asdict(row) for row in rows], sort_keys=True)

    def test_process_pool_fanout_bit_identical(self):
        grid = fidelity_grid(**self.GRID_KW)
        serial = compute_grid(grid, fidelity_cell, FidelityRow)
        fanned = compute_grid(grid, fidelity_cell, FidelityRow, workers=4)
        assert self._row_bytes(fanned) == self._row_bytes(serial)
        assert all(
            (row.makespan_s, row.logical_error)
            == (ref.makespan_s, ref.logical_error)
            for row, ref in zip(fanned, serial)
        )

    def test_repeat_sweep_bit_identical(self):
        kwargs = dict(
            workloads=("qft",), sizes=(N_BITS,), depths=(2,),
            policies=("lru",), prefetches=("none",), cache=False,
            fidelity={"trials": TRIALS, "seed": SEED},
        )
        first = engine_sweep(**kwargs)
        second = engine_sweep(**kwargs)
        assert self._row_bytes(first) == self._row_bytes(second)
        assert type(first[0]) is FidelityRow
        assert first[0].fidelity_seed == SEED

    def test_grouped_replay_prices_match_fidelity_rows(self):
        # The traffic-grouped replay engine (fidelity off; two codes per
        # group) and the recorded per-cell runs must agree on every
        # shared engine field.
        kwargs = dict(
            workloads=("draper_adder",), sizes=(N_BITS,), depths=(2, 3),
            policies=("lru", "fidelity"), prefetches=("none",), cache=False,
            code_keys=("steane", "bacon_shor"),
        )
        grouped = engine_sweep(**kwargs)
        fid = engine_sweep(fidelity={"trials": TRIALS, "seed": SEED}, **kwargs)
        assert len(grouped) == len(fid)
        for eng_row, fid_row in zip(grouped, fid):
            for field in fields(EngineRow):
                assert getattr(fid_row, field.name) == getattr(
                    eng_row, field.name
                )


class TestGroupedReplay:
    """Recorded reservation runs replay the identity-carrying trace."""

    GRID_KW = dict(
        workloads=("draper_adder",), sizes=(N_BITS,), depths=(2, 3),
        policies=None, prefetches=("none",),
        code_keys=("steane", "bacon_shor"),
        code_pairs=(("bacon_shor", "steane"),),
        fidelity_trials=TRIALS, fidelity_seed=SEED,
    )

    @staticmethod
    def _records(store):
        return {
            path.name: path.read_bytes()
            for path in store.directory.glob("*.json")
            if path.name != "index.json"
        }

    def test_grouped_records_byte_identical_to_percell(self, tmp_path):
        # All five policies (four specialized extractors + the generic
        # fallback), depth 2 and 3, pure and mixed stacks.
        from repro.perf.store import ResultStore

        grid = fidelity_grid(**self.GRID_KW)
        assert {c.as_dict()["policy"] for c in grid} == set(available_policies())
        grouped = ResultStore(tmp_path / "grouped")
        percell = ResultStore(tmp_path / "percell")
        rows = compute_grid(grid, fidelity_cell, FidelityRow, store=grouped)
        ref = compute_grid(
            grid, fidelity_cell, FidelityRow, store=percell, batch=None
        )
        assert rows == ref
        assert self._records(grouped) == self._records(percell)
        assert len(self._records(grouped)) == len(grid)

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("policy", available_policies())
    def test_replay_recorder_matches_audited_oracle(self, workload, policy):
        from repro.sim.replay import extract_movement_trace, price_movement_trace

        circuit, order = _order(workload)
        for stack in (_stack(), mixed_stack(
            "bacon_shor", "steane", 3, compute_qubits=COMPUTE_QUBITS,
            cache_factor=CACHE_FACTOR, parallel_transfers=3,
        )):
            trace = extract_movement_trace(stack, circuit, policy, order=order)
            replayed = ResidencyRecorder()
            run = price_movement_trace(trace, stack, replayed)
            oracle = ResidencyRecorder()
            ref, audit = simulate_hierarchy_run_audited(
                stack, circuit, policy, order=order, recorder=oracle,
            )
            assert run == ref
            assert replayed.finished and replayed.makespan == ref.total_time_s
            assert replayed.records == oracle.records
            assert replayed.intervals == oracle.intervals
            assert replayed.final_level == oracle.final_level
            assert replayed.clamped == oracle.clamped == audit.residency_clamped
            assert replayed.mismatches == oracle.mismatches == 0

    def test_clamp_is_exercised(self):
        # The replayed records keep the reservation dialect's scan-time
        # inversions: the clamp is live, not dead code.
        from repro.sim.replay import extract_movement_trace, price_movement_trace

        circuit, order = _order("draper_adder")
        trace = extract_movement_trace(_stack(), circuit, "lru", order=order)
        recorder = ResidencyRecorder()
        price_movement_trace(trace, _stack(), recorder)
        oracle = ResidencyRecorder()
        simulate_hierarchy_run_audited(
            _stack(), circuit, "lru", order=order, recorder=oracle,
        )
        assert recorder.clamped == oracle.clamped > 0
        assert recorder.intervals == oracle.intervals
        assert recorder.partition_ok()

    def test_accrual_matches_interval_integration(self):
        # The walk integrates without building intervals; the same sums
        # recomputed from the materialized intervals agree bit for bit.
        circuit, order = _order("qft")
        stack = _stack()
        recorder = ResidencyRecorder()
        run = simulate_hierarchy_run(stack, circuit, "belady", order=order,
                                     recorder=recorder)
        fid = accrue_residency(recorder, stack, trials=TRIALS, seed=SEED)
        noise = stack_noise(stack, trials=TRIALS, seed=SEED)
        level_exp = [0.0] * stack.depth
        transit_exp = 0.0
        for timeline in recorder.intervals.values():
            for iv in timeline:
                if iv.kind == LEVEL:
                    level_exp[iv.place] += iv.duration * noise.level_rates[iv.place]
                else:
                    transit_exp += iv.duration * noise.transit_rates[iv.place]
        assert fid.level_exponents == tuple(level_exp)
        assert fid.transit_exponent == transit_exp
        assert fid.makespan_s == run.total_time_s

    def test_fidelity_sweep_extracts_once_per_traffic_group(self, monkeypatch):
        import repro.sim.replay as replay
        from repro.core.design_space import engine_traffic_key

        calls = []
        extract = replay.extract_movement_trace

        def counted(*args, **kwargs):
            calls.append(args)
            return extract(*args, **kwargs)

        monkeypatch.setattr(replay, "extract_movement_trace", counted)
        kwargs = dict(
            workloads=("draper_adder",), sizes=(N_BITS,), depths=(2, 3),
            policies=("lru", "fidelity"), prefetches=("none",),
            code_keys=("steane", "bacon_shor"), transfer_options=(10, 20),
        )
        rows = engine_sweep(cache=False, fidelity=True, **kwargs)
        grid = fidelity_grid(**kwargs)
        groups = {engine_traffic_key(cell.as_dict()) for cell in grid}
        assert len(rows) == len(grid) == 4 * len(groups)
        assert len(calls) == len(groups)

    def test_corrupt_trace_quarantines_group(self, tmp_path, monkeypatch):
        import dataclasses

        import repro.core.design_space as design_space
        from repro.perf.store import ResultStore
        from repro.perf.supervise import Supervision
        from repro.sim.replay import price_movement_trace

        group_trace = design_space._group_trace

        def corrupted(group, trace_cache=None):
            trace, stacks = group_trace(group, trace_cache)
            victims = list(trace.miss_victim)
            i = next(i for i, v in enumerate(victims) if v >= 0)
            # A qubit not fetched yet is still parked at the backing
            # store: recording its write-back from level 0 mismatches.
            fetched = set(trace.miss_qubit[: i + 1])
            victims[i] = next(q for q in trace.touched if q not in fetched)
            bad = dataclasses.replace(trace, miss_victim=tuple(victims))
            return bad, stacks

        monkeypatch.setattr(design_space, "_group_trace", corrupted)
        grid = fidelity_grid(
            workloads=("draper_adder",), sizes=(N_BITS,), depths=(2,),
            policies=("lru",), prefetches=("none",),
            code_keys=("steane", "bacon_shor"),
            fidelity_trials=TRIALS, fidelity_seed=SEED,
        )
        members = [cell.as_dict() for cell in grid]
        bad, stacks = corrupted(members)
        recorder = ResidencyRecorder()
        price_movement_trace(bad, stacks[0], recorder)
        assert recorder.mismatches > 0
        with pytest.raises(RuntimeError, match="residency audit"):
            accrue_residency(recorder, stacks[0], trials=TRIALS, seed=SEED)

        store = ResultStore(tmp_path / "store")
        rows = compute_grid(
            grid, fidelity_cell, FidelityRow, store=store,
            supervise=Supervision(),
        )
        assert rows == [None] * len(grid)
        keys = sorted(cell.key for cell in grid)
        assert sorted(store.failure_keys()) == keys
        for cell in grid:
            assert not store.has(cell.key)
            record = store.failure(cell.key)["failure"]
            assert record["exception_type"] == "RuntimeError"
            assert sorted(record["group_members"]) == keys


class TestPareto:
    @staticmethod
    def _row(makespan, err, policy="lru"):
        return FidelityRow(
            workload="draper_adder", n_bits=N_BITS, code_key="steane",
            memory_code_key="steane", depth=2, policy=policy,
            prefetch="none", parallel_transfers=10, hit_rate=0.9,
            speedup=2.0, transfer_bound_fraction=0.1, transfers=10,
            makespan_s=makespan, fidelity_trials=TRIALS,
            fidelity_seed=SEED, logical_error=err,
            level_errors=(err, 0.0), transit_error=0.0,
        )

    def test_front_selection(self):
        rows = [
            self._row(10.0, 1e-6),
            self._row(12.0, 1e-7),   # slower but more reliable: on front
            self._row(15.0, 5e-7),   # dominated by both above
            self._row(9.0, 2e-6),    # fastest: on front
        ]
        front = pareto_rows(rows)
        assert [(r.makespan_s, r.logical_error) for r in front] == [
            (9.0, 2e-6), (10.0, 1e-6), (12.0, 1e-7),
        ]

    def test_makespan_tie_keeps_most_reliable(self):
        rows = [self._row(10.0, 1e-6), self._row(10.0, 1e-8)]
        front = pareto_rows(rows)
        assert len(front) == 1
        assert front[0].logical_error == 1e-8

    def test_none_rows_ignored(self):
        rows = [None, self._row(10.0, 1e-6), None]
        assert len(pareto_rows(rows)) == 1

    def test_single_row_is_front(self):
        row = self._row(10.0, 1e-6)
        assert pareto_rows([row]) == [row]

    def test_level_errors_tuple_roundtrip(self):
        row = self._row(10.0, 1e-6)
        back = FidelityRow(**json.loads(json.dumps(asdict(row))))
        assert back == row
        assert isinstance(back.level_errors, tuple)


class TestSurfaces:
    """The pareto table renders from the sweep CLI and the service."""

    @pytest.fixture(scope="class")
    def filled_store(self, tmp_path_factory):
        store = tmp_path_factory.mktemp("residency") / "store"
        grid = fidelity_grid(**TestSeedDeterminism.GRID_KW)
        compute_grid(grid, fidelity_cell, FidelityRow, store=str(store))
        return str(store), grid

    def test_cli_table_subcommand(self, filled_store, capsys):
        from repro.sweep.cli import main

        store, _ = filled_store
        rc = main([
            "table", "--store", store, "--kernel", "fidelity_cell",
            "--workloads", "draper_adder", "--sizes", str(N_BITS),
            "--depths", "2", "--policies", "lru", "fidelity",
            "--prefetches", "none", "next_k",
            "--fidelity-trials", str(TRIALS), "--fidelity-seed", str(SEED),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "time vs fidelity" in out
        assert "*" in out
        assert "fidelity" in out

    def test_service_v1_table(self, filled_store):
        import urllib.request

        from repro.perf.backends import open_store
        from repro.service.server import BackgroundService

        store, grid = filled_store
        with BackgroundService(open_store(store), grid) as svc:
            body = urllib.request.urlopen(svc.url + "/v1/table").read().decode()
        assert "time vs fidelity" in body
        assert "logical err" in body

    def test_degraded_render_marks_holes(self, filled_store):
        from repro.analysis.tables import _render_fidelity_table

        store, grid = filled_store
        rows = [None] + [
            fidelity_cell(grid.cells[1].as_dict()),
        ]
        text = _render_fidelity_table(rows, grid=grid, store=store)
        assert "—" in text
        assert "missing/quarantined" in text

    def test_cli_rejects_fidelity_options_on_other_kernels(self):
        from repro.sweep.cli import main

        with pytest.raises(SystemExit, match="fidelity-grid options"):
            main([
                "status", "--store", "/tmp/nonexistent-store",
                "--kernel", "engine_cell", "--fidelity-trials", "10",
            ])

    def test_memo_key_distinct_with_fidelity(self):
        axes = dict(
            workloads=["draper_adder"], sizes=[N_BITS], code_keys=["steane"],
            depths=[2], policies=["lru"], prefetches=["none"],
            transfer_options=[10], compute_qubits=COMPUTE_QUBITS,
            cache_factor=CACHE_FACTOR, code_pairs=[],
        )
        off = stable_key("engine_sweep", **axes)
        on = stable_key(
            "engine_sweep",
            fidelity_trials=ENGINE_FIDELITY_TRIALS,
            fidelity_seed=ENGINE_FIDELITY_SEED,
            **axes,
        )
        assert off == PINNED_SWEEP_KEY
        assert on != off
