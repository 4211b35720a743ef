"""Tests for traffic-grouped sweep execution.

The engine design space factorizes: reservation-model replacement
traffic depends only on the traffic axes (workload, size, depth,
policy), never on the priced axes (code assignment, transfer width).
``compute_grid`` exploits this on its own for engine grids — each
traffic group of pending cells simulates its movement trace once and
re-prices it per member, and a time-coupled (prefetching) cell is a
group of one — and these tests pin that grouping to direct per-cell
``engine_cell`` calls at every observable layer: returned rows, stored
record bytes, group-shaped supervision and quarantine, shard
assignment, and the CLI.
"""

import importlib
import pickle
import pstats
from dataclasses import asdict

import pytest

import repro.core.design_space as design_space
import storefiles
import repro.sim.replay as replay
from repro.core.design_space import (
    EngineRow,
    engine_batch_cell,
    engine_cell,
    engine_grid,
    engine_sweep,
    engine_traffic_key,
)
from repro.perf import chaos
from repro.perf.store import ResultStore
from repro.perf.supervise import Supervision, RetryPolicy, supervised_indexed
from repro.sim.levels import simulate_hierarchy_run
from repro.sim.residency import simulate_fidelity_run
from repro.sweep.cli import main as sweep_main
from repro.sweep.grid import Cell, Grid
from repro.sweep.runner import compute_grid, kernel_registry, plan_shard

PAIRS = (("bacon_shor", "steane"), ("steane", "bacon_shor"))

#: One small engine grid with both groupable (no-prefetch) and
#: time-coupled (next_k) cells, and a three-config priced axis per
#: traffic group (pure steane plus both mixed pairs).
GRID_KWARGS = dict(
    workloads=("draper_adder",), sizes=(16,), depths=(2, 3),
    policies=("lru", "belady"), prefetches=("none", "next_k"),
    code_pairs=PAIRS,
)
GRID_ARGS = [
    "--workloads", "draper_adder", "--sizes", "16", "--depths", "2", "3",
    "--policies", "lru", "belady", "--prefetches", "none", "next_k",
    "--code-pairs", "bacon_shor:steane", "steane:bacon_shor",
]

#: The same grid without the mixed-code axis: every traffic group is a
#: singleton.
SINGLETON_KWARGS = {k: v for k, v in GRID_KWARGS.items() if k != "code_pairs"}


def _record_bytes(store: ResultStore) -> dict:
    return storefiles.record_texts(store)


def _groups(grid):
    groups = {}
    for cell in grid:
        token = engine_traffic_key(cell.as_dict())
        if token is not None:
            groups.setdefault(token, []).append(cell)
    return groups


def _prefetching(grid) -> list:
    """The time-coupled cells of ``grid``: each one a group of its own."""
    return [cell for cell in grid if engine_traffic_key(cell.as_dict()) is None]


def _percell_rows(grid, cell_fn=engine_cell) -> list:
    """The per-cell reference rows: every cell through ``cell_fn``."""
    return [cell_fn(cell.as_dict()) for cell in grid]


def _percell_store(grid, directory) -> ResultStore:
    """The per-cell reference store: every cell through ``engine_cell``,
    written straight through the store API."""
    store = ResultStore(directory)
    store.put_many(
        (cell.key, asdict(row), cell.kernel, cell.as_dict())
        for cell, row in zip(grid, _percell_rows(grid))
    )
    return store


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts traffic extractions and the group sizes the group kernel
    receives (serial runs only: pool workers do not see the patch)."""
    calls = {"extract": 0, "groups": []}
    extract = replay.extract_movement_trace
    batch_cell = design_space.engine_batch_cell

    def counted_extract(*args, **kwargs):
        calls["extract"] += 1
        return extract(*args, **kwargs)

    def counted_batch_cell(group):
        calls["groups"].append(len(group))
        return batch_cell(group)

    monkeypatch.setattr(replay, "extract_movement_trace", counted_extract)
    monkeypatch.setattr(design_space, "engine_batch_cell", counted_batch_cell)
    return calls


class TestTrafficKey:
    def test_priced_axes_share_a_key(self):
        base = dict(workload="draper_adder", n_bits=16, depth=2,
                    policy="lru", prefetch="none", code_key="steane",
                    parallel_transfers=10, compute_qubits=12,
                    cache_factor=1.0)
        mixed = dict(base, code_key="bacon_shor", memory_code_key="steane",
                     parallel_transfers=20)
        assert engine_traffic_key(base) == engine_traffic_key(mixed)

    def test_traffic_axes_split_keys(self):
        base = dict(workload="draper_adder", n_bits=16, depth=2,
                    policy="lru", prefetch="none", code_key="steane",
                    parallel_transfers=10, compute_qubits=12,
                    cache_factor=1.0)
        assert engine_traffic_key(base) != engine_traffic_key(
            dict(base, policy="belady")
        )
        assert engine_traffic_key(base) != engine_traffic_key(
            dict(base, depth=3)
        )

    def test_time_coupled_cells_are_unbatchable(self):
        params = dict(workload="draper_adder", n_bits=16, depth=2,
                      policy="lru", prefetch="next_k", code_key="steane",
                      parallel_transfers=10, compute_qubits=12,
                      cache_factor=1.0)
        assert engine_traffic_key(params) is None


class TestBatchKernel:
    def test_rejects_mixed_traffic_groups(self):
        grid = engine_grid(**GRID_KWARGS)
        cells = [cell.as_dict() for cell in grid
                 if cell.as_dict()["prefetch"] == "none"]
        different = [params for params in cells
                     if params["depth"] != cells[0]["depth"]]
        with pytest.raises(ValueError):
            engine_batch_cell((cells[0], different[0]))

    @pytest.mark.parametrize("group_fn", [
        design_space.engine_batch_cell, design_space.fidelity_batch_cell,
    ])
    def test_rejects_time_coupled_groups(self, group_fn):
        # A time-coupled cell runs alone: two of them, or one beside a
        # batchable cell, are not a group.
        grid = design_space.fidelity_grid(**GRID_KWARGS)
        prefetched = [cell.as_dict() for cell in _prefetching(grid)]
        batchable = [cell.as_dict() for cell in grid
                     if cell.as_dict()["prefetch"] == "none"]
        for group in ((prefetched[0], prefetched[1]),
                      (prefetched[0], batchable[0]),
                      (batchable[0], prefetched[0])):
            with pytest.raises(ValueError):
                group_fn(group)

    def test_one_member_prefetch_group_runs_the_split_engine(
        self, kernel_calls
    ):
        # A one-member time-coupled group is the cell function's own
        # path: the split-transaction run of that cell, no extraction.
        grid = design_space.fidelity_grid(
            fidelity_trials=300, fidelity_seed=7, **GRID_KWARGS)
        params = _prefetching(grid)[0].as_dict()
        engine_params = {k: v for k, v in params.items()
                         if not k.startswith("fidelity_")}
        stack = design_space._engine_stack(params)
        circuit = design_space._engine_circuit(params["workload"],
                                               params["n_bits"])
        run = simulate_hierarchy_run(stack, circuit, params["policy"],
                                     prefetch=params["prefetch"])
        [row] = design_space.engine_batch_cell((engine_params,))
        assert row == engine_cell(engine_params)
        assert (row.hit_rate, row.speedup, row.transfers, row.makespan_s) \
            == (run.hit_rate, run.speedup, run.transfers, run.total_time_s)
        fid_run, fid = simulate_fidelity_run(
            stack, circuit, params["policy"], prefetch=params["prefetch"],
            trials=300, seed=7)
        [fid_row] = design_space.fidelity_batch_cell((params,))
        assert fid_row == design_space.fidelity_cell(params)
        assert fid_row.makespan_s == fid_run.total_time_s == run.total_time_s
        assert (fid_row.logical_error, fid_row.level_errors,
                fid_row.transit_error) \
            == (fid.logical_error, fid.level_errors, fid.transit_error)
        assert kernel_calls["extract"] == 0


class TestKernelRecords:
    @pytest.mark.parametrize("kernel,attribute", [
        ("engine_cell", "engine_batch_cell"),
        ("fidelity_cell", "fidelity_batch_cell"),
    ])
    def test_group_function_is_looked_up_at_call_time(
        self, monkeypatch, kernel, attribute
    ):
        # compute_grid reads the record per call: a patched group
        # function is the one every work item runs through.
        monkeypatch.setattr(design_space, attribute,
                            lambda group: [len(group)] * len(group))
        record = kernel_registry()[kernel]
        assert record.group is getattr(design_space, attribute)
        grid = record.grid(**SINGLETON_KWARGS)
        rows = compute_grid(grid, record.cell, record.row_type)
        assert rows == [1] * len(grid)
        grid = record.grid(**GRID_KWARGS)
        rows = compute_grid(grid, record.cell, record.row_type)
        alone = len(_prefetching(grid))
        assert sorted(rows) == [1] * alone + [3] * (len(grid) - alone)

    @pytest.mark.parametrize("kernel", ["specialization_cell",
                                        "hierarchy_cell", "transfer_cell"])
    def test_table_kernels_have_no_group_function(self, kernel):
        assert kernel_registry()[kernel].group is None

    def test_records_pickle_and_name_their_grids(self):
        for name, record in kernel_registry().items():
            assert pickle.loads(pickle.dumps(record)) == record
            assert record.grid().kernel == name


class TestAutomaticGrouping:
    """Engine grids group by traffic key with no caller flag."""

    def test_engine_sweep_extracts_once_per_group(self, kernel_calls):
        grid = engine_grid(**GRID_KWARGS)
        groups = _groups(grid)
        rows = engine_sweep(**GRID_KWARGS)
        assert kernel_calls["extract"] == len(groups) > 0
        assert sorted(kernel_calls["groups"]) == (
            [1] * len(_prefetching(grid)) + [3] * len(groups)
        )
        assert rows == _percell_rows(grid)

    def test_cli_run_extracts_once_per_group(self, tmp_path, kernel_calls):
        grid = engine_grid(**GRID_KWARGS)
        store = tmp_path / "store"
        assert sweep_main(["run", "--store", str(store), *GRID_ARGS]) == 0
        assert kernel_calls["extract"] == len(_groups(grid))
        reference = _percell_store(grid, tmp_path / "percell")
        assert _record_bytes(ResultStore(store)) == _record_bytes(reference)

    def test_singleton_groups_and_prefetch_cells_are_one_member_groups(
        self, tmp_path, kernel_calls
    ):
        # Every cell goes through the group function: a singleton
        # traffic group extracts its own trace, a prefetching cell runs
        # the split-transaction engine.
        grid = engine_grid(**SINGLETON_KWARGS)
        groups = _groups(grid)
        assert all(len(group) == 1 for group in groups.values())
        store = ResultStore(tmp_path / "store")
        compute_grid(grid, engine_cell, EngineRow, store=store)
        assert kernel_calls == {"extract": len(groups),
                                "groups": [1] * len(grid)}
        reference = _percell_store(grid, tmp_path / "percell")
        assert _record_bytes(store) == _record_bytes(reference)

    def test_one_pending_member_is_a_one_member_group(
        self, tmp_path, kernel_calls
    ):
        # Grouping counts *pending* cells: a resume that finds all but
        # one member of every group stored recomputes each of the rest
        # as a one-member group.
        grid = engine_grid(**GRID_KWARGS)
        store = _percell_store(grid, tmp_path / "store")
        reference = _record_bytes(store)
        groups = _groups(grid)
        for group in groups.values():
            storefiles.remove(store, group[0].key)
        kernel_calls["extract"], kernel_calls["groups"] = 0, []
        compute_grid(grid, engine_cell, EngineRow, store=store)
        assert kernel_calls == {"extract": len(groups),
                                "groups": [1] * len(groups)}
        assert _record_bytes(store) == reference

    def test_fidelity_cells_group_by_traffic_key(self, kernel_calls):
        # Fidelity cells share the engine grid's traffic groups: one
        # extraction, re-priced with a recorder per member (through
        # their own group kernel, not engine_batch_cell).
        rows = engine_sweep(
            workloads=("qft",), sizes=(16,), depths=(2,), policies=("lru",),
            prefetches=("none",), code_pairs=PAIRS,
            fidelity={"trials": 300, "seed": 7},
        )
        assert len(rows) == 3
        assert kernel_calls == {"extract": 1, "groups": []}
        grid = design_space.fidelity_grid(
            workloads=("qft",), sizes=(16,), depths=(2,), policies=("lru",),
            prefetches=("none",), code_pairs=PAIRS,
            fidelity_trials=300, fidelity_seed=7,
        )
        assert rows == _percell_rows(grid, design_space.fidelity_cell)

    def test_rerun_extracts_again_and_is_bit_identical(
        self, tmp_path, kernel_calls
    ):
        # Traces live only for one group's pricing: a second run into a
        # fresh store simulates every group again, to the same bytes.
        groups = _groups(engine_grid(**GRID_KWARGS))
        first, second = (ResultStore(tmp_path / name) for name in "ab")
        rows = engine_sweep(store=first, **GRID_KWARGS)
        assert kernel_calls["extract"] == len(groups)
        assert engine_sweep(store=second, **GRID_KWARGS) == rows
        assert kernel_calls["extract"] == 2 * len(groups)
        assert _record_bytes(first) == _record_bytes(second)

    def test_extended_priced_axis_computes_only_new_cells(
        self, tmp_path, kernel_calls
    ):
        # A finished grid extended by one transfer width re-simulates
        # each traffic group once for its new members and leaves every
        # stored record untouched.
        store = ResultStore(tmp_path / "store")
        engine_sweep(store=store, transfer_options=(10,), **GRID_KWARGS)
        before = _record_bytes(store)
        kernel_calls["extract"], kernel_calls["groups"] = 0, []
        grid = engine_grid(transfer_options=(10, 20), **GRID_KWARGS)
        rows = compute_grid(grid, engine_cell, EngineRow, store=store)
        groups = _groups(grid)
        assert kernel_calls["extract"] == len(groups)
        # Each traffic group gains three members; each new prefetching
        # cell is a group of its own.
        assert sorted(kernel_calls["groups"]) == (
            [1] * (len(_prefetching(grid)) // 2) + [3] * len(groups)
        )
        after = _record_bytes(store)
        assert {name: after[name] for name in before} == before
        assert rows == _percell_rows(grid)
        assert after == _record_bytes(
            _percell_store(grid, tmp_path / "percell")
        )

    def test_engine_and_fidelity_runs_extract_separately(self, kernel_calls):
        # The two kernels share traffic groups but no trace: each run
        # extracts its own.
        axes = dict(workloads=("qft",), sizes=(16,), depths=(2,),
                    policies=("lru",), prefetches=("none",),
                    code_pairs=PAIRS)
        engine_sweep(**axes)
        assert kernel_calls["extract"] == 1
        rows = engine_sweep(fidelity={"trials": 300, "seed": 7}, **axes)
        assert kernel_calls["extract"] == 2
        grid = design_space.fidelity_grid(
            fidelity_trials=300, fidelity_seed=7, **axes
        )
        assert rows == _percell_rows(grid, design_space.fidelity_cell)

    @pytest.mark.parametrize("kernel", ["transfer", "specialization",
                                        "hierarchy"])
    def test_table_grids_run_per_cell(self, tmp_path, monkeypatch, kernel):
        # Grids with no traffic groups never reach a group kernel.
        grid, cell_fn, row_type = {
            "transfer": (design_space.transfer_grid(),
                         design_space.transfer_cell,
                         design_space.TransferRow),
            "specialization": (design_space.specialization_grid(
                                   sizes=(32, 64)),
                               design_space.specialization_cell,
                               design_space.SpecializationRow),
            "hierarchy": (design_space.hierarchy_grid(sizes=(256,)),
                          design_space.hierarchy_cell,
                          design_space.HierarchyRow),
        }[kernel]

        def _explodes(group):
            raise AssertionError("a table grid reached a group kernel")

        monkeypatch.setattr(design_space, "engine_batch_cell", _explodes)
        monkeypatch.setattr(design_space, "fidelity_batch_cell", _explodes)
        store = ResultStore(tmp_path / "store")
        rows = compute_grid(grid, cell_fn, row_type, store=store)
        assert rows == _percell_rows(grid, cell_fn)
        assert store.keys() == sorted(cell.key for cell in grid)

    def test_unregistered_cell_function_is_not_grouped(self):
        grid = engine_grid(**GRID_KWARGS)
        seen = []

        def wrapped(params):
            seen.append(params)
            return engine_cell(params)

        rows = compute_grid(grid, wrapped, EngineRow)
        assert len(seen) == len(grid)
        assert rows == compute_grid(grid, engine_cell, EngineRow)


#: A grid whose traffic groups each hold 32 members (four stacks x
#: eight transfer widths), at least ``NUMPY_PRICING_CELLS``: its groups
#: are priced by the vectorized pricer.
WIDE_GRID_KWARGS = dict(
    workloads=("draper_adder",), sizes=(16,), depths=(2, 3),
    policies=("lru",), prefetches=("none",),
    code_keys=("steane", "bacon_shor"), code_pairs=PAIRS,
    transfer_options=(3, 4, 5, 6, 8, 10, 12, 16),
)


class TestGroupedEquivalence:
    @pytest.mark.parametrize("grid_kwargs", [GRID_KWARGS, WIDE_GRID_KWARGS],
                             ids=["mixed", "wide_groups"])
    def test_store_records_byte_identical(self, tmp_path, monkeypatch,
                                          grid_kwargs):
        grid = engine_grid(**grid_kwargs)
        vectorized = []
        price_numpy = replay._price_numpy

        def counted(trace, stacks):
            vectorized.append(len(stacks))
            return price_numpy(trace, stacks)

        monkeypatch.setattr(replay, "_price_numpy", counted)
        grouped = ResultStore(tmp_path / "grouped")
        rows = compute_grid(grid, engine_cell, EngineRow, store=grouped)
        if grid_kwargs is WIDE_GRID_KWARGS:
            assert sorted(vectorized) == sorted(
                len(cells) for cells in _groups(grid).values()
            )
            assert min(vectorized) >= replay.NUMPY_PRICING_CELLS
        percell = _percell_store(grid, tmp_path / "percell")
        assert rows == _percell_rows(grid)
        assert _record_bytes(grouped) == _record_bytes(percell)

    def test_supervised_pooled_grouping_identical(self):
        grid = engine_grid(**GRID_KWARGS)
        plain = _percell_rows(grid)
        supervised = compute_grid(
            grid, engine_cell, EngineRow,
            supervise=Supervision(cell_timeout_s=120.0), workers=2,
        )
        assert plain == supervised

    def test_pooled_runs_write_identical_records(self, tmp_path):
        grid = engine_grid(**GRID_KWARGS)
        stores = [ResultStore(tmp_path / name) for name in ("a", "b")]
        for store in stores:
            compute_grid(grid, engine_cell, EngineRow, store=store,
                         workers=2)
        reference = _record_bytes(_percell_store(grid, tmp_path / "percell"))
        assert _record_bytes(stores[0]) == _record_bytes(stores[1]) \
            == reference

    def test_grouped_reads_through_store(self, tmp_path, monkeypatch):
        grid = engine_grid(**GRID_KWARGS)
        store = ResultStore(tmp_path / "store")
        first = compute_grid(grid, engine_cell, EngineRow, store=store)
        # Second pass must resolve every cell from the store; cell and
        # group kernels that explode on contact prove nothing recomputes
        # (the patched cell function is still the registered one, so
        # the grid still groups).
        def _explodes(params):
            raise AssertionError("warm grouped run recomputed a cell")

        monkeypatch.setattr(design_space, "engine_cell", _explodes)
        monkeypatch.setattr(design_space, "engine_batch_cell", _explodes)
        again = compute_grid(grid, design_space.engine_cell, EngineRow,
                             store=store)
        assert first == again


class TestNoPersistentTraces:
    """A movement trace lives for one group's pricing: no layer keeps,
    keys or reloads it."""

    @pytest.mark.parametrize("module,name", [
        ("repro.perf", "TraceCache"),
        ("repro.perf", "default_trace_cache"),
        ("repro.perf", "resolve_trace_cache"),
        ("repro.sim.replay", "trace_key"),
        ("repro.sim.replay", "TRACE_FORMAT_VERSION"),
    ])
    def test_cache_names_are_gone(self, module, name):
        assert not hasattr(importlib.import_module(module), name)

    def test_cache_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.perf.tracecache")

    def test_traces_serialize_one_way(self):
        # to_bytes stays for the invariance pins; nothing reads it back.
        assert callable(replay.MovementTrace.to_bytes)
        assert not hasattr(replay.MovementTrace, "from_bytes")

    @pytest.mark.parametrize("entry", ["compute_grid", "engine_sweep",
                                       "SweepService", "BackgroundService"])
    def test_trace_cache_keyword_is_rejected(self, tmp_path, entry):
        from repro.service import BackgroundService, SweepService

        grid = engine_grid(**GRID_KWARGS)
        store = ResultStore(tmp_path / "store")
        call = {
            "compute_grid": lambda **kw: compute_grid(
                grid, engine_cell, EngineRow, store=store, **kw),
            "engine_sweep": lambda **kw: engine_sweep(
                store=store, **GRID_KWARGS, **kw),
            "SweepService": lambda **kw: SweepService(store, grid, **kw),
            "BackgroundService": lambda **kw: BackgroundService(
                store, grid, **kw),
        }[entry]
        cache = tmp_path / "traces"
        with pytest.raises(TypeError, match="trace_cache"):
            call(trace_cache=cache)
        assert not cache.exists()
        assert store.keys() == []


class TestGroupSupervision:
    def test_transient_group_fault_retried_once_per_attempt(self, tmp_path):
        # The fault poisons exactly one member cell of a three-member
        # traffic group (chaos attempt counters are per-params).  The
        # whole group is the retry unit, so times=2 heals it inside
        # max_attempts=3 and every member's row comes out identical to
        # the fault-free sweep.
        grid = engine_grid(**GRID_KWARGS)
        plan = chaos.ChaosPlan.scripted(
            [{"fault": "transient", "times": 2,
              "match": {"policy": "lru", "depth": 2, "prefetch": "none",
                        "memory_code_key": "steane"}}],
            state_dir=tmp_path,
        )
        supervision = Supervision(
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0)
        )
        with chaos.active(plan):
            rows = compute_grid(grid, engine_cell, EngineRow,
                                supervise=supervision)
        assert rows == _percell_rows(grid)

    def test_terminal_group_failure_quarantines_every_member(self, tmp_path):
        grid = engine_grid(**GRID_KWARGS)
        store = ResultStore(tmp_path / "store")
        poisoned = {"policy": "lru", "depth": 2, "prefetch": "none",
                    "memory_code_key": "steane"}
        plan = chaos.ChaosPlan.scripted([{"fault": "raise",
                                          "match": poisoned}])
        supervision = Supervision(
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
            # One failed *group* must count as one failure unit: three
            # quarantined member cells with max_failures=1 would abort
            # if the runner double-charged them.
            max_failures=1,
        )
        token = engine_traffic_key(
            dict(workload="draper_adder", n_bits=16, depth=2, policy="lru",
                 prefetch="none", code_key="steane", parallel_transfers=10,
                 compute_qubits=12, cache_factor=1.0)
        )
        group = _groups(grid)[token]
        assert len(group) == 3
        with chaos.active(plan):
            rows = compute_grid(grid, engine_cell, EngineRow, store=store,
                                supervise=supervision)
        member_keys = sorted(cell.key for cell in group)
        assert sorted(store.failure_keys()) == member_keys
        for position, cell in enumerate(grid):
            if cell.key in member_keys:
                assert rows[position] is None
                record = store.failure(cell.key)["failure"]
                assert sorted(record["group_members"]) == member_keys
            else:
                assert rows[position] is not None

    def test_supervised_weights_validated(self):
        items = [1, 2, 3]
        with pytest.raises(ValueError):
            list(supervised_indexed(lambda x: x, items,
                                    supervision=Supervision(),
                                    weights=[1.0, 2.0]))
        with pytest.raises(ValueError):
            list(supervised_indexed(lambda x: x, items,
                                    supervision=Supervision(),
                                    weights=[1.0, 0.0, 2.0]))


class TestGroupAwareSharding:
    @pytest.mark.parametrize("count", [2, 3, 5])
    def test_groups_never_split_and_cover_the_grid(self, count):
        grid = engine_grid(**GRID_KWARGS)
        shards = [plan_shard(grid, index, count) for index in range(count)]
        seen = [cell.key for shard in shards for cell in shard]
        assert sorted(seen) == sorted(grid.keys())
        for token, group in _groups(grid).items():
            owners = {
                index
                for index, shard in enumerate(shards)
                for cell in shard
                if engine_traffic_key(cell.as_dict()) == token
            }
            assert len(owners) == 1, (token, owners)

    def test_unregistered_and_table_kernels_shard_by_cell(self):
        # No group function, no traffic key: the plain per-cell partition.
        cells = tuple(Cell.make("probe_cell", x=x) for x in range(8))
        for grid in (Grid("probe_cell", cells), design_space.transfer_grid()):
            assert plan_shard(grid, 1, 3).keys() == grid.shard(1, 3).keys()


class TestGroupedCli:
    def test_sharded_run_matches_percell(self, tmp_path):
        store = str(tmp_path / "store")
        for index in range(2):
            assert sweep_main(["run", "--shard", f"{index}/2", "--store",
                               store, *GRID_ARGS]) == 0
        out = tmp_path / "rows.json"
        assert sweep_main(["merge", "--store", store, "--verify",
                           "--output", str(out), *GRID_ARGS]) == 0
        reference = _percell_store(engine_grid(**GRID_KWARGS),
                                   tmp_path / "percell")
        assert _record_bytes(ResultStore(store)) == _record_bytes(reference)

    def test_status_shards_match_the_run_partition(self, tmp_path, capsys):
        # `status --shards K` must count the partition `run` computed:
        # after shard 0 of 2 alone, shard 0 is complete and shard 1
        # empty, and every traffic group is wholly stored or absent.
        grid = engine_grid(**GRID_KWARGS)
        store = str(tmp_path / "store")
        assert sweep_main(["run", "--shard", "0/2", "--store", store,
                           *GRID_ARGS]) == 0
        capsys.readouterr()
        assert sweep_main(["status", "--store", store, "--shards", "2",
                           *GRID_ARGS]) == 1
        lines = capsys.readouterr().out.splitlines()
        owned = [len(plan_shard(grid, index, 2)) for index in range(2)]
        assert all(owned)
        assert f"  shard 0/2: {owned[0]}/{owned[0]} done" in lines
        assert f"  shard 1/2: 0/{owned[1]} done" in lines
        stored = set(ResultStore(store).keys())
        for group in _groups(grid).values():
            assert len({cell.key in stored for cell in group}) == 1

    def test_profile_writes_loadable_pstats(self, tmp_path):
        store = tmp_path / "store"
        assert sweep_main(["run", "--shard", "0/1", "--store", str(store),
                           "--profile", *GRID_ARGS]) == 0
        dump = tmp_path / "store-profile-shard0of1.pstats"
        assert dump.is_file()
        stats = pstats.Stats(str(dump))
        assert stats.total_calls > 0
        # The dump is a sibling of the store, never inside it: the
        # record set a merge diff inspects must stay byte-comparable.
        assert not list(store.glob("*.pstats"))

    def test_profile_resume_dump(self, tmp_path):
        store = tmp_path / "store"
        assert sweep_main(["resume", "--store", str(store), "--profile",
                           *GRID_ARGS]) == 0
        assert (tmp_path / "store-profile-resume.pstats").is_file()
