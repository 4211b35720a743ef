"""Tests for the sharded sweep subsystem (repro.sweep)."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import asdict

import pytest

from repro.core import design_space
from repro.core.design_space import (
    EngineRow,
    HierarchyRow,
    SpecializationRow,
    engine_cell,
    engine_grid,
    engine_sweep,
    hierarchy_grid,
    hierarchy_sweep,
    specialization_grid,
    specialization_sweep,
    transfer_grid,
    transfer_sweep,
)
from repro.perf import chaos
from repro.perf.store import ResultStore
from repro.perf.supervise import RetryPolicy, Supervision
from repro.sweep.cli import main as sweep_main
from repro.sweep.grid import (
    Cell,
    Grid,
    parse_shard_spec,
    shard_index,
    stable_key,
)
from repro.sweep.runner import (
    CellFailed,
    MissingCells,
    compute_grid,
    missing_report,
    rows_from_store,
)

#: One small grid, used consistently so CLI and in-process runs agree.
GRID_KWARGS = dict(workloads=("draper_adder", "modexp_trace"), sizes=(16,),
                   depths=(2,))
GRID_ARGS = ["--workloads", "draper_adder", "modexp_trace",
             "--sizes", "16", "--depths", "2"]


class TestShardPlanner:
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 7, 16])
    def test_every_cell_in_exactly_one_shard(self, count):
        grid = engine_grid(**GRID_KWARGS)
        shards = [grid.shard(index, count) for index in range(count)]
        seen = [cell for shard in shards for cell in shard]
        assert len(seen) == len(grid)
        assert set(seen) == set(grid.cells)
        assert sum(grid.shard_sizes(count)) == len(grid)

    def test_assignment_is_stable_and_key_only(self):
        grid = engine_grid(**GRID_KWARGS)
        for cell in grid:
            index = shard_index(cell.key, 4)
            assert shard_index(cell.key, 4) == index  # pure function
            assert cell in grid.shard(index, 4).cells

    def test_shards_preserve_canonical_order(self):
        grid = engine_grid(**GRID_KWARGS)
        positions = {cell: i for i, cell in enumerate(grid)}
        for index in range(3):
            owned = list(grid.shard(index, 3))
            assert [positions[c] for c in owned] == sorted(
                positions[c] for c in owned
            )

    def test_shard_validation(self):
        grid = engine_grid(**GRID_KWARGS)
        with pytest.raises(ValueError, match="0 <= i < K"):
            grid.shard(4, 4)
        with pytest.raises(ValueError, match="0 <= i < K"):
            grid.shard(-1, 4)
        with pytest.raises(ValueError, match="at least 1"):
            shard_index("abc", 0)

    def test_parse_shard_spec(self):
        assert parse_shard_spec("0/1") == (0, 1)
        assert parse_shard_spec("3/4") == (3, 4)
        for bad in ["4/4", "-1/4", "1", "a/b", "1/0"]:
            with pytest.raises(ValueError):
                parse_shard_spec(bad)


class TestGridAndCells:
    def test_cell_key_matches_stable_key(self):
        cell = Cell.make("engine_cell", n_bits=16, workload="qft")
        assert cell.key == stable_key("engine_cell", n_bits=16, workload="qft")

    def test_cell_params_canonical_order(self):
        a = Cell.make("k", x=1, y=2)
        b = Cell.make("k", y=2, x=1)
        assert a == b and a.key == b.key

    def test_grid_rejects_foreign_cells(self):
        with pytest.raises(ValueError, match="kernel"):
            Grid("engine_cell", (Cell.make("other", x=1),))

    def test_sweep_grids_match_sweep_enumeration(self):
        # The grid *is* the sweep's canonical order: computing every
        # cell in grid order reproduces the sweep row list exactly.
        from repro.core.design_space import hierarchy_cell, specialization_cell

        grid = specialization_grid(sizes=(32, 64))
        computed = [specialization_cell(cell.as_dict()) for cell in grid]
        assert computed == specialization_sweep(sizes=(32, 64))

        hgrid = hierarchy_grid(sizes=(256,))
        computed = [hierarchy_cell(cell.as_dict()) for cell in hgrid]
        assert computed == hierarchy_sweep(sizes=(256,))


class TestComputeGrid:
    def test_store_roundtrip_and_no_recompute(self, tmp_path):
        grid = engine_grid(**GRID_KWARGS)
        store = ResultStore(tmp_path)
        rows = compute_grid(grid, engine_cell, EngineRow, store=store)
        assert store.status(grid.keys()).complete
        # Warm pass: the kernel must never be called again.
        warm = compute_grid(grid, _explodes, EngineRow, store=store)
        assert warm == rows
        assert rows_from_store(grid, EngineRow, store) == rows

    def test_without_store_matches_with_store(self, tmp_path):
        grid = engine_grid(**GRID_KWARGS)
        plain = compute_grid(grid, engine_cell, EngineRow)
        stored = compute_grid(
            grid, engine_cell, EngineRow, store=ResultStore(tmp_path)
        )
        assert plain == stored

    def test_schema_mismatched_record_is_recomputed(self, tmp_path):
        grid = engine_grid(**GRID_KWARGS)
        store = ResultStore(tmp_path)
        rows = compute_grid(grid, engine_cell, EngineRow, store=store)
        victim = grid.cells[0]
        store.put(victim.key, {"not": "an engine row"})
        healed = compute_grid(grid, engine_cell, EngineRow, store=store)
        assert healed == rows
        assert rows_from_store(grid, EngineRow, store) == rows

    def test_rows_from_store_raises_on_missing(self, tmp_path):
        grid = engine_grid(**GRID_KWARGS)
        with pytest.raises(MissingCells, match="missing"):
            rows_from_store(grid, EngineRow, ResultStore(tmp_path))

    def test_results_persist_incrementally(self, tmp_path):
        """Each record lands as its cell finishes: a crash mid-grid
        keeps everything computed so far, not just full batches."""
        grid = engine_grid(**GRID_KWARGS)
        store = ResultStore(tmp_path)
        progress = {"calls": 0}

        def dies_after_three(params):
            if progress["calls"] >= 3:
                raise RuntimeError("simulated crash")
            progress["calls"] += 1
            return engine_cell(params)

        with pytest.raises(RuntimeError, match="simulated crash"):
            compute_grid(grid, dies_after_three, EngineRow, store=store)
        status = store.status(grid.keys())
        assert status.done == 3
        # The batched advisory index still covers the survivors.
        assert len(store.read_index()) == 3
        # And a resume-style pass completes without touching them.
        mtimes = {
            key: store.record_path(key).stat().st_mtime_ns
            for key in grid.keys() if store.has(key)
        }
        full = compute_grid(grid, engine_cell, EngineRow, store=store)
        for key, mtime in mtimes.items():
            assert store.record_path(key).stat().st_mtime_ns == mtime
        assert rows_from_store(grid, EngineRow, store) == full


class TestSharedEngineCircuit:
    """The cells of one (workload, size) pair share one circuit."""

    GRID_KWARGS = dict(workloads=("draper_adder", "qft"), sizes=(16, 32),
                       depths=(2,), policies=("lru", "belady"),
                       prefetches=("next_k",))

    @pytest.fixture(autouse=True)
    def _cold_memo(self):
        design_space._engine_circuit.cache_clear()
        yield
        design_space._engine_circuit.cache_clear()

    @staticmethod
    def _fresh_rows(grid):
        rows = {}
        for cell in grid.cells:
            design_space._engine_circuit.cache_clear()
            rows[cell.key] = engine_cell(cell.as_dict())
        return rows

    def test_one_build_per_workload_and_size(self, monkeypatch):
        from repro.circuits import workloads

        builds = []
        real = workloads.build_workload

        def counted(name, n_bits=None):
            builds.append((name, n_bits))
            return real(name, n_bits)

        monkeypatch.setattr(workloads, "build_workload", counted)
        grid = engine_grid(**self.GRID_KWARGS)
        compute_grid(grid, engine_cell, EngineRow)
        assert sorted(builds) == [
            ("draper_adder", 16), ("draper_adder", 32),
            ("qft", 16), ("qft", 32),
        ]

    def test_rows_equal_fresh_circuit_rows(self):
        grid = engine_grid(**self.GRID_KWARGS)
        rows = compute_grid(grid, engine_cell, EngineRow)
        assert dict(zip(grid.keys(), rows)) == self._fresh_rows(grid)

    def test_interleaved_sizes_equal_fresh_circuit_rows(self):
        def size_innermost(cell):
            params = cell.as_dict()
            return params["policy"], params["workload"], params["n_bits"]

        cells = sorted(engine_grid(**self.GRID_KWARGS).cells, key=size_innermost)
        sizes = [cell.as_dict()["n_bits"] for cell in cells]
        assert all(a != b for a, b in zip(sizes, sizes[1:]))
        grid = Grid("engine_cell", tuple(cells))
        rows = compute_grid(grid, engine_cell, EngineRow)
        assert dict(zip(grid.keys(), rows)) == self._fresh_rows(grid)

    def test_engines_leave_the_shared_circuit_unchanged(self):
        from repro.sim.levels import simulate_hierarchy_run
        from repro.sim.policies import available_policies
        from repro.sim.prefetch import available_prefetchers

        params = engine_grid(**self.GRID_KWARGS).cells[0].as_dict()
        circuit = design_space._engine_circuit("draper_adder", 16)
        before = (list(circuit.gates), circuit.n_qubits, circuit.name)
        order = design_space._fetch_order(
            "draper_adder", 16,
            params["compute_qubits"], params["cache_factor"],
        )
        stack = design_space._engine_stack(params)
        for policy in available_policies():
            for prefetch in available_prefetchers():
                simulate_hierarchy_run(
                    stack, circuit, policy, order=order, prefetch=prefetch,
                )
        assert design_space._engine_circuit("draper_adder", 16) is circuit
        assert (circuit.gates, circuit.n_qubits, circuit.name) == before


def _explodes(params):
    raise AssertionError(f"cell recomputed despite stored record: {params}")


class TestSweepStoreWiring:
    """Every public sweep reads through a store= before computing: a
    warm re-run against the same store returns the same rows without
    calling a single cell function."""

    def test_specialization_sweep_store(self, tmp_path, monkeypatch):
        plain = specialization_sweep(sizes=(32, 64))
        first = specialization_sweep(sizes=(32, 64), store=tmp_path)
        monkeypatch.setattr(design_space, "specialization_cell", _explodes)
        warm = specialization_sweep(sizes=(32, 64), store=tmp_path)
        assert plain == first == warm
        grid = specialization_grid(sizes=(32, 64))
        assert ResultStore(tmp_path).status(grid.keys()).complete

    def test_hierarchy_sweep_store(self, tmp_path, monkeypatch):
        plain = hierarchy_sweep(sizes=(256,))
        stored = hierarchy_sweep(sizes=(256,), store=tmp_path)
        monkeypatch.setattr(design_space, "hierarchy_cell", _explodes)
        warm = hierarchy_sweep(sizes=(256,), store=tmp_path)
        assert plain == stored == warm

    def test_transfer_sweep_store(self, tmp_path, monkeypatch):
        plain = transfer_sweep()
        stored = transfer_sweep(store=tmp_path)
        monkeypatch.setattr(design_space, "transfer_cell", _explodes)
        warm = transfer_sweep(store=tmp_path)
        assert plain == stored == warm
        assert ResultStore(tmp_path).status(transfer_grid().keys()).complete

    def test_engine_sweep_store(self, tmp_path, monkeypatch):
        plain = engine_sweep(**GRID_KWARGS)
        stored = engine_sweep(**GRID_KWARGS, store=tmp_path)
        # Traffic groups run through the batch kernel, single cells
        # through the cell function: a warm pass may call neither.
        monkeypatch.setattr(design_space, "engine_cell", _explodes)
        monkeypatch.setattr(design_space, "engine_batch_cell", _explodes)
        warm = engine_sweep(**GRID_KWARGS, store=tmp_path)
        assert plain == stored == warm


#: name -> (sweep call, its grid, the design_space functions that
#: compute its cells).  Engine grids run traffic groups through the
#: batch kernel and singleton groups through the cell function.
READ_THROUGH_SWEEPS = {
    "specialization": (
        lambda **kw: specialization_sweep(sizes=(32, 64), **kw),
        lambda: specialization_grid(sizes=(32, 64)),
        ("specialization_cell",),
    ),
    "hierarchy": (
        lambda **kw: hierarchy_sweep(sizes=(256,), **kw),
        lambda: hierarchy_grid(sizes=(256,)),
        ("hierarchy_cell",),
    ),
    "transfer": (
        lambda **kw: transfer_sweep(**kw),
        transfer_grid,
        ("transfer_cell",),
    ),
    "engine": (
        lambda **kw: engine_sweep(**GRID_KWARGS, **kw),
        lambda: engine_grid(**GRID_KWARGS),
        ("engine_cell", "engine_batch_cell"),
    ),
}


def _spy_cells(monkeypatch, names):
    """Wrap each named design_space cell function; return the list of
    cell parameter dicts they recompute."""
    recomputed = []
    for name in names:
        original = getattr(design_space, name)

        def spy(arg, *rest, _original=original, **kw):
            recomputed.extend(arg if isinstance(arg, list) else [arg])
            return _original(arg, *rest, **kw)

        monkeypatch.setattr(design_space, name, spy)
    return recomputed


class TestSweepStoreReadThrough:
    """A store left partial or damaged recomputes exactly the cells it
    cannot serve, and the re-run heals it."""

    @pytest.mark.parametrize("name", sorted(READ_THROUGH_SWEEPS))
    def test_lost_record_recomputes_only_that_cell(
        self, tmp_path, monkeypatch, name,
    ):
        sweep, build, cell_fns = READ_THROUGH_SWEEPS[name]
        first = sweep(store=tmp_path)
        grid = build()
        victim = grid.cells[len(grid) // 2]
        ResultStore(tmp_path).record_path(victim.key).unlink()
        recomputed = _spy_cells(monkeypatch, cell_fns)
        again = sweep(store=tmp_path)
        assert again == first
        assert [dict(params) for params in recomputed] == [victim.as_dict()]
        assert ResultStore(tmp_path).status(grid.keys()).complete

    @pytest.mark.parametrize("name", sorted(READ_THROUGH_SWEEPS))
    def test_torn_record_is_recomputed_and_healed(
        self, tmp_path, monkeypatch, name,
    ):
        sweep, build, cell_fns = READ_THROUGH_SWEEPS[name]
        plain = sweep()
        sweep(store=tmp_path)
        victim = build().cells[0]
        record = ResultStore(tmp_path).record_path(victim.key)
        record.write_text(record.read_text()[:20])
        assert sweep(store=tmp_path) == plain
        for fn in cell_fns:
            monkeypatch.setattr(design_space, fn, _explodes)
        assert sweep(store=tmp_path) == plain

    @pytest.mark.parametrize("form", ["fs", "sqlite", "backend"])
    def test_warm_rerun_is_free_on_every_store_form(
        self, tmp_path, monkeypatch, form,
    ):
        store = {
            "fs": f"fs:{tmp_path / 'records'}",
            "sqlite": f"sqlite:{tmp_path / 'records.db'}",
            "backend": ResultStore(tmp_path / "records"),
        }[form]
        plain = specialization_sweep(sizes=(32, 64))
        assert specialization_sweep(sizes=(32, 64), store=store) == plain
        monkeypatch.setattr(design_space, "specialization_cell", _explodes)
        assert specialization_sweep(sizes=(32, 64), store=store) == plain

    def test_concurrent_sweeps_share_one_store(self, tmp_path, monkeypatch):
        """Two processes filling one store race on every record; both
        return the serial rows and leave no torn record behind."""
        plain = specialization_sweep(sizes=(32, 64))
        with multiprocessing.Pool(2) as pool:
            results = pool.map(_specialization_into, [str(tmp_path)] * 2)
        assert results == [plain, plain]
        monkeypatch.setattr(design_space, "specialization_cell", _explodes)
        assert specialization_sweep(sizes=(32, 64), store=tmp_path) == plain


def _specialization_into(store_dir):
    return specialization_sweep(sizes=(32, 64), store=store_dir)


class TestCliShardedEquivalence:
    """Acceptance: K-sharded CLI run + merge == single-process sweep."""

    @pytest.mark.parametrize("count", [2, 3])
    def test_sharded_run_merge_bit_identical(self, tmp_path, count):
        store_dir = str(tmp_path / "store")
        for index in range(count):
            code = sweep_main(["run", "--shard", f"{index}/{count}",
                               "--store", store_dir, *GRID_ARGS])
            assert code == 0
        out = tmp_path / "rows.json"
        code = sweep_main(["merge", "--store", store_dir, "--output",
                           str(out), *GRID_ARGS])
        assert code == 0
        merged = [EngineRow(**row) for row in json.loads(out.read_text())]
        single = engine_sweep(**GRID_KWARGS)
        assert merged == single  # bit-identical: frozen dataclass equality

    def test_merge_verify_gate(self, tmp_path):
        store_dir = str(tmp_path / "store")
        assert sweep_main(["run", "--shard", "0/1", "--store", store_dir,
                           *GRID_ARGS]) == 0
        assert sweep_main(["merge", "--store", store_dir, "--verify",
                           *GRID_ARGS, "--output",
                           str(tmp_path / "rows.json")]) == 0

    def test_merge_verify_catches_tampering(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        assert sweep_main(["run", "--shard", "0/1", "--store",
                           str(store_dir), *GRID_ARGS]) == 0
        store = ResultStore(store_dir)
        grid = engine_grid(**GRID_KWARGS)
        victim = grid.cells[0]
        tampered = dict(store.get(victim.key))
        tampered["makespan_s"] = tampered["makespan_s"] * 2
        store.put(victim.key, tampered)
        assert sweep_main(["merge", "--store", str(store_dir), "--verify",
                           *GRID_ARGS]) == 1
        assert "verify FAILED" in capsys.readouterr().err

    def test_merge_fails_loudly_on_missing_cells(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert sweep_main(["run", "--shard", "0/2", "--store", store_dir,
                           *GRID_ARGS]) == 0
        code = sweep_main(["merge", "--store", store_dir, *GRID_ARGS])
        assert code == 1
        assert "missing" in capsys.readouterr().err

    def test_table_kernels_shard_and_merge(self, tmp_path):
        """--kernel shards the Table 4/5 grids, not just the engine's."""
        store_dir = str(tmp_path / "store")
        args = ["--kernel", "specialization_cell", "--sizes", "32", "64"]
        for index in range(2):
            assert sweep_main(["run", "--shard", f"{index}/2", "--store",
                               store_dir, *args]) == 0
        out = tmp_path / "rows.json"
        assert sweep_main(["merge", "--store", store_dir, "--verify",
                           "--output", str(out), *args]) == 0
        merged = [
            SpecializationRow(**row) for row in json.loads(out.read_text())
        ]
        assert merged == specialization_sweep(sizes=(32, 64))

        store_dir = str(tmp_path / "store5")
        args = ["--kernel", "hierarchy_cell", "--sizes", "256",
                "--transfers", "10"]
        assert sweep_main(["run", "--shard", "0/1", "--store", store_dir,
                           *args]) == 0
        out = tmp_path / "rows5.json"
        assert sweep_main(["merge", "--store", store_dir, "--verify",
                           "--output", str(out), *args]) == 0
        merged = [HierarchyRow(**row) for row in json.loads(out.read_text())]
        assert merged == hierarchy_sweep(sizes=(256,), transfer_options=(10,))

    def test_engine_only_options_rejected_for_table_kernels(self, tmp_path):
        with pytest.raises(SystemExit, match="engine-grid options"):
            sweep_main(["run", "--shard", "0/1", "--store",
                        str(tmp_path / "s"), "--kernel", "hierarchy_cell",
                        "--depths", "2"])

    def test_status_reports_progress(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert sweep_main(["run", "--shard", "0/2", "--store", store_dir,
                           *GRID_ARGS]) == 0
        code = sweep_main(["status", "--store", store_dir, "--shards", "2",
                           *GRID_ARGS])
        assert code == 1  # incomplete grid: nonzero for scripting
        text = capsys.readouterr().out
        assert "shard 0/2" in text and "shard 1/2" in text
        assert sweep_main(["run", "--shard", "1/2", "--store", store_dir,
                           *GRID_ARGS]) == 0
        assert sweep_main(["status", "--store", store_dir, *GRID_ARGS]) == 0


class TestResume:
    def test_resume_completes_without_recomputing(self, tmp_path, capsys):
        """Partial store (as a killed worker leaves it, plus one torn
        record and a stray temp file) -> resume computes only the gap."""
        store_dir = tmp_path / "store"
        assert sweep_main(["run", "--shard", "0/3", "--store",
                           str(store_dir), *GRID_ARGS]) == 0
        store = ResultStore(store_dir)
        grid = engine_grid(**GRID_KWARGS)
        done_before = {
            key: store.record_path(key).stat().st_mtime_ns
            for key in grid.keys() if store.has(key)
        }
        assert 0 < len(done_before) < len(grid)
        # A non-atomic writer dying mid-write would leave these; the
        # atomic store never does, but resume must shrug either off.
        torn_key = next(k for k in grid.keys() if k not in done_before)
        store.record_path(torn_key).write_text('{"value": {"work')
        (store_dir / ".deadbeef-000.tmp").write_text("half a record")
        capsys.readouterr()
        assert sweep_main(["resume", "--store", str(store_dir),
                           *GRID_ARGS]) == 0
        out = capsys.readouterr().out
        assert f"{len(done_before)} already stored" in out
        assert f"{len(grid) - len(done_before)} computed" in out
        # Finished cells were not rewritten...
        for key, mtime in done_before.items():
            assert store.record_path(key).stat().st_mtime_ns == mtime
        # ...and the completed store merges bit-identically.
        assert rows_from_store(grid, EngineRow, store) == engine_sweep(
            **GRID_KWARGS
        )

    def test_resume_after_real_kill(self, tmp_path):
        """SIGKILL a serial worker mid-shard; resume finishes the grid."""
        store_dir = tmp_path / "store"
        args = ["--workloads", "draper_adder", "qft", "--sizes", "16", "32",
                "--depths", "2", "3"]
        kwargs = dict(workloads=("draper_adder", "qft"), sizes=(16, 32),
                      depths=(2, 3))
        env = dict(os.environ)
        inherited = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = "src" + (os.pathsep + inherited if inherited else "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.sweep", "run", "--shard", "0/1",
             "--store", str(store_dir), *args],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    break  # finished before we could kill: still a valid run
                if store_dir.is_dir() and len(
                    [p for p in store_dir.glob("*.json")
                     if p.name != "index.json"]
                ) >= 2:
                    proc.send_signal(signal.SIGKILL)
                    break
                time.sleep(0.005)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - safety net
                proc.kill()
                proc.wait()
        store = ResultStore(store_dir)
        grid = engine_grid(**kwargs)
        survivors = {
            key: store.record_path(key).stat().st_mtime_ns
            for key in grid.keys() if store.has(key)
        }
        assert survivors  # the poll above saw >= 2 records
        assert sweep_main(["resume", "--store", str(store_dir), *args]) == 0
        for key, mtime in survivors.items():
            assert store.record_path(key).stat().st_mtime_ns == mtime
        assert rows_from_store(grid, EngineRow, store) == engine_sweep(
            **kwargs
        )


class TestTablesFromStore:
    def test_engine_table_from_store(self, tmp_path):
        from repro.analysis import (
            engine_table_from_store,
            engine_table_text,
            engine_table_text_from_store,
        )

        rows = engine_sweep(**GRID_KWARGS, store=tmp_path)
        assert engine_table_from_store(tmp_path, **GRID_KWARGS) == rows
        assert engine_table_text_from_store(
            tmp_path, **GRID_KWARGS
        ) == engine_table_text(**GRID_KWARGS)
        with pytest.raises(MissingCells):
            engine_table_from_store(tmp_path)  # default grid is larger

    def test_row_json_roundtrip_is_exact(self, tmp_path):
        """Floats survive the record JSON bit-for-bit (repr round-trip)."""
        rows = engine_sweep(**GRID_KWARGS)
        for row in rows:
            rebuilt = EngineRow(**json.loads(json.dumps(asdict(row))))
            assert rebuilt == row


class TestHierarchySweepRowTypes:
    def test_row_types_json_roundtrip(self):
        for sweep, row_type, kwargs in [
            (specialization_sweep, SpecializationRow, dict(sizes=(32,))),
            (hierarchy_sweep, HierarchyRow, dict(sizes=(256,))),
        ]:
            rows = sweep(**kwargs)
            for row in rows:
                assert row_type(**json.loads(json.dumps(asdict(row)))) == row


#: The small fault-tolerance grid: 1 workload x 1 size x 1 depth x
#: 4 policies x 2 prefetchers = 8 cells.
CHAOS_KWARGS = dict(workloads=("draper_adder",), sizes=(16,), depths=(2,))
CHAOS_ARGS = ["--workloads", "draper_adder", "--sizes", "16",
              "--depths", "2"]


def _cell_with(grid, **wanted):
    """The unique grid cell whose params include every (name, value)."""
    matches = [
        cell for cell in grid
        if all(cell.as_dict().get(k) == v for k, v in wanted.items())
    ]
    assert len(matches) == 1, (wanted, matches)
    return matches[0]


def _record_bytes(store, keys):
    return {key: store.record_path(key).read_bytes() for key in keys}


class TestSupervisedComputeGrid:
    def test_fault_free_supervised_store_bit_identical(self, tmp_path):
        """The zero-retry supervised path is the identity wrapper: the
        record *bytes* match the plain runner's, serial and pooled."""
        grid = engine_grid(**CHAOS_KWARGS)
        plain = ResultStore(tmp_path / "plain")
        rows = compute_grid(grid, engine_cell, EngineRow, store=plain)
        baseline = _record_bytes(plain, grid.keys())
        for name, workers in [("serial", None), ("pool", 2)]:
            store = ResultStore(tmp_path / name)
            supervised = compute_grid(
                grid, engine_cell, EngineRow, store=store, workers=workers,
                supervise=Supervision(),
            )
            assert supervised == rows
            assert _record_bytes(store, grid.keys()) == baseline

    def test_quarantine_leaves_none_row_and_failure_record(self, tmp_path):
        grid = engine_grid(**CHAOS_KWARGS)
        poison = _cell_with(grid, policy="fifo", prefetch="next_k")
        store = ResultStore(tmp_path)
        plan = chaos.ChaosPlan.scripted(
            [{"fault": "raise",
              "match": {"policy": "fifo", "prefetch": "next_k"}}]
        )
        with chaos.active(plan):
            rows = compute_grid(
                grid, engine_cell, EngineRow, store=store,
                supervise=Supervision(),
            )
        position = list(grid).index(poison)
        assert rows[position] is None
        assert sum(1 for row in rows if row is None) == 1
        record = store.failure(poison.key)
        assert record["failure"]["exception_type"] == "ChaosFault"
        assert record["meta"]["params"] == poison.as_dict()
        report = missing_report(grid, store)
        assert [cell.key for cell, _ in report] == [poison.key]
        assert report[0][1] == record

    def test_quarantine_false_raises_cell_failed(self, tmp_path):
        grid = engine_grid(**CHAOS_KWARGS)
        plan = chaos.ChaosPlan.scripted(
            [{"fault": "raise",
              "match": {"policy": "fifo", "prefetch": "next_k"}}]
        )
        with chaos.active(plan):
            with pytest.raises(CellFailed, match="failed terminally"):
                compute_grid(
                    grid, engine_cell, EngineRow,
                    store=ResultStore(tmp_path),
                    supervise=Supervision(quarantine=False),
                )

    def test_success_clears_stale_failure_record(self, tmp_path):
        grid = engine_grid(**CHAOS_KWARGS)
        poison = _cell_with(grid, policy="fifo", prefetch="next_k")
        store = ResultStore(tmp_path)
        plan = chaos.ChaosPlan.scripted(
            [{"fault": "raise",
              "match": {"policy": "fifo", "prefetch": "next_k"}}]
        )
        with chaos.active(plan):
            compute_grid(
                grid, engine_cell, EngineRow, store=store,
                supervise=Supervision(),
            )
        assert store.failure(poison.key) is not None
        # Chaos off: a plain (unsupervised) recompute heals the cell and
        # drops the quarantine record.
        healed = compute_grid(grid, engine_cell, EngineRow, store=store)
        assert all(row is not None for row in healed)
        assert store.failure(poison.key) is None
        assert store.status(grid.keys()).complete

    def test_quarantined_sweep_heals_through_store(self, tmp_path):
        """A quarantined cell surfaces as a None row, never as a stored
        result: a later fault-free sweep over the same store recomputes
        it and comes back complete."""
        plan = chaos.ChaosPlan.scripted(
            [{"fault": "raise",
              "match": {"policy": "fifo", "prefetch": "next_k"}}]
        )
        with chaos.active(plan):
            rows = engine_sweep(
                **CHAOS_KWARGS, store=tmp_path, supervise=Supervision()
            )
        assert sum(1 for row in rows if row is None) == 1
        clean = engine_sweep(**CHAOS_KWARGS, store=tmp_path)
        assert all(row is not None for row in clean)
        assert clean == engine_sweep(**CHAOS_KWARGS)

    def test_rows_from_store_allow_missing_placeholders(self, tmp_path):
        grid = engine_grid(**CHAOS_KWARGS)
        store = ResultStore(tmp_path)
        rows = compute_grid(grid, engine_cell, EngineRow, store=store)
        victim = grid.cells[3]
        store.record_path(victim.key).unlink()
        with pytest.raises(MissingCells):
            rows_from_store(grid, EngineRow, store)
        degraded = rows_from_store(grid, EngineRow, store, allow_missing=True)
        assert len(degraded) == len(grid)
        assert degraded[3] is None
        assert [r for r in degraded if r is not None] == [
            row for i, row in enumerate(rows) if i != 3
        ]
        report = missing_report(grid, store)
        assert [cell.key for cell, failure in report] == [victim.key]
        assert report[0][1] is None  # missing, but not quarantined


class TestChaosShardedAcceptance:
    """Acceptance: a 4-shard run under scripted transient + poison +
    hang faults — every shard exits 0, status names exactly the
    quarantined cell, the degraded merge verifies, and a fault-free
    resume heals the store to bit-identity with a clean run."""

    def test_four_shards_survive_scripted_faults(self, tmp_path, capsys):
        grid = engine_grid(**CHAOS_KWARGS)
        poison = _cell_with(grid, policy="fifo", prefetch="next_k")
        clean = ResultStore(tmp_path / "clean")
        clean_rows = compute_grid(grid, engine_cell, EngineRow, store=clean)
        store_dir = tmp_path / "store"
        plan = chaos.ChaosPlan.scripted(
            [
                {"fault": "transient",
                 "match": {"policy": "lru", "prefetch": "none"}, "times": 1},
                {"fault": "raise",
                 "match": {"policy": "fifo", "prefetch": "next_k"}},
                {"fault": "hang",
                 "match": {"policy": "score", "prefetch": "none"},
                 "times": 1, "hang_s": 120.0},
            ],
            state_dir=tmp_path / "chaos-state",
        )
        with chaos.active(plan):
            for index in range(4):
                code = sweep_main(
                    ["run", "--shard", f"{index}/4", "--store",
                     str(store_dir), "--workers", "2", "--retries", "3",
                     "--cell-timeout", "15", *CHAOS_ARGS]
                )
                assert code == 0  # quarantine never fails a shard

        store = ResultStore(store_dir)
        status = store.status(grid.keys())
        assert status.failed_keys == (poison.key,)
        assert status.done == len(grid) - 1

        capsys.readouterr()
        assert sweep_main(
            ["status", "--store", str(store_dir), *CHAOS_ARGS]
        ) == 1  # incomplete grid: nonzero for scripting
        text = capsys.readouterr().out
        assert "1 quarantined" in text
        assert f"quarantined {poison.key}" in text
        assert "ChaosFault" in text

        # Degraded merge: --verify passes on the 7 present cells.
        out = tmp_path / "partial.json"
        assert sweep_main(
            ["merge", "--store", str(store_dir), "--verify",
             "--allow-missing", "--output", str(out), *CHAOS_ARGS]
        ) == 0
        err = capsys.readouterr().err
        assert f"missing {poison.key}" in err
        merged = [EngineRow(**row) for row in json.loads(out.read_text())]
        position = list(grid).index(poison)
        assert merged == [
            row for i, row in enumerate(clean_rows) if i != position
        ]
        # A strict merge still refuses the partial store.
        assert sweep_main(
            ["merge", "--store", str(store_dir), *CHAOS_ARGS]
        ) == 1

        # Every non-quarantined record is byte-identical to the clean
        # single-process run's (the faults never tainted survivors).
        survivors = [key for key in grid.keys() if key != poison.key]
        assert _record_bytes(store, survivors) == _record_bytes(
            clean, survivors
        )

        # Chaos off: resume heals the poison cell, full merge verifies,
        # and the store is record-for-record identical to the clean one.
        assert sweep_main(
            ["resume", "--store", str(store_dir), *CHAOS_ARGS]
        ) == 0
        assert store.failure(poison.key) is None
        assert sweep_main(
            ["merge", "--store", str(store_dir), "--verify", *CHAOS_ARGS]
        ) == 0
        assert _record_bytes(store, grid.keys()) == _record_bytes(
            clean, grid.keys()
        )

    def test_corrupt_fault_heals_on_resume(self, tmp_path):
        """A record torn after its atomic rename reads as missing and a
        fault-free resume recomputes it bit-identically."""
        grid = engine_grid(**CHAOS_KWARGS)
        victim = _cell_with(grid, policy="belady", prefetch="next_k")
        store_dir = tmp_path / "store"
        plan = chaos.ChaosPlan.scripted(
            [{"fault": "corrupt",
              "match": {"policy": "belady", "prefetch": "next_k"},
              "times": 1}],
            state_dir=tmp_path / "chaos-state",
        )
        with chaos.active(plan):
            assert sweep_main(
                ["run", "--shard", "0/1", "--store", str(store_dir),
                 *CHAOS_ARGS]
            ) == 0
        store = ResultStore(store_dir)
        assert not store.has(victim.key)  # torn record = missing
        status = store.status(grid.keys())
        assert status.missing_keys == (victim.key,)
        assert status.failed == 0  # torn, not quarantined
        assert sweep_main(
            ["resume", "--store", str(store_dir), *CHAOS_ARGS]
        ) == 0
        clean = ResultStore(tmp_path / "clean")
        compute_grid(grid, engine_cell, EngineRow, store=clean)
        assert _record_bytes(store, grid.keys()) == _record_bytes(
            clean, grid.keys()
        )

    def test_max_failures_aborts_shard_nonzero(self, tmp_path, capsys):
        plan = chaos.ChaosPlan.scripted(
            [
                {"fault": "raise", "match": {"policy": "fifo"}},
                {"fault": "raise", "match": {"policy": "lru"}},
            ]
        )
        with chaos.active(plan):
            code = sweep_main(
                ["run", "--shard", "0/1", "--store", str(tmp_path / "s"),
                 "--retries", "1", "--max-failures", "1", *CHAOS_ARGS]
            )
        assert code == 1
        assert "aborted" in capsys.readouterr().err


class TestDegradedTables:
    def test_engine_table_allow_missing_renders_dashes(self, tmp_path):
        from repro.analysis import engine_table_text_from_store

        grid = engine_grid(**CHAOS_KWARGS)
        store = ResultStore(tmp_path)
        plan = chaos.ChaosPlan.scripted(
            [{"fault": "raise",
              "match": {"policy": "fifo", "prefetch": "next_k"}}]
        )
        with chaos.active(plan):
            compute_grid(
                grid, engine_cell, EngineRow, store=store,
                supervise=Supervision(),
            )
        with pytest.raises(MissingCells):
            engine_table_text_from_store(store, **CHAOS_KWARGS)
        text = engine_table_text_from_store(
            store, allow_missing=True, **CHAOS_KWARGS
        )
        assert "—" in text
        assert "1 cell(s) missing/quarantined" in text
        assert "ChaosFault" in text  # the footer names the quarantine
        # The hole still shows its axis parameters.
        assert "fifo" in text

    def test_table3_allow_missing_renders_dashes(self, tmp_path):
        from repro.analysis import table3_text_from_store
        from repro.core.design_space import (
            TransferRow,
            transfer_cell,
            transfer_grid,
        )

        grid = transfer_grid()
        store = ResultStore(tmp_path)
        compute_grid(grid, transfer_cell, TransferRow, store=store)
        store.record_path(grid.cells[5].key).unlink()
        with pytest.raises(MissingCells):
            table3_text_from_store(store)
        text = table3_text_from_store(store, allow_missing=True)
        assert "—" in text
        assert "1 cell(s) missing/quarantined" in text
        # All four standard points keep their axes despite the hole.
        assert "7-L1" in text and "9-L2" in text
