"""Tests for the durable sharded-sweep result store (repro.perf.store)."""

import collections
import errno
import json
import multiprocessing
import os
import shutil

import pytest

import storefiles
from repro.perf.store import (
    INDEX_NAME,
    SEGMENT_SUFFIX,
    ResultStore,
    atomic_write_text,
    resolve_store,
)


class TestAtomicWriteText:
    def test_write_and_replace(self, tmp_path):
        target = tmp_path / "a" / "b.json"
        atomic_write_text(target, "one")
        assert target.read_text() == "one"
        atomic_write_text(target, "two")
        assert target.read_text() == "two"

    def test_leaves_no_temp_litter(self, tmp_path):
        atomic_write_text(tmp_path / "x.json", "payload")
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]


#: Ways an ``index.json`` can exist yet not parse to an index, each a
#: function of the intact index text.
TORN_INDEXES = {
    "truncated": lambda text: text[:7],
    "empty": lambda text: "",
    "not_json": lambda text: "\x00\x01 garbage",
    "json_list": lambda text: "[]",
    "no_records": lambda text: json.dumps({"store_version": 1}),
    "records_not_a_dict": lambda text: json.dumps({"records": ["a"]}),
}


class TestResultStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("k") is None
        assert not store.has("k")
        store.put("k", {"speedup": 2.5}, kernel="engine_cell",
                  params={"n_bits": 16})
        assert store.get("k") == {"speedup": 2.5}
        assert store.has("k")
        record = store.record("k")
        assert record["meta"]["kernel"] == "engine_cell"
        assert record["meta"]["params"] == {"n_bits": 16}

    def test_keys_scans_records_not_index(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("b", 2)
        store.put("a", 1)
        # A segment dropped in by a merged shard artifact (no index
        # entry) is still found: the scan, not the index, is the truth.
        storefiles.plant(store, "c", json.dumps({"value": 3}))
        assert store.keys() == ["a", "b", "c"]
        # Meta is optional: a bare {"value": ...} record counts.
        assert store.get("c") == 3 and store.has("c")

    def test_corrupt_record_counts_as_missing(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("good", 1)
        storefiles.plant(store, "torn", '{"value": [1, 2')
        storefiles.plant(store, "wrongshape", json.dumps([1, 2]))
        storefiles.plant(store, "novalue", json.dumps({"meta": {}}))
        # The zero-length text a crash between open and write leaves.
        storefiles.plant(store, "empty", "")
        assert store.get("torn") is None
        assert store.get("wrongshape") is None
        assert store.get("novalue") is None
        assert store.get("empty") is None
        assert store.keys() == ["good"]
        status = store.status(
            ["good", "torn", "wrongshape", "empty", "missing"]
        )
        assert (status.total, status.done, status.missing) == (5, 1, 4)
        assert status.missing_keys == ("torn", "wrongshape", "empty", "missing")
        assert not status.complete

    def test_status_complete(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", 1)
        status = store.status(["k"])
        assert status.complete and status.missing == 0

    def test_index_tracks_puts(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", 1, kernel="engine_cell")
        store.put("k2", 2, kernel="engine_cell")
        index = store.read_index()
        assert set(index) == {"k1", "k2"}
        assert index["k1"]["kernel"] == "engine_cell"

    def test_corrupt_index_is_tolerated_and_rebuilt(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", 1, kernel="engine_cell")
        store.index_path.write_text("{torn")
        assert store.read_index() == {}
        assert store.get("k1") == 1  # records never depend on the index
        store.put("k2", 2)  # index update survives the corrupt base
        rebuilt = store.rebuild_index()
        assert set(rebuilt) == {"k1", "k2"}
        assert set(store.read_index()) == {"k1", "k2"}

    @pytest.mark.parametrize("torn", sorted(TORN_INDEXES))
    def test_torn_index_heals_on_the_next_update(self, tmp_path, torn):
        store = ResultStore(tmp_path)
        for key in ("a", "b", "c"):
            store.put(key, key, kernel="engine_cell")
        store.index_path.write_text(
            TORN_INDEXES[torn](store.index_path.read_text())
        )
        store.put("d", "d", kernel="engine_cell")
        index = store.read_index()
        assert sorted(index) == store.keys() == ["a", "b", "c", "d"]
        assert index["a"]["kernel"] == "engine_cell"

    def test_missing_index_is_the_empty_start(self, tmp_path):
        # No index file is a fresh start, not a tear: the update writes
        # its own batch and scans nothing.
        store = ResultStore(tmp_path)
        store.put("a", 1)
        store.index_path.unlink()
        store.put("b", 2)
        assert set(store.read_index()) == {"b"}
        assert store.keys() == ["a", "b"]

    def test_healing_skips_corrupt_records(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("good", 1, kernel="engine_cell")
        storefiles.plant(store, "bad", "{not a record")
        store.index_path.write_text("{torn")
        store.index_add({"new": {"kernel": "engine_cell"}})
        assert set(store.read_index()) == {"good", "new"}

    def test_unreadable_index_is_not_overwritten(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("a", 1)
        store.index_path.unlink()
        store.index_path.symlink_to(INDEX_NAME)  # a loop: reads fail
        with pytest.raises(OSError) as raised:
            store.index_add({"b": {}})
        assert raised.value.errno == errno.ELOOP
        assert store.index_path.is_symlink()

    def test_rebuild_index_drops_stale_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("gone", 1)
        storefiles.remove(store, "gone")
        store.put("kept", 2)
        assert set(store.rebuild_index()) == {"kept"}

    def test_missing_directory_reads_empty(self, tmp_path):
        store = ResultStore(tmp_path / "never-created")
        assert store.get("k") is None
        assert store.keys() == []
        assert store.read_index() == {}

    def test_resolve_store(self, tmp_path):
        assert resolve_store(None) is None
        store = ResultStore(tmp_path)
        assert resolve_store(store) is store
        built = resolve_store(tmp_path)
        assert isinstance(built, ResultStore)
        assert built.directory == tmp_path
        with pytest.raises(TypeError):
            resolve_store(3.14)

    def test_resolve_store_accepts_backend_locators(self, tmp_path):
        """Locator strings route through repro.perf.backends; any object
        with the full backend surface passes through untouched."""
        from repro.perf.backends import SqliteStore

        assert isinstance(resolve_store(f"fs:{tmp_path}"), ResultStore)
        sqlite_store = resolve_store(f"sqlite:{tmp_path}/store.db")
        assert isinstance(sqlite_store, SqliteStore)
        assert resolve_store(sqlite_store) is sqlite_store


class TestFailureRecords:
    FAILURE = {
        "kind": "exception",
        "exception_type": "ChaosFault",
        "message": "scripted",
        "attempts": 3,
        "traceback_digest": "abc123def456",
    }

    def test_put_failure_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.failure("k") is None
        store.put_failure(
            "k", self.FAILURE, kernel="engine_cell", params={"n_bits": 16}
        )
        record = store.failure("k")
        assert record["failure"] == self.FAILURE
        assert record["meta"]["kernel"] == "engine_cell"
        assert record["meta"]["params"] == {"n_bits": 16}
        assert store.failure_keys() == ["k"]

    def test_failure_never_shadows_a_result(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_failure("k", self.FAILURE)
        assert not store.has("k")
        assert store.keys() == []
        store.put("k", {"speedup": 2.0})
        # The result wins everywhere a caller could look.
        assert store.has("k")
        assert store.status(["k"]).complete
        assert store.status(["k"]).failed == 0

    def test_status_reports_failed_subset_of_missing(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("done", 1)
        store.put_failure("quarantined", self.FAILURE)
        status = store.status(["done", "quarantined", "absent"])
        assert (status.done, status.missing, status.failed) == (1, 2, 1)
        assert status.failed_keys == ("quarantined",)

    def test_clear_failure(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_failure("k", self.FAILURE)
        store.clear_failure("k")
        assert store.failure("k") is None
        assert store.failure_keys() == []
        store.clear_failure("never-existed")  # idempotent

    def test_corrupt_failure_record_counts_as_none(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_failure("k", self.FAILURE)
        store.failure_path("k").write_text('{"failure": [torn')
        assert store.failure("k") is None
        (tmp_path / "failures" / "shapeless.json").write_text(
            json.dumps({"failure": "not-a-dict"})
        )
        assert store.failure("shapeless") is None
        assert store.failure_keys() == []

    def test_failure_records_invisible_to_record_scan(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("result", 1)
        store.put_failure("bad", self.FAILURE)
        assert store.keys() == ["result"]
        assert set(store.rebuild_index()) == {"result"}


def _race_same_cell(args):
    directory, key, rounds = args
    store = ResultStore(directory)
    for _ in range(rounds):
        store.put(key, {"cell": "deterministic-value", "n": 12},
                  kernel="engine_cell", params={"n_bits": 12})
    return True


def _race_many_cells(args):
    directory, rounds = args
    store = ResultStore(directory)
    for i in range(rounds):
        key = f"cell{i % 10}"
        store.put(key, {"value-for": key}, kernel="engine_cell")
    return True


class TestConcurrentWriters:
    def test_two_processes_racing_one_cell(self, tmp_path):
        with multiprocessing.Pool(2) as pool:
            done = pool.map(
                _race_same_cell, [(str(tmp_path), "cell", 40)] * 2
            )
        assert done == [True, True]
        store = ResultStore(tmp_path)
        # Cells are deterministic, so last-writer-wins is value-identical;
        # the record must be complete and readable, never torn.
        assert store.get("cell") == {"cell": "deterministic-value", "n": 12}
        assert set(store.read_index()) == {"cell"}
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_two_processes_racing_the_index(self, tmp_path):
        with multiprocessing.Pool(2) as pool:
            pool.map(_race_many_cells, [(str(tmp_path), 50)] * 2)
        store = ResultStore(tmp_path)
        expected = {f"cell{i}" for i in range(10)}
        for key in expected:
            assert store.get(key) == {"value-for": key}
        # The flock-guarded read-modify-write means no put is lost from
        # the index even under interleaving.
        assert set(store.read_index()) == expected
        assert set(store.keys()) == expected


    def test_two_processes_healing_a_torn_index(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("seed", 0)
        store.index_path.write_text("{torn")
        with multiprocessing.Pool(2) as pool:
            pool.map(_race_many_cells, [(str(tmp_path), 20)] * 2)
        expected = {"seed"} | {f"cell{i}" for i in range(10)}
        # Whichever writer meets the tear rebuilds under the lock; the
        # other then reads the healed index, so no entry is lost.
        assert set(store.read_index()) == expected
        assert set(store.keys()) == expected


class TestIndexFileIsolation:
    def test_index_never_shadows_a_record(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", 1)
        assert INDEX_NAME not in [f"{key}.json" for key in store.keys()]
        assert "index" not in store.keys()

    def test_lock_file_is_hidden_from_records(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", 1)
        assert store.keys() == ["k"]
        assert os.path.exists(tmp_path / ".index.lock")


def _fill(store, n_keys, batch=8):
    """``n_keys`` records written ``batch`` to a ``put_many``; the keys."""
    keys = [f"cell{i:03d}" for i in range(n_keys)]
    for start in range(0, n_keys, batch):
        store.put_many(
            (key, {"n": key}, "engine_cell", {"key": key})
            for key in keys[start : start + batch]
        )
    return keys


class TestSegments:
    def test_one_segment_per_batch_with_byte_identical_records(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = _fill(store, 24)
        assert len(storefiles.segments(store)) == 3
        texts = storefiles.record_texts(store)
        for key in keys:
            assert texts[key] == json.dumps(store.record(key), sort_keys=True)
        assert [p for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []

    def test_put_of_a_stored_key_overwrites_it(self, tmp_path):
        store = ResultStore(tmp_path)
        _fill(store, 8)
        store.put("cell003", {"n": "new"})
        for reader in (store, ResultStore(tmp_path)):
            assert reader.get("cell003") == {"n": "new"}
            assert reader.get("cell004") == {"n": "cell004"}
            assert reader.keys() == [f"cell{i:03d}" for i in range(8)]

    @pytest.mark.parametrize("method", ["status", "keys", "records", "rebuild_index"])
    def test_each_segment_read_at_most_once_per_call(
        self, tmp_path, monkeypatch, method
    ):
        writer = ResultStore(tmp_path)
        keys = _fill(writer, 480)
        calls = {
            "status": lambda store: store.status(keys).complete,
            "keys": lambda store: store.keys() == keys,
            "records": lambda store: len(store.records(keys)) == 480,
            "rebuild_index": lambda store: sorted(store.rebuild_index()) == keys,
        }
        reads = collections.Counter()
        os_open = os.open

        def counting_open(path, *args, **kwargs):
            if str(path).endswith(SEGMENT_SUFFIX):
                reads[os.path.basename(path)] += 1
            return os_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", counting_open)
        # A cold reader scans all 60 segments on its first call; the
        # writer registered its own, and a warm reader has seen them.
        cold = ResultStore(tmp_path)
        for store in (cold, cold, writer):
            reads.clear()
            assert calls[method](store)
            assert max(reads.values(), default=0) <= 1
        reads.clear()
        calls[method](ResultStore(tmp_path))
        assert len(reads) == 60

    def test_a_directory_in_place_of_a_segment_raises(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = _fill(store, 16)
        live = ResultStore(tmp_path)
        live.keys()
        segment = storefiles.segments(store)[0]
        segment.unlink()
        segment.mkdir()
        for reader in (live, ResultStore(tmp_path)):
            with pytest.raises(IsADirectoryError):
                reader.record(keys[0])
            with pytest.raises(IsADirectoryError):
                reader.status(keys)
        with pytest.raises(IsADirectoryError):
            ResultStore(tmp_path).keys()

    def test_a_segment_deleted_after_listing_reads_missing(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path)
        keys = _fill(store, 16)
        ghost = storefiles.segments(store)[0]
        listdir = os.listdir
        ghost.unlink()
        # The listing still names it: it vanished before the open.
        monkeypatch.setattr(os, "listdir", lambda d: listdir(d) + [ghost.name])
        reader = ResultStore(tmp_path)
        assert reader.keys() == keys[8:]
        assert reader.get(keys[0]) is None
        assert reader.status(keys).missing_keys == tuple(keys[:8])

    def test_a_torn_header_masks_every_older_line(self, tmp_path):
        # Its keys are unknown, so no older line can be trusted to be
        # any key's newest: everything before it reads missing, and a
        # rewrite after it reads again.
        store = ResultStore(tmp_path)
        keys = _fill(store, 16)
        storefiles.write_segment(store, b'["cell0')
        reader = ResultStore(tmp_path)
        assert reader.keys() == []
        assert reader.status(keys).missing == 16
        store.put("cell001", {"n": "cell001"})
        assert ResultStore(tmp_path).keys() == ["cell001"]
        # The zero-length file a crash between open and write leaves
        # (the atomic writer never does) masks the same way.
        storefiles.write_segment(store, b"")
        assert ResultStore(tmp_path).keys() == []

    def test_damage_in_place_is_seen_by_a_live_reader(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = _fill(store, 16)
        assert store.status(keys).complete
        segment = storefiles.segments(store)[1]
        header = segment.read_text().split("\n")[0]
        os.truncate(segment, len(header) + 1)  # every record line lost
        assert store.status(keys).missing_keys == tuple(keys[8:])
        assert store.keys() == keys[:8]
        assert store.get(keys[8]) is None
        assert store.get(keys[7]) == {"n": keys[7]}

    def test_put_many_with_nothing_writes_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.put_many([]) == {}
        assert not tmp_path.joinpath("generation").exists()
        assert storefiles.segments(store) == []


#: A small engine grid whose traffic groups hold three cells each
#: (pure steane plus both mixed stacks), so segments hold three lines.
TORN_GRID_KWARGS = dict(
    workloads=("draper_adder",),
    sizes=(16,),
    depths=(2,),
    policies=("lru", "belady"),
    prefetches=("none",),
    code_pairs=(("bacon_shor", "steane"), ("steane", "bacon_shor")),
)
TORN_GRID_ARGS = [
    "--workloads", "draper_adder", "--sizes", "16", "--depths", "2",
    "--policies", "lru", "belady", "--prefetches", "none",
    "--code-pairs", "bacon_shor:steane", "steane:bacon_shor",
]


def _cut(cut, data):
    """The offset a truncation named ``cut`` keeps of segment ``data``."""
    header, first, *_ = data.split(b"\n")
    if cut == "inside_first_line":
        return len(header) // 2
    if cut == "mid_record":
        return len(header) + 1 + len(first) // 2
    return len(header) + 1 + len(first) + 1  # exactly on a line boundary


class TestTornSegments:
    @pytest.mark.parametrize(
        "cut", ["inside_first_line", "mid_record", "line_boundary"]
    )
    def test_truncated_segment_reads_missing_and_resume_rewrites_it(
        self, tmp_path, cut
    ):
        from repro.core.design_space import engine_grid
        from repro.sweep.cli import main as sweep_main

        grid = engine_grid(**TORN_GRID_KWARGS)
        clean_dir, torn_dir = tmp_path / "clean", tmp_path / "torn"
        run = ["run", "--shard", "0/1", *TORN_GRID_ARGS]
        assert sweep_main([*run[:3], "--store", str(clean_dir), *run[3:]]) == 0
        clean = storefiles.record_texts(clean_dir)
        # Older, different values under every key: a lost line must
        # never fall back to one of them.
        store = ResultStore(torn_dir)
        store.put_many((key, {"stale": True}, None, None) for key in grid.keys())
        assert sweep_main([*run[:3], "--store", str(torn_dir), *run[3:]]) == 0
        live = ResultStore(torn_dir)
        assert live.status(grid.keys()).complete
        segment = storefiles.segments(store)[-1]
        keys, _ = storefiles.segment_lines(segment)
        assert len(keys) == 3
        data = segment.read_bytes()
        os.truncate(segment, _cut(cut, data))
        lost = keys if cut == "inside_first_line" else keys[1:]
        for reader in (live, ResultStore(torn_dir)):
            status = reader.status(grid.keys())
            for key in lost:
                assert key in status.missing_keys
                assert reader.record(key) is None
                assert key not in reader.records(grid.keys())
                assert key not in reader.keys()
            for key in grid.keys():
                assert reader.get(key) != {"stale": True}
        assert sweep_main(["resume", "--store", str(torn_dir), *TORN_GRID_ARGS]) == 0
        healed = ResultStore(torn_dir)
        assert healed.status(grid.keys()).complete
        texts = storefiles.record_texts(torn_dir)
        assert {key: texts[key] for key in grid.keys()} == clean


def _run_shard(args):
    from repro.sweep.cli import main as sweep_main

    shard, directory = args
    return sweep_main(["run", "--shard", shard, "--store", directory, *TORN_GRID_ARGS])


def _put_in_fresh_process(args):
    directory, key, value = args
    ResultStore(directory).put(key, value)


def _union_by_copy(sources, target):
    """Copy every file of ``sources`` into ``target``, later sources
    overwriting same-named files: what ``download-artifact``'s
    ``merge-multiple`` does to shard artifacts."""
    for source in sources:
        for path in sorted(source.rglob("*")):
            if path.is_file():
                dest = target / path.relative_to(source)
                dest.parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(path, dest)


class TestShardMerge:
    def test_shards_from_two_processes_union_by_copy(self, tmp_path):
        from repro.sweep.cli import main as sweep_main

        shards = [tmp_path / "shard0", tmp_path / "shard1"]
        with multiprocessing.Pool(2) as pool:
            codes = pool.map(
                _run_shard, [(f"{i}/2", str(shard)) for i, shard in enumerate(shards)]
            )
        assert codes == [0, 0]
        names = [{p.name for p in storefiles.segments(shard)} for shard in shards]
        assert names[0] and names[1] and not names[0] & names[1]
        union = tmp_path / "union"
        _union_by_copy(shards, union)
        assert len(storefiles.segments(union)) == len(names[0] | names[1])
        merged, single = tmp_path / "merged.json", tmp_path / "single.json"
        assert sweep_main(
            ["merge", "--store", str(union), "--verify", "--output", str(merged),
             *TORN_GRID_ARGS]
        ) == 0
        solo = tmp_path / "solo"
        assert _run_shard(("0/1", str(solo))) == 0
        assert sweep_main(
            ["merge", "--store", str(solo), "--output", str(single), *TORN_GRID_ARGS]
        ) == 0
        assert merged.read_bytes() == single.read_bytes()
        assert storefiles.dump(ResultStore(union)) == storefiles.dump(
            ResultStore(solo)
        )

    def test_a_later_process_put_wins(self, tmp_path):
        shared, first, second = (tmp_path / name for name in ("shared", "a", "b"))
        # One task per worker process: each put comes from a new process.
        with multiprocessing.Pool(1, maxtasksperchild=1) as pool:
            for directory, value in ((shared, 1), (first, 1), (shared, 2), (second, 2)):
                pool.apply(_put_in_fresh_process, ((str(directory), "k", value),))
        assert len(storefiles.segments(shared)) == 2
        assert ResultStore(shared).get("k") == 2
        # Copy order does not matter: segment names sort in write order.
        union = tmp_path / "union"
        _union_by_copy([second, first], union)
        assert ResultStore(union).get("k") == 2
