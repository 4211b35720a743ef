"""Tests for the durable sharded-sweep result store (repro.perf.store)."""

import errno
import json
import multiprocessing
import os

import pytest

from repro.perf.store import (
    INDEX_NAME,
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
        # A record dropped in by a merged shard artifact (no index entry)
        # is still found: the scan, not the index, is the truth.
        (tmp_path / "c.json").write_text(json.dumps({"value": 3}))
        assert store.keys() == ["a", "b", "c"]
        # Meta is optional: a bare {"value": ...} record counts.
        assert store.get("c") == 3 and store.has("c")

    def test_corrupt_record_counts_as_missing(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("good", 1)
        (tmp_path / "torn.json").write_text('{"value": [1, 2')
        (tmp_path / "wrongshape.json").write_text(json.dumps([1, 2]))
        (tmp_path / "novalue.json").write_text(json.dumps({"meta": {}}))
        # The zero-length file a crash between open and write leaves.
        (tmp_path / "empty.json").write_text("")
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
        store.record_path("bad").write_text("{not a record")
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
        store.record_path("gone").unlink()
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
