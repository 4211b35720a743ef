"""Backend conformance suite (repro.perf.backends).

Every store backend reachable through a locator must honour the same
contracts the filesystem store established in the atomicity, corruption
and quarantine tests of ``tests/test_store.py`` — so each contract here
is parametrized over ``fs``/``sqlite`` and exercised through the shared
method surface only.  The cross-backend class then pins the stronger
claim: the *same grid* swept into either backend persists byte-identical
record text and merges ``--verify``-clean into byte-identical outputs.
"""

import gc
import json
import multiprocessing
import sqlite3
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from pathlib import Path

import pytest

from repro.core.design_space import transfer_grid
import storefiles
from repro.perf.backends import (
    STORE_SCHEMES,
    SqliteStore,
    StoreBackendError,
    locator_path,
    open_store,
    parse_locator,
)
from repro.perf.chaos import ChaosPlan
from repro.perf.store import ResultStore, resolve_store
from repro.sweep.cli import main as sweep_main
from repro.sweep.runner import compute_grid, kernel_registry

BACKENDS = ("fs", "sqlite")

FAILURE = {
    "kind": "exception",
    "exception_type": "ChaosFault",
    "message": "scripted",
    "attempts": 3,
    "traceback_digest": "abc123def456",
}


def make_locator(backend, tmp_path, name="store"):
    if backend == "fs":
        return f"fs:{tmp_path / name}"
    return f"sqlite:{tmp_path / name}.db"


def corrupt_record(store, key, text='{"value": [1, 2'):
    """Tear ``key``'s persisted record through the backend's own storage."""
    if isinstance(store, SqliteStore):
        with closing(sqlite3.connect(str(store.path))) as conn, conn:
            conn.execute(
                "UPDATE records SET record=? WHERE key=?", (text, key)
            )
    else:
        storefiles.plant(store, key, text)


def corrupt_failure(store, key, text='{"failure": [torn'):
    if isinstance(store, SqliteStore):
        with closing(sqlite3.connect(str(store.path))) as conn, conn:
            conn.execute(
                "UPDATE failures SET record=? WHERE key=?", (text, key)
            )
    else:
        store.failure_path(key).write_text(text)


def delete_record(store, key):
    if isinstance(store, SqliteStore):
        with closing(sqlite3.connect(str(store.path))) as conn, conn:
            conn.execute("DELETE FROM records WHERE key=?", (key,))
    else:
        storefiles.remove(store, key)


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


@pytest.fixture
def store(backend, tmp_path):
    return open_store(make_locator(backend, tmp_path))


class TestLocators:
    def test_parse_locator(self, tmp_path):
        assert parse_locator("fs:/shared/sweep") == ("fs", "/shared/sweep")
        assert parse_locator("sqlite:/shared/sweep.db") == (
            "sqlite",
            "/shared/sweep.db",
        )
        # Bare paths (and Path objects) stay the filesystem backend, so
        # every pre-backend ``--store DIR`` invocation is unchanged.
        assert parse_locator("relative/dir") == ("fs", "relative/dir")
        assert parse_locator(tmp_path) == ("fs", str(tmp_path))

    def test_unknown_scheme_is_an_error_not_a_path(self):
        with pytest.raises(StoreBackendError, match="unknown store backend"):
            parse_locator("redis:/somewhere")

    def test_empty_path_rejected(self):
        with pytest.raises(StoreBackendError, match="empty path"):
            parse_locator("sqlite:")

    def test_locator_path_anchors_sibling_artifacts(self, tmp_path):
        assert locator_path(f"sqlite:{tmp_path}/s.db") == tmp_path / "s.db"
        assert locator_path(str(tmp_path)) == tmp_path

    def test_open_store_picks_the_backend(self, tmp_path):
        assert isinstance(open_store(f"fs:{tmp_path}/a"), ResultStore)
        assert isinstance(
            open_store(f"sqlite:{tmp_path}/a.db"), SqliteStore
        )
        assert isinstance(open_store(tmp_path / "bare"), ResultStore)

    def test_fs_locator_on_sqlite_file_names_the_fix(self, tmp_path):
        db = tmp_path / "store.db"
        SqliteStore(db).put("k", 1)
        with pytest.raises(StoreBackendError, match=f"sqlite:{db}"):
            open_store(str(db))

    def test_sqlite_locator_on_directory_names_the_fix(self, tmp_path):
        with pytest.raises(StoreBackendError, match=f"fs:{tmp_path}"):
            open_store(f"sqlite:{tmp_path}")

    def test_sqlite_locator_on_foreign_file(self, tmp_path):
        noise = tmp_path / "rows.json"
        noise.write_text("[]")
        with pytest.raises(StoreBackendError, match="not a SQLite database"):
            open_store(f"sqlite:{noise}")

    def test_resolve_store_accepts_locators_and_backends(self, tmp_path):
        built = resolve_store(f"sqlite:{tmp_path}/s.db")
        assert isinstance(built, SqliteStore)
        # An already-open backend object passes through untouched.
        assert resolve_store(built) is built
        assert isinstance(resolve_store(f"fs:{tmp_path}/d"), ResultStore)

    def test_every_scheme_is_openable(self, tmp_path):
        for scheme in STORE_SCHEMES:
            name = f"probe-{scheme}" + (".db" if scheme == "sqlite" else "")
            store = open_store(f"{scheme}:{tmp_path / name}")
            store.put("k", 1)
            assert store.get("k") == 1


class TestBackendConformance:
    """The PR 4/6 store contracts, over every backend."""

    def test_put_get_roundtrip_with_meta(self, store):
        assert store.get("k") is None
        assert not store.has("k")
        store.put(
            "k", {"speedup": 2.5}, kernel="engine_cell", params={"n_bits": 16}
        )
        assert store.get("k") == {"speedup": 2.5}
        assert store.has("k")
        record = store.record("k")
        assert record["meta"]["kernel"] == "engine_cell"
        assert record["meta"]["params"] == {"n_bits": 16}

    def test_keys_sorted(self, store):
        for key in ("b", "a", "c"):
            store.put(key, key.upper())
        assert store.keys() == ["a", "b", "c"]

    def test_corrupt_record_counts_as_missing(self, store):
        store.put("good", 1)
        store.put("torn", 2)
        store.put("wrongshape", 3)
        corrupt_record(store, "torn")
        corrupt_record(store, "wrongshape", json.dumps([1, 2]))
        assert store.get("torn") is None
        assert store.get("wrongshape") is None
        assert store.get("good") == 1
        assert store.keys() == ["good"]
        status = store.status(["good", "torn", "wrongshape", "absent"])
        assert (status.total, status.done, status.missing) == (4, 1, 3)
        assert status.missing_keys == ("torn", "wrongshape", "absent")
        assert not status.complete

    def test_status_complete(self, store):
        store.put("k", 1)
        status = store.status(["k"])
        assert status.complete and status.missing == 0

    def test_failure_roundtrip_and_quarantine_split(self, store):
        assert store.failure("k") is None
        store.put_failure(
            "k", FAILURE, kernel="engine_cell", params={"n_bits": 16}
        )
        record = store.failure("k")
        assert record["failure"] == FAILURE
        assert record["meta"]["kernel"] == "engine_cell"
        assert store.failure_keys() == ["k"]
        store.put("done", 1)
        status = store.status(["done", "k", "absent"])
        assert (status.done, status.missing, status.failed) == (1, 2, 1)
        assert status.failed_keys == ("k",)

    def test_failure_never_shadows_a_result(self, store):
        store.put_failure("k", FAILURE)
        assert not store.has("k")
        assert store.keys() == []
        store.put("k", {"speedup": 2.0})
        assert store.has("k")
        assert store.status(["k"]).complete
        assert store.status(["k"]).failed == 0

    def test_clear_failure_is_idempotent(self, store):
        store.put_failure("k", FAILURE)
        store.clear_failure("k")
        assert store.failure("k") is None
        assert store.failure_keys() == []
        store.clear_failure("never-existed")

    def test_corrupt_failure_record_counts_as_none(self, store):
        store.put_failure("k", FAILURE)
        corrupt_failure(store, "k")
        assert store.failure("k") is None
        store.put_failure("shapeless", FAILURE)
        corrupt_failure(store, "shapeless", json.dumps({"failure": "str"}))
        assert store.failure("shapeless") is None
        assert store.failure_keys() == []

    def test_index_tracks_puts(self, store):
        store.put("k1", 1, kernel="engine_cell")
        store.put("k2", 2, kernel="engine_cell")
        index = store.read_index()
        assert set(index) == {"k1", "k2"}
        assert index["k1"]["kernel"] == "engine_cell"

    def test_index_add_merges(self, store):
        store.index_add({"k1": {"kernel": "engine_cell"}})
        store.index_add({"k2": {"kernel": "engine_cell"}})
        assert set(store.read_index()) == {"k1", "k2"}

    def test_rebuild_index_drops_stale_entries(self, store):
        store.put("gone", 1)
        delete_record(store, "gone")
        store.put("kept", 2)
        assert set(store.rebuild_index()) == {"kept"}
        assert set(store.read_index()) == {"kept"}

    def test_records_never_depend_on_the_index(self, store):
        store.put("k", 1, index=False)
        assert store.get("k") == 1
        assert store.read_index() == {}
        assert set(store.rebuild_index()) == {"k"}

    def test_records_omits_corrupt_and_missing(self, store):
        store.put("good", 1, kernel="engine_cell")
        store.put("torn", 2)
        store.put("wrongshape", 3)
        corrupt_record(store, "torn")
        corrupt_record(store, "wrongshape", json.dumps([1, 2]))
        found = store.records(["good", "torn", "wrongshape", "absent"])
        assert found == {"good": store.record("good")}
        assert store.records([]) == {}

    def test_records_longer_than_one_sqlite_chunk(self, store):
        keys = [f"k{i:04d}" for i in range(1200)]
        store.put_many((key, {"i": key}, None, None) for key in keys)
        found = store.records(keys + ["absent"])
        assert sorted(found) == keys
        assert all(found[key]["value"] == {"i": key} for key in keys)
        assert store.status(keys).complete

    def test_put_many_clears_failures_and_leaves_the_index(self, store):
        store.put("indexed", 0, kernel="engine_cell")
        index = store.read_index()
        store.put_failure("healed", FAILURE)
        metas = store.put_many(
            [
                ("healed", {"v": 1}, "engine_cell", {"n_bits": 16}),
                ("fresh", {"v": 2}, None, None),
            ]
        )
        assert metas["healed"] == store.record("healed")["meta"]
        assert metas["fresh"] == {"store_version": 1}
        assert store.failure("healed") is None
        assert store.failure_keys() == []
        assert store.status(["healed", "fresh"]).complete
        assert store.read_index() == index
        assert store.put_many([]) == {}

    def test_put_clears_a_stale_failure(self, store):
        store.put_failure("k", FAILURE)
        store.put("k", 1)
        assert store.failure("k") is None

    def test_empty_store_reads_empty(self, store):
        assert store.get("k") is None
        assert store.keys() == []
        assert store.read_index() == {}
        assert store.failure_keys() == []

    def test_chaos_tear_then_record_reads_missing(self, store, tmp_path):
        plan = ChaosPlan.scripted(
            [{"fault": "corrupt", "match": {"x": 1}, "times": 1}],
            state_dir=tmp_path / "chaos-state",
        )
        store.put("hit", {"value": "full"}, params={"x": 1})
        store.put("spared", {"value": "full"}, params={"x": 2})
        assert not store.chaos_tear(plan, "spared", {"x": 2})
        assert store.chaos_tear(plan, "hit", {"x": 1})
        # The torn record models a tear that survived persistence: it
        # must read as missing, and a resume must recompute it.
        assert store.get("hit") is None
        assert not store.has("hit")
        assert store.get("spared") == {"value": "full"}
        # times=1 is spent — the recomputed record survives.
        store.put("hit", {"value": "full"}, params={"x": 1})
        assert not store.chaos_tear(plan, "hit", {"x": 1})
        assert store.has("hit")


class TestGenerationToken:
    """``generation()``: every write to a record or failure record
    changes it, no read does, and another handle sees the same token."""

    def test_fresh_store_has_no_token_until_written(self, store):
        assert store.generation() is None
        store.put("k", 1)
        assert store.generation() is not None

    def test_every_mutating_method_changes_it(self, store, tmp_path):
        plan = ChaosPlan.scripted(
            [{"fault": "corrupt", "match": {"x": 1}, "times": 1}],
            state_dir=tmp_path / "chaos-state",
        )
        writes = [
            lambda: store.put("a", 1, params={"x": 1}),
            lambda: store.put("b", 2, index=False),
            lambda: store.put_many([("c", 3, None, None), ("d", 4, None, None)]),
            lambda: store.put_failure("e", FAILURE),
            lambda: store.put_failure("e", {**FAILURE, "attempts": 4}),
            lambda: store.clear_failure("e"),
            lambda: store.chaos_tear(plan, "a", {"x": 1}),
            lambda: store.put("a", 1),
        ]
        seen = [store.generation()]
        for write in writes:
            write()
            seen.append(store.generation())
        assert None not in seen[1:]
        assert len(set(seen)) == len(seen)

    def test_reads_and_no_op_writes_leave_it(self, store, tmp_path):
        plan = ChaosPlan.scripted(
            [{"fault": "corrupt", "match": {"x": 1}, "times": 1}],
            state_dir=tmp_path / "chaos-state",
        )
        store.put("k", 1, kernel="engine_cell")
        store.put_failure("quarantined", FAILURE)
        token = store.generation()
        store.get("k")
        store.record("k")
        store.records(["k", "absent"])
        store.has("k")
        store.keys()
        store.status(["k", "quarantined", "absent"])
        store.failure("quarantined")
        store.failure_keys()
        store.read_index()
        store.clear_failure("never-existed")
        store.put_many([])
        assert not store.chaos_tear(plan, "k", {"x": 2})
        assert store.generation() == token

    def test_a_second_handle_sees_the_same_token(self, backend, tmp_path):
        locator = make_locator(backend, tmp_path)
        writer, reader = open_store(locator), open_store(locator)
        writer.put("k", 1)
        token = reader.generation()
        assert token == writer.generation()
        writer.put("k", 2)
        assert reader.generation() not in (None, token)

    def test_fs_put_many_bumps_once_per_batch(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        store.put_failure("healed", FAILURE)
        bumps = []
        original = ResultStore._bump_generation

        def counted(self):
            bumps.append(1)
            original(self)

        monkeypatch.setattr(ResultStore, "_bump_generation", counted)
        store.put_many((f"k{i}", i, None, None) for i in range(5))
        store.put_many([("healed", 1, None, None)])
        assert len(bumps) == 2
        assert store.failure("healed") is None

    def test_fs_token_file_is_not_a_record(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put("k", 1)
        assert store.keys() == ["k"]
        assert set(store.rebuild_index()) == {"k"}
        litter = [p.name for p in store.directory.iterdir() if p.suffix == ".tmp"]
        assert litter == []

    def test_fs_hand_edits_wait_for_the_next_api_write(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put("k", 1)
        token = store.generation()
        corrupt_record(store, "k")
        assert store.generation() == token
        store.put("other", 2)
        assert store.generation() != token

    def test_sqlite_hand_run_sql_bumps_it(self, tmp_path):
        store = SqliteStore(tmp_path / "store.db")
        store.put("k", 1)
        store.put_failure("f", FAILURE)
        seen = [store.generation()]
        corrupt_record(store, "k")
        seen.append(store.generation())
        corrupt_failure(store, "f")
        seen.append(store.generation())
        delete_record(store, "k")
        seen.append(store.generation())
        assert len(set(seen)) == 4

    def test_sqlite_database_without_the_table_migrates(self, tmp_path):
        path = tmp_path / "old.db"
        with closing(sqlite3.connect(str(path))) as conn, conn:
            conn.execute("CREATE TABLE records (key TEXT PRIMARY KEY, record TEXT NOT NULL)")
            conn.execute(
                "INSERT INTO records VALUES('k', ?)",
                (json.dumps({"meta": {}, "value": 1}, sort_keys=True),),
            )
        store = SqliteStore(path)
        token = store.generation()
        assert token is not None
        assert store.get("k") == 1
        # A writer that knows nothing of the token still bumps it.
        with closing(sqlite3.connect(str(path))) as conn, conn:
            conn.execute("UPDATE records SET record='torn' WHERE key='k'")
        assert store.generation() != token


def _hammer_same_cell(args):
    locator, key, rounds = args
    store = open_store(locator)
    for _ in range(rounds):
        store.put(
            key,
            {"cell": "deterministic-value", "n": 12},
            kernel="engine_cell",
            params={"n_bits": 12},
        )
    return True


def _hammer_many_cells(args):
    locator, rounds = args
    store = open_store(locator)
    for i in range(rounds):
        key = f"cell{i % 8}"
        store.put(key, {"value-for": key}, kernel="engine_cell")
    return True


def _soak_writer(locator, start, rounds):
    """One process of the fresh-store soak: open, write, read back.

    An exception exits the process non-zero, which the test asserts on.
    """
    start.wait()
    store = open_store(locator)
    for i in range(rounds):
        key = f"cell{i % 8}"
        store.put(key, {"value-for": key}, kernel="engine_cell")
        assert store.get(key) == {"value-for": key}
        store.status([key])


class TestConcurrentWriters:
    """Worker processes open stores from locator strings, like real shards."""

    def test_fresh_store_soak(self, backend, tmp_path):
        # Every trial is a brand-new store that several processes open
        # and write at the same instant: the first-writer window (the
        # sqlite WAL switch and schema creation) is raced every time.
        writers = 4
        for trial in range(8):
            locator = make_locator(backend, tmp_path, f"soak{trial}")
            start = multiprocessing.Barrier(writers)
            procs = [
                multiprocessing.Process(
                    target=_soak_writer, args=(locator, start, 16)
                )
                for _ in range(writers)
            ]
            for proc in procs:
                proc.start()
            for proc in procs:
                proc.join(120)
            assert [proc.exitcode for proc in procs] == [0] * writers, trial
            store = open_store(locator)
            assert store.keys() == sorted(f"cell{i}" for i in range(8))

    def test_two_processes_racing_one_cell(self, backend, tmp_path):
        locator = make_locator(backend, tmp_path)
        with multiprocessing.Pool(2) as pool:
            done = pool.map(_hammer_same_cell, [(locator, "cell", 40)] * 2)
        assert done == [True, True]
        store = open_store(locator)
        # Cells are deterministic, so last-writer-wins is value-identical;
        # the record must be complete and readable, never torn.
        assert store.get("cell") == {"cell": "deterministic-value", "n": 12}
        assert set(store.read_index()) == {"cell"}

    def test_two_processes_racing_many_cells(self, backend, tmp_path):
        locator = make_locator(backend, tmp_path)
        with multiprocessing.Pool(2) as pool:
            pool.map(_hammer_many_cells, [(locator, 40)] * 2)
        store = open_store(locator)
        expected = {f"cell{i}" for i in range(8)}
        for key in expected:
            assert store.get(key) == {"value-for": key}
        assert set(store.keys()) == expected
        assert set(store.read_index()) == expected


    def test_live_reader_never_blocks_a_writer_process(self, backend, tmp_path):
        locator = make_locator(backend, tmp_path)
        # Pool workers fork first, so the reader's connection is open in
        # the parent alone while they write.
        with multiprocessing.Pool(2) as pool:
            reader = open_store(locator)
            reader.put("seed", 0)
            assert reader.get("seed") == 0
            pending = pool.map_async(_hammer_many_cells, [(locator, 40)] * 2)
            deadline = time.monotonic() + 60
            while not pending.ready() and time.monotonic() < deadline:
                assert reader.get("seed") == 0
                reader.status([f"cell{i}" for i in range(8)])
            assert pending.get(timeout=60) == [True, True]
            expected = sorted(["seed"] + [f"cell{i}" for i in range(8)])
            assert reader.keys() == expected


def _fork_child_writes(holder, halfway, parent_closed, rounds):
    """Child side of the fork test: read and write through the store
    object the parent used, while the parent drops its own copy."""
    store = holder[0]
    assert store.get("parent") == {"by": "parent"}
    for i in range(rounds):
        if i == rounds // 2:
            halfway.set()
            assert parent_closed.wait(60)
        store.put(f"child{i}", {"by": "child"})
        assert store.get(f"child{i}") == {"by": "child"}


class TestSqliteConnections:
    """One connection per process and thread, owned by the store."""

    def test_store_used_in_parent_and_fork_child(self, tmp_path):
        path = tmp_path / "store.db"
        holder = [SqliteStore(path)]
        holder[0].put("parent", {"by": "parent"})
        assert holder[0].get("parent") == {"by": "parent"}
        ctx = multiprocessing.get_context("fork")
        halfway, parent_closed = ctx.Event(), ctx.Event()
        child = ctx.Process(
            target=_fork_child_writes, args=(holder, halfway, parent_closed, 20)
        )
        child.start()
        assert halfway.wait(60)
        holder[0].put("parent2", {"by": "parent"})
        assert holder[0].get("child0") == {"by": "child"}
        # Dropping the parent's store closes its connection while the
        # child is mid-write: that must not checkpoint the child's WAL
        # away (it does if a connection was open across the fork).
        holder.clear()
        gc.collect()
        parent_closed.set()
        child.join(60)
        assert child.exitcode == 0
        expected = ["parent", "parent2"] + [f"child{i}" for i in range(20)]
        assert SqliteStore(path).keys() == sorted(expected)

    def test_eight_threads_read_one_store(self, tmp_path):
        # The service executor's pattern: many threads, one store object.
        store = SqliteStore(tmp_path / "store.db")
        keys = [f"k{i:02d}" for i in range(64)]
        store.put_many((key, {"k": key}, None, None) for key in keys)
        expected = store.records(keys)
        start = threading.Barrier(8)

        def read(i):
            start.wait(30)
            for _ in range(20):
                assert store.records(keys) == expected
                assert store.get(keys[i]) == {"k": keys[i]}
                assert store.status(keys).complete
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                done = pool.map(read, range(8), timeout=60)
                assert list(done) == [True] * 8
        finally:
            sys.setswitchinterval(interval)
        # One connection per thread: the main thread's plus eight.
        assert len({id(conn) for conn, _ in store._conns.values()}) == 9

    def test_recreated_database_reads_new_contents(self, tmp_path):
        path = tmp_path / "store.db"
        store = SqliteStore(path)
        store.put("old", 1)
        assert store.get("old") == 1
        for suffix in ("", "-wal", "-shm"):
            Path(f"{path}{suffix}").unlink(missing_ok=True)
        other = SqliteStore(path)
        other.put("new", 2)
        assert store.get("old") is None
        assert store.get("new") == 2
        store.put("newer", 3)
        assert store.keys() == ["new", "newer"]
        # Closing the handle to the deleted file must leave the new
        # database's WAL alone.
        del store
        gc.collect()
        assert SqliteStore(path).keys() == ["new", "newer"]
        assert other.keys() == ["new", "newer"]

    def test_dropping_the_store_closes_every_connection(self, tmp_path):
        store = SqliteStore(tmp_path / "store.db")
        store.put("k", 1)
        # CPython recycles a finished thread's ident, and connections are
        # keyed on it: both workers stay alive until both have read, so
        # they hold two distinct slots.
        both_read = threading.Barrier(2)

        def read():
            store.get("k")
            both_read.wait(30)

        workers = [threading.Thread(target=read) for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(30)
            assert not worker.is_alive()
        conns = [conn for conn, _ in store._conns.values()]
        assert len(conns) == 3
        del store, workers, worker
        gc.collect()
        for conn in conns:
            with pytest.raises(sqlite3.ProgrammingError):
                conn.execute("SELECT 1")


class TestCrossBackendIdentity:
    """One grid, two backends, zero observable difference."""

    def test_records_byte_identical(self, tmp_path):
        grid = transfer_grid()
        record = kernel_registry()[grid.kernel]
        fn, row_type = record.cell, record.row_type
        fs = open_store(f"fs:{tmp_path / 'fs-store'}")
        sq = open_store(f"sqlite:{tmp_path / 'store.db'}")
        rows_fs = compute_grid(grid, fn, row_type, store=fs)
        rows_sq = compute_grid(grid, fn, row_type, store=sq)
        assert rows_fs == rows_sq
        with closing(sqlite3.connect(str(sq.path))) as conn:
            sq_text = dict(conn.execute("SELECT key, record FROM records"))
        assert sorted(sq_text) == fs.keys()
        for key in fs.keys():
            # The *persisted bytes*, not just the parsed values, match.
            assert storefiles.record_text(fs, key) == sq_text[key]

    def test_put_many_writes_the_bytes_put_writes(self, tmp_path):
        item = ("k", {"speedup": 2.5}, "engine_cell", {"n_bits": 16})
        texts = []
        for backend in BACKENDS:
            for write in ("put", "put_many"):
                store = open_store(
                    make_locator(backend, tmp_path, f"{backend}-{write}")
                )
                if write == "put":
                    key, value, kernel, params = item
                    store.put(key, value, kernel=kernel, params=params)
                else:
                    store.put_many([item])
                if backend == "fs":
                    texts.append(storefiles.record_text(store, "k"))
                else:
                    with closing(sqlite3.connect(str(store.path))) as conn:
                        rows = conn.execute("SELECT record FROM records")
                        texts.extend(text for (text,) in rows)
        assert len(texts) == 4 and len(set(texts)) == 1

    def test_cli_merge_verify_identical_across_backends(self, tmp_path):
        outputs = {}
        for backend in BACKENDS:
            locator = make_locator(backend, tmp_path, f"cli-{backend}")
            args = ["--kernel", "transfer_cell"]
            for shard in ("0/2", "1/2"):
                code = sweep_main(
                    ["run", "--shard", shard, "--store", locator, *args]
                )
                assert code == 0
            assert (
                sweep_main(["status", "--store", locator, *args]) == 0
            )
            output = tmp_path / f"rows-{backend}.json"
            code = sweep_main(
                [
                    "merge",
                    "--store",
                    locator,
                    "--verify",
                    "--output",
                    str(output),
                    *args,
                ]
            )
            assert code == 0
            outputs[backend] = output.read_bytes()
        assert outputs["fs"] == outputs["sqlite"]
