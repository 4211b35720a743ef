"""Tests for the sweep query service (repro.service).

The service is read-only plumbing over a store backend: every test
spins a :class:`~repro.service.server.BackgroundService` on a daemon
thread against a real store (fs or sqlite) and speaks to it through
:class:`~repro.service.client.ServiceClient` — the same stack the CI
``sweep-service`` job drives over HTTP from the shell.  The exceptions
are the memo race test, which calls a
:class:`~repro.service.server.SweepService` from many threads
in-process, the connection tests that speak raw HTTP over a socket,
and the ``serve`` CLI shutdown test.
"""

import gc
import json
import logging
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict
from urllib.parse import urlsplit
from urllib.request import urlopen

import pytest

from repro.core.design_space import engine_grid, transfer_grid
from repro.analysis.tables import (
    engine_table_text_from_store,
    render_table_from_store,
)
from repro.perf.backends import open_store
from repro.service import BackgroundService, ServiceClient, ServiceError
from repro.service import server
from repro.service.server import SweepService
from repro.sweep.grid import Grid
from repro.sweep.runner import compute_grid, kernel_registry

GRID_KWARGS = dict(workloads=("draper_adder",), sizes=(16,), depths=(2,))

FAILURE = {
    "kind": "exception",
    "exception_type": "ChaosFault",
    "message": "scripted",
    "attempts": 3,
    "traceback_digest": "abc123def456",
}


def fill(grid, store):
    fn, row_type = kernel_registry()[grid.kernel]
    return compute_grid(grid, fn, row_type, store=store)


@contextmanager
def served(store, grid, **kwargs):
    """A client of a :class:`BackgroundService` over ``store``; its
    connection closes before the service stops."""
    with BackgroundService(store, grid, **kwargs) as svc:
        with ServiceClient(svc.url) as client:
            yield client


@pytest.fixture(params=("fs", "sqlite"))
def warm(request, tmp_path):
    """A completed transfer grid in either backend, plus its locator."""
    if request.param == "fs":
        locator = f"fs:{tmp_path / 'store'}"
    else:
        locator = f"sqlite:{tmp_path / 'store.db'}"
    store = open_store(locator)
    grid = transfer_grid()
    fill(grid, store)
    return store, grid, locator


class TestEndpoints:
    def test_healthz_names_the_deployment(self, warm):
        store, grid, locator = warm
        with served(store, grid, locator=locator) as client:
            health = client.healthz()
        assert health == {
            "ok": True,
            "kernel": "transfer_cell",
            "cells": 16,
            "store": locator,
        }

    def test_status_reports_the_grid_split(self, warm):
        store, grid, _ = warm
        with served(store, grid) as client:
            status = client.status()
        assert status["total"] == 16
        assert status["done"] == 16
        assert status["missing"] == 0
        assert status["failed"] == 0
        assert status["complete"] is True

    def test_status_carries_only_the_grid_split(self, warm):
        store, grid, locator = warm
        with served(store, grid, locator=locator) as client:
            status = client.status()
        assert sorted(status) == [
            "complete", "done", "failed", "failed_keys", "kernel",
            "missing", "store", "total",
        ]
        assert status["store"] == locator

    def test_table_matches_direct_render(self, warm):
        store, grid, _ = warm
        from repro.analysis.tables import render_table_from_store

        with served(store, grid) as client:
            table = client.table()
        assert table == render_table_from_store(grid, store)
        assert "Table 3" in table

    def test_engine_table_byte_identical_to_from_store_text(self, tmp_path):
        grid = engine_grid(**GRID_KWARGS)
        store = open_store(f"sqlite:{tmp_path / 'engine.db'}")
        fill(grid, store)
        with served(store, grid) as client:
            table = client.table()
        assert table == engine_table_text_from_store(store, **GRID_KWARGS)

    def test_cells_lists_every_design_point(self, warm):
        store, grid, _ = warm
        with served(store, grid) as client:
            payload = client.cells()
        assert payload["total"] == 16
        assert len(payload["cells"]) == 16
        assert all(cell["done"] for cell in payload["cells"])
        assert [c["key"] for c in payload["cells"]] == list(grid.keys())

    def test_cell_lookup_roundtrips_the_record(self, warm):
        store, grid, _ = warm
        key = next(iter(grid.keys()))
        with served(store, grid) as client:
            payload = client.cell(key)
        assert payload["key"] == key
        assert payload["value"] == store.get(key)
        assert payload["meta"]["kernel"] == "transfer_cell"

    def test_unknown_cell_is_404(self, warm):
        store, grid, _ = warm
        with served(store, grid) as client:
            with pytest.raises(ServiceError) as exc_info:
                client.cell("no-such-cell")
        assert exc_info.value.code == 404
        assert exc_info.value.payload["error"] == "missing"
        assert exc_info.value.payload["failure"] is None

    def test_quarantined_cell_404_carries_the_failure(self, tmp_path):
        grid = transfer_grid()
        store = open_store(f"sqlite:{tmp_path / 'store.db'}")
        key = next(iter(grid.keys()))
        store.put_failure(key, FAILURE)
        with served(store, grid) as client:
            with pytest.raises(ServiceError) as exc_info:
                client.cell(key)
        assert exc_info.value.code == 404
        assert exc_info.value.payload["failure"] == FAILURE

    def test_incomplete_store_answers_409_then_degrades(self, tmp_path):
        grid = transfer_grid()
        store = open_store(f"fs:{tmp_path / 'store'}")
        with served(store, grid) as client:
            with pytest.raises(ServiceError) as exc_info:
                client.table()
            assert exc_info.value.code == 409
            assert exc_info.value.payload["error"] == "store incomplete"
            assert exc_info.value.payload["done"] == 0
            assert exc_info.value.payload["total"] == 16
            assert "allow_missing=1" in exc_info.value.payload["hint"]
            degraded = client.table(allow_missing=True)
            assert degraded  # renders holes instead of refusing

    def test_service_sees_writes_landing_after_startup(self, tmp_path):
        """No snapshotting: a stale 409 turns into a table once the
        sweep finishes, without restarting the service."""
        grid = transfer_grid()
        store = open_store(f"sqlite:{tmp_path / 'store.db'}")
        with served(store, grid) as client:
            assert client.status()["done"] == 0
            fill(grid, store)
            assert client.status()["complete"] is True
            assert "Table 3" in client.table()

    @pytest.mark.parametrize("backend", ("fs", "sqlite"))
    def test_table_sees_a_record_written_between_calls(self, backend, tmp_path):
        grid = transfer_grid()
        if backend == "fs":
            store = open_store(f"fs:{tmp_path / 'store'}")
        else:
            store = open_store(f"sqlite:{tmp_path / 'store.db'}")
        fn, row_type = kernel_registry()[grid.kernel]
        last, *rest = grid.cells
        compute_grid(Grid(grid.kernel, tuple(rest)), fn, row_type, store=store)
        with served(store, grid) as client:
            with pytest.raises(ServiceError) as exc_info:
                client.table()
            assert exc_info.value.code == 409
            assert exc_info.value.payload["done"] == 15
            assert "1 cell(s) missing" in client.table(allow_missing=True)
            store.put(
                last.key,
                asdict(fn(last.as_dict())),
                kernel=grid.kernel,
                params=last.as_dict(),
            )
            table = client.table()
        assert table == render_table_from_store(grid, store)

    def test_table_query_reads_each_record_once(self, tmp_path, monkeypatch):
        from repro.perf import store as fs_store

        grid = transfer_grid()
        store = open_store(f"fs:{tmp_path / 'store'}")
        fill(grid, store)
        # Records carry their params, not their key: map back through them.
        key_of = {json.dumps(c.as_dict(), sort_keys=True): c.key for c in grid}
        reads = []
        original = fs_store._parse_record

        def counted(text):
            record = original(text)
            params = json.dumps(record["meta"]["params"], sort_keys=True)
            reads.append(key_of[params])
            return record

        monkeypatch.setattr(fs_store, "_parse_record", counted)
        with served(store, grid) as client:
            client.table()
        assert sorted(reads) == sorted(grid.keys())

    def test_unknown_route_is_404(self, warm):
        store, grid, _ = warm
        with served(store, grid) as client:
            with pytest.raises(ServiceError) as exc_info:
                client._get_json("/v1/nope")
        assert exc_info.value.code == 404


class TestProgressStream:
    def test_complete_store_streams_one_final_tick(self, warm):
        store, grid, _ = warm
        with served(store, grid) as client:
            ticks = list(client.progress(interval=0.05, ticks=50))
        assert len(ticks) == 1
        assert ticks[0]["complete"] is True
        assert ticks[0]["done"] == 16
        assert ticks[0]["total"] == 16

    def test_stream_follows_an_inflight_sweep(self, tmp_path):
        grid = transfer_grid()
        store = open_store(f"sqlite:{tmp_path / 'store.db'}")
        fn, row_type = kernel_registry()[grid.kernel]
        cells = list(grid.cells)
        with served(store, grid) as client:
            stream = client.progress(interval=0.05, ticks=1000)
            seen = []
            for tick in stream:
                seen.append(tick)
                if tick["complete"]:
                    break
                # Play the sweep: land a few more cells between polls.
                for cell in cells[: 4 * len(seen)]:
                    store.put(
                        cell.key,
                        asdict(fn(cell.as_dict())),
                        kernel=grid.kernel,
                        params=cell.as_dict(),
                    )
        assert seen[-1]["complete"] is True
        done = [tick["done"] for tick in seen]
        assert done == sorted(done)  # progress is monotone
        assert done[-1] == 16
        assert all(tick["failed"] == 0 for tick in seen)
        assert all(tick["elapsed_s"] >= 0 for tick in seen)

    def test_stream_is_chunked_ndjson_on_the_wire(self, warm):
        """curl-compatibility: plain HTTP, one JSON object per line."""
        store, grid, _ = warm
        with BackgroundService(store, grid) as svc:
            with urlopen(svc.url + "/v1/progress?interval=0.05") as response:
                assert response.headers["Transfer-Encoding"] == "chunked"
                assert response.headers["Content-Type"].startswith(
                    "application/x-ndjson"
                )
                lines = [line for line in response if line.strip()]
        assert json.loads(lines[-1])["complete"] is True


class TestConcurrentReaders:
    """One client shared across threads: each thread reads over its own
    connection and closes it when done."""

    def test_many_simultaneous_readers_agree(self, warm):
        store, grid, _ = warm
        with served(store, grid) as client:

            def read(_):
                try:
                    return client.table(), client.status()["done"]
                finally:
                    client.close()

            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(read, range(8)))
        tables = {table for table, _ in results}
        assert len(tables) == 1
        assert all(done == 16 for _, done in results)

    def test_readers_do_not_block_the_progress_stream(self, warm):
        store, grid, _ = warm
        with served(store, grid) as client:

            def read_table():
                try:
                    return client.table()
                finally:
                    client.close()

            with ThreadPoolExecutor(max_workers=4) as pool:
                stream = pool.submit(
                    lambda: list(client.progress(interval=0.05))
                )
                tables = [pool.submit(read_table) for _ in range(3)]
                assert stream.result(timeout=10)[-1]["complete"] is True
                assert len({f.result(timeout=10) for f in tables}) == 1


@pytest.fixture
def accepted(monkeypatch):
    """One entry per connection any :class:`SweepService` accepts; the
    entry is an event set once the connection's handler has returned."""
    connections = []
    handle = SweepService.handle

    async def counted(self, reader, writer):
        done = threading.Event()
        connections.append(done)
        try:
            await handle(self, reader, writer)
        finally:
            done.set()

    monkeypatch.setattr(SweepService, "handle", counted)
    return connections


def exchange(url, request):
    """Send raw ``request`` bytes to the service at ``url`` and return
    everything it sends back before it closes the connection (a socket
    timeout if it never does)."""
    split = urlsplit(url)
    with socket.create_connection((split.hostname, split.port), timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def answers(reply):
    """``(status code, Connection header)`` of each response in ``reply``."""
    found = re.findall(
        rb"HTTP/1\.1 (\d+) [^\r]*\r\n(?:[^\r]*\r\n)*?Connection: ([\w-]+)\r\n",
        reply,
    )
    return [(int(code), connection.decode()) for code, connection in found]


GET = b"GET /healthz HTTP/1.1\r\nHost: svc\r\n"


class TestConnections:
    """Persistent HTTP/1.1: one TCP connection per client thread."""

    def test_one_connection_serves_every_call(self, warm, accepted):
        store, grid, _ = warm
        keys = list(grid.keys())[:5]
        with served(store, grid) as client:
            client.healthz()
            client.status()
            client.table()
            client.cells()
            for key in keys:
                assert client.cell(key)["key"] == key
        assert len(accepted) == 1

    def test_error_answers_leave_the_connection_usable(self, tmp_path, accepted):
        grid = transfer_grid()
        store = open_store(f"fs:{tmp_path / 'store'}")
        with served(store, grid) as client:
            with pytest.raises(ServiceError) as missing_cell:
                client.cell("no-such-cell")
            with pytest.raises(ServiceError) as incomplete:
                client.table()
            assert client.healthz()["ok"] is True
        assert (missing_cell.value.code, incomplete.value.code) == (404, 409)
        assert len(accepted) == 1

    def test_urlopen_gets_connection_close(self, warm):
        store, grid, _ = warm
        with BackgroundService(store, grid) as svc:
            with urlopen(svc.url + "/healthz") as response:
                assert response.headers["Connection"] == "close"
                assert json.loads(response.read())["ok"] is True

    @pytest.mark.parametrize(
        "request_bytes, expected",
        [
            # HTTP/1.0 closes unless it asks for keep-alive.
            (b"GET /healthz HTTP/1.0\r\n\r\n", [(200, "close")]),
            (
                b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
                b"GET /healthz HTTP/1.0\r\n\r\n",
                [(200, "keep-alive"), (200, "close")],
            ),
            # HTTP/1.1 stays open until a request says close.
            (
                GET + b"\r\n" + GET + b"Connection: close\r\n\r\n",
                [(200, "keep-alive"), (200, "close")],
            ),
            # A request with a body is answered, then the connection
            # closes: the body is never read.
            (GET + b"Content-Length: 5\r\n\r\nhello" + GET + b"\r\n",
             [(200, "close")]),
            (
                GET + b"Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
                [(200, "close")],
            ),
            # Not a GET, or an unknown route.
            (b"POST /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n" + GET,
             [(405, "close")]),
            (b"GET /v1/nope HTTP/1.1\r\n\r\n" + GET + b"Connection: close\r\n\r\n",
             [(404, "keep-alive"), (200, "close")]),
            # A malformed request line closes without an answer.
            (b"nonsense\r\n\r\n" + GET + b"\r\n", []),
        ],
        ids=[
            "http10", "http10-keepalive", "http11", "content-length",
            "chunked-body", "post", "unknown-route", "malformed",
        ],
    )
    def test_raw_requests(self, warm, request_bytes, expected):
        store, grid, _ = warm
        with BackgroundService(store, grid) as svc:
            reply = exchange(svc.url, request_bytes)
        assert answers(reply) == expected

    def test_progress_stream_closes_its_connection(self, warm):
        store, grid, _ = warm
        with BackgroundService(store, grid) as svc:
            reply = exchange(
                svc.url,
                b"GET /v1/progress?interval=0.05 HTTP/1.1\r\n\r\n" + GET + b"\r\n",
            )
        assert reply.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Connection: close\r\n" in reply
        assert reply.endswith(b"\r\n0\r\n\r\n")  # the terminal chunk
        assert b'"ok"' not in reply  # the pipelined GET went unanswered

    def test_idle_connection_closes_and_the_client_reconnects(
        self, warm, accepted, monkeypatch
    ):
        store, grid, _ = warm
        monkeypatch.setattr(server, "KEEPALIVE_IDLE_S", 0.05)
        with served(store, grid) as client:
            assert client.healthz()["ok"] is True
            assert accepted[0].wait(timeout=10)  # the server hung up
            assert client.healthz()["ok"] is True
        assert len(accepted) == 2

    def test_a_fresh_connection_is_not_retried(self):
        """A server hanging up on a new connection is an error; only a
        reused connection is sent its request again."""
        accepted = []
        with socket.create_server(("127.0.0.1", 0)) as listener:

            def hang_up():
                connection, _ = listener.accept()
                accepted.append(connection)
                with connection:
                    connection.recv(65536)

            thread = threading.Thread(target=hang_up)
            thread.start()
            url = f"http://127.0.0.1:{listener.getsockname()[1]}"
            with ServiceClient(url, timeout=5) as client:
                with pytest.raises(ConnectionResetError):
                    client.healthz()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(accepted) == 1


class TestShutdown:
    @pytest.mark.filterwarnings("error")
    def test_exit_with_an_idle_client_connection(self, warm, caplog):
        store, grid, _ = warm
        with caplog.at_level(logging.WARNING, logger="asyncio"):
            with BackgroundService(store, grid) as service:
                client = ServiceClient(service.url)
                assert client.healthz()["ok"] is True  # stays open, idle
                thread = service._thread
                started = time.monotonic()
            stopped = time.monotonic() - started
            client.close()
            del service
            gc.collect()
        assert not thread.is_alive()
        assert stopped < 5.0
        assert caplog.records == []

    def test_serve_cli_exits_on_ctrl_c_with_an_idle_connection(self, tmp_path):
        process = subprocess.Popen(
            [sys.executable, "-W", "error", "-m", "repro.sweep", "serve",
             "--store", f"sqlite:{tmp_path / 'store.db'}", "--port", "0",
             "--kernel", "transfer_cell"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        try:
            banner = process.stdout.readline()
            url = re.search(r"http://\S+", banner).group(0)
            with ServiceClient(url) as client:
                assert client.healthz()["ok"] is True
                process.send_signal(signal.SIGINT)
                _, stderr = process.communicate(timeout=10)
        finally:
            process.kill()
            process.communicate()
        assert process.returncode == 0
        assert stderr == ""


def _locator(backend, tmp_path):
    if backend == "fs":
        return f"fs:{tmp_path / 'store'}"
    return f"sqlite:{tmp_path / 'store.db'}"


def _put_cell(locator, grid, cell):
    """Write ``cell``'s row through a fresh handle in another process."""
    fn, _ = kernel_registry()[grid.kernel]
    value = json.dumps(asdict(fn(cell.as_dict())))
    script = (
        "import json, sys\n"
        "from repro.perf.backends import open_store\n"
        "locator, key, kernel, params, value = sys.argv[1:]\n"
        "open_store(locator).put(key, json.loads(value), kernel=kernel,"
        " params=json.loads(params))\n"
    )
    subprocess.run(
        [sys.executable, "-c", script, locator, cell.key, grid.kernel,
         json.dumps(cell.as_dict()), value],
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )


@pytest.mark.parametrize("backend", ("fs", "sqlite"))
class TestGenerationMemo:
    """Store-wide answers are memoized on the store's generation token;
    every write through the store API, from any handle or process,
    invalidates them."""

    def _partial(self, backend, tmp_path):
        """A transfer grid with all but its last cell stored."""
        grid = transfer_grid()
        locator = _locator(backend, tmp_path)
        store = open_store(locator)
        fn, row_type = kernel_registry()[grid.kernel]
        *rest, last = grid.cells
        compute_grid(Grid(grid.kernel, tuple(rest)), fn, row_type, store=store)
        return store, grid, locator, last

    def test_memo_hits_are_byte_identical_and_read_nothing(
        self, backend, tmp_path, monkeypatch
    ):
        locator = _locator(backend, tmp_path)
        store = open_store(locator)
        grid = transfer_grid()
        fill(grid, store)
        reads = []
        original = type(store).records

        def counted(self, keys):
            reads.append(1)
            return original(self, keys)

        monkeypatch.setattr(type(store), "records", counted)
        with served(store, grid) as client:
            cold = [client.table(), client.table(allow_missing=True)]
            assert client.status()["complete"] is True
            cold_reads = len(reads)
            hits = [client.table(), client.table(allow_missing=True)] * 2
            statuses = [client.status() for _ in range(2)]
            cells = client.cells()
            hit_reads = len(reads)
        expected = render_table_from_store(grid, store)
        assert cold == [expected] * 2
        assert hits == [expected] * 4
        assert all(status["complete"] for status in statuses)
        assert all(cell["done"] for cell in cells["cells"])
        # The cold answers read the records; every repeat was a memo hit.
        assert cold_reads >= 2
        assert hit_reads == cold_reads

    def test_another_process_write_shows_in_the_next_table(
        self, backend, tmp_path
    ):
        store, grid, locator, last = self._partial(backend, tmp_path)
        with served(store, grid) as client:
            degraded = client.table(allow_missing=True)
            assert "1 cell(s) missing" in degraded
            assert client.status()["done"] == 15
            _put_cell(locator, grid, last)
            table = client.table()
            assert client.status()["complete"] is True
        assert table == render_table_from_store(grid, open_store(locator))
        assert table != degraded

    def test_chaos_tear_turns_the_next_table_into_a_409(
        self, backend, tmp_path
    ):
        from repro.perf.chaos import ChaosPlan

        locator = _locator(backend, tmp_path)
        store = open_store(locator)
        grid = transfer_grid()
        fill(grid, store)
        cell = grid.cells[3]
        plan = ChaosPlan.scripted(
            [{"fault": "corrupt", "match": cell.as_dict(), "times": 1}],
            state_dir=tmp_path / "chaos-state",
        )
        with served(store, grid) as client:
            assert "Table 3" in client.table()
            assert client.status()["complete"] is True
            assert store.chaos_tear(plan, cell.key, cell.as_dict())
            with pytest.raises(ServiceError) as exc_info:
                client.table()
            status = client.status()
        assert exc_info.value.code == 409
        assert exc_info.value.payload["done"] == 15
        assert status["done"] == 15 and status["complete"] is False

    def test_put_failure_shows_in_status(self, backend, tmp_path):
        store, grid, locator, last = self._partial(backend, tmp_path)
        with served(store, grid) as client:
            assert client.status()["failed"] == 0
            open_store(locator).put_failure(last.key, FAILURE)
            status = client.status()
            cells = client.cells()
        assert status["failed"] == 1
        assert status["failed_keys"] == [last.key]
        done = {cell["key"]: cell["done"] for cell in cells["cells"]}
        assert done[last.key] is False

    def test_progress_tick_after_a_write_counts_it(self, backend, tmp_path):
        store, grid, locator, last = self._partial(backend, tmp_path)
        with served(store, grid) as client:
            before = list(client.progress(interval=0.05, ticks=1))
            _put_cell(locator, grid, last)
            after = list(client.progress(interval=0.05, ticks=1))
        assert before[-1]["done"] == 15 and not before[-1]["complete"]
        assert after[-1]["done"] == 16 and after[-1]["complete"]


@pytest.mark.parametrize("backend", ("fs", "sqlite"))
def test_memo_under_racing_readers_and_a_writer(backend, tmp_path):
    """Eight reader threads hammer the memoized answers while a writer
    lands the grid cell by cell; once the writer is done, every answer
    is the complete one."""
    grid = transfer_grid()
    store = open_store(_locator(backend, tmp_path))
    service = SweepService(store, grid)
    fn, _ = kernel_registry()[grid.kernel]
    rows = {cell.key: asdict(fn(cell.as_dict())) for cell in grid.cells}
    writing = threading.Event()
    writing.set()
    errors = []

    def reader():
        try:
            while writing.is_set():
                service.table_text(allow_missing=True)
                service.status_payload()
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader) for _ in range(8)]
        for thread in threads:
            thread.start()
        writer = open_store(_locator(backend, tmp_path))
        for cell in grid.cells:
            writer.put(cell.key, rows[cell.key], kernel=grid.kernel,
                       params=cell.as_dict())
        writing.clear()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        writing.clear()
        sys.setswitchinterval(interval)
    assert errors == []
    assert service.status_payload()["complete"] is True
    expected = render_table_from_store(grid, store)
    assert service.table_text(allow_missing=False) == expected
    assert service.table_text(allow_missing=True) == expected
