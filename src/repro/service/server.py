"""The asyncio HTTP server behind ``python -m repro.sweep serve``.

One :class:`SweepService` binds a store backend (any
:mod:`repro.perf.backends` locator) to a canonical grid and answers
read-only queries straight from the warm records — no cell is ever
computed here.  The protocol is plain HTTP/1.1 GET over an
:func:`asyncio.start_server` loop; store reads run in the default
executor so many concurrent readers never serialize behind one
directory scan or table render.

Endpoints (all JSON unless noted):

* ``GET /healthz`` — liveness: kernel, cell count, store locator.
* ``GET /v1/status`` — done/missing/failed split of the grid against
  the store.
* ``GET /v1/table[?allow_missing=1]`` — the rendered table
  (``text/plain``): the engine design-space table for ``engine_cell``
  grids, the time-vs-fidelity pareto table for ``fidelity_cell``
  grids, Table 3 for ``transfer_cell`` grids.  An incomplete store
  answers **409** with the missing count unless ``allow_missing=1``
  explicitly opts into a degraded render — the service never silently
  serves a stale/partial table mid-sweep.
* ``GET /v1/cells`` — every grid cell's key, parameters and done flag
  (the design-point directory).
* ``GET /v1/cell/<key>`` — one design point's full record (value +
  meta); **404** with the quarantine record, if any, when missing.
* ``GET /v1/progress[?interval=S&ticks=N]`` — a chunked stream of
  JSON lines, one per poll: done/total/failed counts, cells/sec since
  the previous tick, elapsed seconds.  The stream ends when the grid
  completes or after ``ticks`` polls, so a reader can watch an
  in-flight sharded sweep converge live.

Store-wide answers (the rendered table, the status split behind
``/v1/status``, ``/v1/cells``, progress ticks and the 409 body) are
memoized on the store's generation token (``store.generation()``):
while it reads the same, nothing was written and the last answer is
served again; a new token, or ``None``, re-derives it from the store.

:class:`BackgroundService` runs the same server on a daemon thread for
tests, benchmarks and doctests; :func:`run_service` is the blocking
CLI entry point.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

#: Progress-poll interval bounds (seconds): fast enough to watch a
#: sweep, slow enough that a stream cannot busy-spin a store scan.
MIN_INTERVAL_S = 0.05
MAX_INTERVAL_S = 10.0

#: Default and ceiling for the number of progress ticks per stream.
DEFAULT_TICKS = 3600
MAX_TICKS = 100_000

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    500: "Internal Server Error",
}


class SweepService:
    """Read-only query service over one (store backend, grid) pair."""

    def __init__(
        self,
        store,
        grid,
        *,
        locator: Optional[str] = None,
    ) -> None:
        from ..perf.store import resolve_store

        self.store = resolve_store(store)
        if self.store is None:
            raise ValueError("SweepService requires a store")
        self.grid = grid
        if locator is None:
            locator = str(getattr(self.store, "path", store))
        self.locator = locator
        self._keys = list(grid.keys())
        #: slot -> (generation token, answer) of the last derivation.
        self._memo: Dict[Any, Tuple[str, Any]] = {}

    # -- store reads (executor-side, blocking) ---------------------------
    def _memoized(self, slot: Any, derive: Callable[[], Any]) -> Any:
        """``derive()``, or the answer memoized in ``slot`` while the
        store's generation token still matches.

        The token is read before the data: a write landing in between
        leaves a newer token, so the memo never outlives the answer.
        An exception from ``derive`` memoizes nothing.  No lock: racing
        derivations may overwrite each other's slot, but every hit is
        checked against a token read first, so a lost update costs a
        re-derivation, never a stale answer.
        """
        token = self.store.generation()
        memo = self._memo.get(slot)
        if token is not None and memo is not None and memo[0] == token:
            return memo[1]
        answer = derive()
        if token is not None:
            self._memo[slot] = (token, answer)
        return answer

    def _status(self):
        """The grid's status split, memoized on the generation token."""
        return self._memoized("status", lambda: self.store.status(self._keys))

    def status_payload(self) -> Dict[str, Any]:
        status = self._status()
        return {
            "kernel": self.grid.kernel,
            "store": self.locator,
            "total": status.total,
            "done": status.done,
            "missing": status.missing,
            "failed": status.failed,
            "failed_keys": list(status.failed_keys),
            "complete": status.complete,
        }

    def table_text(self, *, allow_missing: bool) -> str:
        """The rendered table, memoized per ``allow_missing``.

        A :class:`~repro.sweep.runner.MissingCells` render raises, so a
        409 is never memoized.
        """
        from ..analysis.tables import render_table_from_store

        return self._memoized(
            ("table", allow_missing),
            lambda: render_table_from_store(
                self.grid, self.store, allow_missing=allow_missing
            ),
        )

    def cells_payload(self) -> Dict[str, Any]:
        status = self._status()
        missing = set(status.missing_keys)
        return {
            "kernel": self.grid.kernel,
            "total": len(self._keys),
            "cells": [
                {
                    "key": cell.key,
                    "params": cell.as_dict(),
                    "done": cell.key not in missing,
                }
                for cell in self.grid
            ],
        }

    def cell_payload(self, key: str) -> Tuple[int, Dict[str, Any]]:
        record = self.store.record(key)
        if record is not None:
            return 200, {
                "key": key,
                "value": record.get("value"),
                "meta": record.get("meta", {}),
            }
        failure = self.store.failure(key)
        return 404, {
            "key": key,
            "error": "missing",
            "failure": None if failure is None else failure.get("failure"),
        }

    # -- HTTP plumbing ---------------------------------------------------
    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: parse a GET, route it, close."""
        try:
            method, target = await self._read_request(reader)
            if method is None:
                return
            if method != "GET":
                await self._respond_json(
                    writer, 405, {"error": f"method {method} not allowed"}
                )
                return
            await self._route(writer, target)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-response; nothing to salvage
        except asyncio.CancelledError:
            pass  # server shutdown mid-request; exit the handler quietly
        except Exception as exc:  # pragma: no cover - defensive surface
            try:
                await self._respond_json(writer, 500, {"error": str(exc)})
            except (ConnectionError, OSError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    @staticmethod
    async def _read_request(reader) -> Tuple[Optional[str], str]:
        request_line = await reader.readline()
        if not request_line:
            return None, ""
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None, ""
        # Drain headers; GET requests carry no body we care about.
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
        return parts[0], parts[1]

    async def _route(self, writer, target: str) -> None:
        split = urlsplit(target)
        path = unquote(split.path)
        query = dict(parse_qsl(split.query))
        loop = asyncio.get_running_loop()
        if path == "/healthz":
            await self._respond_json(
                writer,
                200,
                {
                    "ok": True,
                    "kernel": self.grid.kernel,
                    "cells": len(self._keys),
                    "store": self.locator,
                },
            )
            return
        if path == "/v1/status":
            payload = await loop.run_in_executor(None, self.status_payload)
            await self._respond_json(writer, 200, payload)
            return
        if path == "/v1/table":
            from ..sweep.runner import MissingCells

            allow = query.get("allow_missing") in ("1", "true", "yes")
            try:
                # One bulk read both renders and decides completeness;
                # the status split is computed only for the 409 body.
                text = await loop.run_in_executor(
                    None, lambda: self.table_text(allow_missing=allow)
                )
            except MissingCells:
                status = await loop.run_in_executor(None, self._status)
                await self._respond_json(
                    writer,
                    409,
                    {
                        "error": "store incomplete",
                        "done": status.done,
                        "total": status.total,
                        "failed": status.failed,
                        "hint": "pass allow_missing=1 for a degraded table",
                    },
                )
                return
            await self._respond_text(writer, 200, text)
            return
        if path == "/v1/cells":
            payload = await loop.run_in_executor(None, self.cells_payload)
            await self._respond_json(writer, 200, payload)
            return
        if path.startswith("/v1/cell/"):
            key = path[len("/v1/cell/") :]
            code, payload = await loop.run_in_executor(
                None, lambda: self.cell_payload(key)
            )
            await self._respond_json(writer, code, payload)
            return
        if path == "/v1/progress":
            await self._stream_progress(writer, query)
            return
        await self._respond_json(writer, 404, {"error": f"no route {path}"})

    async def _stream_progress(self, writer, query: Dict[str, str]) -> None:
        try:
            interval = float(query.get("interval", "1.0"))
            ticks = int(query.get("ticks", str(DEFAULT_TICKS)))
        except ValueError:
            await self._respond_json(
                writer, 400, {"error": "interval/ticks must be numeric"}
            )
            return
        interval = min(max(interval, MIN_INTERVAL_S), MAX_INTERVAL_S)
        ticks = min(max(ticks, 1), MAX_TICKS)
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        loop = asyncio.get_running_loop()
        started = time.monotonic()
        previous: Optional[Tuple[float, int]] = None
        for tick in range(ticks):
            status = await loop.run_in_executor(None, self._status)
            now = time.monotonic()
            rate = 0.0
            if previous is not None and now > previous[0]:
                rate = (status.done - previous[1]) / (now - previous[0])
            previous = (now, status.done)
            line = {
                "tick": tick,
                "done": status.done,
                "total": status.total,
                "failed": status.failed,
                "cells_per_s": round(rate, 3),
                "elapsed_s": round(now - started, 3),
                "complete": status.complete,
            }
            await self._write_chunk(
                writer, (json.dumps(line, sort_keys=True) + "\n").encode()
            )
            if status.complete:
                break
            await asyncio.sleep(interval)
        await self._write_chunk(writer, b"")  # terminal chunk

    @staticmethod
    async def _write_chunk(writer, payload: bytes) -> None:
        writer.write(f"{len(payload):x}\r\n".encode() + payload + b"\r\n")
        await writer.drain()

    @staticmethod
    async def _respond(
        writer, code: int, content_type: str, body: bytes
    ) -> None:
        reason = _REASONS.get(code, "?")
        head = (
            f"HTTP/1.1 {code} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()

    async def _respond_json(self, writer, code: int, payload: Any) -> None:
        await self._respond(
            writer,
            code,
            "application/json",
            json.dumps(payload, sort_keys=True).encode(),
        )

    async def _respond_text(self, writer, code: int, text: str) -> None:
        await self._respond(
            writer, code, "text/plain; charset=utf-8", text.encode()
        )


async def start_service(
    store,
    grid,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    locator: Optional[str] = None,
) -> asyncio.AbstractServer:
    """Bind a :class:`SweepService` and return the listening server.

    ``port=0`` picks an ephemeral port; read the bound address off
    ``server.sockets[0].getsockname()``.
    """
    service = SweepService(store, grid, locator=locator)
    return await asyncio.start_server(service.handle, host, port)


def run_service(
    store,
    grid,
    *,
    host: str = "127.0.0.1",
    port: int = 8123,
    locator: Optional[str] = None,
) -> int:
    """Serve until interrupted (the blocking ``serve`` CLI body)."""

    async def main() -> None:
        service = SweepService(store, grid, locator=locator)
        server = await asyncio.start_server(service.handle, host, port)
        bound = server.sockets[0].getsockname()
        print(
            f"serving {grid.kernel} grid ({len(grid)} cells) from "
            f"{service.locator} on http://{bound[0]}:{bound[1]}",
            flush=True,
        )
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    return 0


class BackgroundService:
    """A :class:`SweepService` on a daemon thread, for in-process use.

    Context manager: entering starts the event loop and binds an
    ephemeral port, ``.url`` is the base URL, exiting stops the loop
    and joins the thread.  This is what the service tests, the
    ``service_table_query_overhead`` benchmark kernel, and the
    ``docs/sweep-service.md`` doctests run against.
    """

    def __init__(
        self,
        store,
        grid,
        *,
        host: str = "127.0.0.1",
        locator: Optional[str] = None,
    ) -> None:
        self._store = store
        self._grid = grid
        self._host = host
        self._locator = locator
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None
        self.url: Optional[str] = None

    def __enter__(self) -> "BackgroundService":
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._serve, name="sweep-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("sweep service did not start within 10 s")
        if self._failure is not None:
            raise RuntimeError("sweep service failed to start") from self._failure
        return self

    def _serve(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def main() -> None:
            server = await start_service(
                self._store,
                self._grid,
                host=self._host,
                port=0,
                locator=self._locator,
            )
            bound = server.sockets[0].getsockname()
            self.url = f"http://{bound[0]}:{bound[1]}"
            self._ready.set()
            async with server:
                await server.serve_forever()

        try:
            self._loop.run_until_complete(main())
        except asyncio.CancelledError:
            pass
        except BaseException as exc:  # startup failure: surface in __enter__
            self._failure = exc
            self._ready.set()
        finally:
            self._loop.close()

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and not self._loop.is_closed():

            def _cancel_all() -> None:
                for task in asyncio.all_tasks(self._loop):
                    task.cancel()

            self._loop.call_soon_threadsafe(_cancel_all)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
