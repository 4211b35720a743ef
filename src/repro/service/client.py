"""Stdlib HTTP client for the sweep service.

A thin, dependency-free wrapper over :mod:`http.client` mirroring the
server's endpoint surface (:mod:`repro.service.server`), one method
per route.  Each thread keeps one persistent connection per client and
sends every request over it; ``close()`` (or leaving a ``with`` block)
closes the calling thread's connection.  ``progress()`` is a generator
over the chunked NDJSON stream on a connection of its own —
:mod:`http.client` de-chunks transparently, so each ``readline``
yields one complete progress tick.  Used by the service tests, the CI
``sweep-service`` job, and the ``service_table_query_overhead``
benchmark kernel; any HTTP client (curl included) speaks the same
protocol.
"""

from __future__ import annotations

import json
import threading
from http.client import HTTPConnection, RemoteDisconnected
from typing import Any, Dict, Iterator, Optional
from urllib.parse import quote, urlencode, urlsplit

#: Failures showing that the server closed a reused connection before
#: answering (for instance after its idle bound): the request is sent
#: once more on a new connection.
_STALE_CONNECTION = (RemoteDisconnected, ConnectionResetError, BrokenPipeError)


class ServiceError(RuntimeError):
    """A non-2xx service response, carrying the decoded error payload."""

    def __init__(self, code: int, payload: Any) -> None:
        self.code = code
        self.payload = payload
        super().__init__(f"service answered {code}: {payload}")


def _error_payload(body: bytes) -> Any:
    """An error body as JSON, or as text when it is not JSON."""
    text = body.decode("utf-8", "replace")
    try:
        return json.loads(text)
    except ValueError:
        return text


class ServiceClient:
    """Synchronous client bound to one service base URL.

    Safe to share across threads: each thread talks over its own
    connection.
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        split = urlsplit(self.base_url)
        if split.scheme != "http":
            raise ValueError(f"not an http:// URL: {base_url!r}")
        self._netloc = split.netloc
        self._prefix = split.path
        self._local = threading.local()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close the calling thread's connection; the next request opens
        a new one."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()

    def _target(self, path: str, query: Optional[Dict[str, Any]]) -> str:
        return self._prefix + path + ("?" + urlencode(query) if query else "")

    def _get(self, path: str, query: Optional[Dict[str, Any]] = None) -> bytes:
        """The body of a 2xx answer to ``GET path``, over this thread's
        connection; :class:`ServiceError` on any other answer.

        A reused connection the server has closed fails before any
        response byte arrives; that request is sent once more on a new
        connection.  Every other failure propagates, and drops the
        connection so that the next request starts clean.
        """
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = HTTPConnection(self._netloc, timeout=self.timeout)
            self._local.connection = connection
        target = self._target(path, query)
        retry = connection.sock is not None
        while True:
            try:
                connection.request("GET", target)
                response = connection.getresponse()
                break
            except _STALE_CONNECTION:
                connection.close()
                if not retry:
                    raise
                retry = False
            except BaseException:
                connection.close()
                raise
        try:
            body = response.read()
        except BaseException:
            connection.close()
            raise
        if not 200 <= response.status < 300:
            raise ServiceError(response.status, _error_payload(body))
        return body

    def _get_json(
        self, path: str, query: Optional[Dict[str, Any]] = None
    ) -> Any:
        return json.loads(self._get(path, query).decode())

    def healthz(self) -> Dict[str, Any]:
        """Liveness probe: kernel, cell count, store locator."""
        return self._get_json("/healthz")

    def status(self) -> Dict[str, Any]:
        """The grid's done/missing/failed split against the store."""
        return self._get_json("/v1/status")

    def table(self, *, allow_missing: bool = False) -> str:
        """The rendered table text; :class:`ServiceError` (409) while
        the store is incomplete unless ``allow_missing`` opts into a
        degraded render."""
        query = {"allow_missing": "1"} if allow_missing else None
        return self._get("/v1/table", query).decode()

    def cells(self) -> Dict[str, Any]:
        """Every grid cell's key, parameters and done flag."""
        return self._get_json("/v1/cells")

    def cell(self, key: str) -> Dict[str, Any]:
        """One design point's record; :class:`ServiceError` (404, with
        any quarantine record in the payload) when missing."""
        return self._get_json("/v1/cell/" + quote(key, safe=""))

    def progress(
        self,
        *,
        interval: float = 1.0,
        ticks: Optional[int] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Yield progress ticks from the chunked stream as dicts.

        The stream (and this generator) ends when the grid completes
        or after ``ticks`` polls.  It runs on a connection of its own,
        closed when the generator ends.
        """
        query: Dict[str, Any] = {"interval": interval}
        if ticks is not None:
            query["ticks"] = ticks
        connection = HTTPConnection(self._netloc, timeout=self.timeout)
        try:
            connection.request("GET", self._target("/v1/progress", query))
            response = connection.getresponse()
            if not 200 <= response.status < 300:
                raise ServiceError(response.status, _error_payload(response.read()))
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line.decode())
        finally:
            connection.close()
