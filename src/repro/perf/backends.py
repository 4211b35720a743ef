"""Pluggable result-store backends behind one locator scheme.

**Ownership.**  This module owns everything that makes a result store
*interchangeable*: the URL-style locator syntax that selects a backend
(``fs:DIR`` for the filesystem :class:`repro.perf.store.ResultStore`,
``sqlite:PATH`` for the :class:`SqliteStore` defined here), the
backend-mismatch diagnostics (:class:`StoreBackendError`), and the
second backend itself.  The filesystem backend stays in
:mod:`repro.perf.store`; every *consumer* — the sweep runner, the CLI,
the table builders, :mod:`repro.service` — reaches stores only through
:func:`open_store` / :func:`repro.perf.store.resolve_store` and the
shared method surface, never through backend-specific paths.

**Public surface.**  :func:`parse_locator`, :func:`open_store`,
:func:`locator_path`, :class:`SqliteStore`, :class:`StoreBackendError`,
:data:`STORE_SCHEMES`.

**The backend protocol.**  A store backend is any object offering the
:class:`~repro.perf.store.ResultStore` method surface with the same
semantics (``docs/sweep-service.md`` states the exact contract a third
backend must satisfy):

* ``put(key, value, *, kernel=None, params=None, index=True) -> meta``
  — atomic: a concurrent reader observes the old record or the new,
  never a torn one; two writers racing one key both leave a complete
  record (cells are deterministic, so last-writer-wins is
  value-identical).
* ``record(key)`` / ``get(key)`` / ``has(key)`` — corruption-tolerant:
  an unreadable, truncated, or wrong-shape record reads as *missing*
  (``None``/``False``), never as an error or a wrong value.
* ``keys()`` — sorted keys of every *readable* record.
* ``status(keys) -> StoreStatus`` — done/missing/failed split, where
  ``failed`` is the subset of missing keys holding a failure record.
* ``put_failure`` / ``failure`` / ``failure_keys`` / ``clear_failure``
  — durable quarantine records in a separate namespace that never
  shadows results: a success always trumps a stale failure.
* ``read_index`` / ``index_add`` / ``rebuild_index`` — the advisory
  key -> meta manifest; updates are atomic read-modify-write batches
  and ``rebuild_index`` regenerates the manifest from the records,
  which remain the only source of truth.
* ``chaos_tear(plan, key, params)`` — the fault-injection hook
  modelling a torn write that survived persistence (the ``"corrupt"``
  fault of :mod:`repro.perf.chaos`); the torn record must then read as
  missing.
* ``path`` — the backend's anchor on the local filesystem (directory
  for ``fs``, database file for ``sqlite``), used only for *sibling*
  artifacts such as profile dumps, never for record access.

:class:`SqliteStore` keeps records as the **same JSON text** the
filesystem backend writes (``json.dumps(record, sort_keys=True)``),
one row per key, so a grid swept into either backend merges and
renders byte-identically — ``tests/test_backends.py`` parametrizes the
PR 4/6 atomicity, corruption, concurrency and quarantine contracts
over both backends and pins that bit-identity.
"""

from __future__ import annotations

import json
import os
import re
import sqlite3
import tempfile
import time
from contextlib import closing
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from .store import STORE_VERSION, ResultStore, StoreStatus, flocked

#: Locator schemes with a registered backend.
STORE_SCHEMES = ("fs", "sqlite")

#: First bytes of every SQLite database file — the mismatch probe.
_SQLITE_MAGIC = b"SQLite format 3\x00"

#: Something that *looks* like a locator scheme (``word:`` prefix); a
#: bare path never matches because path separators are excluded.
_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*$")


class StoreBackendError(ValueError):
    """A locator named an unknown backend or the wrong one for its data."""


def parse_locator(locator: Union[str, Path]) -> Tuple[str, str]:
    """Split a store locator into ``(scheme, path)``.

    ``fs:DIR`` and ``sqlite:PATH`` select their backends explicitly; a
    bare path (or :class:`~pathlib.Path`) means ``fs`` for backward
    compatibility with every pre-backend ``--store DIR`` invocation.
    A ``word:`` prefix that is not a registered scheme raises
    :class:`StoreBackendError` rather than being misread as a relative
    path.
    """
    if isinstance(locator, Path):
        return "fs", str(locator)
    text = str(locator)
    scheme, sep, rest = text.partition(":")
    if sep and _SCHEME_RE.match(scheme):
        if scheme not in STORE_SCHEMES:
            raise StoreBackendError(
                f"unknown store backend {scheme!r} in {text!r} "
                f"(registered: {', '.join(STORE_SCHEMES)})"
            )
        if not rest:
            raise StoreBackendError(f"store locator {text!r} has an empty path")
        return scheme, rest
    return "fs", text


def locator_path(locator: Union[str, Path]) -> Path:
    """The filesystem path a locator anchors to (for sibling artifacts)."""
    return Path(parse_locator(locator)[1])


def open_store(locator: Union[str, Path]):
    """Open the backend a locator names, diagnosing mismatches early.

    ``fs:DIR`` (or a bare path) pointed at a SQLite database file, and
    ``sqlite:PATH`` pointed at a store directory, each raise
    :class:`StoreBackendError` naming the locator that would work —
    the failure mode is a wrong *flag*, so the fix belongs in the
    message, not in a traceback from deep inside a read.
    """
    scheme, path_text = parse_locator(locator)
    path = Path(path_text)
    if scheme == "sqlite":
        return SqliteStore(path)
    if path.is_file():
        hint = (
            f" — it is a SQLite database; use sqlite:{path}"
            if _reads_as_sqlite(path)
            else ""
        )
        raise StoreBackendError(
            f"fs store path {path} is a file, not a directory{hint}",
        )
    return ResultStore(path)


def _reads_as_sqlite(path: Path) -> bool:
    """True iff ``path`` starts with the SQLite file magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(_SQLITE_MAGIC)) == _SQLITE_MAGIC
    except OSError:
        return False


#: sqlite3 error texts of a corrupt or foreign database file — the only
#: read errors that may read as "no rows".
_CORRUPT_SIGNS = ("not a database", "malformed")

_SCHEMA = (
    """CREATE TABLE IF NOT EXISTS records (
        key TEXT PRIMARY KEY,
        record TEXT NOT NULL
    )""",
    """CREATE TABLE IF NOT EXISTS failures (
        key TEXT PRIMARY KEY,
        record TEXT NOT NULL
    )""",
    """CREATE TABLE IF NOT EXISTS index_meta (
        key TEXT PRIMARY KEY,
        meta TEXT NOT NULL
    )""",
)


class SqliteStore:
    """Content-addressed result store in a single SQLite database.

    One row per cell in ``records``, holding the *exact* JSON text the
    filesystem backend would write to ``<key>.json`` — so records are
    bit-identical across backends, and the same corruption-tolerance
    rule applies: a row whose text is not the expected JSON shape reads
    as missing, never as an error.  Failure (quarantine) records live
    in their own ``failures`` table, parallel to results and never
    shadowing them; the advisory index is the ``index_meta`` table.

    Concurrency comes from SQLite itself: WAL journaling plus a busy
    timeout lets any number of worker processes upsert cells while
    readers (the service, ``status``, ``merge``) stay unblocked, the
    same many-writers/many-readers regime the filesystem backend
    handles with atomic renames and ``flock``.  The one-time WAL switch
    and schema creation run under an ``flock``'d sidecar, and an
    operation that still finds the database busy retries with bounded
    backoff and then raises.
    """

    #: How long a writer waits on a locked database before erroring.
    BUSY_TIMEOUT_S = 30.0

    #: Retries of an operation that still finds the database busy or
    #: locked (the busy timeout does not cover every lock transition).
    BUSY_RETRIES = 8

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        if self.path.is_dir():
            raise StoreBackendError(
                f"sqlite store path {self.path} is a directory "
                f"(an fs store?) — use fs:{self.path}"
            )
        if (
            self.path.is_file()
            and self.path.stat().st_size
            and not _reads_as_sqlite(self.path)
        ):
            raise StoreBackendError(
                f"sqlite store path {self.path} is not a SQLite database"
            )
        self._initialized = False

    # -- connections -----------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        """A fresh connection to an initialized database.

        Short-lived connections per operation keep the store safe to
        use from any thread or process without shared handles — the
        sweep workload is records-per-cell, not a hot OLTP loop.
        """
        if not self._initialized:
            self._initialize()
        conn = sqlite3.connect(str(self.path), timeout=self.BUSY_TIMEOUT_S)
        conn.execute("PRAGMA synchronous=NORMAL")
        return conn

    def _initialize(self) -> None:
        """Switch the database to WAL and create the schema, once.

        The journal-mode switch takes an exclusive lock that does not
        wait out the busy timeout, so two processes racing it on a
        fresh database fail at once.  Initializers therefore serialize
        on an ``flock``'d sidecar (``<db>.lock``), as the filesystem
        backend does for its index; once on, WAL persists in the file.
        """
        with flocked(self.path.with_name(self.path.name + ".lock")):
            conn = sqlite3.connect(str(self.path), timeout=self.BUSY_TIMEOUT_S)
            with closing(conn):
                conn.execute("PRAGMA journal_mode=WAL")
                for statement in _SCHEMA:
                    conn.execute(statement)
        self._initialized = True

    def _run(self, operation: Callable[[sqlite3.Connection], Any]) -> Any:
        """``operation(conn)`` in one transaction, retrying when busy.

        A busy or locked database is retried with bounded exponential
        backoff (:data:`BUSY_RETRIES` attempts after the first), then
        the error propagates: a database that stays locked is an
        error, never "no data".
        """
        for attempt in range(self.BUSY_RETRIES + 1):
            try:
                with closing(self._connect()) as conn, conn:
                    return operation(conn)
            except sqlite3.OperationalError as exc:
                busy = "locked" in str(exc) or "busy" in str(exc)
                if not busy or attempt == self.BUSY_RETRIES:
                    raise
                time.sleep(min(0.01 * 2**attempt, 1.0))

    def _read(self, query: str, args: Tuple = ()) -> List[Tuple]:
        """Rows of a read-only query.

        A missing database reads as empty, and so does a corrupt one
        (not a database, malformed image) — mirroring the filesystem
        backend's missing-directory and corrupt-file tolerance.  A
        locked or busy database is retried and then raised, never read
        as "no rows".
        """
        if not self.path.is_file():
            return []
        try:
            return self._run(lambda conn: list(conn.execute(query, args)))
        except sqlite3.DatabaseError as exc:
            corrupt = any(sign in str(exc) for sign in _CORRUPT_SIGNS)
            if isinstance(exc, sqlite3.OperationalError) or not corrupt:
                raise
            return []

    # -- records ---------------------------------------------------------
    def put(
        self,
        key: str,
        value: Any,
        *,
        kernel: Optional[str] = None,
        params: Optional[Dict[str, Any]] = None,
        index: bool = True,
    ) -> Dict[str, Any]:
        """Persist one cell result atomically; returns the record meta.

        The record text is exactly what :class:`ResultStore.put` writes
        (sorted-key JSON), upserted in one transaction — a reader sees
        the old row or the new, never a torn one.  ``index=False``
        skips the advisory-index upsert for bulk writers.
        """
        meta: Dict[str, Any] = {"store_version": STORE_VERSION}
        if kernel is not None:
            meta["kernel"] = kernel
        if params is not None:
            meta["params"] = params
        record = {"value": value, "meta": meta}
        text = json.dumps(record, sort_keys=True)

        def upsert(conn: sqlite3.Connection) -> None:
            conn.execute(
                "INSERT INTO records(key, record) VALUES(?, ?) "
                "ON CONFLICT(key) DO UPDATE SET record=excluded.record",
                (key, text),
            )
            if index:
                conn.execute(
                    "INSERT INTO index_meta(key, meta) VALUES(?, ?) "
                    "ON CONFLICT(key) DO UPDATE SET meta=excluded.meta",
                    (key, json.dumps(meta, sort_keys=True)),
                )

        self._run(upsert)
        return meta

    @staticmethod
    def _parse_record(text: str) -> Optional[Dict[str, Any]]:
        try:
            record = json.loads(text)
        except ValueError:
            return None
        if not isinstance(record, dict) or "value" not in record:
            return None
        return record

    def record(self, key: str) -> Optional[Dict[str, Any]]:
        """The full record dict for ``key``, or None if missing/corrupt."""
        rows = self._read("SELECT record FROM records WHERE key=?", (key,))
        return self._parse_record(rows[0][0]) if rows else None

    def get(self, key: str) -> Optional[Any]:
        """The stored value for ``key``, or None if missing/corrupt."""
        record = self.record(key)
        return None if record is None else record["value"]

    def has(self, key: str) -> bool:
        """True iff ``key`` has a *readable* record (corrupt = missing)."""
        return self.record(key) is not None

    def keys(self) -> List[str]:
        """Keys of every readable record, sorted."""
        return [
            key
            for key, text in self._read(
                "SELECT key, record FROM records ORDER BY key",
            )
            if self._parse_record(text) is not None
        ]

    def status(self, keys: Iterable[str]) -> StoreStatus:
        """Done/missing/failed split of ``keys`` against the records."""
        wanted = list(keys)
        have = set(self.keys())
        missing = tuple(key for key in wanted if key not in have)
        quarantined = set(self.failure_keys()) if missing else set()
        failed = tuple(key for key in missing if key in quarantined)
        return StoreStatus(
            total=len(wanted),
            done=len(wanted) - len(missing),
            missing_keys=missing,
            failed_keys=failed,
        )

    # -- failure records -------------------------------------------------
    def put_failure(
        self,
        key: str,
        failure: Dict[str, Any],
        *,
        kernel: Optional[str] = None,
        params: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Persist one cell's terminal failure atomically (quarantine).

        Failure rows live in their own table — parallel to results,
        never shadowing them — exactly like the filesystem backend's
        ``failures/`` subdirectory.
        """
        meta: Dict[str, Any] = {"store_version": STORE_VERSION}
        if kernel is not None:
            meta["kernel"] = kernel
        if params is not None:
            meta["params"] = params
        record = {"failure": dict(failure), "meta": meta}
        self._run(
            lambda conn: conn.execute(
                "INSERT INTO failures(key, record) VALUES(?, ?) "
                "ON CONFLICT(key) DO UPDATE SET record=excluded.record",
                (key, json.dumps(record, sort_keys=True)),
            )
        )
        return record

    @staticmethod
    def _parse_failure(text: str) -> Optional[Dict[str, Any]]:
        try:
            record = json.loads(text)
        except ValueError:
            return None
        failure_ok = isinstance(record, dict) and isinstance(
            record.get("failure"), dict,
        )
        if not failure_ok:
            return None
        return record

    def failure(self, key: str) -> Optional[Dict[str, Any]]:
        """The failure record for ``key``, or None (corrupt = none)."""
        rows = self._read("SELECT record FROM failures WHERE key=?", (key,))
        return self._parse_failure(rows[0][0]) if rows else None

    def failure_keys(self) -> List[str]:
        """Keys of every readable failure record, sorted."""
        return [
            key
            for key, text in self._read(
                "SELECT key, record FROM failures ORDER BY key",
            )
            if self._parse_failure(text) is not None
        ]

    def clear_failure(self, key: str) -> None:
        """Drop ``key``'s failure record (a later attempt succeeded)."""
        if not self.path.is_file():
            return
        self._run(
            lambda conn: conn.execute("DELETE FROM failures WHERE key=?", (key,))
        )

    # -- index -----------------------------------------------------------
    def read_index(self) -> Dict[str, Any]:
        """The advisory index mapping key -> record meta (may be stale)."""
        index: Dict[str, Any] = {}
        for key, text in self._read("SELECT key, meta FROM index_meta"):
            try:
                meta = json.loads(text)
            except ValueError:
                continue
            index[key] = meta
        return index

    def index_add(self, entries: Dict[str, Any]) -> None:
        """Merge ``entries`` (key -> meta) into the index, transactionally."""
        self._run(
            lambda conn: conn.executemany(
                "INSERT INTO index_meta(key, meta) VALUES(?, ?) "
                "ON CONFLICT(key) DO UPDATE SET meta=excluded.meta",
                [
                    (key, json.dumps(meta, sort_keys=True))
                    for key, meta in entries.items()
                ],
            )
        )

    def rebuild_index(self) -> Dict[str, Any]:
        """Regenerate the index from the records actually stored."""
        records: Dict[str, Any] = {}
        for key, text in self._read(
            "SELECT key, record FROM records ORDER BY key",
        ):
            record = self._parse_record(text)
            if record is None:
                continue
            meta = record.get("meta")
            records[key] = meta if isinstance(meta, dict) else {}

        def replace(conn: sqlite3.Connection) -> None:
            conn.execute("DELETE FROM index_meta")
            conn.executemany(
                "INSERT INTO index_meta(key, meta) VALUES(?, ?)",
                [
                    (key, json.dumps(meta, sort_keys=True))
                    for key, meta in records.items()
                ],
            )

        self._run(replace)
        return records

    # -- fault injection -------------------------------------------------
    def chaos_tear(self, plan, key: str, params: Dict[str, Any]) -> bool:
        """Apply a scripted ``"corrupt"`` fault to ``key``; True if torn.

        The plan's tear logic (and its cross-process ``times``
        accounting) operates on files, so the record text round-trips
        through a temp file: whatever the plan leaves there — the
        truncated JSON modelling a tear that survived persistence — is
        stored back, after which the record reads as missing exactly
        like a torn filesystem record.
        """
        rows = self._read("SELECT record FROM records WHERE key=?", (key,))
        if not rows:
            return False
        fd, tmp = tempfile.mkstemp(prefix=".chaos-", suffix=".json")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(rows[0][0])
            if not plan.corrupt_after_write(tmp, params):
                return False
            torn_text = Path(tmp).read_text()
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        self._run(
            lambda conn: conn.execute(
                "UPDATE records SET record=? WHERE key=?", (torn_text, key)
            )
        )
        return True
