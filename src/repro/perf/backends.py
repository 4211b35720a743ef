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
* ``put_many(items) -> {key: meta}`` — ``(key, value, kernel, params)``
  items written as ``put`` writes them, each dropping the key's stale
  failure record; the advisory index is left alone.  One transaction
  on ``sqlite``; one atomic segment file on ``fs``.  ``put`` is a
  one-item ``put_many`` plus the index upsert.
* ``record(key)`` / ``get(key)`` / ``has(key)`` — corruption-tolerant:
  an unreadable, truncated, or wrong-shape record reads as *missing*
  (``None``/``False``), never as an error or a wrong value.
* ``records(keys) -> {key: record}`` — the bulk read: readable records
  only, corrupt and missing keys omitted exactly as ``record`` treats
  them.
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
* ``generation() -> Optional[str]`` — an opaque token that changes
  after any change to a record or failure record (``None``: unknown,
  so nothing may be memoized on it).  Readers that memoize store-wide
  answers read it *before* the data.  On ``sqlite`` triggers bump it on
  every row change, whoever writes; on ``fs`` each mutating API call
  bumps it once, so hand edits of files go unseen until the next one.

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
import threading
import time
import weakref
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from .store import (
    ResultStore,
    StoreStatus,
    flocked,
    record_meta,
)

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
    # The generation token: one row holding a random nonce, which the
    # triggers below replace on every row change of ``records`` or
    # ``failures`` (so older writers and hand-run SQL bump it too).
    # Random rather than a counter, so a re-created database never
    # repeats a token.
    """CREATE TABLE IF NOT EXISTS generation (
        id INTEGER PRIMARY KEY CHECK (id = 0),
        token TEXT NOT NULL
    )""",
    "INSERT OR IGNORE INTO generation(id, token) VALUES(0, lower(hex(randomblob(8))))",
    *(
        f"CREATE TRIGGER IF NOT EXISTS {table}_{event.lower()}_generation "
        f"AFTER {event} ON {table} BEGIN "
        "UPDATE generation SET token = lower(hex(randomblob(8))); END"
        for table in ("records", "failures")
        for event in ("INSERT", "UPDATE", "DELETE")
    ),
)


#: Keys per ``WHERE key IN (...)`` query: well under SQLite's bound
#: variable limit (999 before 3.32), so any build runs a bulk read.
_IN_CHUNK = 500

_UPSERT_RECORD = (
    "INSERT INTO records(key, record) VALUES(?, ?) "
    "ON CONFLICT(key) DO UPDATE SET record=excluded.record"
)


def _file_identity(path: Path) -> Optional[Tuple[int, int]]:
    """``(st_dev, st_ino)`` of ``path``, or None when it does not exist."""
    try:
        stat = os.stat(path)
    except FileNotFoundError:
        return None
    return stat.st_dev, stat.st_ino


class _ForkGate:
    """Lets store operations run concurrently and a fork wait them out.

    SQLite keeps per-file lock state process-wide, and a forked child
    inherits it: a connection the parent holds open across ``fork()``
    makes the child's *new* connections skip real file locks, and the
    parent closing its connection later checkpoints and deletes the WAL
    under the child's writes, losing them.  So before any fork, every
    in-flight operation finishes and every connection of this process
    is closed; operations wait until the fork is over and then reopen.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._active = 0
        self._forking = 0

    @contextmanager
    def operation(self) -> Iterator[None]:
        with self._cond:
            self._cond.wait_for(lambda: not self._forking)
            self._active += 1
        try:
            yield
        finally:
            with self._cond:
                self._active -= 1
                self._cond.notify_all()

    def before_fork(self) -> None:
        with self._cond:
            self._forking += 1
            self._cond.wait_for(lambda: not self._active)
        for store in list(_LIVE_STORES):
            _close_connections(store._conns)

    def after_fork_in_parent(self) -> None:
        with self._cond:
            self._forking -= 1
            self._cond.notify_all()

    def after_fork_in_child(self) -> None:
        # The forking thread is the child's only one, and a thread of
        # the parent may have held the condition's lock mid-fork.
        self._cond = threading.Condition()
        self._forking = 0


_FORK_GATE = _ForkGate()

#: Every live :class:`SqliteStore`, for the fork gate to close.
_LIVE_STORES: "weakref.WeakSet[SqliteStore]" = weakref.WeakSet()

if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=_FORK_GATE.before_fork,
        after_in_parent=_FORK_GATE.after_fork_in_parent,
        after_in_child=_FORK_GATE.after_fork_in_child,
    )


def _close_connections(conns: Dict) -> None:
    """Close and forget every connection in a store's pool."""
    for conn, _ in list(conns.values()):
        conn.close()
    conns.clear()


class SqliteStore:
    """Content-addressed result store in a single SQLite database.

    One row per cell in ``records``, holding the *exact* JSON text the
    filesystem backend writes as the key's segment line — so records are
    bit-identical across backends, and the same corruption-tolerance
    rule applies: a row whose text is not the expected JSON shape reads
    as missing, never as an error.  Failure (quarantine) records live
    in their own ``failures`` table, parallel to results and never
    shadowing them; the advisory index is the ``index_meta`` table.

    Concurrency comes from SQLite itself: WAL journaling plus a busy
    timeout lets any number of worker processes upsert cells while
    readers (the service, ``status``, ``merge``) stay unblocked, the
    same many-writers/many-readers regime the filesystem backend
    handles with atomic renames and ``flock``.  The store keeps one
    connection per process and thread, reused by every operation; it
    reopens after a fork (see :class:`_ForkGate`) or when the database
    file is replaced, and closes its connections when it is dropped.
    The WAL switch and schema creation of a new connection run under an
    ``flock``'d sidecar, and an operation that still finds the database
    busy retries with bounded backoff and then raises.
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
        #: (pid, thread id) -> (connection, file identity it opened).
        self._conns: Dict[Tuple[int, int], Tuple[sqlite3.Connection, Any]] = {}
        weakref.finalize(self, _close_connections, self._conns)
        _LIVE_STORES.add(self)

    # -- connections -----------------------------------------------------
    def _connection(self) -> sqlite3.Connection:
        """This process and thread's connection to the current file.

        Opened on first use and reused after; reopened when the file's
        ``(st_dev, st_ino)`` changed (deleted and re-created), so a
        store never reads through a handle to a replaced database.
        Connections are opened with ``check_same_thread=False`` only so
        that the finalizer may close them from any thread; each is used
        by its own thread alone.
        """
        slot = (os.getpid(), threading.get_ident())
        identity = _file_identity(self.path)
        held = self._conns.get(slot)
        if held is not None and held[1] == identity:
            return held[0]
        if held is not None:
            del self._conns[slot]
            held[0].close()
        conn = self._open()
        self._conns[slot] = (conn, _file_identity(self.path))
        return conn

    def _open(self) -> sqlite3.Connection:
        """A new connection to a WAL-journaled, schema-ready database.

        The journal-mode switch takes an exclusive lock that does not
        wait out the busy timeout, so two processes racing it on a
        fresh database fail at once.  Openers therefore serialize on an
        ``flock``'d sidecar (``<db>.lock``), as the filesystem backend
        does for its index; once on, WAL persists in the file.
        """
        conn = sqlite3.connect(
            str(self.path), timeout=self.BUSY_TIMEOUT_S, check_same_thread=False
        )
        try:
            with flocked(self.path.with_name(self.path.name + ".lock")):
                conn.execute("PRAGMA journal_mode=WAL")
                with conn:
                    for statement in _SCHEMA:
                        conn.execute(statement)
            conn.execute("PRAGMA synchronous=NORMAL")
        except BaseException:
            conn.close()
            raise
        return conn

    def _run(self, operation: Callable[[sqlite3.Connection], Any]) -> Any:
        """``operation(conn)`` in one transaction, retrying when busy.

        A busy or locked database is retried with bounded exponential
        backoff (:data:`BUSY_RETRIES` attempts after the first), then
        the error propagates: a database that stays locked is an
        error, never "no data".
        """
        for attempt in range(self.BUSY_RETRIES + 1):
            try:
                with _FORK_GATE.operation():
                    conn = self._connection()
                    with conn:
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

    def _select(self, table: str, keys: Iterable[str]) -> Dict[str, str]:
        """Raw ``key -> text`` rows of ``table`` for ``keys``, in chunks."""
        wanted = list(dict.fromkeys(keys))
        found: Dict[str, str] = {}
        for start in range(0, len(wanted), _IN_CHUNK):
            chunk = tuple(wanted[start : start + _IN_CHUNK])
            marks = ",".join("?" * len(chunk))
            found.update(
                self._read(
                    f"SELECT key, record FROM {table} WHERE key IN ({marks})",
                    chunk,
                )
            )
        return found

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

        A one-item :meth:`put_many` (so it also drops a stale failure
        record), then the advisory-index upsert unless ``index=False``.
        """
        meta = self.put_many([(key, value, kernel, params)])[key]
        if index:
            self.index_add({key: meta})
        return meta

    def put_many(self, items: Iterable[Tuple]) -> Dict[str, Dict[str, Any]]:
        """Persist ``(key, value, kernel, params)`` items; key -> meta.

        One transaction upserts every record — the exact text
        :meth:`ResultStore.put_many` writes (sorted-key JSON) — and
        deletes the keys' failure records, so a reader sees each record
        old or new, never torn.  The advisory index is left alone.
        """
        metas: Dict[str, Dict[str, Any]] = {}
        rows = []
        for key, value, kernel, params in items:
            meta = metas[key] = record_meta(kernel, params)
            record = {"value": value, "meta": meta}
            rows.append((key, json.dumps(record, sort_keys=True)))

        def write(conn: sqlite3.Connection) -> None:
            conn.executemany(_UPSERT_RECORD, rows)
            conn.executemany(
                "DELETE FROM failures WHERE key=?", [(key,) for key, _ in rows]
            )

        if rows:
            self._run(write)
        return metas

    @staticmethod
    def _parse_record(text: str) -> Optional[Dict[str, Any]]:
        try:
            record = json.loads(text)
        except ValueError:
            return None
        if not isinstance(record, dict) or "value" not in record:
            return None
        return record

    def records(self, keys: Iterable[str]) -> Dict[str, Dict[str, Any]]:
        """Readable records of ``keys`` (missing/corrupt ones omitted)."""
        found = {}
        for key, text in self._select("records", keys).items():
            record = self._parse_record(text)
            if record is not None:
                found[key] = record
        return found

    def record(self, key: str) -> Optional[Dict[str, Any]]:
        """The full record dict for ``key``, or None if missing/corrupt."""
        return self.records([key]).get(key)

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
        """Done/missing/failed split of ``keys`` against the records.

        Two bulk reads of the asked-for keys at most: the records, then
        the failure records of the missing ones.
        """
        wanted = list(keys)
        have = self.records(wanted)
        missing = tuple(key for key in wanted if key not in have)
        quarantined = {
            key
            for key, text in self._select("failures", missing).items()
            if self._parse_failure(text) is not None
        }
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
        record = {"failure": dict(failure), "meta": record_meta(kernel, params)}
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
        text = self._select("failures", [key]).get(key)
        return None if text is None else self._parse_failure(text)

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

    # -- generation token --------------------------------------------------
    def generation(self) -> Optional[str]:
        """The store's generation token (None: no readable database).

        One ``SELECT`` of the row the schema's triggers rewrite on every
        change to ``records`` or ``failures``.
        """
        rows = self._read("SELECT token FROM generation")
        return rows[0][0] if rows else None

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

        The plan truncates the record's text
        (:meth:`repro.perf.chaos.ChaosPlan.torn_text`) and the torn JSON,
        modelling a tear that survived persistence, is stored back for
        this one row, after which the record reads as missing exactly
        like a torn line of an ``fs`` segment.
        """
        text = self._select("records", [key]).get(key)
        if text is None:
            return False
        torn_text = plan.torn_text(text, params)
        if torn_text is None:
            return False
        self._run(
            lambda conn: conn.execute(
                "UPDATE records SET record=? WHERE key=?", (torn_text, key)
            )
        )
        return True
