"""Durable, shareable result store for sharded sweeps.

A :class:`ResultStore` is a directory of content-addressed JSON records,
one file per sweep cell, keyed by the cell's content hash
(:func:`repro.sweep.grid.stable_key`).  It is the persistence
layer of the sharded sweep subsystem (:mod:`repro.sweep`): any number of
worker processes — on one host or many sharing a filesystem — write
cells into the same directory, and a ``merge`` reassembles the exact row
list a single-process sweep would have produced.

Design points:

* **Atomic writes.**  Every record (and the index) lands via
  :func:`atomic_write_text` — a per-writer temp file plus ``os.replace``
  — so a reader can never observe a torn file, and two workers racing
  the same cell both leave a complete record (last writer wins; cells
  are deterministic, so both wrote the same bytes).
* **Corruption-tolerant reads.**  A record that is unreadable,
  truncated, or not the expected JSON shape is treated as *missing*,
  never as an error: ``resume`` recomputes it.
* **Advisory, ``flock``-guarded index.**  ``index.json`` is a manifest
  of per-cell metadata for humans and tooling.  Updates take an
  exclusive :mod:`fcntl` lock on a sidecar lock file, and bulk writers
  batch them (:func:`repro.sweep.runner.compute_grid` indexes once per
  grid run, not once per cell).  The records are always the truth:
  readers never consult the index for correctness, and
  :meth:`ResultStore.rebuild_index` regenerates it from a directory
  scan (which is also how merged multi-shard artifact directories heal
  their conflicting indexes).
* **Durable failure records.**  A supervised run that exhausts a
  cell's retries writes a *failure* record under ``failures/<key>.json``
  (exception type, attempts, traceback digest) instead of a result.
  Failures never shadow results — ``status`` reports them as
  failed-and-missing, ``resume`` recomputes them, and a success clears
  them — so quarantine is visible without ever poisoning a merge.
* **A generation token.**  ``generation`` holds a random nonce that
  every mutating call (``put_many``, ``put_failure``, a standalone
  ``clear_failure``, ``chaos_tear``) replaces once, after its last
  file landed; :meth:`ResultStore.generation` reads it.  Readers that
  memoize store-wide answers (the query service) key them on it.  A
  file edited by hand is not seen until the next API write bumps it.
* **One backend of several.**  This filesystem layout is the ``fs``
  backend of the pluggable-store protocol; :mod:`repro.perf.backends`
  defines the locator syntax (``fs:DIR`` / ``sqlite:PATH``), the
  method/atomicity contract, and the :class:`SqliteStore` twin proven
  interchangeable by ``tests/test_backends.py``.
* **The only persisted sweep results.**  Records are ``<key>.json``
  files whose top-level ``"value"`` field holds the row; a sweep given
  ``store=`` reads through them, so a warm re-run recomputes nothing.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

try:  # POSIX only; the store degrades to lock-free index updates elsewhere.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

#: Bump when the record layout changes; folded into every record's meta.
STORE_VERSION = 1

#: Index file name (advisory; rebuilt from a scan whenever stale).
INDEX_NAME = "index.json"

#: Sidecar lock file guarding index read-modify-write cycles.
LOCK_NAME = ".index.lock"

#: Subdirectory holding per-cell *failure* records (quarantined cells).
#: Kept out of the record scan's glob so a failure can never be
#: mistaken for a result.
FAILURE_DIR = "failures"

#: Generation-token file (and the prefix of its temp names).  Neither
#: matches ``*.json``, so record scans never see it.
GENERATION_NAME = "generation"


@contextmanager
def flocked(path: Path) -> Iterator[None]:
    """Hold an exclusive inter-process ``flock`` on the sidecar ``path``.

    The file (and its directory) is created on first use.  Shared by
    every persistence layer that serializes a read-modify-write cycle
    across processes: the store index and the SQLite backend's one-time
    initialization.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a+") as handle:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    A per-writer ``mkstemp`` name keeps concurrent writers of the same
    path from clobbering each other's half-written bytes; the final
    rename is atomic, so readers see either the old content or the new,
    never a torn file.  Raises ``OSError`` on failure (after removing
    the temp file) — callers that treat persistence as best-effort
    catch it.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.stem[:16]}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            # fsync before the rename: a power-loss-style kill after
            # os.replace must never surface a renamed-but-truncated
            # record (rename without data durability can).
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def record_meta(
    kernel: Optional[str], params: Optional[Dict[str, Any]]
) -> Dict[str, Any]:
    """The ``meta`` of a record: store version, then kernel and params.

    Shared by every backend so records stay byte-identical across them.
    """
    meta: Dict[str, Any] = {"store_version": STORE_VERSION}
    if kernel is not None:
        meta["kernel"] = kernel
    if params is not None:
        meta["params"] = params
    return meta


@dataclass(frozen=True)
class StoreStatus:
    """Completion summary of one key set against a store.

    ``failed_keys`` is the subset of ``missing_keys`` with a durable
    failure record — cells whose supervised computation exhausted its
    retries and was quarantined.  A successful result always trumps a
    stale failure record, so a key is never both done and failed.
    """

    total: int
    done: int
    missing_keys: tuple
    failed_keys: tuple = ()

    @property
    def missing(self) -> int:
        return self.total - self.done

    @property
    def failed(self) -> int:
        return len(self.failed_keys)

    @property
    def complete(self) -> bool:
        return self.done == self.total


class ResultStore:
    """Content-addressed directory of per-cell JSON records."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)

    # -- paths -----------------------------------------------------------
    @property
    def path(self) -> Path:
        """The backend's filesystem anchor (the store directory).

        Part of the backend protocol (:mod:`repro.perf.backends`):
        consumers use it only to place *sibling* artifacts such as
        profile dumps, never to reach records.
        """
        return self.directory

    def record_path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    @property
    def index_path(self) -> Path:
        return self.directory / INDEX_NAME

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

        ``value`` must be JSON-serializable (sweep rows pass
        ``dataclasses.asdict`` output).  ``kernel``/``params`` are
        stored alongside so records are self-describing — ``status``
        and debugging never need to re-derive what a hash meant.
        ``index=False`` skips the per-put index update; bulk writers
        use it and batch one :meth:`index_add` for the whole run.  A
        one-item :meth:`put_many`, so it also drops a stale failure.
        """
        meta = self.put_many([(key, value, kernel, params)])[key]
        if index:
            self.index_add({key: meta})
        return meta

    def put_many(self, items: Iterable[Tuple]) -> Dict[str, Dict[str, Any]]:
        """Persist ``(key, value, kernel, params)`` items; key -> meta.

        One atomic file write per record, each followed by dropping
        the key's failure record (a success supersedes a quarantine),
        then one generation bump for the whole batch.  The advisory
        index is left alone: callers batch :meth:`index_add`.
        """
        metas: Dict[str, Dict[str, Any]] = {}
        written = False
        try:
            for key, value, kernel, params in items:
                meta = metas[key] = record_meta(kernel, params)
                record = {"value": value, "meta": meta}
                atomic_write_text(
                    self.record_path(key), json.dumps(record, sort_keys=True)
                )
                written = True
                self._unlink_failure(key)
        finally:
            if written:
                self._bump_generation()
        return metas

    def record(self, key: str) -> Optional[Dict[str, Any]]:
        """The full record dict for ``key``, or None if missing/corrupt."""
        try:
            record = json.loads(self.record_path(key).read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict) or "value" not in record:
            return None
        return record

    def records(self, keys: Iterable[str]) -> Dict[str, Dict[str, Any]]:
        """Readable records of ``keys`` (missing/corrupt ones omitted)."""
        found = {}
        for key in keys:
            record = self.record(key)
            if record is not None:
                found[key] = record
        return found

    def get(self, key: str) -> Optional[Any]:
        """The stored value for ``key``, or None if missing/corrupt."""
        record = self.record(key)
        return None if record is None else record["value"]

    def has(self, key: str) -> bool:
        """True iff ``key`` has a *readable* record (corrupt = missing)."""
        return self.record(key) is not None

    def keys(self) -> List[str]:
        """Keys of every readable record, from a directory scan."""
        if not self.directory.is_dir():
            return []
        found = []
        for path in sorted(self.directory.glob("*.json")):
            if path.name == INDEX_NAME:
                continue
            if self.has(path.stem):
                found.append(path.stem)
        return found

    def status(self, keys: Iterable[str]) -> StoreStatus:
        """Done/missing/failed split of ``keys`` against the records."""
        wanted = list(keys)
        missing = tuple(key for key in wanted if not self.has(key))
        failed = tuple(key for key in missing if self.failure(key) is not None)
        return StoreStatus(
            total=len(wanted),
            done=len(wanted) - len(missing),
            missing_keys=missing,
            failed_keys=failed,
        )

    # -- failure records -------------------------------------------------
    def failure_path(self, key: str) -> Path:
        return self.directory / FAILURE_DIR / f"{key}.json"

    def put_failure(
        self,
        key: str,
        failure: Dict[str, Any],
        *,
        kernel: Optional[str] = None,
        params: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Persist one cell's terminal failure atomically.

        ``failure`` is the classified-failure dict
        (:meth:`repro.perf.supervise.CellFailure.as_record`: kind,
        exception type, message, attempts, traceback digest).  Failure
        records live under ``failures/`` — parallel to results, never
        shadowing them — so ``status`` can report quarantined cells and
        a later ``resume`` can still recompute them.
        """
        record = {"failure": dict(failure), "meta": record_meta(kernel, params)}
        atomic_write_text(self.failure_path(key), json.dumps(record, sort_keys=True))
        self._bump_generation()
        return record

    def failure(self, key: str) -> Optional[Dict[str, Any]]:
        """The failure record for ``key``, or None (corrupt = none)."""
        try:
            record = json.loads(self.failure_path(key).read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict) or not isinstance(
            record.get("failure"), dict
        ):
            return None
        return record

    def failure_keys(self) -> List[str]:
        """Keys of every readable failure record."""
        failure_dir = self.directory / FAILURE_DIR
        if not failure_dir.is_dir():
            return []
        return sorted(
            path.stem
            for path in failure_dir.glob("*.json")
            if self.failure(path.stem) is not None
        )

    def clear_failure(self, key: str) -> None:
        """Drop ``key``'s failure record (a later attempt succeeded)."""
        if self._unlink_failure(key):
            self._bump_generation()

    def _unlink_failure(self, key: str) -> bool:
        """Remove ``key``'s failure file; True iff one was removed."""
        try:
            os.unlink(self.failure_path(key))
        except OSError:
            return False
        return True

    # -- generation token --------------------------------------------------
    def generation(self) -> Optional[str]:
        """The store's generation token; None when there is none yet.

        Changes after every API write to a record or failure record,
        so an answer derived from the store stays valid while the token
        reads the same.  Read it *before* the data the answer derives
        from: a write racing the read then leaves a newer token behind.
        """
        try:
            with open(os.path.join(self.directory, GENERATION_NAME)) as handle:
                return handle.read() or None
        except OSError:
            return None

    def _bump_generation(self) -> None:
        """Replace the generation file with a fresh random nonce.

        Temp file plus ``os.replace``, so readers see the old token or
        the new one, never a torn one; the nonce doubles as the temp
        name's unique suffix.  No ``fsync``: the token only keys
        in-memory memos of running processes, which a power loss
        clears anyway, so durability buys nothing.
        """
        nonce = os.urandom(8).hex()
        path = os.path.join(self.directory, GENERATION_NAME)
        tmp = f"{path}.{nonce}.tmp"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        try:
            os.write(fd, nonce.encode())
        finally:
            os.close(fd)
        os.replace(tmp, path)

    # -- fault injection -------------------------------------------------
    def chaos_tear(self, plan, key: str, params: Dict[str, Any]) -> bool:
        """Apply a scripted ``"corrupt"`` fault to ``key``; True if torn.

        The backend-protocol hook behind the chaos harness's torn-write
        fault (:meth:`repro.perf.chaos.ChaosPlan.corrupt_after_write`):
        here the record *is* a file, so the plan tears it in place.
        Bumps the generation unless the plan left the record alone.
        """
        torn = None
        try:
            torn = plan.corrupt_after_write(self.record_path(key), params)
            return torn
        finally:
            if torn is not False:
                self._bump_generation()

    # -- index -----------------------------------------------------------
    def _locked(self):
        """Exclusive inter-process lock for index read-modify-write."""
        return flocked(self.directory / LOCK_NAME)

    def read_index(self) -> Dict[str, Any]:
        """The advisory index mapping key -> record meta (may be stale)."""
        try:
            records = self._stored_index()
        except OSError:
            return {}
        return {} if records is None else records

    def _stored_index(self) -> Optional[Dict[str, Any]]:
        """The index file's records: ``{}`` when there is no file yet,
        None when it exists but is torn or not an index.  Any other
        ``OSError`` propagates."""
        try:
            text = self.index_path.read_text()
        except FileNotFoundError:
            return {}
        try:
            index = json.loads(text)
        except ValueError:
            return None
        records = index.get("records") if isinstance(index, dict) else None
        return records if isinstance(records, dict) else None

    def _scanned_index(self) -> Dict[str, Any]:
        """Key -> meta of every readable record, from a directory scan."""
        records: Dict[str, Any] = {}
        if self.directory.is_dir():
            for path in sorted(self.directory.glob("*.json")):
                if path.name == INDEX_NAME:
                    continue
                record = self.record(path.stem)
                if record is None:
                    continue  # corrupt record: not a result, not indexed
                meta = record.get("meta")
                records[path.stem] = meta if isinstance(meta, dict) else {}
        return records

    def _write_index(self, records: Dict[str, Any]) -> None:
        payload = {"store_version": STORE_VERSION, "records": records}
        atomic_write_text(self.index_path, json.dumps(payload, sort_keys=True))

    def index_add(self, entries: Dict[str, Any]) -> None:
        """Merge ``entries`` (key -> meta) into the index, under flock.

        One read-modify-write cycle regardless of batch size — callers
        writing many records pass them all at once.  A torn index is
        rebuilt from the records first, so the update heals it instead
        of dropping every earlier entry.
        """
        with self._locked():
            records = self._stored_index()
            if records is None:
                records = self._scanned_index()
            records.update(entries)
            self._write_index(records)

    def rebuild_index(self) -> Dict[str, Any]:
        """Regenerate the index from the records actually on disk.

        Run after merging shard directories (each shard shipped its own
        ``index.json``; only one survives a file-level merge) or after
        any suspected index corruption.  Returns the rebuilt mapping.
        """
        with self._locked():
            records = self._scanned_index()
            self._write_index(records)
            return records


#: Methods every store backend must offer; ``resolve_store`` accepts
#: any object with this surface (see :mod:`repro.perf.backends` for
#: the full protocol contract, including atomicity semantics).
BACKEND_SURFACE = (
    "put",
    "put_many",
    "get",
    "record",
    "records",
    "has",
    "keys",
    "status",
    "put_failure",
    "failure",
    "failure_keys",
    "clear_failure",
    "read_index",
    "index_add",
    "rebuild_index",
    "generation",
)


def resolve_store(store):
    """Normalize the ``store=`` knob the sweeps and tables expose.

    ``None`` -> no store (compute everything, persist nothing); a
    locator string (``fs:DIR`` / ``sqlite:PATH``, or a bare path for
    backward compatibility) -> the backend it names via
    :func:`repro.perf.backends.open_store`; any object with the full
    backend method surface (:data:`BACKEND_SURFACE`) -> itself.
    """
    if store is None:
        return None
    if isinstance(store, ResultStore):
        return store
    if isinstance(store, (str, Path)):
        from .backends import open_store

        return open_store(store)
    if all(hasattr(store, method) for method in BACKEND_SURFACE):
        return store
    raise TypeError(f"cannot interpret store={store!r}")
