"""Durable, shareable result store for sharded sweeps.

A :class:`ResultStore` is a directory of content-addressed JSON
records, keyed by each sweep cell's content hash
(:func:`repro.sweep.grid.stable_key`) and written in *segments*: one
file per write batch.  It is the persistence layer of the sharded sweep
subsystem (:mod:`repro.sweep`): any number of worker processes — on one
host or many sharing a filesystem — write cells into the same
directory, and a ``merge`` reassembles the exact row list a
single-process sweep would have produced.

Design points:

* **One atomic segment per batch.**  :meth:`ResultStore.put_many`
  writes its whole batch (the sweep runner: one traffic group) as one
  ``*.seg`` file: a header line holding the JSON list of its keys, then
  one line per record, each the record's ``json.dumps(record,
  sort_keys=True)`` text.  The segment lands via
  :func:`atomic_write_text` — a temp file, one ``fsync``, then
  ``os.replace`` — so a reader sees the whole batch or none of it, and
  a killed run loses only its in-flight batches.  Segment names are a
  zero-padded ``time_ns`` stamp plus a random nonce: they sort in write
  order and never collide across processes or hosts, so shard
  directories union by plain file copy.  When a key sits in several
  segments, the newest wins: ``put`` of a stored key overwrites it.
* **A location map, not a row cache.**  Each store instance keeps key
  -> (segment, offset, length) of the newest line naming the key.
  Every public read lists the directory and parses only segments it
  has not seen before; ``status``, ``keys`` and ``rebuild_index`` also
  re-parse a segment whose inode, size or mtime changed.  The store
  never rewrites a segment in place.
* **Damage reads as missing; other errors raise.**  A torn header, a
  torn or unparsable line, or a line lost to truncation reads as
  *missing* (and hides any older segment's line for that key), so
  ``resume`` recomputes and rewrites it; so does a segment deleted
  between the listing and the read.  Any other ``OSError`` propagates.
* **Advisory, ``flock``-guarded index.**  ``index.json`` is a manifest
  of per-cell metadata for humans and tooling.  Updates take an
  exclusive :mod:`fcntl` lock on a sidecar lock file, and bulk writers
  batch them (:func:`repro.sweep.runner.compute_grid` indexes once per
  grid run, not once per cell).  The segments are always the truth:
  readers never consult the index, and
  :meth:`ResultStore.rebuild_index` regenerates it from a segment scan
  (which is also how merged multi-shard artifact directories heal
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
* **The only persisted sweep results.**  A record's top-level
  ``"value"`` field holds the row; a sweep given ``store=`` reads
  through the records, so a warm re-run recomputes nothing.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
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
#: Kept out of the segment scan so a failure can never be mistaken for
#: a result.
FAILURE_DIR = "failures"

#: Generation-token file (and the prefix of its temp names).  Neither
#: ends in :data:`SEGMENT_SUFFIX`, so segment scans never see it.
GENERATION_NAME = "generation"

#: Suffix of segment files.  Nothing else in a store directory, temp
#: files included, ends in it.
SEGMENT_SUFFIX = ".seg"

#: Where a key's newest line sits: ``(segment name, offset, length)``,
#: or None when that line is torn, unparsable or lost.
Location = Optional[Tuple[str, int, int]]

_stamp_lock = threading.Lock()
_last_stamp = 0


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


def _stat_identity(stat: os.stat_result) -> Tuple[int, int, int]:
    """``(inode, size, mtime)``: what changes when a segment is replaced
    or damaged in place."""
    return (stat.st_ino, stat.st_size, stat.st_mtime_ns)


def _segment_name() -> str:
    """A new segment name: zero-padded ``time_ns`` plus a random nonce.

    The stamp never repeats or goes back within a process, so names
    sort in write order; the nonce keeps them unique across processes
    and hosts.
    """
    global _last_stamp
    with _stamp_lock:
        _last_stamp = max(time.time_ns(), _last_stamp + 1)
        stamp = _last_stamp
    return f"{stamp:020d}-{os.urandom(8).hex()}{SEGMENT_SUFFIX}"


def _parse_record(text: bytes) -> Optional[Dict[str, Any]]:
    """The record ``text`` holds, or None if it is torn or not a record."""
    try:
        record = json.loads(text)
    except ValueError:
        return None
    if not isinstance(record, dict) or "value" not in record:
        return None
    return record


def _parse_line(data: bytes, offset: int, length: int) -> Optional[Dict[str, Any]]:
    """The record on the line at ``offset`` of ``data``, or None.

    A line counts only with its newline: a segment cut right after a
    record's text is still torn there.
    """
    end = offset + length
    if data[end : end + 1] != b"\n":
        return None
    return _parse_record(data[offset:end])


def _parse_segment(
    name: str, data: bytes
) -> Tuple[Optional[Dict[str, Location]], Dict[str, Dict[str, Any]]]:
    """``(locations, records)`` of segment ``name`` holding ``data``.

    ``locations`` maps every key the header lists to its line's
    location, or to None when the line is torn, unparsable or lost to
    truncation (a line counts only with its newline); ``records`` holds
    the readable lines parsed.  A key listed twice keeps its last line.
    A torn header makes ``locations`` None: the segment's keys are
    unknown.
    """
    locations: Dict[str, Location] = {}
    records: Dict[str, Dict[str, Any]] = {}
    end = data.find(b"\n")
    try:
        keys = json.loads(data[:end]) if end >= 0 else None
    except ValueError:
        keys = None
    if not isinstance(keys, list) or not all(isinstance(k, str) for k in keys):
        return None, records
    for key in keys:
        start = end + 1
        end = data.find(b"\n", start)
        if end < 0:  # torn mid-line: this line and every later one lost
            end = len(data)
            record = None
        else:
            record = _parse_record(data[start:end])
        if record is None:
            locations[key] = None
            records.pop(key, None)
        else:
            locations[key] = (name, start, end - start)
            records[key] = record
    return locations, records


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
    """Content-addressed directory of JSON records in write-batch segments."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self._lock = threading.Lock()
        # Segment name -> (identity, locations) of every segment parsed;
        # replaced, never mutated, under the lock (as is ``_where``).
        self._segments: Dict[str, Tuple[Any, Optional[Dict]]] = {}
        # Key -> location of its newest line, merged over ``_segments``.
        self._where: Dict[str, Location] = {}
        # The directory listing ``_segments`` was last checked against.
        self._listing: List[str] = []

    # -- paths -----------------------------------------------------------
    @property
    def path(self) -> Path:
        """The backend's filesystem anchor (the store directory).

        Part of the backend protocol (:mod:`repro.perf.backends`):
        consumers use it only to place *sibling* artifacts such as
        profile dumps, never to reach records.
        """
        return self.directory

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

        The whole batch lands as one atomic segment, then each key's
        failure record is dropped (a success supersedes a quarantine)
        and the generation bumps once.  A key given twice keeps its
        last value.  The advisory index is left alone: callers batch
        :meth:`index_add`.
        """
        metas: Dict[str, Dict[str, Any]] = {}
        texts: Dict[str, str] = {}
        for key, value, kernel, params in items:
            meta = metas[key] = record_meta(kernel, params)
            record = {"value": value, "meta": meta}
            texts[key] = json.dumps(record, sort_keys=True)
        if not texts:
            return metas
        name, locations = self._write_segment(texts)
        try:
            # The writer knows its lines are readable: no read-back.
            self._register(name, locations)
            for key in texts:
                self._unlink_failure(key)
        finally:
            self._bump_generation()
        return metas

    def _write_segment(self, texts: Dict[str, str]) -> Tuple[str, Dict]:
        """Land ``texts`` (key -> line) as a new segment; its name and
        the location of every line.

        Every line is ASCII (``json.dumps`` escapes the rest), so
        character offsets are byte offsets.
        """
        name = _segment_name()
        lines = [json.dumps(list(texts)), *texts.values()]
        atomic_write_text(self.directory / name, "\n".join(lines) + "\n")
        locations: Dict[str, Location] = {}
        offset = len(lines[0]) + 1
        for key, text in texts.items():
            locations[key] = (name, offset, len(text))
            offset += len(text) + 1
        return name, locations

    def record(self, key: str) -> Optional[Dict[str, Any]]:
        """The full record dict for ``key``, or None.

        Hides damage: a missing key, a torn or unparsable newest line,
        or a segment deleted since the listing all read as None
        (``resume`` then rewrites the record).  Any other ``OSError``
        propagates.
        """
        return self.records((key,)).get(key)

    def records(self, keys: Iterable[str]) -> Dict[str, Dict[str, Any]]:
        """Readable records of ``keys``; missing and damaged ones omitted.

        Hides damage exactly as :meth:`record` does.  Each segment is
        read at most once per call.
        """
        where, fresh = self._refresh()
        return self._load(where, fresh, keys)

    def get(self, key: str) -> Optional[Any]:
        """The stored value for ``key``, or None (hides damage, as
        :meth:`record`)."""
        record = self.record(key)
        return None if record is None else record["value"]

    def has(self, key: str) -> bool:
        """True iff ``key`` has a *readable* record (hides damage, as
        :meth:`record`)."""
        return self.record(key) is not None

    def keys(self) -> List[str]:
        """Sorted keys of every readable record, from the segment map.

        Hides damage: a key whose newest line is torn or lost is left
        out.  Reads only segments that are new or changed in place,
        each once; any ``OSError`` but a deleted segment propagates.
        """
        where, _ = self._refresh(verify=True)
        return sorted(key for key, location in where.items() if location)

    def status(self, keys: Iterable[str]) -> StoreStatus:
        """Done/missing/failed split of ``keys`` against the records.

        Done/missing comes from the segment map (damage hides as
        missing, and ``resume`` heals it); it reads only segments that
        are new or changed in place, each once, plus one failure-record
        read per missing key.
        """
        wanted = list(keys)
        where, _ = self._refresh(verify=True)
        missing = tuple(key for key in wanted if where.get(key) is None)
        failed = tuple(key for key in missing if self.failure(key) is not None)
        return StoreStatus(
            total=len(wanted),
            done=len(wanted) - len(missing),
            missing_keys=missing,
            failed_keys=failed,
        )

    # -- segment map -----------------------------------------------------
    def _refresh(
        self, verify: bool = False
    ) -> Tuple[Dict[str, Location], Dict[str, Dict[str, Dict[str, Any]]]]:
        """``(where, fresh)``: the key map after parsing unseen segments.

        Lists the directory (a missing one is an empty store) and
        parses each segment not seen before; ``fresh`` maps their names
        to their parsed records, for the calling read to reuse.
        ``verify`` also re-parses a known segment whose identity
        (inode, size, mtime) changed, which catches damage done in
        place.  Segments deleted since drop out.
        """
        try:
            listing = os.listdir(self.directory)
        except FileNotFoundError:
            listing = []
        with self._lock:
            if listing == self._listing and not verify:
                return self._where, {}
            names = [name for name in listing if name.endswith(SEGMENT_SUFFIX)]
            known = self._segments
            todo = [name for name in names if name not in known]
            if verify:
                todo += [
                    name
                    for name in names
                    if name in known and self._identity(name) != known[name][0]
                ]
            fresh: Dict[str, Dict[str, Dict[str, Any]]] = {}
            if todo or len(names) != len(known):
                segments = {name: known[name] for name in names if name in known}
                self._scan(todo, segments, fresh)
                self._commit(segments, [name for name in todo if name in segments])
            self._listing = listing
            return self._where, fresh

    def _scan(self, names: List[str], segments: Dict, fresh: Dict) -> None:
        """Parse segments ``names`` into ``segments`` and ``fresh``; one
        deleted since the listing drops out."""
        for name in names:
            read = self._read(name)
            if read is None:
                segments.pop(name, None)
                continue
            identity, data = read
            locations, fresh[name] = _parse_segment(name, data)
            segments[name] = (identity, locations)

    def _read(self, name: str, size: Optional[int] = None) -> Optional[Tuple]:
        """``(identity, bytes)`` of segment ``name``: its first ``size``
        bytes, or all of it; None if it was deleted."""
        try:
            fd = os.open(os.path.join(self.directory, name), os.O_RDONLY)
        except FileNotFoundError:
            return None
        try:
            stat = os.fstat(fd)
            size = stat.st_size if size is None else size
            return _stat_identity(stat), os.pread(fd, size, 0)
        finally:
            os.close(fd)

    def _identity(self, name: str) -> Any:
        """:func:`_stat_identity` of segment ``name``; None if it is gone."""
        try:
            return _stat_identity(os.stat(os.path.join(self.directory, name)))
        except FileNotFoundError:
            return None

    def _register(self, name: str, locations: Dict[str, Location]) -> None:
        """Add a segment this instance just wrote to the map."""
        identity = self._identity(name)
        with self._lock:
            segments = dict(self._segments)
            segments[name] = (identity, locations)
            self._commit(segments, [name])

    def _commit(self, segments: Dict, added: List[str]) -> None:
        """Install ``segments`` and the key map they imply (lock held).

        When ``added`` only appends segments newer than every known
        one, their keys update a copy of the map; otherwise (a segment
        gone or re-parsed, or one copied in out of order) the map is
        rebuilt oldest to newest, so the newest line always wins.
        """
        added = sorted(added)
        if len(segments) == len(self._segments) + len(added) and (
            not added or added[0] > max(self._segments, default="")
        ):
            where = dict(self._where)
        else:
            where, added = {}, sorted(segments)
        for name in added:
            locations = segments[name][1]
            if locations is None:
                # A torn header hides which keys this segment rewrote,
                # so no older line can be trusted to be the newest.
                where = dict.fromkeys(where)
            else:
                where.update(locations)
        self._segments, self._where = segments, where

    def _load(
        self,
        where: Dict[str, Location],
        fresh: Dict[str, Dict[str, Dict[str, Any]]],
        keys: Iterable[str],
    ) -> Dict[str, Dict[str, Any]]:
        """Readable records of ``keys``, reading each segment at most
        once and none that ``fresh`` already parsed."""
        found: Dict[str, Dict[str, Any]] = {}
        wanted: Dict[str, List[Tuple[str, int, int]]] = {}
        for key in keys:
            location = where.get(key)
            if location is None:
                continue
            name, offset, length = location
            if name in fresh:
                found[key] = fresh[name][key]
            else:
                wanted.setdefault(name, []).append((key, offset, length))
        for name, lines in wanted.items():
            read = self._read(name, max(offset + n + 1 for _, offset, n in lines))
            if read is None:
                continue
            data = read[1]
            for key, offset, length in lines:
                record = _parse_line(data, offset, length)
                if record is not None:
                    found[key] = record
        return found

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
        """The failure record for ``key``, or None.

        Hides damage: no file, or a torn or wrong-shape one, reads as
        no failure (the cell is then merely missing, and ``resume``
        recomputes it either way).  Any other ``OSError`` propagates.
        """
        try:
            record = json.loads(self.failure_path(key).read_text())
        except (FileNotFoundError, ValueError):
            return None
        if not isinstance(record, dict) or not isinstance(
            record.get("failure"), dict
        ):
            return None
        return record

    def failure_keys(self) -> List[str]:
        """Keys of every readable failure record (hides damage, as
        :meth:`failure`)."""
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
        An unreadable token file reads as None, which only disables
        memoizing on it.
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
        fault (:meth:`repro.perf.chaos.ChaosPlan.torn_text`).
        Like :meth:`repro.perf.backends.SqliteStore.chaos_tear`, it
        tears ``key`` alone: the torn text lands as a new one-line
        segment that shadows the intact line, so ``key`` reads as
        missing while the rest of its batch stays done.  Bumps the
        generation when it tore.
        """
        record = self.record(key)
        if record is None:
            return False
        torn = plan.torn_text(json.dumps(record, sort_keys=True), params)
        if torn is None:
            return False
        self._write_segment({key: torn})
        self._bump_generation()
        return True

    # -- index -----------------------------------------------------------
    def _locked(self):
        """Exclusive inter-process lock for index read-modify-write."""
        return flocked(self.directory / LOCK_NAME)

    def read_index(self) -> Dict[str, Any]:
        """The advisory index mapping key -> record meta (may be stale).

        Hides damage: a missing, torn or unreadable index reads as
        ``{}`` (the next :meth:`index_add` heals a torn one).
        """
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
        """Key -> meta of every readable record, from a segment scan
        that reads each segment at most once."""
        where, fresh = self._refresh(verify=True)
        found = self._load(where, fresh, sorted(where))
        return {
            key: record["meta"] if isinstance(record.get("meta"), dict) else {}
            for key, record in found.items()
        }

    def _write_index(self, records: Dict[str, Any]) -> None:
        payload = {"store_version": STORE_VERSION, "records": records}
        atomic_write_text(self.index_path, json.dumps(payload, sort_keys=True))

    def index_add(self, entries: Dict[str, Any]) -> None:
        """Merge ``entries`` (key -> meta) into the index, under flock.

        One read-modify-write cycle regardless of batch size — callers
        writing many records pass them all at once.  Heals a torn
        index: it is rebuilt from the segments first, so the update
        does not drop every earlier entry.
        """
        with self._locked():
            records = self._stored_index()
            if records is None:
                records = self._scanned_index()
            records.update(entries)
            self._write_index(records)

    def rebuild_index(self) -> Dict[str, Any]:
        """Regenerate the index from the segments actually on disk.

        Run after merging shard directories (each shard shipped its own
        ``index.json``; only one survives a file-level merge) or after
        any suspected index corruption.  Reads each segment at most
        once; damaged lines are left out.  Returns the rebuilt mapping.
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
