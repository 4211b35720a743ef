"""Persistent, content-addressed cache of serialized movement traces.

Extracting a :class:`repro.sim.replay.MovementTrace` is the expensive
half of every batched engine sweep: the traffic simulation runs once per
(workload, size, depth, policy) group, then pricing re-costs it for
every code/latency configuration.  PR 7 made the trace canonically
serializable (``MovementTrace.to_bytes``); this module makes it a
*durable shared artifact*, so repeated and resumed sweeps — across
processes, shards, and runs — skip the simulation entirely.

Design points, shared with the sibling persistence layers:

* **Content-addressed blobs.**  Keys come from
  :func:`repro.sim.replay.trace_key` — a hash of the traffic-group
  token, the stack geometry, and the serialization format version — so
  a key can never resolve to a trace priced under different traffic,
  and bumping :data:`repro.sim.replay.TRACE_FORMAT_VERSION` orphans
  every stale blob instead of decoding it wrongly.
* **Atomic, fsynced writes.**  Blobs land via
  :func:`repro.perf.store.atomic_write_text` (per-writer temp file,
  fsync, ``os.replace``), so concurrent same-key writers both leave a
  complete blob (deterministic extraction: identical bytes) and a
  reader can never observe a torn file.
* **Corrupt-tolerant reads.**  Every blob carries a self-describing
  header (format version, payload sha256, payload length); a blob that
  is truncated, bit-flipped, version-mismatched, or otherwise
  unparseable reads as *missing* — the caller silently re-extracts and
  overwrites.  A cache hit is therefore always a verified, bit-exact
  trace; corruption costs a recompute, never a wrong answer.
* **Durable counters.**  Hit/miss/extraction/byte counters accumulate
  both in-process and — under an advisory ``flock`` — in a sidecar
  ``stats.json``, so sharded workers and run→resume sequences report a
  cache-wide tally (surfaced by ``repro-sweep status --trace-cache``).

Within ``REPRO_CACHE_DIR`` the trace cache owns the ``traces/``
subdirectory (see :func:`default_trace_cache`) and result stores
conventionally use ``store/`` — disjoint namespaces, documented in
``docs/architecture.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from .store import atomic_write_text, flocked

#: Environment variable naming the shared cache root (each subsystem
#: owns a subdirectory of it).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Subdirectory of ``REPRO_CACHE_DIR`` owned by the trace cache.
TRACE_SUBDIR = "traces"

#: Blob file suffix (``<trace_key>.trace``).
BLOB_SUFFIX = ".trace"

#: Sidecar file accumulating cache-wide counters across processes.
STATS_NAME = "stats.json"

#: Sidecar lock file guarding stats read-modify-write cycles.
STATS_LOCK_NAME = ".stats.lock"

#: Counter names persisted to ``stats.json``.
_COUNTERS = ("hits", "misses", "extractions", "bytes_read", "bytes_written")


def _header(version: int, payload: bytes) -> bytes:
    digest = hashlib.sha256(payload).hexdigest()
    return (
        f"REPRO-TRACE v{version} sha256={digest} len={len(payload)}\n"
    ).encode("ascii")


class TraceCache:
    """Directory of verified ``MovementTrace`` blobs keyed by trace key."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.extractions = 0
        self.bytes_read = 0
        self.bytes_written = 0
        # Counter values already folded into ``stats.json``; the next
        # flush writes only the in-process delta.
        self._flushed = {name: 0 for name in _COUNTERS}

    # -- paths -----------------------------------------------------------
    def blob_path(self, key: str) -> Path:
        return self.directory / f"{key}{BLOB_SUFFIX}"

    @property
    def stats_path(self) -> Path:
        return self.directory / STATS_NAME

    # -- blobs -----------------------------------------------------------
    def get(self, key: str):
        """The verified trace stored under ``key``, or None.

        Any defect — missing file, torn or truncated blob, header or
        checksum mismatch, stale format version, undecodable payload —
        reads as a miss; the caller re-extracts.
        """
        from ..sim.replay import TRACE_FORMAT_VERSION, MovementTrace

        try:
            blob = self.blob_path(key).read_bytes()
        except OSError:
            with self._lock:
                self.misses += 1
            return None
        trace = None
        head, sep, payload = blob.partition(b"\n")
        if sep and head == _header(TRACE_FORMAT_VERSION, payload).rstrip(b"\n"):
            try:
                trace = MovementTrace.from_bytes(payload)
            except ValueError:
                trace = None
        with self._lock:
            if trace is None:
                self.misses += 1
            else:
                self.hits += 1
                self.bytes_read += len(blob)
        return trace

    def put(self, key: str, trace) -> None:
        """Persist ``trace`` under ``key`` (best-effort, atomic)."""
        from ..sim.replay import TRACE_FORMAT_VERSION

        payload = trace.to_bytes()
        blob = _header(TRACE_FORMAT_VERSION, payload) + payload
        try:
            # The blob is pure ASCII (header + canonical JSON), so the
            # shared text writer's temp-file/fsync/rename discipline
            # applies unchanged.
            atomic_write_text(self.blob_path(key), blob.decode("ascii"))
        except OSError:
            # Best-effort tier: a failed persist only costs the next
            # run a re-extraction.
            return
        with self._lock:
            self.bytes_written += len(blob)

    def load_or_extract(self, key: str, extract: Callable[[], Any]):
        """The cached trace for ``key``, extracting and storing on miss.

        The single entry point the sweep engines use: a hit returns the
        verified stored trace; a miss calls ``extract()`` (counted — CI
        asserts a fully warm sweep performs zero extractions) and
        persists the result for every later shard, resume, and run.
        Either way the cache-wide ``stats.json`` tally is updated.
        """
        trace = self.get(key)
        if trace is None:
            trace = extract()
            with self._lock:
                self.extractions += 1
            self.put(key, trace)
        self.flush_stats()
        return trace

    # -- counters --------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """This process's counters (independent of ``stats.json``)."""
        with self._lock:
            return {name: getattr(self, name) for name in _COUNTERS}

    def flush_stats(self) -> None:
        """Fold unflushed counter deltas into ``stats.json`` (flock'd).

        Safe under concurrent writers: each read-modify-write cycle
        holds an exclusive advisory lock, and each process only ever
        adds its own delta, so the persisted tally is the sum over all
        participants.  Best-effort — an unwritable directory costs the
        tally, never the sweep.
        """
        with self._lock:
            deltas = {
                name: getattr(self, name) - self._flushed[name]
                for name in _COUNTERS
            }
            if not any(deltas.values()):
                return
            for name in _COUNTERS:
                self._flushed[name] = getattr(self, name)
        try:
            with flocked(self.directory / STATS_LOCK_NAME):
                stats = self.read_stats()
                for name, delta in deltas.items():
                    stats[name] = stats.get(name, 0) + delta
                atomic_write_text(self.stats_path, json.dumps(stats, sort_keys=True))
        except OSError:
            # Roll the failed flush back into the pending delta.
            with self._lock:
                for name, delta in deltas.items():
                    self._flushed[name] -= delta

    def read_stats(self) -> Dict[str, int]:
        """The persisted cache-wide tally (corrupt/missing = empty)."""
        try:
            stats = json.loads(self.stats_path.read_text())
        except (OSError, ValueError):
            return {}
        if not isinstance(stats, dict):
            return {}
        return {
            name: int(value)
            for name, value in stats.items()
            if name in _COUNTERS and isinstance(value, int)
        }

    def summary(self) -> Dict[str, int]:
        """Cache-wide tally plus the blobs actually on disk."""
        self.flush_stats()
        stats = {name: 0 for name in _COUNTERS}
        stats.update(self.read_stats())
        entries = 0
        entry_bytes = 0
        if self.directory.is_dir():
            for path in self.directory.glob(f"*{BLOB_SUFFIX}"):
                try:
                    entry_bytes += path.stat().st_size
                except OSError:
                    continue
                entries += 1
        stats["entries"] = entries
        stats["entry_bytes"] = entry_bytes
        return stats

    # -- maintenance -----------------------------------------------------
    def clear(self) -> None:
        """Drop every blob (stats and other files are left alone)."""
        if not self.directory.is_dir():
            return
        for path in self.directory.glob(f"*{BLOB_SUFFIX}"):
            try:
                path.unlink()
            except OSError:
                pass

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob(f"*{BLOB_SUFFIX}"))


def default_trace_cache() -> Optional[TraceCache]:
    """A cache under ``$REPRO_CACHE_DIR/traces``, or None if unset.

    A trace cache with no durable home is pointless — the sweep
    already holds its traces in process — so no environment variable
    means no cache.
    """
    root = os.environ.get(CACHE_DIR_ENV)
    if not root:
        return None
    return TraceCache(Path(root) / TRACE_SUBDIR)


def resolve_trace_cache(
    cache: Union[None, bool, str, Path, "TraceCache"],
) -> Optional[TraceCache]:
    """Normalize the ``trace_cache=`` knob the sweeps expose.

    ``None``/``False`` -> disabled; ``True`` -> the
    ``$REPRO_CACHE_DIR/traces`` default (or disabled when the variable
    is unset); a path -> a cache rooted exactly there; a
    :class:`TraceCache` -> itself.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return default_trace_cache()
    if isinstance(cache, (str, Path)):
        return TraceCache(cache)
    if isinstance(cache, TraceCache):
        return cache
    raise TypeError(f"cannot interpret trace_cache={cache!r}")
