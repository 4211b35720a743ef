"""Deterministic cell grids and the stable shard planner.

Every design-space sweep is an enumeration of independent *cells* — one
kernel name plus one JSON-able parameter mapping per cell.  This module
gives all of them one shared abstraction:

* a :class:`Cell` knows its content hash (:attr:`Cell.key`, the
  :func:`stable_key` digest of its kernel and parameters), so a cell
  computed anywhere — serial sweep, pool worker, another host — lands
  under the same identity in a :class:`repro.perf.store.ResultStore`;
* a :class:`Grid` is the *canonical enumeration order* of a sweep.
  Reassembling rows in grid order is what makes a sharded run's merge
  bit-identical to the single-process sweep;
* :func:`shard_index` hash-partitions cells into ``K`` stable shards.
  The assignment depends only on a cell's key, never on the grid it
  appears in or the process computing it, so workers started on
  different hosts (or re-started after a crash) agree on who owns what
  without coordination.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Bump to re-key every cell (and so orphan every persisted record)
#: after a change to the key payload's format.
KEY_FORMAT_VERSION = 1


def _code_version() -> str:
    """The package version, folded into every key.

    A release bump therefore re-keys all persisted records; edits that
    change numeric results without a version bump still require bumping
    :data:`KEY_FORMAT_VERSION` (or clearing the store).
    """
    try:
        from .. import __version__

        return __version__
    except Exception:  # pragma: no cover - partially initialized package
        return "unknown"


def stable_key(kernel: str, /, **params: Any) -> str:
    """Deterministic hex key for one kernel configuration.

    Parameters are JSON-encoded with sorted keys; non-JSON values fall
    back to ``repr``, so callers should stick to primitives, tuples and
    lists to keep keys stable across processes.  The key format version
    and the package version are folded into every key, so both format
    changes and releases orphan stale persisted entries.
    """
    payload = json.dumps(
        {
            "v": KEY_FORMAT_VERSION,
            "code": _code_version(),
            "kernel": kernel,
            "params": params,
        },
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:40]


def shard_index(key: str, count: int) -> int:
    """Stable shard assignment of one cell key into ``count`` shards.

    Re-hashes the key (with a domain tag) rather than slicing its hex,
    so the partition is independent of how the key digest is truncated;
    the result is a pure function of ``(key, count)``.
    """
    if count < 1:
        raise ValueError("shard count must be at least 1")
    digest = hashlib.sha256(f"shard:{key}".encode("utf-8")).hexdigest()
    return int(digest, 16) % count


def parse_shard_spec(spec: str) -> Tuple[int, int]:
    """Parse a ``"i/K"`` shard spec into ``(index, count)``."""
    try:
        index_text, count_text = spec.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(f"shard spec must look like 'i/K' (got {spec!r})") from None
    if count < 1 or not 0 <= index < count:
        raise ValueError(f"shard index must satisfy 0 <= i < K (got {spec!r})")
    return index, count


@dataclass(frozen=True)
class Cell:
    """One sweep cell: a kernel name plus its full parameter mapping."""

    kernel: str
    params: Tuple[Tuple[str, Any], ...]

    @staticmethod
    def make(kernel: str, **params: Any) -> "Cell":
        """Build a cell with canonically (name-)sorted parameters."""
        return Cell(kernel, tuple(sorted(params.items())))

    def as_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    @cached_property
    def key(self) -> str:
        """Content hash — the record key in a result store."""
        return stable_key(self.kernel, **self.as_dict())


@dataclass(frozen=True)
class Grid:
    """An ordered cell enumeration — the canonical shape of one sweep."""

    kernel: str
    cells: Tuple[Cell, ...]

    def __post_init__(self) -> None:
        for cell in self.cells:
            if cell.kernel != self.kernel:
                raise ValueError(
                    f"grid kernel {self.kernel!r} != cell kernel {cell.kernel!r}"
                )

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells)

    def keys(self) -> List[str]:
        """Record keys in canonical enumeration order."""
        return [cell.key for cell in self.cells]

    def shard(
        self,
        index: int,
        count: int,
        group_key: Optional[Callable[[Cell], Optional[str]]] = None,
    ) -> "Grid":
        """The sub-grid a worker owns under a ``count``-way partition.

        Cells keep their canonical relative order; every cell of the
        grid lands in exactly one shard for any ``count``.

        ``group_key`` makes the partition group-aware: cells mapping to
        the same token are hashed by that token instead of their own
        key, so a whole work group (e.g. one traffic group of the
        engine sweep) always lands in one shard and is never
        split across workers.  Cells whose token is ``None`` fall back
        to their own key.  Determinism is unchanged — the assignment is
        still a pure function of (token, count).
        """
        if not 0 <= index < count:
            raise ValueError(
                f"shard index must satisfy 0 <= i < K (got {index}/{count})"
            )
        if group_key is None:
            owned = tuple(
                cell
                for cell in self.cells
                if shard_index(cell.key, count) == index
            )
        else:
            owned = tuple(
                cell
                for cell in self.cells
                if shard_index(group_key(cell) or cell.key, count) == index
            )
        return Grid(self.kernel, owned)

    def shard_sizes(self, count: int) -> List[int]:
        """Cell counts per shard under a ``count``-way partition."""
        sizes = [0] * count
        for cell in self.cells:
            sizes[shard_index(cell.key, count)] += 1
        return sizes
