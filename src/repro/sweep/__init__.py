"""Sharded sweep orchestration.

Grow a design-space sweep past one process and one host: the canonical
cell enumeration lives in a :class:`Grid` (:mod:`repro.sweep.grid`),
workers own a stable hash-partition of it (``shard i/K``), every result
lands as a content-addressed record in a durable
:class:`repro.perf.store.ResultStore`, and a merge reassembles the
exact row list a single-process sweep produces — bit-identically.

Library surface: :func:`compute_grid` / :func:`rows_from_store`
(:mod:`repro.sweep.runner`), and :func:`stable_key`, the cell-identity
digest (:mod:`repro.sweep.grid`).  Operational surface::

    python -m repro.sweep run --shard 0/4 --store URL   # one worker
    python -m repro.sweep status --store URL --shards 4
    python -m repro.sweep resume --store URL            # fill gaps
    python -m repro.sweep merge --store URL --verify
    python -m repro.sweep serve --store URL             # HTTP queries

``--store`` takes a backend locator (:mod:`repro.perf.backends`):
a bare directory or ``fs:DIR``, or ``sqlite:PATH`` for the
single-file SQLite backend; ``serve`` stands up the read-only query
service (:mod:`repro.service`) over either.  (The CLI lives in
:mod:`repro.sweep.cli`, imported only by ``__main__`` so this package
stays import-light for the sweeps.)
"""

from .grid import Cell, Grid, parse_shard_spec, shard_index, stable_key
from .runner import (
    MissingCells,
    compute_grid,
    kernel_registry,
    rows_from_store,
)

__all__ = [
    "Cell",
    "Grid",
    "MissingCells",
    "compute_grid",
    "kernel_registry",
    "parse_shard_spec",
    "rows_from_store",
    "shard_index",
    "stable_key",
]
