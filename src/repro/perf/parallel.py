"""Opt-in process-pool fan-out for embarrassingly parallel sweep cells.

Every design-space cell is pure and independent, so the sweeps can hand
their cell list to :func:`parallel_map` with ``workers=N`` and fan out
across processes.  The default (``workers=None``/``0``/``1``) stays
serial — no pool start-up cost, identical results, and the
process-local ``lru_cache`` tables (fetch schedules, workloads) stay
warm.  Cell functions must be module-level
(picklable) and their results deterministic, so serial and parallel
runs are interchangeable.

:func:`parallel_iter` streams results lazily in input order;
:func:`parallel_indexed` streams ``(index, result)`` pairs in
*completion* order, so a caller can persist each one the moment it
exists (the sharded sweep runner does, for crash-durability).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Tuple, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_iter(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: Optional[int] = None,
    chunksize: int = 1,
) -> Iterator[R]:
    """Lazily yield ``fn(x)`` for each item, in input order.

    Same modes as :func:`parallel_map`: ``workers`` of None, 0 or 1
    maps serially in-process (each result computed only when the caller
    advances); larger values stream results out of a
    ``ProcessPoolExecutor`` as they complete, still in input order.
    """
    cells = list(items)
    if workers is not None and workers < 0:
        raise ValueError("workers cannot be negative")
    if not workers or workers <= 1 or len(cells) <= 1:
        return map(fn, cells)
    return _pool_iter(fn, cells, workers, chunksize)


def _pool_iter(
    fn: Callable[[T], R], cells: List[T], workers: int, chunksize: int
) -> Iterator[R]:
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(cells))) as pool:
        yield from pool.map(fn, cells, chunksize=max(1, chunksize))


def parallel_indexed(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: Optional[int] = None,
) -> Iterator[Tuple[int, R]]:
    """Yield ``(index, fn(item))`` pairs in *completion* order.

    Serial mode (``workers`` of None/0/1) yields lazily in input order.
    Pool mode yields each result as its future completes, so a consumer
    persisting results incrementally is never blocked behind a slow
    head-of-line item — finished work is durable even if later (or
    earlier!) items are still running when the process dies.
    """
    cells = list(items)
    if workers is not None and workers < 0:
        raise ValueError("workers cannot be negative")
    if not workers or workers <= 1 or len(cells) <= 1:
        return ((index, fn(cell)) for index, cell in enumerate(cells))
    return _pool_indexed(fn, cells, workers)


def _pool_indexed(
    fn: Callable[[T], R], cells: List[T], workers: int
) -> Iterator[Tuple[int, R]]:
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    with ProcessPoolExecutor(max_workers=min(workers, len(cells))) as pool:
        futures = {pool.submit(fn, cell): index for index, cell in enumerate(cells)}
        pending = set(futures)
        try:
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                # Yield every finished result before surfacing a
                # failure: a consumer persisting incrementally keeps
                # all completed work, not just what happened to drain
                # ahead of the first raising future.
                failed = [f for f in done if f.exception() is not None]
                for future in sorted(
                    (f for f in done if f.exception() is None),
                    key=futures.__getitem__,
                ):
                    yield futures[future], future.result()
                if failed:
                    raise min(failed, key=futures.__getitem__).exception()
        finally:
            # On failure or an abandoned iteration, queued cells must
            # not start (the pool exit still waits out running ones).
            for future in pending:
                future.cancel()


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: Optional[int] = None,
    chunksize: int = 1,
) -> List[R]:
    """``[fn(x) for x in items]``, optionally across a process pool.

    Results keep the input order in both modes.  ``workers`` of None, 0
    or 1 runs serially in-process; larger values use a
    ``ProcessPoolExecutor`` capped at the number of items.
    """
    return list(parallel_iter(fn, items, workers=workers, chunksize=chunksize))
