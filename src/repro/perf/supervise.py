"""Supervised cell execution: retries, deadlines, crash recovery.

:func:`supervised_indexed` is the one executor behind
:func:`repro.sweep.runner.compute_grid`.  It yields one outcome per
work item in completion order, serially in-process or over a process
pool, under the fault model of a real fleet scheduler:

* **Retries** — a :class:`RetryPolicy` bounds attempts per cell, with
  exponential backoff and *deterministic* seeded jitter (two runs of the
  same sweep back off identically) and exception allow/deny lists.
* **Deadlines** — ``ProcessPoolExecutor`` cannot cancel a running
  future, so the supervisor keeps a *restartable* pool: when a cell
  overruns ``cell_timeout_s`` the worker processes are terminated, the
  timed-out cell is charged an attempt, and every innocent in-flight
  cell is resubmitted uncharged to a fresh pool.
* **Crash recovery** — a worker dying mid-cell (``os._exit``, OOM kill,
  segfault) breaks the pool; the supervisor rebuilds it and resubmits
  only the cells that were in flight, never finished work.
* **Classification** — a cell that exhausts its attempts yields a
  :class:`CellFailure` (kind, exception type, attempts, traceback
  digest) instead of raising, so callers can quarantine it and keep
  going; ``max_failures`` bounds how much quarantine a run tolerates.

:data:`FAIL_FAST` (one attempt, no deadline, no quarantine) is what an
unsupervised ``compute_grid`` runs under: the first terminal failure
stops the run, and every cell finished before it is kept.
"""

from __future__ import annotations

import hashlib
import heapq
import time
import traceback
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
)

T = TypeVar("T")


class CellTimeout(RuntimeError):
    """A cell overran its wall-clock deadline and its worker was reaped."""


class WorkerCrash(RuntimeError):
    """A worker process died (exit/kill/segfault) while cells were in flight."""


class TooManyFailures(RuntimeError):
    """Terminal failures exceeded ``Supervision.max_failures``; run aborted."""


def exception_names(exc: BaseException) -> Tuple[str, ...]:
    """The exception's class name plus every base class name.

    Retry allow/deny lists match against any of these, so a policy can
    name a base family (``"ChaosFault"``) and cover its subclasses.
    """
    return tuple(
        cls.__name__ for cls in type(exc).__mro__ if cls is not object
    )


@dataclass(frozen=True)
class RetryPolicy:
    """How many times a failing cell is retried, and how it backs off.

    ``max_attempts`` counts *total* attempts (1 = never retry).  The
    backoff before attempt ``n+1`` is ``backoff_base_s *
    backoff_factor**(n-1)``, stretched by up to ``jitter`` (a fraction)
    of deterministic, seeded noise — reproducible runs, but no
    thundering herd when many cells fail together.  ``retry_on``
    (non-empty = only these exception names retry) and ``no_retry_on``
    (these never retry, deny wins) filter by exception class name,
    matching any name in the exception's MRO.
    """

    max_attempts: int = 1
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.1
    seed: int = 0
    retry_on: Tuple[str, ...] = ()
    no_retry_on: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")

    def should_retry(self, names: Iterable[str], attempt: int) -> bool:
        """Whether a failure with these exception names gets attempt+1."""
        if attempt >= self.max_attempts:
            return False
        seen = set(names)
        if seen & set(self.no_retry_on):
            return False
        if self.retry_on and not (seen & set(self.retry_on)):
            return False
        return True

    def delay_s(self, attempt: int, token: str = "") -> float:
        """Backoff before retrying after attempt ``attempt`` (1-based).

        Deterministic: the jitter fraction is drawn from a hash of
        ``(seed, token, attempt)``, so reruns sleep identically and
        distinct cells (distinct tokens) de-synchronize.
        """
        base = self.backoff_base_s * self.backoff_factor ** (attempt - 1)
        if base <= 0.0:
            return 0.0
        digest = hashlib.sha256(
            f"retry:{self.seed}:{token}:{attempt}".encode("utf-8")
        ).digest()
        unit = int.from_bytes(digest[:8], "big") / 2.0**64
        return base * (1.0 + self.jitter * unit)


@dataclass(frozen=True)
class Supervision:
    """The full supervision contract one grid execution runs under.

    The default is one attempt, no deadline, unlimited failures,
    quarantine on.  ``quarantine=False`` is fail-fast: the first
    terminal failure raises out of
    :func:`repro.sweep.runner.compute_grid` (see :data:`FAIL_FAST`).
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    cell_timeout_s: Optional[float] = None
    max_failures: Optional[int] = None
    quarantine: bool = True


#: The supervision of a ``compute_grid`` call given no ``supervise=``:
#: every cell runs once and the first terminal failure raises.
FAIL_FAST = Supervision(quarantine=False)


@dataclass(frozen=True)
class CellFailure:
    """A cell's terminal (retries-exhausted) failure, classified.

    ``kind`` is one of ``"exception"`` (the cell raised), ``"timeout"``
    (reaped past its deadline), or ``"crash"`` (its worker process
    died).  ``traceback_digest`` is a short stable hash of the
    formatted traceback — enough to see that two failures are the same
    bug without persisting whole tracebacks into the store.
    """

    kind: str
    exception_type: str
    message: str
    attempts: int
    traceback_digest: str

    def as_record(self) -> Dict[str, Any]:
        """The JSON shape persisted by ``ResultStore.put_failure``."""
        return asdict(self)


@dataclass(frozen=True)
class CellOutcome:
    """One cell's final result: a value or a classified failure.

    ``exception`` is the failure's original exception, kept so a
    fail-fast caller can chain it; it is never persisted (the store
    gets :meth:`CellFailure.as_record`) and takes no part in equality.
    """

    index: int
    value: Any = None
    failure: Optional[CellFailure] = None
    attempts: int = 1
    exception: Optional[BaseException] = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.failure is None


def classify_failure(exc: BaseException, attempts: int) -> CellFailure:
    """Build the terminal :class:`CellFailure` for an exception."""
    if isinstance(exc, CellTimeout):
        kind = "timeout"
    elif isinstance(exc, WorkerCrash):
        kind = "crash"
    else:
        kind = "exception"
    formatted = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )
    return CellFailure(
        kind=kind,
        exception_type=type(exc).__name__,
        message=str(exc),
        attempts=attempts,
        traceback_digest=hashlib.sha256(formatted.encode("utf-8")).hexdigest()[:12],
    )


def supervised_indexed(
    fn: Callable[[T], Any],
    items: Iterable[T],
    *,
    supervision: Supervision,
    workers: Optional[int] = None,
    weights: Optional[Iterable[float]] = None,
) -> Iterator[CellOutcome]:
    """Yield a :class:`CellOutcome` per item, in completion order.

    ``workers`` of None, 0 or 1 runs serially in-process, lazily in
    input order; larger values run a process pool capped at the item
    count, with at most one item in flight per worker.  A failing,
    hanging, or crashing cell yields a failure outcome (after retries)
    instead of killing the iteration.  Within one pool wake-up every
    success is yielded before any failure, so a fail-fast consumer
    keeps all finished work.  A ``cell_timeout_s`` forces pool mode
    even for ``workers<=1`` — deadlines can only be enforced on work
    that runs in a reapable child process.  Closing the iterator early
    terminates the pool's workers and waits for them to exit.

    ``weights`` (one positive factor per item, default 1.0) scales each
    item's deadline: a group-shaped item covering G cells gets
    ``G * cell_timeout_s`` of wall clock before it is reaped, so
    batching never tightens the effective per-cell budget.  Retry
    accounting is unaffected — an item is one unit of work and each
    failure charges it exactly one attempt, however many cells it
    carries.

    Raises :class:`TooManyFailures` once terminal failures exceed
    ``supervision.max_failures`` (``None`` = unlimited).
    """
    cells = list(items)
    if workers is not None and workers < 0:
        raise ValueError("workers cannot be negative")
    scale: Optional[List[float]] = None
    if weights is not None:
        scale = [float(w) for w in weights]
        if len(scale) != len(cells):
            raise ValueError(
                f"weights must match items ({len(scale)} != {len(cells)})"
            )
        if any(w <= 0.0 for w in scale):
            raise ValueError("weights must be positive")
    serial = not workers or workers <= 1 or len(cells) <= 1
    if serial and supervision.cell_timeout_s is None:
        return _supervised_serial(fn, cells, supervision)
    return _supervised_pool(fn, cells, max(1, workers or 1), supervision, scale)


def _check_budget(failures: int, supervision: Supervision) -> None:
    if (
        supervision.max_failures is not None
        and failures > supervision.max_failures
    ):
        raise TooManyFailures(
            f"{failures} cells failed terminally "
            f"(max_failures={supervision.max_failures})"
        )


def _supervised_serial(
    fn: Callable[[T], Any], cells: List[T], supervision: Supervision
) -> Iterator[CellOutcome]:
    failures = 0
    for index, cell in enumerate(cells):
        attempt = 0
        while True:
            attempt += 1
            try:
                value = fn(cell)
            except Exception as exc:
                if supervision.retry.should_retry(exception_names(exc), attempt):
                    time.sleep(supervision.retry.delay_s(attempt, token=str(index)))
                    continue
                failures += 1
                yield CellOutcome(
                    index,
                    failure=classify_failure(exc, attempt),
                    attempts=attempt,
                    exception=exc,
                )
                _check_budget(failures, supervision)
                break
            yield CellOutcome(index, value=value, attempts=attempt)
            break


def _terminate_workers(pool: Any) -> None:
    """Forcibly kill a pool's worker processes (reaping hung cells).

    ``ProcessPoolExecutor`` exposes no cancellation for a *running*
    future, so the only way to reclaim a hung worker is to terminate
    the process; the pool then reports broken and is rebuilt.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-dead worker
            pass


def _supervised_pool(
    fn: Callable[[T], Any],
    cells: List[T],
    workers: int,
    supervision: Supervision,
    weights: Optional[List[float]] = None,
) -> Iterator[CellOutcome]:
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    max_workers = max(1, min(workers, len(cells)))
    pool = ProcessPoolExecutor(max_workers=max_workers)
    pool_broken = False
    attempts: Dict[int, int] = {}
    ready: deque = deque(range(len(cells)))
    delayed: List[Tuple[float, int]] = []  # (not-before, index) backoff heap
    inflight: Dict[Any, int] = {}  # future -> index
    deadlines: Dict[Any, float] = {}  # future -> monotonic deadline
    failures = 0

    def resolve_failure(index: int, exc: BaseException) -> Optional[CellOutcome]:
        """Schedule a retry (None) or produce the terminal outcome."""
        nonlocal failures
        if supervision.retry.should_retry(exception_names(exc), attempts[index]):
            not_before = time.monotonic() + supervision.retry.delay_s(
                attempts[index], token=str(index)
            )
            heapq.heappush(delayed, (not_before, index))
            return None
        failures += 1
        return CellOutcome(
            index,
            failure=classify_failure(exc, attempts[index]),
            attempts=attempts[index],
            exception=exc,
        )

    def restart_pool() -> None:
        nonlocal pool, pool_broken
        _terminate_workers(pool)
        pool.shutdown(wait=False, cancel_futures=True)
        pool = ProcessPoolExecutor(max_workers=max_workers)
        pool_broken = False

    def submit_ready() -> None:
        nonlocal pool_broken
        now = time.monotonic()
        while delayed and delayed[0][0] <= now:
            ready.append(heapq.heappop(delayed)[1])
        while ready and len(inflight) < max_workers:
            if pool_broken:
                restart_pool()
            index = ready.popleft()
            attempts[index] = attempts.get(index, 0) + 1
            try:
                future = pool.submit(fn, cells[index])
            except BrokenProcessPool:
                attempts[index] -= 1
                ready.appendleft(index)
                pool_broken = True
                continue
            inflight[future] = index
            if supervision.cell_timeout_s is not None:
                allowance = supervision.cell_timeout_s
                if weights is not None:
                    allowance *= weights[index]
                deadlines[future] = time.monotonic() + allowance

    try:
        while ready or delayed or inflight:
            submit_ready()
            if not inflight:
                # Every remaining cell is backing off: sleep to the
                # earliest retry time and resubmit.
                time.sleep(max(0.0, delayed[0][0] - time.monotonic()))
                continue
            timeout = None
            if deadlines:
                timeout = min(deadlines.values()) - time.monotonic()
            if delayed:
                wake = delayed[0][0] - time.monotonic()
                timeout = wake if timeout is None else min(timeout, wake)
            done, _ = wait(
                set(inflight),
                timeout=None if timeout is None else max(0.0, timeout),
                return_when=FIRST_COMPLETED,
            )
            # Successes first, then failures, each in index order:
            # a fail-fast consumer stops at the first failure, and
            # must not lose a cell that finished in the same wake-up.
            # Across wake-ups the order is completion order.
            for future in sorted(
                done,
                key=lambda f: (
                    f.cancelled() or f.exception() is not None,
                    inflight[f],
                ),
            ):
                index = inflight.pop(future)
                deadlines.pop(future, None)
                if future.cancelled():
                    # A pool restart cancelled this doomed sibling
                    # before its BrokenProcessPool landed; same guilt
                    # model as a crash.
                    exc: Optional[BaseException] = WorkerCrash(
                        "worker pool was torn down while this cell was in flight"
                    )
                else:
                    exc = future.exception()
                if exc is None:
                    yield CellOutcome(
                        index, value=future.result(), attempts=attempts[index]
                    )
                    continue
                if isinstance(exc, BrokenProcessPool):
                    # The guilty cell is indistinguishable from its
                    # siblings, so every in-flight cell is charged a
                    # "crash" attempt; innocents recompute cheaply and
                    # deterministically on retry.
                    pool_broken = True
                    exc = WorkerCrash(
                        "worker process died while this cell was in flight"
                    )
                outcome = resolve_failure(index, exc)
                if outcome is not None:
                    yield outcome
                    _check_budget(failures, supervision)
            now = time.monotonic()
            expired = {
                future
                for future, deadline in deadlines.items()
                if deadline <= now and future in inflight
            }
            if expired:
                # Reap: kill every worker (the hung one cannot be
                # cancelled any other way), charge only the overrun
                # cells, and resubmit innocents uncharged.
                overrun = sorted(inflight[future] for future in expired)
                innocents = sorted(
                    index
                    for future, index in inflight.items()
                    if future not in expired
                )
                inflight.clear()
                deadlines.clear()
                restart_pool()
                for index in innocents:
                    attempts[index] -= 1
                    ready.append(index)
                for index in overrun:
                    outcome = resolve_failure(
                        index,
                        CellTimeout(
                            f"cell exceeded its {supervision.cell_timeout_s}s "
                            f"wall-clock deadline and its worker was reaped"
                        ),
                    )
                    if outcome is not None:
                        yield outcome
                        _check_budget(failures, supervision)
    finally:
        # Waiting is cheap once the workers are terminated, and it
        # means no worker outlives the run, even an abandoned one.
        _terminate_workers(pool)
        pool.shutdown(wait=True, cancel_futures=True)
