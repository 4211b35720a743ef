"""Performance infrastructure: execution and durable results.

The design-space sweeps (Tables 4 and 5) and the hierarchy simulator
evaluate many independent, deterministic cells; this subsystem supplies
the generic accelerators they share:

* :mod:`repro.perf.supervise` — the one cell executor, serial or over
  an opt-in ``workers=N`` process pool: fail-fast by default
  (:data:`FAIL_FAST`), or fault-tolerant with retry and deterministic
  backoff, per-cell wall-clock deadlines (hung workers are reaped),
  ``BrokenProcessPool`` recovery, and classified terminal failures for
  quarantine;
* :mod:`repro.perf.store` — a durable, content-addressed result store
  (per-cell JSON records in one atomic segment file per write batch,
  ``flock``-guarded index) that sharded
  sweep workers on many hosts fill concurrently and ``merge`` reads
  back; a sweep given ``store=`` reads through it, so a warm re-run
  recomputes nothing;
* :mod:`repro.perf.backends` — the pluggable-store layer: the
  ``fs:DIR`` / ``sqlite:PATH`` locator syntax (:func:`open_store`),
  the backend method/atomicity contract, and the :class:`SqliteStore`
  backend holding a whole store in one SQLite database with records
  bit-identical to the filesystem layout;
* :mod:`repro.perf.chaos` — the deterministic fault-injection harness
  that proves the supervision semantics (scripted raise/transient/
  hang/exit/corrupt faults, reproducible across processes).

All are policy-free: callers pass ``workers=`` / ``store=`` /
``supervise=`` knobs and get identical numeric results either way.
Cell identity — the :func:`repro.sweep.grid.stable_key` digest every
record is keyed by — lives with the grid in :mod:`repro.sweep.grid`.
"""

from .backends import (
    SqliteStore,
    StoreBackendError,
    locator_path,
    open_store,
    parse_locator,
)
from .chaos import ChaosFault, ChaosPlan, ChaosTransientError, Fault
from .store import ResultStore, StoreStatus, atomic_write_text, resolve_store
from .supervise import (
    FAIL_FAST,
    CellFailure,
    CellOutcome,
    CellTimeout,
    RetryPolicy,
    Supervision,
    TooManyFailures,
    WorkerCrash,
    supervised_indexed,
)

__all__ = [
    "FAIL_FAST",
    "CellFailure",
    "CellOutcome",
    "CellTimeout",
    "ChaosFault",
    "ChaosPlan",
    "ChaosTransientError",
    "Fault",
    "ResultStore",
    "RetryPolicy",
    "SqliteStore",
    "StoreBackendError",
    "StoreStatus",
    "Supervision",
    "TooManyFailures",
    "WorkerCrash",
    "atomic_write_text",
    "locator_path",
    "open_store",
    "parse_locator",
    "resolve_store",
    "supervised_indexed",
]
