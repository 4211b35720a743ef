"""Deterministic fault injection for the sweep execution layer.

The supervised runner (:mod:`repro.perf.supervise`) promises retry,
timeout-reaping, crash recovery, and quarantine semantics; this module
is the harness that *proves* them.  A :class:`ChaosPlan` scripts faults
against sweep cells by parameter match, and because the plan travels
through one environment variable (:data:`CHAOS_ENV`), the exact same
script reaches serial runs, pool workers, and the ``python -m
repro.sweep`` CLI — tests and the CI chaos job replay identical fault
sequences on every machine.

Fault kinds (the fleet failure taxonomy the runner must survive):

* ``"raise"`` — a *poison* cell: every attempt raises
  :class:`ChaosFault`, so retries exhaust and the cell is quarantined;
* ``"transient"`` — the first ``times`` attempts raise
  :class:`ChaosTransientError`, then the cell succeeds (retry proof);
* ``"hang"`` — the first ``times`` attempts sleep far past any
  reasonable deadline (timeout-reaping proof);
* ``"exit"`` — the first ``times`` attempts kill the worker process
  with ``os._exit`` (``BrokenProcessPool`` recovery proof);
* ``"corrupt"`` — the cell computes normally but its just-written store
  record is truncated afterwards (torn-record tolerance proof; applied
  by the runner's persist hook, not inside the cell).

Attempt counting for ``times``-bounded faults crosses process
boundaries through append-only marker files in ``state_dir`` — a fork
or a freshly reaped worker sees the same attempt number the supervisor
does, so fault sequences are reproducible, never racy.

This harness scripts *infrastructure* failures around any cell kernel.
The physics-level error injection of :mod:`repro.ecc.fault_injection`
(Pauli faults inside EC circuits) is a different instrument entirely
and is untouched by this module.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

#: Environment variable carrying the JSON-encoded plan.  Pool workers
#: inherit the environment, so one export scripts every process of a
#: sweep; unset means chaos is completely inert.
CHAOS_ENV = "REPRO_CHAOS"

#: Fault kinds a plan may script.
FAULT_KINDS = ("raise", "transient", "hang", "exit", "corrupt")


class ChaosFault(RuntimeError):
    """A scripted (poison) cell failure."""


class ChaosTransientError(ChaosFault):
    """A scripted failure that stops recurring after ``times`` attempts."""


@dataclass(frozen=True)
class Fault:
    """One scripted fault: a kind plus the cell parameters it targets.

    ``match`` is a canonically sorted subset of cell parameters; a cell
    is hit when every listed (name, value) pair equals the cell's.
    ``times`` bounds how many attempts misbehave (``None`` = every
    attempt — the poison default for ``"raise"``).
    """

    kind: str
    match: Tuple[Tuple[str, Any], ...]
    times: Optional[int] = 1
    hang_s: float = 3600.0
    exit_code: int = 9

    @staticmethod
    def make(
        kind: str,
        match: Mapping[str, Any],
        *,
        times: Optional[int] = None,
        hang_s: float = 3600.0,
        exit_code: int = 9,
    ) -> "Fault":
        """Build a fault with per-kind ``times`` defaults validated."""
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r} (one of {FAULT_KINDS})")
        if times is None and kind != "raise":
            times = 1  # bounded by default: the cell recovers on retry
        return Fault(
            kind=kind,
            match=tuple(sorted(match.items())),
            times=times,
            hang_s=hang_s,
            exit_code=exit_code,
        )

    def matches(self, params: Mapping[str, Any]) -> bool:
        return all(params.get(name) == value for name, value in self.match)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "fault": self.kind,
            "match": dict(self.match),
            "times": self.times,
            "hang_s": self.hang_s,
            "exit_code": self.exit_code,
        }


@dataclass(frozen=True)
class ChaosPlan:
    """An ordered fault script plus the shared attempt-counter directory."""

    faults: Tuple[Fault, ...]
    state_dir: Optional[str] = None

    def __post_init__(self) -> None:
        needs_state = [f for f in self.faults if f.times is not None]
        if needs_state and not self.state_dir:
            raise ValueError(
                "a chaos plan with times-bounded faults needs a state_dir "
                "to count attempts across processes"
            )

    @staticmethod
    def scripted(
        faults: Sequence[Union[Fault, Mapping[str, Any]]],
        state_dir: Optional[Union[str, Path]] = None,
    ) -> "ChaosPlan":
        """Build a plan from :class:`Fault` objects or JSON-shaped dicts."""
        built = []
        for entry in faults:
            if isinstance(entry, Fault):
                built.append(entry)
                continue
            spec = dict(entry)
            built.append(
                Fault.make(
                    spec.pop("fault"),
                    spec.pop("match"),
                    **{
                        key: spec[key]
                        for key in ("times", "hang_s", "exit_code")
                        if key in spec
                    },
                )
            )
        return ChaosPlan(
            faults=tuple(built),
            state_dir=None if state_dir is None else str(state_dir),
        )

    # -- serialization (the env-var wire format) -------------------------
    def to_json(self) -> str:
        return json.dumps(
            {
                "state_dir": self.state_dir,
                "faults": [fault.as_dict() for fault in self.faults],
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "ChaosPlan":
        spec = json.loads(text)
        return ChaosPlan.scripted(spec.get("faults", ()), spec.get("state_dir"))

    # -- execution -------------------------------------------------------
    def fault_for(self, params: Mapping[str, Any]) -> Optional[Fault]:
        """The first scripted fault matching this cell, or None."""
        for fault in self.faults:
            if fault.matches(params):
                return fault
        return None

    def _attempt(self, fault: Fault, params: Mapping[str, Any]) -> int:
        """Bump and return this fault's cross-process attempt number.

        One byte appended per attempt to a marker file named by the
        fault's digest; ``O_APPEND`` makes concurrent bumps safe and the
        post-write offset *is* the attempt count.
        """
        digest = hashlib.sha256(
            json.dumps(
                {
                    "kind": fault.kind,
                    "match": dict(fault.match),
                    "params": dict(params),
                },
                sort_keys=True,
                default=str,
            ).encode("utf-8")
        ).hexdigest()[:24]
        marker = Path(self.state_dir) / f"{digest}.attempts"
        marker.parent.mkdir(parents=True, exist_ok=True)
        with open(marker, "ab") as handle:
            handle.write(b".")
            handle.flush()
            return handle.tell()

    def _armed(self, fault: Fault, params: Mapping[str, Any]) -> bool:
        if fault.times is None:
            return True
        return self._attempt(fault, params) <= fault.times

    def before_cell(self, params: Mapping[str, Any]) -> None:
        """Run the scripted in-cell fault, if any (worker side).

        Called by the sweep runner before each cell's kernel;
        ``"corrupt"`` faults do nothing here (they fire after the store
        write, via :meth:`torn_text`).
        """
        fault = self.fault_for(params)
        if fault is None or fault.kind == "corrupt":
            return
        if not self._armed(fault, params):
            return
        if fault.kind == "raise":
            raise ChaosFault(f"chaos: scripted poison cell ({dict(fault.match)})")
        if fault.kind == "transient":
            raise ChaosTransientError(
                f"chaos: scripted transient fault ({dict(fault.match)})"
            )
        if fault.kind == "hang":
            time.sleep(fault.hang_s)
            return
        if fault.kind == "exit":  # pragma: no cover - kills the process
            os._exit(fault.exit_code)

    def torn_text(self, text: str, params: Mapping[str, Any]) -> Optional[str]:
        """A just-written record's ``text`` torn if scripted to, else None.

        Models a power-loss-style tear *after* the atomic write: the
        record exists but is not valid JSON, so readers must treat it
        as missing and a resume must recompute it.  Every backend's
        ``chaos_tear`` stores the returned text in place of the record.
        """
        fault = self.fault_for(params)
        if fault is None or fault.kind != "corrupt":
            return None
        if not self._armed(fault, params):
            return None
        return text[: max(1, len(text) // 2)]


#: One-entry parse cache: (env text, parsed plan).
_PLAN_CACHE: Tuple[Optional[str], Optional[ChaosPlan]] = (None, None)


def active_plan() -> Optional[ChaosPlan]:
    """The plan installed in the environment, or None.

    Parsing is cached per env value, so per-cell lookups cost a dict
    probe; a malformed plan raises immediately (a chaos run with a
    broken script must never silently run fault-free).
    """
    global _PLAN_CACHE
    text = os.environ.get(CHAOS_ENV)
    if not text:
        return None
    cached_text, cached_plan = _PLAN_CACHE
    if text != cached_text:
        cached_plan = ChaosPlan.from_json(text)
        _PLAN_CACHE = (text, cached_plan)
    return cached_plan


@contextmanager
def active(plan: Optional[ChaosPlan]) -> Iterator[Optional[ChaosPlan]]:
    """Install ``plan`` in the environment for the dynamic extent.

    Processes forked inside the block (pool workers) inherit it; the
    previous value is restored on exit.  ``active(None)`` masks any
    ambient plan.
    """
    previous = os.environ.get(CHAOS_ENV)
    try:
        if plan is None:
            os.environ.pop(CHAOS_ENV, None)
        else:
            os.environ[CHAOS_ENV] = plan.to_json()
        yield plan
    finally:
        if previous is None:
            os.environ.pop(CHAOS_ENV, None)
        else:
            os.environ[CHAOS_ENV] = previous
