"""Noise-aware residency: per-qubit intervals + logical-error accrual.

The engine prices *time*; this module prices *fidelity* on top of it.
Every engine dialect (the reservation model's movement-trace replay,
the split-transaction reference, and the flattened
:mod:`repro.sim.fastsplit` engine) accepts an optional
:class:`ResidencyRecorder` that observes each qubit's movements: where
it starts, every hop it takes across a boundary network, and when the
run's horizon closes.  :meth:`ResidencyRecorder.walk` turns that
movement log into per-qubit *residency spans* — an exact partition of
``[0, horizon]`` into level-tagged parked spans and network-tagged
in-flight spans — and :func:`accrue_residency` integrates them on the
fly against per-level error rates derived from each level's
concatenated code, calibrated by the ECC Monte Carlo
(:mod:`repro.ecc.montecarlo`); the same walk materializes
``ResidencyRecorder.intervals`` lazily for tests and audits.  The
result is a ``(makespan_s, logical_error)`` pair with a per-level
breakdown (:class:`FidelityResult`), surfaced in one call through
:func:`simulate_fidelity_run`.

Interval semantics per dialect
------------------------------

* **Split-transaction / fastsplit**: each qubit's transfers complete in
  per-qubit causal order (the movement queues serialize them), so the
  recorded intervals are exact and ``clamped == 0``.
* **Reservation model**: recorded by replaying the identity-carrying
  movement trace (:func:`repro.sim.replay.price_movement_trace` with a
  recorder emits the reference event-kernel engine's records hop for
  hop).  Ports
  are greedily reserved at *scan* time, so a later movement of a qubit
  can be booked at an earlier port slot than its previous arrival.  The
  walk monotonizes by clamp-truncation — the inverted span is charged
  to the level the qubit was parked at, the transit span shrinks
  (possibly to zero), and ``clamped`` counts the events.  The partition
  invariant holds exactly in every dialect; clamping only ever
  *under*-charges a little transit time in the reservation dialect's
  scan-time approximation.

Noise derivation
----------------

``code_noise`` runs the batched Monte Carlo decoder at a calibration
physical rate (:data:`P_CAL`), scales the Gottesman Equation 1 analytic
failure rate by the measured-vs-analytic ratio at level 1, and applies
that scale at the level of interest — an MC-calibrated analytic model,
deterministic for a fixed ``(trials, seed)``.  The scale depends on the
code alone, so the Monte Carlo runs once per ``(code, trials, seed)``,
not once per level.  A level's coherence time is one EC period over its
per-cycle error rate; an in-flight qubit on network ``k`` is charged at
the *worse* endpoint's per-second rate (the shallower level — deeper
levels are doubly-exponentially more reliable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..ecc.concatenated import by_key
from ..ecc.montecarlo import logical_error_rate

#: Calibration physical error rate of the Monte Carlo scale factor:
#: large enough that 2000 trials resolve a nonzero failure count for
#: both shipped codes, small enough to sit in the ``c * p**2`` regime.
P_CAL = 0.01

#: Default Monte Carlo calibration budget (trials, seed).  The seed is
#: chosen so both shipped codes measure a nonzero failure count at
#: :data:`P_CAL` — the scale factor is then data, not the fallback.
FIDELITY_TRIALS = 2000
FIDELITY_SEED = 2006

#: Interval kinds.
LEVEL, TRANSIT = "level", "transit"


@dataclass(frozen=True)
class Interval:
    """One span of a qubit's residency timeline.

    ``kind == "level"`` parks the qubit at hierarchy level ``place``;
    ``kind == "transit"`` has it in flight on boundary network
    ``place`` (which joins levels ``place`` and ``place + 1``).
    """

    start: float
    end: float
    kind: str
    place: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class ResidencyRecorder:
    """Collects per-qubit movement records from one engine run.

    Engines call :meth:`begin` with the initial location map, then
    :meth:`transfer` once per completed hop (the hot engines append the
    same tuple to :attr:`records` directly), then :meth:`finish` with
    the makespan.  :meth:`walk` turns the per-qubit record streams into
    residency spans — for every touched qubit, an exact partition of
    ``[0, horizon]`` (see the module docstring for the per-dialect
    clamp semantics) — integrated on the fly; ``intervals`` is the same
    walk materialized as :class:`Interval` lists, built lazily for
    tests and audits.
    """

    def __init__(self) -> None:
        #: Flat movement log: (qubit, src, dst, start, end, net).
        self.records: List[Tuple[int, int, int, float, float, int]] = []
        self._initial: Dict[int, int] = {}
        self._finished = False
        self.makespan = 0.0
        self.horizon = 0.0
        #: (clamped, mismatches, final_level) of the last walk.
        self._walked: Optional[Tuple[int, int, Dict[int, int]]] = None
        self._intervals: Optional[Dict[int, List[Interval]]] = None

    def begin(self, locations: Mapping[int, int]) -> None:
        """Record where every touched qubit starts (engine-called)."""
        self._initial = dict(locations)

    def transfer(
        self, qubit: int, src: int, dst: int, start: float, end: float,
        net: int,
    ) -> None:
        """One completed hop of ``qubit`` on network ``net``."""
        self.records.append((qubit, src, dst, start, end, net))

    def finish(self, makespan: float) -> "ResidencyRecorder":
        """Close the run: the horizon is the makespan or the last hop's
        completion, whichever is later.

        Idempotent: a second call is a no-op (engines may finish a
        recorder that a wrapper also finishes defensively).
        """
        if self._finished:
            return self
        self._finished = True
        self.makespan = makespan
        self.horizon = max(
            makespan, max(map(itemgetter(4), self.records), default=makespan)
        )
        return self

    def walk(
        self,
        level_rates: Sequence[float],
        transit_rates: Sequence[float],
        timelines: Optional[Dict[int, List[Interval]]] = None,
    ) -> Tuple[List[float], float]:
        """Integrate every qubit's residency spans; the clamp lives here.

        Walks each touched qubit's record stream in ``begin`` order
        (qubit-major, each stream chronological in emission order),
        charging parked spans ``duration * level_rates[level]`` and
        in-flight spans ``duration * transit_rates[net]``; returns the
        per-level exponents and the summed transit exponent.  A record
        booked before the qubit's previous arrival is clamp-truncated
        (counted in :attr:`clamped`), a record whose source level
        disagrees with the tracked location is counted in
        :attr:`mismatches`.  ``timelines`` (a dict) also receives each
        qubit's spans as :class:`Interval` lists.
        """
        if not self._finished:
            raise RuntimeError("walk() before finish()")
        streams: Dict[int, List[Tuple[int, int, int, float, float, int]]]
        streams = {q: [] for q in self._initial}
        for rec in self.records:
            streams[rec[0]].append(rec)
        horizon = self.horizon
        level_exp = [0.0] * len(level_rates)
        transit_exp = 0.0
        clamped = mismatches = 0
        final_level: Dict[int, int] = {}
        for q, cur_level in self._initial.items():
            timeline = None if timelines is None else timelines.setdefault(q, [])
            cur_t = 0.0
            for _, src, dst, start, end, net in streams[q]:
                if src != cur_level:
                    mismatches += 1
                if start < cur_t:
                    # Reservation-dialect inversion: truncate the
                    # transit span so the partition stays exact.
                    clamped += 1
                    start = cur_t
                    if end < start:
                        end = start
                if start > cur_t:
                    level_exp[cur_level] += (start - cur_t) * level_rates[cur_level]
                    if timeline is not None:
                        timeline.append(Interval(cur_t, start, LEVEL, cur_level))
                if end > start:
                    transit_exp += (end - start) * transit_rates[net]
                    if timeline is not None:
                        timeline.append(Interval(start, end, TRANSIT, net))
                cur_t = end
                cur_level = dst
            if horizon > cur_t:
                level_exp[cur_level] += (horizon - cur_t) * level_rates[cur_level]
                if timeline is not None:
                    timeline.append(Interval(cur_t, horizon, LEVEL, cur_level))
            final_level[q] = cur_level
        self._walked = (clamped, mismatches, final_level)
        return level_exp, transit_exp

    def _timelines(self) -> Dict[int, List[Interval]]:
        """Materialize (once) the walk's :class:`Interval` lists."""
        if self._intervals is None:
            depth = 1 + max(
                [*self._initial.values(), *(rec[2] for rec in self.records)],
                default=0,
            )
            zeros = [0.0] * depth
            timelines: Dict[int, List[Interval]] = {}
            self.walk(zeros, zeros, timelines)
            self._intervals = timelines
        return self._intervals

    @property
    def intervals(self) -> Dict[int, List[Interval]]:
        """Per-qubit :class:`Interval` partitions (``{}`` before finish)."""
        return self._timelines() if self._finished else {}

    def _walk_stats(self) -> Tuple[int, int, Dict[int, int]]:
        if not self._finished:
            return 0, 0, {}
        if self._walked is None:
            self._timelines()
        return self._walked

    @property
    def clamped(self) -> int:
        """Reservation-dialect time inversions, monotonized away."""
        return self._walk_stats()[0]

    @property
    def mismatches(self) -> int:
        """Records whose source level disagreed with the tracked
        location — an engine accounting bug; must stay 0 everywhere."""
        return self._walk_stats()[1]

    @property
    def final_level(self) -> Dict[int, int]:
        """Each touched qubit's level at the end of its record stream."""
        return self._walk_stats()[2]

    @property
    def finished(self) -> bool:
        return self._finished

    def partition_ok(self) -> bool:
        """Exact-partition invariant over every qubit's timeline.

        Each timeline must start at 0, be contiguous (every interval
        starts exactly where the previous one ended — float-exact, by
        construction), contain no negative-width spans, and end exactly
        at the shared horizon.
        """
        if not self._finished:
            raise RuntimeError("partition_ok() before finish()")
        for timeline in self.intervals.values():
            t = 0.0
            for iv in timeline:
                if iv.start != t or iv.end < iv.start:
                    return False
                t = iv.end
            if t != self.horizon:
                return False
        return True

    def level_time(self, q: int) -> Dict[int, float]:
        """Summed parked time of qubit ``q`` per hierarchy level."""
        out: Dict[int, float] = {}
        for iv in self.intervals[q]:
            if iv.kind == LEVEL:
                out[iv.place] = out.get(iv.place, 0.0) + iv.duration
        return out

    def transit_time(self, q: int) -> float:
        """Summed in-flight time of qubit ``q`` across every network."""
        return sum(
            iv.duration for iv in self.intervals[q] if iv.kind == TRANSIT
        )


# ----------------------------------------------------------------------
# MC-calibrated per-level noise
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LevelNoise:
    """Noise parameters of one hierarchy level's encoding point.

    ``cycle_error_rate`` is the per-EC-cycle logical failure
    probability (Monte-Carlo-calibrated Equation 1); ``cycle_time_s``
    one EC period.  ``coherence_time_s`` is the derived mean time to
    logical failure for a parked qubit, and ``error_rate_per_s`` its
    reciprocal — the exponent accrual rate residency integrates.
    """

    code_key: str
    code_level: int
    cycle_time_s: float
    cycle_error_rate: float

    @property
    def error_rate_per_s(self) -> float:
        return self.cycle_error_rate / self.cycle_time_s

    @property
    def coherence_time_s(self) -> float:
        return self.cycle_time_s / self.cycle_error_rate


@lru_cache(maxsize=None)
def _mc_scale(code_key: str, trials: int, seed: int) -> float:
    """Measured-over-analytic level-1 failure rate at :data:`P_CAL`.

    1.0 when the measurement resolves zero failures.  Independent of
    the level, so every level of one code shares one Monte Carlo run.
    """
    code = by_key(code_key)
    mc = logical_error_rate(code.algebraic_code(), P_CAL, trials=trials, seed=seed)
    if mc.failures == 0:
        return 1.0
    return mc.logical_error_rate / code.failure_rate(1, p0=P_CAL)


@lru_cache(maxsize=None)
def code_noise(
    code_key: str,
    code_level: int,
    trials: int = FIDELITY_TRIALS,
    seed: int = FIDELITY_SEED,
) -> LevelNoise:
    """MC-calibrated :class:`LevelNoise` of one (code, level) point.

    The batched decoder measures the level-1 logical error rate at the
    calibration physical rate :data:`P_CAL`; the ratio against the
    analytic Equation 1 value at the same point scales the analytic
    rate at ``code_level`` under the default technology point.  When
    the measurement resolves zero failures (below MC resolution at the
    given trial budget) the analytic rate is kept unscaled.
    """
    code = by_key(code_key)
    rate = min(1.0, _mc_scale(code_key, trials, seed) * code.failure_rate(code_level))
    return LevelNoise(
        code_key=code_key,
        code_level=code_level,
        cycle_time_s=code.ec_time_s(code_level),
        cycle_error_rate=rate,
    )


@dataclass(frozen=True)
class StackNoise:
    """Per-level and per-network accrual rates of one hierarchy stack.

    ``transit_rates[k]`` charges a qubit in flight on network ``k`` at
    the worse endpoint's per-second rate — the shallower level's, since
    deeper levels are doubly-exponentially more reliable.
    """

    levels: Tuple[LevelNoise, ...]
    level_rates: Tuple[float, ...]
    transit_rates: Tuple[float, ...]


def stack_noise(
    stack,
    *,
    trials: int = FIDELITY_TRIALS,
    seed: int = FIDELITY_SEED,
) -> StackNoise:
    """The :class:`StackNoise` of a :class:`~repro.sim.levels.HierarchyStack`."""
    levels = tuple(
        code_noise(level.code_key, level.code_level, trials, seed)
        for level in stack.levels
    )
    level_rates = tuple(noise.error_rate_per_s for noise in levels)
    transit_rates = tuple(
        max(level_rates[k], level_rates[k + 1])
        for k in range(len(levels) - 1)
    )
    return StackNoise(
        levels=levels, level_rates=level_rates, transit_rates=transit_rates
    )


# ----------------------------------------------------------------------
# accrual
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FidelityResult:
    """Logical-error accrual of one run, with a per-level breakdown.

    ``level_exponents[l]`` is the summed ``duration * rate`` exponent
    accrued parked at level ``l`` (over all qubits);
    ``transit_exponent`` the same for in-flight spans across every
    network.  ``logical_error`` is ``1 - exp(-total)`` — the survival
    model's probability that at least one logical failure occurred.
    """

    makespan_s: float
    horizon_s: float
    logical_error: float
    level_exponents: Tuple[float, ...]
    transit_exponent: float

    @property
    def total_exponent(self) -> float:
        return sum(self.level_exponents) + self.transit_exponent

    @property
    def level_errors(self) -> Tuple[float, ...]:
        """Per-level failure probabilities, each taken in isolation."""
        return tuple(-math.expm1(-x) for x in self.level_exponents)

    @property
    def transit_error(self) -> float:
        return -math.expm1(-self.transit_exponent)


def accrue_residency(
    recorder: ResidencyRecorder,
    stack,
    *,
    trials: int = FIDELITY_TRIALS,
    seed: int = FIDELITY_SEED,
) -> FidelityResult:
    """Integrate a finished recorder's residency against stack noise.

    One :meth:`ResidencyRecorder.walk` over the record streams — no
    :class:`Interval` objects are built.  A run whose walk counts any
    source-level mismatch raises :class:`RuntimeError` instead of
    pricing inconsistent residency (supervised sweeps quarantine the
    cell like any other failure).
    """
    if not recorder.finished:
        raise ValueError("accrue_residency() requires a finished recorder")
    noise = stack_noise(stack, trials=trials, seed=seed)
    level_exp, transit_exp = recorder.walk(noise.level_rates, noise.transit_rates)
    if recorder.mismatches:
        raise RuntimeError(
            f"residency audit failed: {recorder.mismatches} recorded hop(s) "
            "leave a level their qubit is not parked at — the engine's "
            "movement accounting is inconsistent"
        )
    total = sum(level_exp) + transit_exp
    return FidelityResult(
        makespan_s=recorder.makespan,
        horizon_s=recorder.horizon,
        logical_error=-math.expm1(-total),
        level_exponents=tuple(level_exp),
        transit_exponent=transit_exp,
    )


def simulate_fidelity_run(
    stack,
    workload,
    policy: str = "lru",
    *,
    window: Optional[int] = None,
    fetch: str = "optimized",
    order: Optional[Sequence[int]] = None,
    prefetch: str = "none",
    pipeline: Optional[bool] = None,
    trials: int = FIDELITY_TRIALS,
    seed: int = FIDELITY_SEED,
):
    """One engine run priced in both time and fidelity.

    Runs :func:`repro.sim.levels.simulate_hierarchy_run` with a
    :class:`ResidencyRecorder` attached and returns ``(result,
    fidelity)`` — the unchanged
    :class:`~repro.sim.levels.HierarchyEngineResult` (every float
    bit-identical to a recorder-less run) plus the
    :class:`FidelityResult` accrued from the recorded movement.
    """
    from .levels import simulate_hierarchy_run

    recorder = ResidencyRecorder()
    result = simulate_hierarchy_run(
        stack,
        workload,
        policy,
        window=window,
        fetch=fetch,
        order=order,
        prefetch=prefetch,
        pipeline=pipeline,
        recorder=recorder,
    )
    recorder.finish(result.total_time_s)
    fidelity = accrue_residency(recorder, stack, trials=trials, seed=seed)
    return result, fidelity


__all__ = [
    "P_CAL",
    "FIDELITY_TRIALS",
    "FIDELITY_SEED",
    "Interval",
    "ResidencyRecorder",
    "LevelNoise",
    "StackNoise",
    "code_noise",
    "stack_noise",
    "FidelityResult",
    "accrue_residency",
    "simulate_fidelity_run",
]
