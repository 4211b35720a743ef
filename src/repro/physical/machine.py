"""A cycle-level executor for ion-trap micro-schedules.

This is the microarchitectural substrate of the reproduction: ions live
at trapping-region coordinates on a :class:`~repro.physical.layout.GridSpec`,
and a schedule of fundamental operations (gates, moves, splits, cooling,
measurement) is executed cycle by cycle.  Trapping regions are a shared
resource — a region may host at most ``capacity`` ions and a junction may
pass one ion per cycle — so the executor resolves contention by stalling,
exactly the serialization effect the paper identifies at the
microarchitecture level.

The executor reports the makespan in fundamental cycles and the
accumulated failure probability of the schedule, which feed the
error-correction timing models in :mod:`repro.ecc.schedule`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .layout import Coord, GridSpec, manhattan, route
from .params import DEFAULT_PARAMS, Op, PhysicalParams


@dataclass(frozen=True)
class MicroOp:
    """One fundamental operation on named ions.

    ``op`` is the physical primitive; ``ions`` names the participating
    ions (one for single-qubit ops, two for two-qubit gates); ``dest`` is
    the target region for :data:`Op.MOVE`.
    """

    op: Op
    ions: Tuple[str, ...]
    dest: Optional[Coord] = None

    def __post_init__(self) -> None:
        if self.op is Op.DOUBLE_GATE and len(self.ions) != 2:
            raise ValueError("two-qubit gates take exactly two ions")
        if self.op is Op.MOVE and self.dest is None:
            raise ValueError("moves need a destination region")
        if self.op is not Op.DOUBLE_GATE and self.op is not Op.MOVE:
            if len(self.ions) != 1:
                raise ValueError(f"{self.op} takes exactly one ion")


@dataclass
class ExecutionResult:
    """Outcome of running a micro-schedule."""

    cycles: int
    op_counts: Dict[Op, int]
    failure_probability: float
    stall_cycles: int

    @property
    def duration_us(self) -> float:
        from .params import CYCLE_TIME_US

        return self.cycles * CYCLE_TIME_US

    @property
    def duration_s(self) -> float:
        return self.duration_us / 1.0e6


class ContentionError(RuntimeError):
    """Raised when a schedule is physically impossible (overfull region)."""


@dataclass
class TrapMachine:
    """Cycle-level state of a patch of the ion-trap grid.

    Ions are registered by name at initial coordinates.  The machine then
    executes *steps*: groups of :class:`MicroOp` intended to run in
    parallel.  Ops within a step that contend for the same region or
    junction are serialized into later cycles automatically.
    """

    grid: GridSpec
    params: PhysicalParams = field(default_factory=lambda: DEFAULT_PARAMS)

    def __post_init__(self) -> None:
        self._positions: Dict[str, Coord] = {}
        self._clock = 0
        self._stalls = 0
        self._op_counts: Dict[Op, int] = {op: 0 for op in Op}
        self._log_success = 0.0  # sum of log(1 - p) over executed ops
        self._moves_since_cool: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # setup / inspection
    # ------------------------------------------------------------------
    def add_ion(self, name: str, coord: Coord) -> None:
        if name in self._positions:
            raise ValueError(f"ion {name!r} already placed")
        if not self.grid.contains(coord):
            raise ValueError(f"{coord} outside grid")
        if self._occupancy(coord) >= self.grid.capacity:
            raise ContentionError(f"region {coord} is full")
        self._positions[name] = coord
        self._moves_since_cool[name] = 0

    def position(self, name: str) -> Coord:
        return self._positions[name]

    def ions(self) -> List[str]:
        return sorted(self._positions)

    @property
    def clock(self) -> int:
        return self._clock

    def _occupancy(self, coord: Coord) -> int:
        return sum(1 for c in self._positions.values() if c == coord)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, steps: Sequence[Sequence[MicroOp]]) -> ExecutionResult:
        """Execute a schedule of parallel steps; return the result."""
        for step in steps:
            self._run_step(list(step))
        import math

        failure = 1.0 - math.exp(self._log_success)
        return ExecutionResult(
            cycles=self._clock,
            op_counts=dict(self._op_counts),
            failure_probability=failure,
            stall_cycles=self._stalls,
        )

    def _run_step(self, ops: List[MicroOp]) -> None:
        """Run one intended-parallel step, serializing on contention.

        Every op in the step starts no earlier than the step's start time;
        the step ends when its slowest op ends.  Junctions pass one ion
        per cycle, so two moves crossing the same region serialize.
        """
        start = self._clock
        end = start
        # junction reservation table: (cycle, region) -> taken
        reserved: Dict[Tuple[int, Coord], bool] = {}
        for op in ops:
            finish = self._issue(op, start, reserved)
            end = max(end, finish)
        self._clock = end

    def _issue(
        self,
        op: MicroOp,
        start: int,
        reserved: Dict[Tuple[int, Coord], bool],
    ) -> int:
        if op.op is Op.MOVE:
            return self._issue_move(op, start, reserved)
        for ion in op.ions:
            if ion not in self._positions:
                raise KeyError(f"unknown ion {ion!r}")
        if op.op is Op.DOUBLE_GATE:
            a, b = (self._positions[i] for i in op.ions)
            if a != b:
                raise ContentionError(
                    "two-qubit gate requires co-located ions "
                    f"({op.ions[0]} at {a}, {op.ions[1]} at {b})"
                )
        self._account(op.op, n=1)
        return start + self.params.cycles(op.op)

    def _issue_move(
        self,
        op: MicroOp,
        start: int,
        reserved: Dict[Tuple[int, Coord], bool],
    ) -> int:
        ion = op.ions[0]
        src = self._positions[ion]
        dest = op.dest
        assert dest is not None
        if not self.grid.contains(dest):
            raise ValueError(f"{dest} outside grid")
        path = route(src, dest)
        hops = len(path) - 1
        if hops == 0:
            return start
        # Destination must have room (the moving ion vacates its source).
        if self._occupancy(dest) >= self.grid.capacity:
            raise ContentionError(f"destination {dest} is full")
        cycles_per_hop = self.params.cycles(Op.MOVE)
        t = start
        for waypoint in path[1:]:
            # wait for a free junction slot into `waypoint`
            while reserved.get((t, waypoint), False):
                t += 1
                self._stalls += 1
            reserved[(t, waypoint)] = True
            t += cycles_per_hop
        self._positions[ion] = dest
        self._account(Op.MOVE, n=hops)
        self._moves_since_cool[ion] = self._moves_since_cool.get(ion, 0) + hops
        return t

    def _account(self, op: Op, n: int) -> None:
        import math

        self._op_counts[op] += n
        p = self.params.failure_rate(op)
        if p > 0.0:
            if p >= 1.0:
                raise ValueError("failure rate must be < 1")
            self._log_success += n * math.log1p(-p)

    # ------------------------------------------------------------------
    # convenience builders
    # ------------------------------------------------------------------
    def gate_step(self, *ions: str) -> List[MicroOp]:
        """A step applying one gate over the given ions (1 or 2)."""
        if len(ions) == 1:
            return [MicroOp(Op.SINGLE_GATE, ions)]
        if len(ions) == 2:
            return [MicroOp(Op.DOUBLE_GATE, ions)]
        raise ValueError("gate_step takes one or two ions")


def interaction_cost_cycles(
    grid: GridSpec,
    a: Coord,
    b: Coord,
    params: PhysicalParams = DEFAULT_PARAMS,
) -> int:
    """Cycles to bring two ions together, gate, and return the mover.

    This closed-form helper mirrors what :class:`TrapMachine` computes for
    an uncontended interaction: move one ion to the other (Manhattan
    distance), apply the two-qubit gate, and move it home.
    """
    hops = manhattan(a, b)
    move = params.cycles(Op.MOVE)
    gate = params.cycles(Op.DOUBLE_GATE)
    return 2 * hops * move + gate
