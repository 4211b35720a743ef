"""Grid execution: store read-through, compute, reassembly.

:func:`compute_grid` is the one engine every sweep goes through — the
single-process :func:`repro.core.design_space.engine_sweep` call, a
``python -m repro.sweep run --shard i/K`` worker, and a ``resume`` after
a crash are all the same loop: skip cells whose record is already in
the store, run the rest through the supervised executor
(:func:`repro.perf.supervise.supervised_indexed`), persist each
finished group with one write, return rows in canonical grid order.
Engine and fidelity grids run each traffic group of cells as one unit
(:data:`TRAFFIC_GROUPED_KERNELS`), with one record per cell either way.

Without ``supervise=`` a run is fail-fast
(:data:`repro.perf.supervise.FAIL_FAST`): the first failed cell raises
:class:`CellFailed`, after every finished cell is stored.  A
:class:`repro.perf.supervise.Supervision` spec retries transient
faults, reaps hung cells, rebuilds dead workers, and *quarantines* a
cell that exhausts its retries — its classified failure lands as a
durable store record and its row slot stays ``None`` — rather than
killing the shard.

:func:`rows_from_store` is the read-only half — ``merge``, ``status``
and the table builders use it to reassemble a sweep without computing
anything, failing loudly (:class:`MissingCells`) when records are
absent or corrupt, unless ``allow_missing=True`` degrades gracefully
(``None`` placeholders in canonical positions; see
:func:`missing_report` for the failure footer data).
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from ..perf import chaos
from ..perf.store import ResultStore, resolve_store
from ..perf.supervise import (
    FAIL_FAST,
    CellFailure,
    Supervision,
    supervised_indexed,
)
from .grid import Cell, Grid

#: Grid kernels whose cells run in traffic groups: cells sharing one
#: :func:`repro.core.design_space.engine_traffic_key` simulate one
#: movement trace, re-priced per member.  Other kernels run per cell.
TRAFFIC_GROUPED_KERNELS = ("engine_cell", "fidelity_cell")


class MissingCells(ValueError):
    """A read-only reassembly found cells with no readable record."""

    def __init__(self, grid: Grid, keys: Tuple[str, ...]) -> None:
        self.keys = keys
        super().__init__(
            f"store is missing {len(keys)}/{len(grid)} cells of the "
            f"{grid.kernel} grid (run `python -m repro.sweep resume` to "
            f"compute them)"
        )


class CellFailed(RuntimeError):
    """A non-quarantine run hit a terminal cell failure.

    The message names the cell's exception; the exception itself is
    chained as ``__cause__``, so an uncaught ``CellFailed`` prints the
    cell's own traceback too.
    """

    def __init__(self, cell: Cell, failure: CellFailure) -> None:
        self.cell = cell
        self.failure = failure
        super().__init__(
            f"cell {cell.key} of the {cell.kernel} grid failed terminally "
            f"({failure.kind}: {failure.exception_type}: {failure.message} "
            f"after {failure.attempts} attempt(s))"
        )


@dataclass(frozen=True)
class _BatchKernel:
    """Picklable dispatcher for work items.

    A work item is ``("cell", params)`` or ``("group", (params, ...))``
    (the latter only on traffic-grouped grids); both return a *list*
    of rows so the runner maps results back uniformly.  Chaos faults
    fire per member — a scripted fault aimed at any one cell of a group
    poisons (and on retry, re-poisons) the whole group, which is the
    unit of supervised work.
    """

    cell_fn: Callable[[Dict[str, Any]], Any]
    group_fn: Optional[Callable[[Tuple[Dict[str, Any], ...]], List[Any]]]

    def __call__(self, item: Tuple[str, Any]) -> List[Any]:
        kind, payload = item
        plan = chaos.active_plan()
        if kind == "cell":
            if plan is not None:
                plan.before_cell(payload)
            return [self.cell_fn(payload)]
        if plan is not None:
            for params in payload:
                plan.before_cell(params)
        return list(self.group_fn(payload))


def _row_from_record(row_type: Type, value: Any) -> Optional[Any]:
    """Rebuild a row dataclass from a stored record value, or None.

    A record whose value does not match the row schema (wrong fields,
    wrong shape — e.g. written by an older layout) is treated exactly
    like a corrupt file: missing, to be recomputed.
    """
    if not isinstance(value, dict):
        return None
    try:
        return row_type(**value)
    except TypeError:
        return None


def compute_grid(
    grid: Grid,
    fn: Callable[[Dict[str, Any]], Any],
    row_type: Type,
    *,
    store=None,
    workers: Optional[int] = None,
    supervise: Optional[Supervision] = None,
) -> List[Any]:
    """Rows for every grid cell, reading through ``store`` when given.

    ``fn`` maps one cell's parameter dict to one ``row_type`` row (it
    must be module-level so pool workers can pickle it).  One bulk
    read finds the cells already in the store, which are not
    recomputed; freshly computed cells are persisted *as each group
    completes*, one ``put_many`` per group (completion order, so a slow
    group never delays the durability of faster ones — a worker killed
    mid-grid loses only its in-flight groups) with one batched
    index update at the end (the index is advisory; records are the
    truth and ``merge`` rebuilds it).  The returned list is always in
    canonical grid order, so a warm, cold, sharded, or mixed run yields
    the identical row sequence.

    Every run goes through
    :func:`repro.perf.supervise.supervised_indexed`, under ``supervise``
    or, by default, :data:`repro.perf.supervise.FAIL_FAST`.  A cell
    that exhausts its attempts is quarantined — a durable failure
    record replaces its result and its slot in the returned list is
    ``None`` — unless ``supervise.quarantine`` is False, in which case
    :class:`CellFailed` raises once every cell finished before the
    failure is stored.

    Engine and fidelity grids (:data:`TRAFFIC_GROUPED_KERNELS`) run
    through their registered cell function group their cells by
    :func:`repro.core.design_space.engine_traffic_key`; any other
    ``fn`` runs per cell.  Each group of two or more pending cells is
    *one* unit of execution — one pool task, one supervised attempt (a
    transient fault retries only its group, charged once), one
    per-group deadline scaled by member count — while the store still
    receives one record per member cell, byte-identical to the
    per-cell path, so cell keys, resume, quarantine and
    ``merge --verify`` are unaffected.  A terminal group failure
    quarantines every member, each failure record naming the full
    membership under ``"group_members"``.  Singleton groups and
    ungroupable cells run through ``fn``.
    """
    group_key, group_fn = _traffic_grouping(grid, fn)
    resolved: Optional[ResultStore] = resolve_store(store)
    cells = list(grid)
    rows: List[Any] = (
        [None] * len(cells)
        if resolved is None
        else _stored_rows(cells, row_type, resolved)
    )
    todo = [position for position, row in enumerate(rows) if row is None]
    written: Dict[str, Any] = {}
    try:
        _run(
            grid,
            fn,
            group_key,
            group_fn,
            cells,
            todo,
            rows,
            resolved,
            written,
            workers=workers,
            supervision=FAIL_FAST if supervise is None else supervise,
        )
    finally:
        if resolved is not None and written:
            resolved.index_add(written)
    return rows


def _traffic_grouping(
    grid: Grid,
    fn: Callable[[Dict[str, Any]], Any],
) -> Tuple[Optional[Callable], Optional[Callable]]:
    """``(group key, group kernel)``, or ``(None, None)`` to run per cell.

    Grouping needs ``fn`` to be the grid kernel's registered cell
    function: the group kernel computes the same rows, so a wrapped
    or foreign ``fn`` must not be bypassed.  Both returned callables
    are module-level (picklable), so groups run in pool workers.
    """
    registered, _ = kernel_registry().get(grid.kernel, (None, None))
    if grid.kernel not in TRAFFIC_GROUPED_KERNELS or registered is not fn:
        return None, None
    from ..core.design_space import engine_traffic_key, traffic_group_kernel

    return engine_traffic_key, traffic_group_kernel(grid.kernel)


def _run(
    grid: Grid,
    fn: Callable[[Dict[str, Any]], Any],
    group_key: Optional[Callable[[Dict[str, Any]], Optional[str]]],
    group_fn: Optional[Callable[[Tuple[Dict[str, Any], ...]], List[Any]]],
    cells: List[Cell],
    todo: List[int],
    rows: List[Any],
    resolved: Optional[ResultStore],
    written: Dict[str, Any],
    *,
    workers: Optional[int],
    supervision: Supervision,
) -> None:
    """The execution loop of :func:`compute_grid`.

    Work items are whole groups of two or more pending cells
    (first-appearance order, members in canonical grid order); a
    singleton group or an ungroupable cell (``group_key`` None or
    returning None) is a ``("cell", params)`` item through the same
    pipeline, so one sweep can mix both kinds.  Items persist in
    completion order, not input order: each finished item is persisted
    immediately, in one write, never queued behind a slower one.
    """
    members: List[List[int]] = []
    groups: Dict[str, List[int]] = {}
    for position in todo:
        token = None if group_key is None else group_key(cells[position].as_dict())
        if token is None:
            members.append([position])
        elif token in groups:
            groups[token].append(position)
        else:
            groups[token] = [position]
            members.append(groups[token])
    items: List[Tuple[str, Any]] = []
    for positions in members:
        params = tuple(cells[p].as_dict() for p in positions)
        items.append(("group", params) if len(params) > 1 else ("cell", params[0]))
    kernel = _BatchKernel(cell_fn=fn, group_fn=group_fn)

    def emit(offset: int, group_rows: Sequence[Any]) -> None:
        positions = members[offset]
        if len(group_rows) != len(positions):
            raise ValueError(
                f"batch kernel returned {len(group_rows)} rows for a "
                f"{len(positions)}-cell group of the {grid.kernel} grid"
            )
        for position, row in zip(positions, group_rows):
            rows[position] = row
        if resolved is None:
            return
        # One write per group; it also drops the members' stale failure
        # records — a healed cell must stop reporting as failed.
        written.update(
            resolved.put_many(
                (cells[p].key, asdict(row), cells[p].kernel, cells[p].as_dict())
                for p, row in zip(positions, group_rows)
            )
        )
        plan = chaos.active_plan()
        if plan is not None:
            # The "corrupt" chaos fault models a torn write surviving
            # persistence: it fires per member, after the group's
            # write landed, through the backend's own tear hook.
            for position in positions:
                cell = cells[position]
                resolved.chaos_tear(plan, cell.key, cell.as_dict())

    outcomes = supervised_indexed(
        kernel,
        items,
        workers=workers,
        supervision=supervision,
        weights=[float(len(positions)) for positions in members],
    )
    # Closing the stream on any exit (a CellFailed included) stops the
    # pool's workers before the exception leaves: its traceback would
    # otherwise keep the suspended stream, and its workers, alive.
    with closing(outcomes):
        for outcome in outcomes:
            positions = members[outcome.index]
            if outcome.ok:
                emit(outcome.index, outcome.value)
                continue
            if not supervision.quarantine:
                raise CellFailed(
                    cells[positions[0]], outcome.failure
                ) from outcome.exception
            if resolved is None:
                continue
            # One failure record per member, each naming the whole group:
            # a quarantined group must be diagnosable from any of its cells.
            record = outcome.failure.as_record()
            if len(positions) > 1:
                record["group_members"] = [cells[p].key for p in positions]
            for position in positions:
                cell = cells[position]
                resolved.put_failure(
                    cell.key,
                    record,
                    kernel=cell.kernel,
                    params=cell.as_dict(),
                )


def _stored_rows(cells: Sequence[Cell], row_type: Type, store) -> List[Any]:
    """Each cell's stored row, or None, from one bulk read."""
    found = store.records([cell.key for cell in cells])
    return [
        _row_from_record(row_type, found.get(cell.key, {}).get("value"))
        for cell in cells
    ]


def rows_from_store(
    grid: Grid, row_type: Type, store, *, allow_missing: bool = False
) -> List[Any]:
    """Reassemble a sweep from stored records only.

    Raises :class:`MissingCells` (listing the absent keys) if any cell
    has no readable, schema-valid record — a merge must never silently
    return a partial sweep.  ``allow_missing=True`` is the explicit
    graceful-degradation opt-in: the returned list keeps canonical grid
    length with ``None`` in each missing (e.g. quarantined) cell's
    position, so table renderers can show ``—`` cells with a failure
    footer instead of nothing at all.
    """
    resolved = resolve_store(store)
    if resolved is None:
        raise ValueError("rows_from_store requires a store")
    cells = list(grid)
    rows = _stored_rows(cells, row_type, resolved)
    missing = tuple(cell.key for cell, row in zip(cells, rows) if row is None)
    if missing and not allow_missing:
        raise MissingCells(grid, missing)
    return rows


def missing_report(grid: Grid, store) -> List[Tuple[Cell, Optional[Dict[str, Any]]]]:
    """Each cell lacking a readable record, with its failure if known.

    The data behind every graceful-degradation footer: a list of
    ``(cell, failure_record_or_None)`` pairs in canonical grid order.
    A ``None`` failure means the cell is merely missing (never
    computed, or torn); a dict is the durable quarantine record
    (``{"failure": {...}, "meta": {...}}``).
    """
    resolved = resolve_store(store)
    if resolved is None:
        raise ValueError("missing_report requires a store")
    found = resolved.records(grid.keys())
    return [
        (cell, resolved.failure(cell.key)) for cell in grid if cell.key not in found
    ]


def kernel_registry() -> Dict[str, Tuple[Callable[[Dict[str, Any]], Any], Type]]:
    """Kernel name -> (cell function, row type).

    The worker CLI resolves ``--kernel`` through it, and
    :func:`compute_grid` checks it before grouping.  Imported lazily:
    the design-space module itself imports this package for
    :func:`compute_grid`.
    """
    from ..core import design_space

    return {
        "engine_cell": (design_space.engine_cell, design_space.EngineRow),
        "fidelity_cell": (design_space.fidelity_cell, design_space.FidelityRow),
        "specialization_cell": (
            design_space.specialization_cell,
            design_space.SpecializationRow,
        ),
        "hierarchy_cell": (design_space.hierarchy_cell, design_space.HierarchyRow),
        "transfer_cell": (design_space.transfer_cell, design_space.TransferRow),
    }


def plan_shard(grid: Grid, index: int, count: int) -> Grid:
    """Shard ``index`` of a ``count``-way partition, groups kept whole.

    ``run`` computes and ``status`` reports exactly this sub-grid: cells
    of a traffic-grouped grid (:data:`TRAFFIC_GROUPED_KERNELS`) hash by
    their traffic key, so a group never splits across workers.
    """
    if grid.kernel not in TRAFFIC_GROUPED_KERNELS:
        return grid.shard(index, count)
    from ..core.design_space import engine_traffic_key

    return grid.shard(
        index, count, group_key=lambda cell: engine_traffic_key(cell.as_dict())
    )
