"""Grid execution: store read-through, compute, reassembly.

:func:`compute_grid` is the one engine every sweep goes through — the
single-process :func:`repro.core.design_space.engine_sweep` call, a
``python -m repro.sweep run --shard i/K`` worker, and a ``resume`` after
a crash are all the same loop: skip cells whose record is already in
the store, run the rest through the supervised executor
(:func:`repro.perf.supervise.supervised_indexed`), persist each
finished work item with one write, return rows in canonical grid order.
A work item is a tuple of cells: one traffic group of an engine or
fidelity grid (run by the kernel's group function), or one cell of any
other grid, with one record per cell either way.  Each grid kernel's
facts — cell function, row type, grid builder, group function — live
in one :class:`SweepKernel` record (:func:`kernel_registry`).

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


@dataclass(frozen=True)
class SweepKernel:
    """Everything the sweep machinery knows about one grid kernel.

    ``cell`` maps one cell's parameters to one ``row_type`` row;
    ``grid`` builds the kernel's canonical :class:`Grid` (its keyword
    parameters are the grid options the CLI accepts for the kernel).
    ``group`` maps a tuple of cells sharing one
    :func:`repro.core.design_space.engine_traffic_key` to their rows —
    one movement trace re-priced per member — and ``cell`` is its
    one-member case; it is None for kernels whose cells run one at a
    time (the Table 3/4/5 grids).
    """

    cell: Callable[[Dict[str, Any]], Any]
    row_type: Type
    grid: Callable[..., Grid]
    group: Optional[Callable[[Tuple[Dict[str, Any], ...]], List[Any]]] = None


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

    A work item is a tuple of cell parameter dicts and returns a list
    of rows, one per member.  With a ``group_fn`` the tuple is one
    traffic group (one member or more) and runs in one call; without
    one, every item is a one-tuple run through ``cell_fn``.  Chaos
    faults fire per member — a scripted fault aimed at any one cell of
    a group poisons (and on retry, re-poisons) the whole group, which
    is the unit of supervised work.
    """

    cell_fn: Callable[[Dict[str, Any]], Any]
    group_fn: Optional[Callable[[Tuple[Dict[str, Any], ...]], List[Any]]]

    def __call__(self, members: Tuple[Dict[str, Any], ...]) -> List[Any]:
        plan = chaos.active_plan()
        if plan is not None:
            for params in members:
                plan.before_cell(params)
        if self.group_fn is None:
            return [self.cell_fn(params) for params in members]
        return list(self.group_fn(members))


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

    A grid whose kernel has a group function (:class:`SweepKernel`),
    run through its registered cell function, groups its pending cells
    by :func:`repro.core.design_space.engine_traffic_key`; a
    time-coupled (prefetching) cell has no traffic key and is a group
    of one.  Every group, one member or more, runs through the group
    function as *one* unit of execution — one pool task, one supervised
    attempt (a transient fault retries only its group, charged once),
    one per-group deadline scaled by member count — while the store
    still receives one record per member cell, so cell keys, resume,
    quarantine and ``merge --verify`` do not depend on the grouping.  A
    terminal failure of a group of two or more quarantines every
    member, each failure record naming the full membership under
    ``"group_members"``.  Any other ``fn`` runs one cell at a time.
    """
    group_fn = _group_function(grid, fn)
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
            _BatchKernel(cell_fn=fn, group_fn=group_fn),
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


def _group_function(
    grid: Grid, fn: Callable[[Dict[str, Any]], Any]
) -> Optional[Callable[[Tuple[Dict[str, Any], ...]], List[Any]]]:
    """The group function ``grid`` runs through, or None to run per cell.

    Grouping needs ``fn`` to be the grid kernel's registered cell
    function: the group function computes the same rows, so a wrapped
    or foreign ``fn`` must not be bypassed.  The returned function is
    module-level (picklable), so groups run in pool workers.
    """
    spec = kernel_registry().get(grid.kernel)
    if spec is None or spec.cell is not fn:
        return None
    return spec.group


def _run(
    grid: Grid,
    kernel: _BatchKernel,
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

    Work items are tuples of pending cells: with a group function, one
    per traffic group (first-appearance order, members in canonical
    grid order; a time-coupled cell alone); without one, one per cell.
    Items persist in completion order, not input order: each finished
    item is persisted immediately, in one write, never queued behind a
    slower one.
    """
    if kernel.group_fn is None:
        members = [[position] for position in todo]
    else:
        from ..core.design_space import engine_traffic_key

        groups: Dict[Any, List[int]] = {}
        for position in todo:
            token = engine_traffic_key(cells[position].as_dict())
            # A time-coupled cell has no traffic key: a group of its own.
            groups.setdefault(position if token is None else token, []).append(
                position
            )
        members = list(groups.values())
    items = [tuple(cells[p].as_dict() for p in positions) for positions in members]

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


def failure_reason(record: Optional[Dict[str, Any]]) -> str:
    """Why a cell has no row, from its failure record (or None).

    The one wording of every failure footer and CLI report, e.g.
    ``"exception (ChaosFault after 2 attempt(s))"``.
    """
    if not record:
        return "no record (never computed, or torn)"
    failure = record.get("failure", {})
    return (
        f"{failure.get('kind', '?')} ({failure.get('exception_type', '?')} "
        f"after {failure.get('attempts', '?')} attempt(s))"
    )


def kernel_registry() -> Dict[str, SweepKernel]:
    """Kernel name -> its :class:`SweepKernel` record.

    The worker CLI resolves ``--kernel`` and its grid options through
    it, :func:`compute_grid` and :func:`plan_shard` read the group
    function from it.  Built per call from the design-space module's
    attributes (so a patched cell or group function is the registered
    one) and imported lazily: that module itself imports this one for
    :func:`compute_grid`.
    """
    from ..core import design_space as ds

    return {
        "engine_cell": SweepKernel(
            ds.engine_cell, ds.EngineRow, ds.engine_grid, ds.engine_batch_cell
        ),
        "fidelity_cell": SweepKernel(
            ds.fidelity_cell, ds.FidelityRow, ds.fidelity_grid, ds.fidelity_batch_cell
        ),
        "specialization_cell": SweepKernel(
            ds.specialization_cell, ds.SpecializationRow, ds.specialization_grid
        ),
        "hierarchy_cell": SweepKernel(
            ds.hierarchy_cell, ds.HierarchyRow, ds.hierarchy_grid
        ),
        "transfer_cell": SweepKernel(
            ds.transfer_cell, ds.TransferRow, ds.transfer_grid
        ),
    }


def plan_shard(grid: Grid, index: int, count: int) -> Grid:
    """Shard ``index`` of a ``count``-way partition, groups kept whole.

    ``run`` computes and ``status`` reports exactly this sub-grid: cells
    of a kernel with a group function hash by their traffic key, so a
    group never splits across workers.
    """
    spec = kernel_registry().get(grid.kernel)
    if spec is None or spec.group is None:
        return grid.shard(index, count)
    from ..core.design_space import engine_traffic_key

    return grid.shard(
        index, count, group_key=lambda cell: engine_traffic_key(cell.as_dict())
    )
