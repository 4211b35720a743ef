"""Builders regenerating every table of the paper's evaluation.

Each ``tableN()`` returns structured data; each ``tableN_text()``
renders it in the shape of the published table, with paper values
alongside where they exist for direct comparison.

The ``*_from_store`` variants (and the backend-agnostic
:func:`render_table_from_store` behind the sweep service) render from
sharded-sweep records without computing anything; their ``store``
argument is anything :func:`repro.perf.store.resolve_store` accepts —
a directory, an ``fs:DIR`` / ``sqlite:PATH`` locator, or a backend
instance from :mod:`repro.perf.backends`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.design_space import (
    EngineRow,
    FidelityRow,
    HierarchyRow,
    SpecializationRow,
    TransferRow,
    engine_sweep,
    hierarchy_sweep,
    pareto_rows,
    specialization_sweep,
    transfer_sweep,
)
from ..ecc.concatenated import by_key
from ..ecc.transfer import standard_points, transfer_time_s
from ..physical.params import Op, future_params, now_params
from . import paper_values
from .report import format_table

CODE_KEYS = ("steane", "bacon_shor")
LEVELS = (1, 2)


# ----------------------------------------------------------------------
# Table 1 — physical parameters
# ----------------------------------------------------------------------

def table1() -> List[Tuple[str, float, float, float, float]]:
    """Rows of (operation, now us, future us, now fail, future fail)."""
    now, future = now_params(), future_params()
    rows = []
    for op in Op:
        rows.append((
            op.value,
            now.duration_us(op),
            future.duration_us(op),
            now.failure_rate(op),
            future.failure_rate(op),
        ))
    return rows


def table1_text() -> str:
    return format_table(
        ["operation", "time now (us)", "time future (us)",
         "fail now", "fail future"],
        table1(),
        title="Table 1: physical ion-trap operation parameters",
    )


# ----------------------------------------------------------------------
# Table 2 — error-correction metric summary
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EcMetricRow:
    """One (code, level) row of the Table 2 reproduction."""

    code_key: str
    level: int
    ec_time_s: float
    qubit_area_mm2: float
    transversal_time_s: float
    data_qubits: int
    ancilla_qubits: int


def table2() -> List[EcMetricRow]:
    rows = []
    for code_key in CODE_KEYS:
        code = by_key(code_key)
        for level in LEVELS:
            rows.append(EcMetricRow(
                code_key=code_key,
                level=level,
                ec_time_s=code.ec_time_s(level),
                qubit_area_mm2=code.qubit_area_mm2(level),
                transversal_time_s=code.transversal_gate_time_s(level),
                data_qubits=code.data_ions(level),
                ancilla_qubits=code.ancilla_ions(level),
            ))
    return rows


def table2_text() -> str:
    body = []
    for row in table2():
        key = (row.code_key, row.level)
        body.append([
            f"{row.code_key}-L{row.level}",
            row.ec_time_s, paper_values.EC_TIME_S[key],
            row.qubit_area_mm2, paper_values.QUBIT_AREA_MM2[key],
            row.transversal_time_s, paper_values.TRANSVERSAL_TIME_S[key],
            row.data_qubits, paper_values.QUBIT_COUNTS[key][0],
            row.ancilla_qubits, paper_values.QUBIT_COUNTS[key][1],
        ])
    return format_table(
        ["code", "EC (s)", "paper", "area mm2", "paper",
         "gate (s)", "paper", "data", "paper", "ancilla", "paper"],
        body,
        title="Table 2: error correction metric summary (measured vs paper)",
    )


# ----------------------------------------------------------------------
# Table 3 — transfer network latencies
# ----------------------------------------------------------------------

def table3() -> Dict[Tuple[str, str], float]:
    """The full 4x4 transfer matrix keyed by (source, dest) labels.

    Off-diagonal cells (different code families) are the cross-code
    boundary prices a mixed-code :class:`~repro.sim.levels.HierarchyStack`
    builds its transfer networks from.
    """
    points = standard_points()
    return {
        (src.label, dst.label): transfer_time_s(src, dst)
        for src in points
        for dst in points
    }


def table3_rows() -> List[TransferRow]:
    """Table 3 as sweep rows (the :func:`transfer_sweep` enumeration)."""
    return transfer_sweep()


def table3_from_store(store, *, allow_missing: bool = False) -> List[TransferRow]:
    """Table 3 rows read straight from a sharded-sweep result store.

    ``store`` is a directory path or :class:`repro.perf.store.ResultStore`
    filled by ``python -m repro.sweep run --kernel transfer_cell``
    workers.  Nothing is computed: a store missing any of the 16 cells
    raises :class:`repro.sweep.runner.MissingCells` — unless
    ``allow_missing=True``, which returns ``None`` placeholders so the
    renderer can degrade to ``—`` cells.
    """
    from ..core.design_space import transfer_grid
    from ..sweep.runner import rows_from_store

    return rows_from_store(
        transfer_grid(), TransferRow, store, allow_missing=allow_missing
    )


def _render_table3(rows: List[Optional[TransferRow]]) -> str:
    """The measured matrix with the published value beside each cell.

    ``None`` entries (quarantined/missing cells from an
    ``allow_missing`` load) render as ``—`` against the full
    :func:`~repro.ecc.transfer.standard_points` axes, with a footer
    counting the holes — a degraded table is visibly degraded.
    """
    present = [row for row in rows if row is not None]
    matrix = {(row.source, row.dest): row.transfer_s for row in present}
    if len(present) < len(rows):
        points = [p.label for p in standard_points()]
    else:
        seen = {row.source for row in present}
        points = [p for p in (x.label for x in standard_points()) if p in seen]
    body = []
    for src in points:
        cells = [src]
        for dst in points:
            value = matrix.get((src, dst))
            if value is None:
                cells.append("—")
                continue
            paper = paper_values.TRANSFER_S.get((src, dst))
            paper_text = "?" if paper is None else f"{paper:g}"
            cells.append(f"{value:.3g} ({paper_text})")
        body.append(cells)
    text = format_table(
        ["from \\ to"] + points,
        body,
        title="Table 3: transfer network latency, "
              "measured (paper) in seconds",
    )
    return text + _holes_footer(rows)


def table3_text() -> str:
    return _render_table3(table3_rows())


def table3_text_from_store(store, *, allow_missing: bool = False) -> str:
    """:func:`table3_text`, but rendered from stored records only."""
    return _render_table3(table3_from_store(store, allow_missing=allow_missing))


# ----------------------------------------------------------------------
# Table 4 — specialization results
# ----------------------------------------------------------------------

def table4() -> List[SpecializationRow]:
    return specialization_sweep()


def table4_text() -> str:
    by_config: Dict[Tuple[int, int], Dict[str, SpecializationRow]] = {}
    for row in table4():
        by_config.setdefault((row.n_bits, row.n_blocks), {})[row.code_key] = row
    body = []
    for (n_bits, n_blocks), codes in sorted(by_config.items()):
        st, bs = codes["steane"], codes["bacon_shor"]
        p_st = paper_values.TABLE4[(n_bits, n_blocks, "steane")]
        p_bs = paper_values.TABLE4[(n_bits, n_blocks, "bacon_shor")]
        body.append([
            n_bits, n_blocks,
            st.area_reduction, p_st[0], bs.area_reduction, p_bs[0],
            st.speedup, p_st[1], bs.speedup, p_bs[1],
            st.gain_product, p_st[2], bs.gain_product, p_bs[2],
        ])
    return format_table(
        ["bits", "blocks",
         "R st", "paper", "R bsr", "paper",
         "S st", "paper", "S bsr", "paper",
         "GP st", "paper", "GP bsr", "paper"],
        body,
        title="Table 4: CQLA modular exponentiation (measured vs paper)",
    )


# ----------------------------------------------------------------------
# Table 5 — memory hierarchy results
# ----------------------------------------------------------------------

def table5() -> List[HierarchyRow]:
    return hierarchy_sweep()


def table5_text() -> str:
    body = []
    for row in table5():
        paper = paper_values.TABLE5[
            (row.code_key, row.parallel_transfers, row.n_bits)
        ]
        body.append([
            row.code_key, row.parallel_transfers, row.n_bits,
            row.l1_speedup, paper[0],
            row.l2_speedup, paper[1],
            row.adder_speedup, paper[2],
            row.area_reduction, paper[3],
            row.gain_product, paper[4],
        ])
    return format_table(
        ["code", "par", "bits",
         "S L1", "paper", "S L2", "paper",
         "S adder", "paper", "R", "paper", "GP", "paper"],
        body,
        title="Table 5: memory hierarchy results (measured vs paper)",
    )


def all_tables_text() -> str:
    """Every table, ready for EXPERIMENTS.md or the console."""
    return "\n\n".join([
        table1_text(), table2_text(), table3_text(),
        table4_text(), table5_text(),
    ])


# ----------------------------------------------------------------------
# Extension — generalized-engine design space (not a paper table)
# ----------------------------------------------------------------------

def engine_table(**kwargs) -> List[EngineRow]:
    """Rows of the (depth, policy, workload, prefetch) engine sweep.

    Keyword arguments pass straight through to
    :func:`repro.core.design_space.engine_sweep`.
    """
    return engine_sweep(**kwargs)


def engine_table_from_store(
    store, *, allow_missing: bool = False, **grid_kwargs
) -> List[EngineRow]:
    """Engine-sweep rows read straight from a sharded-sweep result store.

    ``store`` is a directory path or :class:`repro.perf.store.ResultStore`
    filled by ``python -m repro.sweep run`` workers; ``grid_kwargs``
    select the grid exactly as for
    :func:`repro.core.design_space.engine_grid`.  Nothing is computed:
    a store missing (or holding corrupt records for) any grid cell
    raises :class:`repro.sweep.runner.MissingCells`, so a table can
    never silently render from a partial sweep — unless
    ``allow_missing=True``, which keeps ``None`` placeholders for the
    renderer's ``—`` cells and failure footer.
    """
    from ..core.design_space import engine_grid
    from ..sweep.runner import rows_from_store

    return rows_from_store(
        engine_grid(**grid_kwargs), EngineRow, store, allow_missing=allow_missing
    )


def _code_label(code_key, memory_code_key) -> str:
    """The ``code`` column: the compute family, ``/memory`` if mixed."""
    if memory_code_key != code_key:
        return f"{code_key}/{memory_code_key}"
    return code_key


def _missing_axes(grid, index: int) -> list:
    """A missing row's axis columns, from its cell in ``grid`` if known."""
    params = grid.cells[index].as_dict() if grid is not None else {}
    code = params.get("code_key", "?")
    return [
        params.get("workload", "?"), params.get("n_bits", "?"),
        _code_label(code, params.get("memory_code_key", code)),
        params.get("depth", "?"), params.get("policy", "?"),
        params.get("prefetch", "?"),
    ]


def _holes_footer(rows, grid=None, store=None) -> str:
    """The degraded-table footer: the hole count, then with ``grid``
    and ``store`` each hole's key and failure reason (the data of
    :func:`repro.sweep.runner.missing_report`)."""
    holes = [index for index, row in enumerate(rows) if row is None]
    if not holes:
        return ""
    text = f"\n({len(holes)} cell(s) missing/quarantined, rendered as —)"
    if grid is None or store is None:
        return text
    from ..sweep.runner import failure_reason, missing_report

    failures = {cell.key: record for cell, record in missing_report(grid, store)}
    keys = [grid.cells[index].key for index in holes]
    return text + "".join(
        f"\n  missing {key}: {failure_reason(failures.get(key))}" for key in keys
    )


def _render_engine_table(
    rows: List[Optional[EngineRow]], grid=None, store=None
) -> str:
    """The engine table; ``None`` rows degrade to ``—`` measured columns.

    A ``None`` row's axis columns come from ``grid`` (the canonical
    cell enumeration the rows were loaded against) so the reader still
    sees *which* configuration is missing; ``store`` supplies the
    quarantine reason for the footer when it holds a failure record.
    """
    body = []
    for index, row in enumerate(rows):
        if row is None:
            body.append(_missing_axes(grid, index) + ["—"] * 5)
            continue
        body.append([
            row.workload, row.n_bits,
            _code_label(row.code_key, row.memory_code_key), row.depth,
            row.policy, row.prefetch, row.hit_rate, row.speedup,
            row.transfer_bound_fraction, row.transfers, row.makespan_s,
        ])
    text = format_table(
        ["workload", "bits", "code", "depth", "policy", "prefetch",
         "hit rate", "speedup", "xfer-bound", "transfers", "makespan"],
        body,
        title=("Extension: hierarchy-engine design space "
               "(depth x policy x workload x prefetch; "
               "code is compute[/memory] family)"),
    )
    return text + _holes_footer(rows, grid, store)


def engine_table_text(**kwargs) -> str:
    """The engine design space rendered like the paper tables.

    The ``makespan`` column is the simulated compute-level completion
    time; comparing a workload's ``none`` row (demand fetching on the
    reservation model) against its prefetcher rows (split-transaction
    model) reads off the transfer-overlap win directly.
    """
    return _render_engine_table(engine_table(**kwargs))


def engine_table_text_from_store(
    store, *, allow_missing: bool = False, **grid_kwargs
) -> str:
    """:func:`engine_table_text`, but rendered from stored records only.

    ``allow_missing=True`` renders a degraded table (``—`` measured
    columns, a footer naming each hole and its quarantine reason)
    instead of raising on an incomplete store.
    """
    from ..core.design_space import engine_grid

    return render_table_from_store(
        engine_grid(**grid_kwargs), store, allow_missing=allow_missing
    )


# ----------------------------------------------------------------------
# Extension — time-vs-fidelity pareto (noise-aware residency)
# ----------------------------------------------------------------------

def _render_fidelity_table(
    rows: List[Optional[FidelityRow]], grid=None, store=None
) -> str:
    """The time-vs-fidelity table; ``*`` marks the Pareto front.

    The front is computed per problem instance — each (workload, bits)
    group, since everything else on the row (stack codes, depth,
    policy, prefetcher, port width) is a design choice — by
    :func:`repro.core.design_space.pareto_rows`.  ``None`` rows degrade
    exactly as in :func:`_render_engine_table`.
    """
    groups: Dict[Tuple[str, int], List[FidelityRow]] = {}
    for row in rows:
        if row is not None:
            groups.setdefault((row.workload, row.n_bits), []).append(row)
    on_front = set()
    for group in groups.values():
        on_front.update(id(row) for row in pareto_rows(group))
    body = []
    for index, row in enumerate(rows):
        if row is None:
            body.append(_missing_axes(grid, index) + ["—", "—", "—", ""])
            continue
        body.append([
            row.workload, row.n_bits,
            _code_label(row.code_key, row.memory_code_key), row.depth,
            row.policy, row.prefetch, row.makespan_s, row.logical_error,
            row.transit_error,
            "*" if id(row) in on_front else "",
        ])
    text = format_table(
        ["workload", "bits", "code", "depth", "policy", "prefetch",
         "makespan", "logical err", "transit err", "pareto"],
        body,
        title=("Extension: time vs fidelity "
               "(* = pareto front within each workload x bits group)"),
    )
    text += ("\n(* marks rows no other design in the group beats on both "
             "makespan and logical error)")
    return text + _holes_footer(rows, grid, store)


#: Grid kernels with a registered table renderer (grid, rows -> text).
_STORE_RENDERERS = {
    "engine_cell": lambda grid, rows, store: _render_engine_table(
        rows, grid=grid, store=store
    ),
    "fidelity_cell": lambda grid, rows, store: _render_fidelity_table(
        rows, grid=grid, store=store
    ),
    "transfer_cell": lambda grid, rows, store: _render_table3(rows),
}


def render_table_from_store(grid, store, *, allow_missing: bool = False) -> str:
    """Render ``grid``'s table from any store backend, computing nothing.

    The backend-agnostic entry point behind the sweep service's
    ``/v1/table`` endpoint and the ``*_text_from_store`` wrappers:
    ``store`` is anything :func:`repro.perf.store.resolve_store`
    accepts — a directory, an ``fs:DIR`` / ``sqlite:PATH`` locator, or
    a backend instance — and ``grid`` selects both the cell enumeration
    and the renderer (``engine_cell`` -> the engine design-space table,
    ``fidelity_cell`` -> the time-vs-fidelity table, ``transfer_cell``
    -> Table 3).  Identical records render to
    byte-identical text whichever backend holds them; the CI
    ``sweep-service`` job asserts exactly that across fs and sqlite.
    """
    renderer = _STORE_RENDERERS.get(grid.kernel)
    if renderer is None:
        raise ValueError(
            f"no table renderer for {grid.kernel} grids "
            f"(renderable: {', '.join(sorted(_STORE_RENDERERS))})"
        )
    from ..sweep.runner import kernel_registry, rows_from_store

    row_type = kernel_registry()[grid.kernel].row_type
    rows = rows_from_store(grid, row_type, store, allow_missing=allow_missing)
    return renderer(grid, rows, store)
