"""Analysis: regenerate every table and figure of the evaluation.

This package owns the reporting layer: each ``tableN()`` /
``figN()`` builder returns structured rows, each ``*_text()`` variant
renders them next to the published values
(:mod:`repro.analysis.paper_values`, the transcription the regression
tests pin against), and the ``*_from_store`` variants render straight
from a sharded-sweep result store without recomputing.
:mod:`repro.analysis.summary` reproduces the abstract's headline
claims and :mod:`repro.analysis.sensitivity` the beyond-the-paper
ablations.  ``docs/reproducing-the-paper.md`` maps every artifact to
its builder and pinning test.
"""

from . import paper_values, sensitivity
from .summary import Headline, compute_headline, headline_text
from .figures import (
    fig2,
    fig2_text,
    fig6a,
    fig6a_text,
    fig6b,
    fig6b_text,
    fig7,
    fig7_text,
    fig8a,
    fig8a_text,
    fig8b,
    fig8b_text,
)
from .report import format_series, format_table
from .tables import (
    EcMetricRow,
    all_tables_text,
    engine_table,
    engine_table_from_store,
    engine_table_text,
    engine_table_text_from_store,
    render_table_from_store,
    table1,
    table1_text,
    table2,
    table2_text,
    table3,
    table3_from_store,
    table3_rows,
    table3_text,
    table3_text_from_store,
    table4,
    table4_text,
    table5,
    table5_text,
)

__all__ = [
    "EcMetricRow",
    "Headline",
    "all_tables_text",
    "compute_headline",
    "engine_table",
    "engine_table_from_store",
    "engine_table_text",
    "engine_table_text_from_store",
    "headline_text",
    "fig2",
    "fig2_text",
    "fig6a",
    "fig6a_text",
    "fig6b",
    "fig6b_text",
    "fig7",
    "fig7_text",
    "fig8a",
    "fig8a_text",
    "fig8b",
    "fig8b_text",
    "format_series",
    "format_table",
    "paper_values",
    "render_table_from_store",
    "sensitivity",
    "table1",
    "table1_text",
    "table2",
    "table2_text",
    "table3",
    "table3_from_store",
    "table3_rows",
    "table3_text",
    "table3_text_from_store",
    "table4",
    "table4_text",
    "table5",
    "table5_text",
]
