"""Interference analysis: the pairwise and mixed-workload studies + reports.

:mod:`repro.analysis.pairwise` and :mod:`repro.analysis.mixed` run the
scenarios of the two studies of the paper's evaluation (Sections V and VI)
and also offer store-backed row builders
(:func:`~repro.analysis.pairwise.comparison_rows`,
:func:`~repro.analysis.mixed.mixed_rows_from_store`) that build the
comparison rows from a :class:`~repro.results.ResultStore` without
simulating.  :mod:`repro.analysis.reports` renders rows as plain-text, CSV
or Markdown tables and hosts the named report builders behind
``dragonfly-sim report`` (see docs/results.md); every store-backed builder
reads the runs one :class:`~repro.analysis.reports.ReportFilter` selects.
"""

from repro.analysis.pairwise import PairwiseResult, comparison_rows, pairwise_study
from repro.analysis.mixed import MixedResult, mixed_rows_from_store, mixed_study
from repro.analysis.reports import (
    ReportFilter,
    build_report,
    format_csv,
    format_markdown,
    format_table,
    render_rows,
    table1_rows,
    table2_rows,
)

__all__ = [
    "MixedResult",
    "PairwiseResult",
    "ReportFilter",
    "build_report",
    "comparison_rows",
    "format_csv",
    "format_markdown",
    "format_table",
    "mixed_rows_from_store",
    "mixed_study",
    "pairwise_study",
    "render_rows",
    "table1_rows",
    "table2_rows",
]
