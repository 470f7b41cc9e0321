"""Persistent experiment results: the store and its row schema.

This package is the repository's system of record for simulation results:

* :mod:`repro.results.schema` — the flat ``metric[/app]`` key schema every
  run is reduced to (:func:`~repro.results.schema.flatten_run`);
* :mod:`repro.results.store` — :class:`~repro.results.store.ResultStore`, an
  append-only SQLite database of immutable runs keyed by
  :func:`~repro.experiments.scenario.scenario_hash`, with query/aggregation
  APIs.

The sweep (:mod:`repro.experiments.sweep`) caches through the store, the
benchmark drivers record into it, and the report builders
(:mod:`repro.analysis.reports`, ``dragonfly-sim report``) render the paper's
tables straight from it.  See ``docs/results.md``.
"""

from repro.results.schema import METRIC_SEP, flatten_run, join_metric, split_metric
from repro.results.store import (
    DEFAULT_STORE_PATH,
    ResultStore,
    StoredResult,
    ensure_comparable,
    ensure_uniform,
    mean_metric,
)

__all__ = [
    "DEFAULT_STORE_PATH",
    "METRIC_SEP",
    "ResultStore",
    "StoredResult",
    "ensure_comparable",
    "ensure_uniform",
    "flatten_run",
    "join_metric",
    "mean_metric",
    "split_metric",
]
