"""Mixed-workload analysis (Section VI).

Six applications with distinct communication patterns co-run on the system
(job sizes proportional to Table II).  Per-application interference is
measured against per-application standalone baselines (Fig. 10), and
system-wide behaviour is captured through stall-time maps (Fig. 11), the
congestion-index matrix (Fig. 12) and the system packet-latency distribution
and aggregate throughput (Fig. 13).

Two paths produce the Fig. 10 interference rows:

* :func:`mixed_study` runs the mix scenario plus its per-job baselines and
  returns a :class:`MixedResult` (full access to stats, stall maps,
  latencies);
* :func:`mixed_rows_from_store` reads previously recorded ``mixed/table2``
  and ``mixed/solo/<App>`` runs (see
  :func:`repro.experiments.scenario.mixed_solo_scenarios`) back out of a
  :class:`~repro.results.ResultStore` — same row schema, zero simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    import numpy as np

    from repro.results import ResultStore


import numpy as np

from repro.analysis.reports import ReportFilter
from repro.experiments.runner import RunResult
from repro.experiments.scenario import Scenario, mixed_scenario
from repro.metrics.congestion import congestion_index_matrix, stall_time_by_group
from repro.metrics.interference import InterferenceSummary, interference_summary
from repro.metrics.latency import LatencySummary, latency_summary

__all__ = ["MixedResult", "mixed_rows_from_store", "mixed_study"]

#: Scenario names the store-backed Fig. 10 rows are looked up under.
MIXED_SCENARIO_NAME = "mixed/table2"
MIXED_SOLO_PREFIX = "mixed/solo/"


@dataclass
class MixedResult:
    """Outcome of one mixed-workload run plus its standalone baselines."""

    routing: str
    mixed: RunResult
    standalone: Dict[str, RunResult]

    def app_summary(self, name: str) -> InterferenceSummary:
        """Interference summary of one application in the mix."""
        return interference_summary(self.standalone[name].record(name), self.mixed.record(name))

    def all_summaries(self) -> List[InterferenceSummary]:
        """Interference summaries of every application in the mix."""
        return [self.app_summary(name) for name in self.mixed.jobs]

    def mean_interference(self) -> float:
        """Mean relative communication-time increase over all applications."""
        increases = [s.comm_time_increase for s in self.all_summaries()]
        return float(np.mean(increases)) if increases else 0.0

    def system_latency(self) -> LatencySummary:
        """System-wide packet-latency distribution of the mixed run (Fig. 13a)."""
        return latency_summary(self.mixed.stats)

    def system_throughput(self) -> Tuple["np.ndarray", "np.ndarray"]:
        """(times, GB/ms) aggregate delivered-byte series (Fig. 13b)."""
        return self.mixed.stats.system_throughput_series()

    def mean_system_throughput(self) -> float:
        """Time-averaged aggregate throughput in GB/ms."""
        _, rates = self.system_throughput()
        return float(rates.mean()) if rates.size else 0.0

    def stall_map(self) -> dict:
        """Per-group stall-time aggregation of the mixed run (Fig. 11)."""
        return stall_time_by_group(self.mixed.network)

    def congestion_matrix(self) -> np.ndarray:
        """Group-by-group congestion-index matrix of the mixed run (Fig. 12)."""
        return congestion_index_matrix(self.mixed.network)


def mixed_study(
    scenario: Optional[Scenario] = None, solos: Optional[Sequence[Scenario]] = None
) -> MixedResult:
    """Run a mixed workload and one standalone baseline per job.

    ``scenario`` defaults to the ``mixed/table2`` preset.  ``solos`` default
    to one ``mixed/solo/<App>`` scenario per job: the job alone at its mixed
    size, under the mix's config and placement (what
    :func:`~repro.experiments.scenario.mixed_solo_scenarios` builds for the
    preset).
    """
    scenario = scenario if scenario is not None else mixed_scenario()
    if solos is None:
        solos = [
            Scenario(MIXED_SOLO_PREFIX + spec.name, (spec,), scenario.config, scenario.placement)
            for spec in scenario.jobs
        ]
    return MixedResult(
        routing=scenario.config.routing.algorithm,
        mixed=scenario.run(),
        standalone={solo.jobs[0].name: solo.run() for solo in solos},
    )


def mixed_rows_from_store(
    store: "ResultStore", where: ReportFilter = ReportFilter()
) -> List[dict]:
    """Fig. 10 interference rows built from a result store — no simulation.

    For every routing present among the recorded ``mixed/table2`` runs that
    match ``where``, compares each application's communication time in the
    mix against its ``mixed/solo/<App>`` standalone baseline (read through
    :meth:`ReportFilter.baseline`, as in
    :func:`repro.analysis.pairwise.comparison_rows`), aggregating across
    the matching seeds.  Raises ``ValueError`` when a required run is
    missing (populate the store by recording
    :func:`repro.experiments.scenario.mixed_scenario` and
    :func:`~repro.experiments.scenario.mixed_solo_scenarios` runs, e.g. via
    ``run_sweep(..., store=...)``).
    """
    from repro.results.store import ensure_comparable, ensure_uniform, mean_metric

    mixed_runs = where.runs(store, MIXED_SCENARIO_NAME)
    if not mixed_runs:
        raise ValueError(
            f"no stored {MIXED_SCENARIO_NAME!r} runs; populate the store with "
            f"'dragonfly-sim sweep --scenario {MIXED_SCENARIO_NAME} --store PATH'"
        )

    baseline = where.baseline()
    rows = []
    for routing in sorted({run.routing for run in mixed_runs}):
        mixes = [run for run in mixed_runs if run.routing == routing]
        ensure_uniform(mixes, MIXED_SCENARIO_NAME)
        for app in mixes[0].jobs:
            solos = [
                run
                for run in baseline.runs(store, f"{MIXED_SOLO_PREFIX}{app}")
                if run.routing == routing
            ]
            if not solos:
                raise ValueError(
                    f"no stored {MIXED_SOLO_PREFIX + app!r} baseline under routing "
                    f"{routing!r}; populate it with 'dragonfly-sim sweep --scenario "
                    f"{MIXED_SOLO_PREFIX}{app} --store PATH' (one per application "
                    "in the mix)"
                )
            ensure_uniform(solos, MIXED_SOLO_PREFIX + app)
            ensure_comparable(
                mixes + solos, f"{MIXED_SCENARIO_NAME} vs {MIXED_SOLO_PREFIX}{app}"
            )
            summary = InterferenceSummary(
                app=app,
                standalone_comm_ns=mean_metric(solos, "comm_time_ns", app),
                interfered_comm_ns=mean_metric(mixes, "comm_time_ns", app),
                standalone_std_ns=mean_metric(solos, "comm_time_std_ns", app),
                interfered_std_ns=mean_metric(mixes, "comm_time_std_ns", app),
            )
            rows.append({"routing": routing, **summary.as_dict()})
    return rows
