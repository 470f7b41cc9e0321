"""Pairwise workload analysis (Section V).

A *pairwise study* co-runs one target application with one background
application (or none) under one routing algorithm and compares the target's
communication behaviour against its standalone baseline: communication time
and its variation (Fig. 4), application throughput over time (Figs 5, 9) and
packet-latency distributions (Figs 6, 7).

* :func:`pairwise_study` runs the ``pairwise/<T>`` baseline and the
  ``pairwise/<T>+<B>`` co-run scenarios and returns a
  :class:`PairwiseResult` (full access to stats, time series, latencies);
* :func:`comparison_rows` builds the Fig. 4 comparison rows from recorded
  runs of those scenarios in a :class:`~repro.results.ResultStore`, with
  zero simulation.  It is the only Fig. 4 row builder: the ``pairwise``
  command records its runs into an in-memory store and reports from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    import numpy as np

    from repro.results import ResultStore

from repro.analysis.reports import ReportFilter
from repro.config import SimulationConfig
from repro.experiments.runner import RunResult
from repro.experiments.scenario import Scenario, pairwise_scenario
from repro.metrics.interference import InterferenceSummary, interference_summary
from repro.metrics.latency import LatencySummary, latency_summary
from repro.workloads import resolve_application

__all__ = ["PairwiseResult", "comparison_rows", "pairwise_study"]


@dataclass
class PairwiseResult:
    """Outcome of one target/background pair under one routing algorithm."""

    routing: str
    target: str
    background: Optional[str]
    standalone: RunResult
    interfered: Optional[RunResult]

    @property
    def target_summary(self) -> InterferenceSummary:
        """Interference summary of the target application."""
        baseline = self.standalone.record(self.target)
        co_run = (self.interfered or self.standalone).record(self.target)
        return interference_summary(baseline, co_run)

    def target_latency(self, interfered: bool = True) -> LatencySummary:
        """Packet-latency summary of the target in either run."""
        result = self.interfered if (interfered and self.interfered is not None) else self.standalone
        job = result.jobs[self.target]
        return latency_summary(result.stats, app_id=job.job_id)

    def throughput_series(
        self, app: str, interfered: bool = True
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """(times, GB/ms) series of ``app`` in either run."""
        result = self.interfered if (interfered and self.interfered is not None) else self.standalone
        job = result.jobs[app]
        return result.stats.app_throughput_series(job.job_id)


def pairwise_study(
    config: SimulationConfig,
    target: str,
    background: Optional[str],
    scale: float = 1.0,
    standalone_result: Optional[RunResult] = None,
    target_ranks: Optional[int] = None,
    background_ranks: Optional[int] = None,
) -> PairwiseResult:
    """Run the standalone baseline and the co-run for one pair.

    Both runs are :func:`~repro.experiments.scenario.pairwise_scenario`
    presets under ``config`` (``pairwise/<T>`` and ``pairwise/<T>+<B>``).
    ``standalone_result`` may be passed to reuse a previously computed
    baseline (the paper keeps the target's placement fixed across runs; the
    same effect is obtained here by using the same seed/config for both runs).
    ``target_ranks``/``background_ranks`` override the default half-system
    job sizes, e.g. for smaller test systems.
    """
    def scenario(with_background: Optional[str]) -> Scenario:
        return pairwise_scenario(
            target, with_background, scale=scale, target_ranks=target_ranks,
            background_ranks=background_ranks, config=config,
        )

    return PairwiseResult(
        routing=config.routing.algorithm,
        target=target,
        background=background,
        standalone=standalone_result if standalone_result is not None else scenario(None).run(),
        interfered=scenario(background).run() if background is not None else None,
    )


def comparison_rows(
    store: "ResultStore",
    target: str,
    background: Optional[str],
    where: ReportFilter = ReportFilter(),
) -> List[dict]:
    """Fig. 4 comparison rows built from a result store — no simulation.

    Looks up the recorded ``pairwise/<target>+<background>`` co-runs that
    match ``where`` and their ``pairwise/<target>`` standalone baseline,
    aggregates each metric across the matching seeds, and returns one
    :data:`~repro.analysis.reports.PAIRWISE_COLUMNS` row per routing
    algorithm present.  The baseline is read through
    :meth:`ReportFilter.baseline`: ``where.start_time`` and ``where.knobs``
    narrow the *co-run* family to one arrival stagger or one cell of a
    ``job_knobs`` sweep (e.g. ``{"hotspot": {"hot_fraction": 0.9}}``), while
    the comparison's baseline is always the simultaneous-arrival standalone
    run.  With
    ``background=None`` — a pure baseline report — ``where`` selects among
    the standalone runs themselves.  Raises ``ValueError`` when a required
    run is missing (populate the store with ``dragonfly-sim sweep
    --scenario pairwise/<T>+<B> --store PATH``).
    """
    from repro.results.store import ensure_comparable, ensure_uniform, mean_metric

    target = resolve_application(target)
    background = resolve_application(background) if background else None
    base_name = f"pairwise/{target}"
    pair_name = f"pairwise/{target}+{background}" if background else base_name
    # Fidelity filters both families: comparing a flow-level co-run against
    # a packet-level baseline would mix approximations (docs/fidelity.md).
    base_runs = (where.baseline() if background else where).runs(store, base_name)
    pair_runs = where.runs(store, pair_name) if background else base_runs
    routings = sorted({run.routing for run in pair_runs})
    if not routings:
        raise ValueError(
            f"no stored {pair_name!r} runs; populate the store with "
            f"'dragonfly-sim sweep --scenario {pair_name} --store PATH'"
            + (f" (and --scenario {base_name} for the baseline)" if background else "")
        )

    rows = []
    for routing in routings:
        bases = [run for run in base_runs if run.routing == routing]
        interfered_runs = [run for run in pair_runs if run.routing == routing]
        if not bases:
            raise ValueError(
                f"no stored {base_name!r} baseline under routing {routing!r}; populate "
                f"the store with 'dragonfly-sim sweep --scenario {base_name} --store PATH'"
            )
        ensure_uniform(bases, base_name)
        if background:
            ensure_uniform(interfered_runs, pair_name)
            ensure_comparable(bases + interfered_runs, f"{base_name} vs {pair_name}")
        summary = InterferenceSummary(
            app=target,
            standalone_comm_ns=mean_metric(bases, "comm_time_ns", target),
            interfered_comm_ns=mean_metric(interfered_runs, "comm_time_ns", target),
            standalone_std_ns=mean_metric(bases, "comm_time_std_ns", target),
            interfered_std_ns=mean_metric(interfered_runs, "comm_time_std_ns", target),
        )
        rows.append(
            {
                "routing": routing,
                "target": target,
                "background": background or "None",
                **summary.as_dict(),
            }
        )
    return rows
