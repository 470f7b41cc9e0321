"""Parallel experiment sweeps cached through the persistent result store.

A *sweep* fans a list of :class:`~repro.experiments.scenario.Scenario`
descriptions across :mod:`multiprocessing` workers.  Every scenario is
reduced to the flat metrics dict of :mod:`repro.results.schema`, and results
are cached in a :class:`~repro.results.ResultStore` keyed by
:func:`~repro.experiments.scenario.scenario_hash` (the hash of the
canonically-serialized scenario), so re-running a sweep only simulates the
scenarios whose description changed.  Because the unit of work is a full
scenario, pairwise co-runs and the mixed workload sweep exactly like
standalone runs — build the grid with
:func:`repro.experiments.scenario.expand_grid`.

Design notes:

* every worker rebuilds its own simulator stack from the plain
  :class:`Scenario` description — nothing simulation-scoped crosses the
  process boundary, so results are bit-identical whether a scenario runs in
  the parent process (``workers=1``) or in a pool;
* the cache key covers the entire canonical scenario serialization plus
  :data:`CACHE_VERSION`, bumped whenever the simulator's numeric behaviour
  (or the serialization itself) changes;
* all store reads/writes happen in the parent process (workers only
  simulate), so one sweep needs no cross-process write coordination;
* the store is the only cache: a stored run is never rewritten, and
  pre-store ``<hash>.json`` cache files are not read.

Used by the ``dragonfly-sim sweep`` CLI subcommand and
``examples/sweep_grid.py``; see docs/sweep.md and docs/results.md.
"""

from __future__ import annotations

import os
import traceback as traceback_module
from dataclasses import dataclass
from multiprocessing import Pool
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.experiments.scenario import CACHE_VERSION, Scenario, expand_grid
from repro.results import ResultStore, flatten_run

__all__ = [
    "CACHE_VERSION",
    "SweepError",
    "SweepResult",
    "expand_grid",
    "run_sweep",
]


@dataclass
class SweepResult:
    """Outcome of one sweep cell.

    ``metrics`` holds only simulation-determined values — two runs of the
    same scenario produce identical ``metrics`` regardless of worker count —
    while ``wall_seconds`` and ``cached`` describe this particular execution.

    A cell whose simulation raised is returned as a *failed* result:
    ``error`` holds the one-line ``ExcType: message`` form, ``traceback`` the
    full formatted traceback from the worker, and ``metrics`` is empty.
    Failed results are never recorded to the store.
    """

    metrics: Dict[str, float]
    wall_seconds: float
    cached: bool = False
    scenario: Optional[Scenario] = None
    error: Optional[str] = None
    traceback: Optional[str] = None

    @property
    def failed(self) -> bool:
        """True when this cell's simulation raised instead of completing."""
        return self.error is not None

    def as_row(self) -> dict:
        """Flat dict row for tabular reports."""
        scenario = self.scenario
        row = {
            "scenario": scenario.name,
            "jobs": "+".join(spec.name for spec in scenario.jobs),
            "routing": scenario.config.routing.algorithm,
            "placement": scenario.placement,
            "seed": scenario.config.seed,
        }
        row.update(self.metrics)
        row["cached"] = self.cached
        if self.failed:
            row["error"] = self.error
        return row


class SweepError(RuntimeError):
    """One or more sweep cells failed.

    Raised by :func:`run_sweep` — after the whole grid ran (default), or at
    the first failure (``fail_fast=True``).  ``results`` holds every cell
    completed so far (in input order, failed cells included) and ``failures``
    just the failed ones, so partial sweep output survives the raise.
    """

    def __init__(self, message: str, results: List["SweepResult"], failures: List["SweepResult"]):
        super().__init__(message)
        self.results = results
        self.failures = failures


def _failure_summary(failures: Sequence["SweepResult"], total: int) -> str:
    """Human-readable multi-line summary of the failed cells of a sweep."""
    lines = [f"{len(failures)} of {total} sweep cells failed:"]
    for result in failures:
        name = result.scenario.name if result.scenario is not None else "<unknown>"
        lines.append(f"  - {name}: {result.error}")
    lines.append("(full tracebacks on SweepError.failures[i].traceback)")
    return "\n".join(lines)


# ---------------------------------------------------------------- execution
# reprolint: boundary
def _run_scenario(scenario: Scenario) -> SweepResult:
    """Simulate one scenario and reduce it to the flat store metrics.

    Failures are *isolated*: an exception from one grid cell comes back as a
    failed :class:`SweepResult` instead of propagating out of ``pool.imap``
    and killing every remaining cell of the sweep.  (``KeyboardInterrupt``
    still propagates — aborting the sweep is handled by the caller.)
    """
    try:
        result = scenario.run()
        return SweepResult(
            metrics=flatten_run(result),
            wall_seconds=result.wall_seconds,
            scenario=scenario,
        )
    except Exception as exc:
        return SweepResult(
            metrics={},
            wall_seconds=0.0,
            scenario=scenario,
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback_module.format_exc(),
        )


def _open_store(
    store: Optional[Union[ResultStore, str, Path]],
) -> Tuple[Optional[ResultStore], bool]:
    """Resolve run_sweep's ``store`` argument to a ``(store, owned)`` pair.

    ``None`` disables caching, an open store is used as is, and a path opens
    a store owned (and closed) by this call.
    """
    if store is None or isinstance(store, ResultStore):
        return store, False
    return ResultStore(Path(store)), True


def run_sweep(
    points: Iterable[Scenario],
    workers: int = 1,
    *,
    store: Optional[Union[ResultStore, str, Path]] = None,
    progress: Optional[Callable[[int, int, SweepResult], None]] = None,
    fail_fast: bool = False,
) -> List[SweepResult]:
    """Run every cell of a sweep, in parallel, with optional result caching.

    Parameters
    ----------
    points:
        The grid of :class:`Scenario` cells (see
        :func:`repro.experiments.scenario.expand_grid`).  Results come back
        in input order.
    workers:
        Worker processes for the uncached cells.  ``1`` runs everything in
        this process (bit-identical to the parallel path — see module notes).
    store:
        Result cache: an open :class:`~repro.results.ResultStore` or a path
        to one (created on demand).  ``None`` disables caching.
    progress:
        Optional callable invoked as ``progress(done, total, result)`` after
        every completed cell.
    fail_fast:
        When false (default) a failing cell does not stop the sweep: the
        rest of the grid still runs and a :class:`SweepError` summarizing
        every failure is raised only after the grid completes.  When true,
        the sweep raises at the first failed cell (terminating queued
        parallel work).  Either way the raised :class:`SweepError` carries
        the partial ``results``, and successful cells are already recorded
        in the store.
    """
    scenarios = list(points)
    for item in scenarios:
        if not isinstance(item, Scenario):
            raise TypeError(f"run_sweep expects Scenario cells, got {type(item).__name__}")

    results: List[Optional[SweepResult]] = [None] * len(scenarios)
    cache, owns_store = _open_store(store)
    try:
        def finish(index: int, result: SweepResult, record: bool) -> None:
            results[index] = result
            # Failed cells are never recorded: a later sweep must re-attempt
            # them instead of serving the failure from cache.
            if record and cache is not None and not result.failed:
                cache.record(result.scenario, result.metrics, result.wall_seconds)

        pending: List[int] = []
        done = 0
        for index, scenario in enumerate(scenarios):
            if cache is not None:
                stored = cache.get(scenario)
                if stored is not None:
                    hit = SweepResult(
                        metrics=dict(stored.metrics),
                        wall_seconds=stored.wall_seconds,
                        cached=True,
                        scenario=scenario,
                    )
                    finish(index, hit, record=False)
                    done += 1
                    if progress is not None:
                        progress(done, len(scenarios), hit)
                    continue
            pending.append(index)

        if pending:
            workers = max(1, min(workers, len(pending), os.cpu_count() or 1))
            pool = None
            if workers == 1:
                fresh = map(_run_scenario, (scenarios[i] for i in pending))
            else:
                pool = Pool(processes=workers)
                fresh = pool.imap(_run_scenario, [scenarios[i] for i in pending])
            try:
                for index, result in zip(pending, fresh):
                    finish(index, result, record=True)
                    done += 1
                    if progress is not None:
                        progress(done, len(scenarios), result)
                    if fail_fast and result.failed:
                        partial = [r for r in results if r is not None]
                        raise SweepError(
                            _failure_summary([result], len(scenarios)),
                            partial,
                            [result],
                        )
            except BaseException:
                # Exceptional exit (a raise above, or Ctrl-C): *terminate*
                # queued workers instead of close()+join(), which would block
                # until every remaining scenario simulated to completion.
                # Already-recorded results stay in the store.
                if pool is not None:
                    pool.terminate()
                    pool.join()
                raise
            else:
                if pool is not None:
                    pool.close()
                    pool.join()
    finally:
        if owns_store and cache is not None:
            cache.close()

    ordered = [result for result in results if result is not None]
    failures = [result for result in ordered if result.failed]
    if failures:
        raise SweepError(_failure_summary(failures, len(scenarios)), ordered, failures)
    return ordered
