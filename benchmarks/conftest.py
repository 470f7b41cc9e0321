"""Shared helpers for the benchmark suite.

Every benchmark regenerates the data behind one table or figure of the paper
at **benchmark scale** (72-node system, reduced volumes — see EXPERIMENTS.md).
Each run is described by a :class:`~repro.experiments.scenario.Scenario`,
executed at most once per session (:func:`run_scenario` memoizes by scenario
hash), and recorded into a persistent :class:`~repro.results.ResultStore`
(``benchmarks/.bench-results.sqlite``, override with ``REPRO_BENCH_STORE``).

The drivers that only need table rows (Table I/II, Figs 4 and 10) build
them from the store via the :mod:`repro.analysis` row builders, so on a
warm store they re-render **without running a single simulation**; the
drivers that need full statistics (time series, latency distributions,
stall/congestion maps) go through :func:`standalone_run`/
:func:`pairwise_run`/:func:`mixed_run`, which share the same scenarios —
and therefore the same store rows — as the row-based drivers.

Delete the store file after changing simulator behaviour without bumping
``CACHE_VERSION`` (the hash-keyed store cannot detect that by itself).

Set ``REPRO_BENCH_SCALE`` (default 0.3) or ``REPRO_BENCH_FULL=1`` to widen
the sweeps.

After a session that ran any bench driver, a machine-readable summary —
per-driver wall time plus headline metrics from the bench store and the
packet-vs-flow fidelity comparison (when the fidelity driver ran) —
is written to ``BENCH_PR9.json`` at the repo root (override with
``REPRO_BENCH_SUMMARY``; set it to the empty string to disable).  CI uploads
it as an artifact and renders the comparison tables in the job summary.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterable, Optional

import pytest

from repro.analysis.mixed import MixedResult
from repro.analysis.pairwise import PairwiseResult
from repro.experiments.runner import RunResult
from repro.experiments.scenario import (
    Scenario,
    mixed_scenario,
    mixed_solo_scenarios,
    pairwise_scenario,
    scenario_hash,
    table1_scenario,
)
from repro.results import ResultStore

#: Message-volume scale used by every benchmark run.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.3"))
#: Whether to run the full sweep (all targets/backgrounds/routings) or the
#: representative subset (default).
FULL_SWEEP = os.environ.get("REPRO_BENCH_FULL", "0") == "1"
#: Seed shared by every benchmark run (placements are identical across
#: routings, as in the paper's methodology).
BENCH_SEED = 7

_BENCH_DIR = Path(__file__).resolve().parent
_STORE_PATH = os.environ.get("REPRO_BENCH_STORE", str(_BENCH_DIR / ".bench-results.sqlite"))

_STORE: Optional[ResultStore] = None
#: Session-scoped RunResult memo, keyed by scenario hash.  Scenario itself is
#: not hashable — AppSpec carries a kwargs dict — so the content hash is the
#: natural key.
_RUNS: Dict[str, RunResult] = {}


#: Where the machine-readable suite summary lands ('' disables it).
_SUMMARY_PATH = os.environ.get("REPRO_BENCH_SUMMARY", str(_BENCH_DIR.parent / "BENCH_PR9.json"))

#: Packet-vs-flow fidelity comparison rows, filled by the fidelity bench
#: driver (benchmarks/test_fidelity_comparison.py) via
#: :func:`record_fidelity_comparison`.
_FIDELITY_COMPARISON: Dict[str, dict] = {}

#: Per-driver (module) wall time and outcome counts, filled by the hook below.
_DRIVER_TIMES: Dict[str, Dict[str, float]] = {}


def pytest_collection_modifyitems(config, items):
    """Mark every test in this directory `bench` so tier-1 can deselect them."""
    for item in items:
        if _BENCH_DIR in Path(str(item.fspath)).resolve().parents:
            item.add_marker(pytest.mark.bench)


def pytest_runtest_logreport(report):
    """Accumulate per-driver wall time for the BENCH_PR9.json summary."""
    if report.when != "call":
        return
    module = report.nodeid.split("::", 1)[0]
    if not Path(module).name.startswith("test_"):
        return
    if _BENCH_DIR not in Path(module).resolve().parents:
        return
    entry = _DRIVER_TIMES.setdefault(
        Path(module).stem, {"tests": 0, "passed": 0, "wall_seconds": 0.0}
    )
    entry["tests"] += 1
    entry["passed"] += int(report.outcome == "passed")
    entry["wall_seconds"] += float(report.duration)


def _headline_metrics() -> Dict[str, Dict[str, float]]:
    """Mean headline metrics per stored scenario name, from the bench store."""
    headline: Dict[str, Dict[str, float]] = {}
    sums: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, int] = {}
    for run in bench_store().runs():
        counts[run.name] = counts.get(run.name, 0) + 1
        bucket = sums.setdefault(run.name, {"makespan_ns": 0.0, "mean_comm_time_ns": 0.0})
        bucket["makespan_ns"] += float(run.metrics.get("makespan_ns", 0.0))
        bucket["mean_comm_time_ns"] += float(run.metrics.get("mean_comm_time_ns", 0.0))
    for name in sorted(sums):
        headline[name] = {
            metric: value / counts[name] for metric, value in sums[name].items()
        }
    return headline


def pytest_sessionfinish(session, exitstatus):
    """Write the per-driver wall-time + headline-metric summary, if enabled."""
    if not _DRIVER_TIMES or not _SUMMARY_PATH:
        return
    summary = {
        "suite": "benchmarks",
        "scale": BENCH_SCALE,
        "seed": BENCH_SEED,
        "full_sweep": FULL_SWEEP,
        "exit_status": int(exitstatus),
        "total_wall_seconds": round(
            sum(entry["wall_seconds"] for entry in _DRIVER_TIMES.values()), 3
        ),
        "drivers": {
            name: {
                "tests": int(entry["tests"]),
                "passed": int(entry["passed"]),
                "wall_seconds": round(entry["wall_seconds"], 3),
            }
            for name, entry in sorted(_DRIVER_TIMES.items())
        },
        "store_headline": _headline_metrics(),
    }
    if _FIDELITY_COMPARISON:
        summary["fidelity_comparison"] = dict(sorted(_FIDELITY_COMPARISON.items()))
    Path(_SUMMARY_PATH).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def bench_store() -> ResultStore:
    """The benchmark suite's shared result store (opened lazily)."""
    global _STORE
    if _STORE is None:
        _STORE = ResultStore(_STORE_PATH)
    return _STORE


def run_scenario(scenario: Scenario) -> RunResult:
    """Run ``scenario`` once per session and record it into the bench store."""
    key = scenario_hash(scenario)
    if key not in _RUNS:
        result = scenario.run()
        bench_store().record_run(scenario, result)
        _RUNS[key] = result
    return _RUNS[key]


def record_fidelity_comparison(name: str, row: dict) -> None:
    """Publish one packet-vs-flow fidelity measurement into the session summary.

    ``row`` should carry honest measured numbers (wall seconds per fidelity,
    makespan/throughput deltas, whether volumes matched exactly); it lands
    verbatim under ``fidelity_comparison`` in ``BENCH_PR9.json``.
    Fidelities are *not* bit-equivalent — the row records the measured
    approximation error, not a match bit alone.
    """
    _FIDELITY_COMPARISON[name] = row


def ensure_stored(scenarios: Iterable[Scenario]) -> None:
    """Simulate (and record) exactly the scenarios the store does not hold.

    The row-based drivers call this before reading rows back: on a warm
    store nothing is simulated at all.
    """
    for scenario in scenarios:
        if bench_store().get(scenario) is None:
            run_scenario(scenario)


# ------------------------------------------------------------------ scenarios
def standalone_scenario(name: str, routing: str, scale: float = BENCH_SCALE) -> Scenario:
    """Benchmark-scale standalone (Table I) scenario of one application."""
    return table1_scenario(name, routing=routing, seed=BENCH_SEED, scale=scale)


def pairwise_scenarios(
    target: str, background: str | None, routing: str, scale: float = BENCH_SCALE
):
    """(baseline, co-run-or-None) scenario pair of one pairwise study cell."""
    baseline = pairwise_scenario(target, None, routing=routing, seed=BENCH_SEED, scale=scale)
    interfered = (
        pairwise_scenario(target, background, routing=routing, seed=BENCH_SEED, scale=scale)
        if background
        else None
    )
    return baseline, interfered


def mixed_scenarios(routing: str, scale: float = BENCH_SCALE):
    """(mixed run, per-app solo baselines) scenarios of the Table II mix."""
    mixed = mixed_scenario(routing=routing, seed=BENCH_SEED, total_nodes=70, scale=scale)
    solos = mixed_solo_scenarios(routing=routing, seed=BENCH_SEED, total_nodes=70, scale=scale)
    return mixed, solos


# ---------------------------------------------------------- full-stats helpers
def standalone_run(name: str, routing: str, scale: float = BENCH_SCALE) -> RunResult:
    """Cached standalone run of one application under one routing."""
    return run_scenario(standalone_scenario(name, routing, scale))


def pairwise_run(
    target: str, background: str | None, routing: str, scale: float = BENCH_SCALE
) -> PairwiseResult:
    """Cached pairwise study (standalone baseline + co-run)."""
    baseline, interfered = pairwise_scenarios(target, background, routing, scale)
    return PairwiseResult(
        routing=baseline.config.routing.algorithm,
        target=baseline.jobs[0].name,
        background=interfered.jobs[1].name if interfered else None,
        standalone=run_scenario(baseline),
        interfered=run_scenario(interfered) if interfered else None,
    )


def mixed_run(routing: str, scale: float = BENCH_SCALE) -> MixedResult:
    """Cached mixed-workload study (Table II proportions on 70 nodes)."""
    mixed, solos = mixed_scenarios(routing, scale)
    return MixedResult(
        routing=mixed.config.routing.algorithm,
        mixed=run_scenario(mixed),
        standalone={solo.jobs[0].name: run_scenario(solo) for solo in solos},
    )


def routings_under_test() -> list[str]:
    """Routing algorithms compared by the benchmarks (subset unless FULL)."""
    if FULL_SWEEP:
        return ["ugal-g", "ugal-n", "par", "q-adaptive"]
    return ["par", "q-adaptive"]
