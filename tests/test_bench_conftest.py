"""Regression tests for the benchmark-suite session plumbing.

The benchmark conftest memoizes runs by scenario hash and writes a
machine-readable session summary.  These tests load a private copy of it
against a temporary store and pin both: a repeated scenario is run once, a
scenario whose stored config still names the retired ``"fast"`` backend is
its own memo entry (its hash differs) yet runs the one core, and the
summary carries the per-driver times and fidelity rows it was given.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from repro.config import SimulationConfig, tiny_system
from repro.experiments.configs import AppSpec
from repro.experiments.scenario import Scenario, scenario_hash
from repro.results import flatten_run

_BENCH_CONFTEST = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"


def _load_bench_conftest(tmp_path, monkeypatch):
    """Import a private copy of benchmarks/conftest.py against a tmp store."""
    monkeypatch.setenv("REPRO_BENCH_STORE", str(tmp_path / "store.sqlite"))
    monkeypatch.setenv("REPRO_BENCH_SUMMARY", "")
    spec = importlib.util.spec_from_file_location(
        "bench_conftest_under_test", _BENCH_CONFTEST
    )
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(module)
    return module


def _tiny_bench_scenario() -> Scenario:
    return Scenario(
        name="bench-memo/ur",
        jobs=(AppSpec("UR", 6, {"scale": 0.2}),),
        config=SimulationConfig(system=tiny_system(), seed=3).with_routing("par"),
    )


def test_run_scenario_memo_runs_each_scenario_once(tmp_path, monkeypatch):
    bench = _load_bench_conftest(tmp_path, monkeypatch)
    scenario = _tiny_bench_scenario()
    first = bench.run_scenario(scenario)
    assert bench.run_scenario(_tiny_bench_scenario()) is first
    assert list(bench._RUNS) == [scenario_hash(scenario)]
    stored = bench.bench_store().get(scenario)
    assert stored is not None and stored.name == scenario.name


def test_stored_fast_backend_scenario_is_its_own_memo_entry(tmp_path, monkeypatch):
    """A config still naming ``backend="fast"`` hashes differently, so the
    memo keeps it apart — and its run is the default run, value for value."""
    bench = _load_bench_conftest(tmp_path, monkeypatch)
    scenario = _tiny_bench_scenario()
    pinned = Scenario(
        name=scenario.name,
        jobs=scenario.jobs,
        config=scenario.config.with_backend("fast"),
    )
    default = bench.run_scenario(scenario)
    fast = bench.run_scenario(pinned)
    assert fast is not default
    assert len(bench._RUNS) == 2
    assert flatten_run(fast) == flatten_run(default)


def test_driver_times_and_fidelity_rows_land_in_bench_summary(tmp_path, monkeypatch):
    bench = _load_bench_conftest(tmp_path, monkeypatch)
    summary_path = tmp_path / "BENCH.json"
    bench._SUMMARY_PATH = str(summary_path)
    bench._DRIVER_TIMES["test_table1"] = {"tests": 2, "passed": 2, "wall_seconds": 1.5}
    bench.record_fidelity_comparison("shift@0.5", {"packet_wall_seconds": 2.0, "match": True})
    bench.pytest_sessionfinish(session=None, exitstatus=0)
    summary = json.loads(summary_path.read_text())
    assert summary["drivers"]["test_table1"] == {"tests": 2, "passed": 2, "wall_seconds": 1.5}
    assert summary["total_wall_seconds"] == 1.5
    assert summary["fidelity_comparison"]["shift@0.5"]["match"] is True
    assert "backend_comparison" not in summary
