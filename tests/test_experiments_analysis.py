"""Tests of the experiment harness, the analysis studies and the CLI."""

import numpy as np
import pytest

from repro.analysis.mixed import mixed_study
from repro.analysis.pairwise import pairwise_study
from repro.analysis.reports import format_table, intensity_report, interference_report
from repro.cli import build_parser, main
from repro.config import SimulationConfig, tiny_system
from repro.experiments.configs import (
    AppSpec,
    PAPER_TABLE2_JOB_SIZES,
    bench_config,
    bench_spec,
    mixed_workload_specs,
    pairwise_specs,
    table1_specs,
)
from repro.experiments.runner import run_standalone, run_workloads
from repro.metrics.congestion import congestion_index_matrix, stall_time_by_group
from repro.metrics.intensity import injection_rate_gbps, intensity_table
from repro.results import DEFAULT_STORE_PATH


def _tiny_config(routing="par", seed=3):
    return SimulationConfig(system=tiny_system(), seed=seed).with_routing(routing)


# ------------------------------------------------------------------ configs
def test_bench_config_and_specs():
    config = bench_config("q-adaptive", seed=9)
    assert config.routing.algorithm == "q-adaptive"
    assert config.system.num_nodes == 72
    spec = bench_spec("FFT3D", scale=0.5)
    assert spec.name == "FFT3D" and spec.kwargs["scale"] == 0.5
    with pytest.raises(ValueError):
        bench_spec("nope")
    assert len(table1_specs()) == 9


def test_pairwise_specs_structure():
    specs = pairwise_specs("FFT3D", "Halo3D", scale=0.5)
    assert [s.name for s in specs] == ["FFT3D", "Halo3D"]
    assert specs[1].kwargs["iterations"] > 0
    assert len(pairwise_specs("FFT3D", None)) == 1
    with pytest.raises(ValueError):
        pairwise_specs("FFT3D", "FFT3D")


def test_mixed_workload_specs_respect_node_budget_and_proportions():
    specs = mixed_workload_specs(total_nodes=70)
    assert sum(s.num_ranks for s in specs) <= 70
    sizes = {s.name: s.num_ranks for s in specs}
    assert set(sizes) == set(PAPER_TABLE2_JOB_SIZES)
    # LQCD and Stencil5D take the largest shares, as in Table II.
    assert sizes["LQCD"] == max(sizes.values())
    assert sizes["Stencil5D"] >= sizes["FFT3D"]


# ------------------------------------------------------------------- runner
def test_run_workloads_places_jobs_disjointly_and_completes():
    config = _tiny_config()
    specs = [AppSpec("UR", 6, {"scale": 0.3}), AppSpec("LU", 6, {"scale": 0.3})]
    result = run_workloads(config, specs)
    assert result.completed
    assert set(result.jobs) == {"UR", "LU"}
    assert not set(result.placements["UR"]) & set(result.placements["LU"])
    assert result.makespan_ns > 0
    assert result.summary()["routing"] == "par"


def test_run_workloads_rejects_duplicate_names_and_empty_specs():
    config = _tiny_config()
    with pytest.raises(ValueError):
        run_workloads(config, [])
    with pytest.raises(ValueError):
        run_workloads(config, [AppSpec("UR", 4, {}), AppSpec("UR", 4, {})])


def test_run_workloads_detects_incomplete_runs():
    config = _tiny_config()
    limited = SimulationConfig(
        system=config.system, routing=config.routing, seed=config.seed, max_events=50
    )
    with pytest.raises(RuntimeError):
        run_workloads(limited, [AppSpec("Halo3D", 8, {"scale": 0.3})])
    partial = run_workloads(
        limited, [AppSpec("Halo3D", 8, {"scale": 0.3})], require_completion=False
    )
    assert not partial.completed


def test_makespan_not_inflated_by_unused_max_time_watchdog():
    config = _tiny_config()
    watchdog = SimulationConfig(
        system=config.system, routing=config.routing, seed=config.seed, max_time_ns=1e12
    )
    result = run_workloads(watchdog, [AppSpec("UR", 4, {"scale": 0.2})])
    assert result.completed
    assert result.sim.now == 1e12  # run(until=...) idles the clock to the bound
    assert result.makespan_ns < 1e9  # ...but makespan reports the last event


def test_completion_time_not_inflated_by_trailing_routing_feedback():
    """Regression: q-adaptive schedules ROUTING_FEEDBACK events that can fire
    after the last rank finished, inflating last_event_time-derived
    completion times.  Makespan now derives from job-completion records, so
    minimal and q-adaptive account completion identically on the same tiny
    scenario."""
    # compute_ns=0 makes the final operation a *wait*: the last rank finishes
    # the moment its last packet arrives, with credit returns (and, under
    # q-adaptive, feedback signals) still scheduled behind it — the exact
    # regime where last_event_time over-reports completion.
    specs = [AppSpec("permutation", 6, {"scale": 0.3, "iterations": 3, "compute_ns": 0.0})]
    for routing in ("minimal", "q-adaptive"):
        result = run_workloads(_tiny_config(routing), specs)
        assert result.completed
        last_finish = max(result.record("permutation").finish_time.values())
        assert result.makespan_ns == last_finish
        # Trailing bookkeeping (credit returns; feedback under q-adaptive)
        # fires after the last rank finishes but no longer moves makespan.
        assert result.sim.last_event_time > last_finish
        if routing == "q-adaptive":
            assert result.network.routing.feedback_count > 0


def test_run_is_reproducible_for_fixed_seed():
    config = _tiny_config(seed=11)
    spec = AppSpec("FFT3D", 8, {"scale": 0.3})
    first = run_standalone(config, spec)
    second = run_standalone(config, spec)
    assert first.record("FFT3D").mean_comm_time == pytest.approx(
        second.record("FFT3D").mean_comm_time
    )
    assert first.placements == second.placements


def test_contiguous_placement_runs():
    config = _tiny_config()
    result = run_workloads(config, [AppSpec("LU", 9, {"scale": 0.3})], placement="contiguous")
    assert result.placements["LU"] == sorted(result.placements["LU"])


# ------------------------------------------------------------------ metrics
def test_intensity_table_rows_contain_measured_metrics():
    config = _tiny_config()
    result = run_standalone(config, AppSpec("UR", 8, {"scale": 0.3}))
    app = result.application("UR")
    record = result.record("UR")
    rows = intensity_table([app], {"UR": record})
    assert rows[0]["app"] == "UR"
    assert rows[0]["injection_rate_gbps"] == pytest.approx(injection_rate_gbps(record))
    assert "Table I" in intensity_report(rows)


def test_congestion_metrics_from_a_real_run():
    config = _tiny_config()
    result = run_workloads(config, [AppSpec("Halo3D", 8, {"scale": 0.4})])
    matrix = congestion_index_matrix(result.network)
    groups = result.network.topology.num_groups
    assert matrix.shape == (groups, groups)
    assert np.all(matrix >= 0) and np.all(matrix <= 1)
    assert matrix.sum() > 0
    stalls = stall_time_by_group(result.network)
    assert stalls["local_mean"] >= 0 and stalls["global_mean"] >= 0


# ----------------------------------------------------------------- analysis
def test_pairwise_study_detects_more_interference_than_baseline():
    config = _tiny_config()
    result = pairwise_study(
        config, "FFT3D", "Halo3D", scale=0.4, target_ranks=12, background_ranks=12
    )
    summary = result.target_summary
    assert summary.app == "FFT3D"
    assert summary.interfered_comm_ns > 0
    assert result.as_dict()["background"] == "Halo3D"
    latency = result.target_latency()
    assert latency.count > 0
    times, rates = result.throughput_series("FFT3D")
    assert times.size == rates.size > 0


def test_mixed_study_summaries_and_reports():
    config = _tiny_config()
    specs = [
        AppSpec("UR", 6, {"scale": 0.3}),
        AppSpec("LU", 6, {"scale": 0.3}),
        AppSpec("FFT3D", 6, {"scale": 0.3}),
    ]
    result = mixed_study(config, specs)
    summaries = result.all_summaries()
    assert {s.app for s in summaries} == {"UR", "LU", "FFT3D"}
    assert np.isfinite(result.mean_interference())
    assert result.system_latency().count > 0
    assert result.mean_system_throughput() >= 0
    report = interference_report({"par": result.app_summary("FFT3D")})
    assert "FFT3D" in report


def test_format_table_renders_rows():
    text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 3.25}])
    assert "a" in text and "10" in text
    assert format_table([]) == "(empty table)"


# --------------------------------------------------------------------- cli
def test_cli_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["pairwise", "FFT3D", "Halo3D", "--routings", "par"])
    assert args.command == "pairwise" and args.target == "FFT3D"
    args = parser.parse_args(["mixed"])
    assert args.command == "mixed"
    args = parser.parse_args(["table1", "--routing", "q-adaptive"])
    assert args.routing == "q-adaptive"
    args = parser.parse_args(
        ["sweep", "--workloads", "FFT3D", "--seeds", "1", "2", "--workers", "3"]
    )
    assert args.command == "sweep"
    assert args.seeds == [1, 2] and args.workers == 3
    assert args.store == str(DEFAULT_STORE_PATH)
    args = parser.parse_args(["report", "table1", "--format", "csv"])
    assert args.command == "report" and args.name == "table1" and args.fmt == "csv"
    with pytest.raises(SystemExit):
        parser.parse_args(["pairwise", "FFT3D", "NotAnApp"])
