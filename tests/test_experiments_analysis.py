"""Tests of the experiment harness, the analysis studies and the CLI."""

import numpy as np
import pytest

from repro.analysis.mixed import mixed_study
from repro.analysis.pairwise import pairwise_study
from repro.analysis.reports import format_table
from repro.cli import build_parser, main
from repro.config import SimulationConfig, tiny_system
from repro.experiments.configs import (
    AppSpec,
    BENCH_RANKS,
    PAPER_TABLE2_JOB_SIZES,
    bench_config,
    bench_spec,
    mixed_workload_specs,
    pairwise_specs,
)
from repro.experiments.scenario import Scenario
from repro.metrics.congestion import congestion_index_matrix, stall_time_by_group
from repro.results import DEFAULT_STORE_PATH


def _tiny_config(routing="par", seed=3):
    return SimulationConfig(system=tiny_system(), seed=seed).with_routing(routing)


def _run(config, *specs, placement="random", require_completion=True):
    """Run ``specs`` as one ad-hoc scenario on ``config``."""
    scenario = Scenario("test/run", specs, config, placement)
    return scenario.run(require_completion=require_completion)


# ------------------------------------------------------------------ configs
def test_bench_config_and_specs():
    config = bench_config("q-adaptive", seed=9)
    assert config.routing.algorithm == "q-adaptive"
    assert config.system.num_nodes == 72
    spec = bench_spec("FFT3D", scale=0.5)
    assert spec.name == "FFT3D" and spec.kwargs["scale"] == 0.5
    with pytest.raises(ValueError):
        bench_spec("nope")


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
def test_scenario_run_places_jobs_disjointly_and_completes():
    config = _tiny_config()
    result = _run(config, AppSpec("UR", 6, {"scale": 0.3}), AppSpec("LU", 6, {"scale": 0.3}))
    assert result.completed
    assert set(result.jobs) == {"UR", "LU"}
    assert not set(result.placements["UR"]) & set(result.placements["LU"])
    assert result.makespan_ns > 0
    assert result.summary()["routing"] == "par"


def test_run_workloads_rejects_duplicate_names_and_empty_specs():
    config = _tiny_config()
    with pytest.raises(ValueError):
        _run(config)
    with pytest.raises(ValueError):
        _run(config, AppSpec("UR", 4, {}), AppSpec("UR", 4, {}))


def test_scenario_run_detects_incomplete_runs():
    config = _tiny_config()
    limited = SimulationConfig(
        system=config.system, routing=config.routing, seed=config.seed, max_events=50
    )
    with pytest.raises(RuntimeError):
        _run(limited, AppSpec("Halo3D", 8, {"scale": 0.3}))
    partial = _run(limited, AppSpec("Halo3D", 8, {"scale": 0.3}), require_completion=False)
    assert not partial.completed


def test_makespan_not_inflated_by_unused_max_time_watchdog():
    config = _tiny_config()
    watchdog = SimulationConfig(
        system=config.system, routing=config.routing, seed=config.seed, max_time_ns=1e12
    )
    result = _run(watchdog, AppSpec("UR", 4, {"scale": 0.2}))
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
    spec = AppSpec("permutation", 6, {"scale": 0.3, "iterations": 3, "compute_ns": 0.0})
    for routing in ("minimal", "q-adaptive"):
        result = _run(_tiny_config(routing), spec)
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
    first = _run(config, spec)
    second = _run(config, spec)
    assert first.record("FFT3D").mean_comm_time == pytest.approx(
        second.record("FFT3D").mean_comm_time
    )
    assert first.placements == second.placements


def test_contiguous_placement_runs():
    config = _tiny_config()
    result = _run(config, AppSpec("LU", 9, {"scale": 0.3}), placement="contiguous")
    assert result.placements["LU"] == sorted(result.placements["LU"])


# ------------------------------------------------------------------ metrics
def test_congestion_metrics_from_a_real_run():
    config = _tiny_config()
    result = _run(config, AppSpec("Halo3D", 8, {"scale": 0.4}))
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
    assert set(result.interfered.jobs) == {"FFT3D", "Halo3D"}
    latency = result.target_latency()
    assert latency.count > 0
    times, rates = result.throughput_series("FFT3D")
    assert times.size == rates.size > 0


def test_mixed_study_summaries_and_reports():
    config = _tiny_config()
    specs = (
        AppSpec("UR", 6, {"scale": 0.3}),
        AppSpec("LU", 6, {"scale": 0.3}),
        AppSpec("FFT3D", 6, {"scale": 0.3}),
    )
    result = mixed_study(Scenario("test/mix", specs, config))
    assert set(result.standalone) == {"UR", "LU", "FFT3D"}
    summaries = result.all_summaries()
    assert {s.app for s in summaries} == {"UR", "LU", "FFT3D"}
    assert np.isfinite(result.mean_interference())
    assert result.system_latency().count > 0
    assert result.mean_system_throughput() >= 0


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


def _table_rows(text):
    """Data rows of a rendered plain-text table, split on whitespace."""
    lines = text.strip().splitlines()
    rule = next(i for i, line in enumerate(lines) if set(line) <= {"-", " "})
    return [line.split() for line in lines[rule + 1:]]


def test_cli_table1_simulates_and_prints_the_table1_report(capsys):
    assert main(["table1", "--scale", "0.02"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Table I — application communication intensity\n")
    rows = {row[1]: row for row in _table_rows(out)}
    assert set(rows) == set(BENCH_RANKS)
    rates = {app: float(row[4].replace(",", "")) for app, row in rows.items()}
    # Paper, Table I: Halo3D injects fastest, CosmoFlow slowest.
    assert max(rates, key=rates.get) == "Halo3D"
    assert min(rates, key=rates.get) == "CosmoFlow"


def test_cli_pairwise_output_equals_report_over_its_dumped_scenarios(tmp_path, capsys):
    """`pairwise` prints what `report` prints after `run` replays its dump:
    the dump holds every run the command simulates, baselines included."""
    argv = ["pairwise", "FFT3D", "Halo3D", "--routings", "par", "q-adaptive", "--scale", "0.03"]
    dump, store = tmp_path / "pairwise.json", tmp_path / "runs.sqlite"
    assert main(argv + ["--dump-scenario", str(dump)]) == 0
    capsys.readouterr()
    assert main(["run", str(dump), "--store", str(store)]) == 0
    capsys.readouterr()
    assert main(["report", "pairwise/FFT3D+Halo3D", "--store", str(store)]) == 0
    reported = capsys.readouterr().out
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert printed == reported
    assert [row[0] for row in _table_rows(printed)] == ["par", "q-adaptive"]


def test_cli_mixed_simulates_at_the_requested_scale(capsys):
    assert main(["mixed", "--routings", "PAR", "--scale", "0.02"]) == 0
    (row,) = _table_rows(capsys.readouterr().out)
    routing, interference, mean_latency, p99_latency, throughput = row
    assert routing == "par"  # canonical, as every other study command prints it
    assert np.isfinite(float(interference))
    assert 0 < float(mean_latency.replace(",", "")) <= float(p99_latency.replace(",", ""))
    assert float(throughput) >= 0
