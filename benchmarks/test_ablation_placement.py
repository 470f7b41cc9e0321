"""Ablation A3 — random vs contiguous placement.

The paper's introduction discusses contiguous placement as the classic
interference-mitigation alternative to smarter routing.  This ablation co-runs
FFT3D with Halo3D under both placements (PAR routing) and verifies that both
complete, reporting the interference each placement produces.
"""

from conftest import BENCH_SCALE, BENCH_SEED

from repro.analysis.reports import format_table
from repro.experiments.scenario import pairwise_scenario
from repro.metrics.interference import interference_summary


def _run(placement: str) -> dict:
    alone, pair = (
        pairwise_scenario(
            "FFT3D", background, routing="par", seed=BENCH_SEED, scale=BENCH_SCALE,
            target_ranks=24, background_ranks=24,
        ).with_updates(placement=placement).run()
        for background in (None, "Halo3D")
    )
    summary = interference_summary(alone.record("FFT3D"), pair.record("FFT3D"))
    groups_used = {
        pair.network.topology.group_of_node(node) for node in pair.placements["FFT3D"]
    }
    return {
        "placement": placement,
        "slowdown": summary.slowdown,
        "interfered_comm_ns": summary.interfered_comm_ns,
        "target_groups_spanned": len(groups_used),
    }


def _sweep():
    return [_run("random"), _run("contiguous")]


def test_ablation_placement_policy(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print("\nAblation A3 — placement policy (PAR routing)\n" + format_table(rows))
    by_placement = {r["placement"]: r for r in rows}
    # Contiguous placement concentrates the job into fewer groups than random.
    assert (
        by_placement["contiguous"]["target_groups_spanned"]
        <= by_placement["random"]["target_groups_spanned"]
    )
    for row in rows:
        assert row["interfered_comm_ns"] > 0
