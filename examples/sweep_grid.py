#!/usr/bin/env python3
"""Parallel sweep: compare routing algorithms across workloads and seeds.

Expands one standalone base scenario per workload over a (routing x seed)
grid with ``repro.experiments.scenario.expand_grid``, fans the cells across
all CPU cores with ``repro.experiments.sweep.run_sweep`` and prints a
comparison table.  Results are cached in the result store
``.sweep-cache/results.sqlite`` keyed by scenario hash (see
docs/results.md), so re-running the script (or adding cells to the grid)
only simulates the new cells.  Pairwise and mixed co-runs sweep the same way
(see ``examples/scenario_api.py`` and docs/scenarios.md).

A similar standalone sweep is available from the command line:

    dragonfly-sim sweep --scale 0.3 --workloads FFT3D Halo3D \
        --routings par q-adaptive --seeds 1 2

Run with:  python examples/sweep_grid.py
(set REPRO_SMOKE=1 for a faster reduced-grid run)
"""

import os
import sys

from repro.analysis.reports import format_table
from repro.experiments.scenario import expand_grid, table1_scenario
from repro.experiments.sweep import run_sweep

SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")


def main() -> None:
    workloads = ["FFT3D"] if SMOKE else ["FFT3D", "Halo3D"]
    bases = [table1_scenario(app, scale=0.15 if SMOKE else 0.3) for app in workloads]
    grid = expand_grid(
        bases, routings=["par", "q-adaptive"], seeds=[1] if SMOKE else [1, 2]
    )

    def progress(done, total, result):
        origin = "cache" if result.cached else f"{result.wall_seconds:.1f}s"
        print(f"[{done}/{total}] {result.scenario.name} ({origin})", file=sys.stderr)

    results = run_sweep(
        grid,
        workers=os.cpu_count() or 1,
        store=".sweep-cache/results.sqlite",
        progress=progress,
    )

    print(f"=== {len(grid)}-cell sweep on the 72-node Dragonfly ===")
    print(format_table(
        [r.as_row() for r in results],
        ["jobs", "routing", "seed", "makespan_ns", "mean_comm_time_ns",
         "total_port_stall_ns", "cached"],
    ))

    # Aggregate: mean communication time per routing algorithm.
    by_routing = {}
    for result in results:
        by_routing.setdefault(result.scenario.config.routing.algorithm, []).append(
            result.metrics["mean_comm_time_ns"]
        )
    print("\nMean communication time by routing:")
    for routing, values in sorted(by_routing.items()):
        print(f"  {routing:12s} {sum(values) / len(values) / 1e3:10.1f} us")


if __name__ == "__main__":
    main()
