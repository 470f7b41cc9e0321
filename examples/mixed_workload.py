#!/usr/bin/env python3
"""Mixed-workload study: six applications sharing the system (Section VI).

Runs the Table II mix (FFT3D, CosmoFlow, LU, UR, LQCD, Stencil5D at the
paper's node proportions) under PAR and Q-adaptive routing and prints the
per-application interference, the system-wide packet-latency tail, the
aggregate throughput, and the per-group stall-time hot spots.

Run with:  python examples/mixed_workload.py
(set REPRO_SMOKE=1 for a faster one-routing, reduced-volume run)
"""

import os

from repro.analysis.mixed import mixed_study
from repro.analysis.reports import format_table
from repro.experiments.scenario import mixed_scenario

SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")
SCALE = 0.15 if SMOKE else 0.3
COMPARED = ("par",) if SMOKE else ("par", "q-adaptive")


def main() -> None:
    app_rows = []
    system_rows = []
    for routing in COMPARED:
        result = mixed_study(mixed_scenario(routing=routing, seed=5, total_nodes=70, scale=SCALE))
        for summary in result.all_summaries():
            app_rows.append(
                {
                    "routing": routing,
                    "app": summary.app,
                    "standalone_us": summary.standalone_comm_ns / 1e3,
                    "mixed_us": summary.interfered_comm_ns / 1e3,
                    "slowdown": summary.slowdown,
                }
            )
        latency = result.system_latency()
        stall = result.stall_map()
        system_rows.append(
            {
                "routing": routing,
                "mean_interference": result.mean_interference(),
                "p99_latency_us": latency.p99 / 1e3,
                "throughput_gb_ms": result.mean_system_throughput(),
                "local_stall_us": stall["local_mean"] / 1e3,
                "hottest_group": stall["local_max_group"],
            }
        )
        print(f"[{routing}] mixed workload done")

    print("\n=== Per-application communication time in the mix ===")
    print(format_table(app_rows))
    print("\n=== System-wide metrics ===")
    print(format_table(system_rows))


if __name__ == "__main__":
    main()
