"""Fig. 10 — per-application communication time in the mixed workload.

Regenerates the standalone-vs-interfered communication times of every
application in the Table II mix and checks the Section VI-A findings: the
largest-peak-ingress applications (Stencil5D, LQCD) resist interference, and
Q-adaptive reduces the average interference relative to adaptive routing.

The rows come **from the result store**
(`repro.analysis.mixed.mixed_rows_from_store`): the mixed run and its
``mixed/solo/<App>`` baselines are simulated only when the store lacks them,
then shared with the Figs 11-13 drivers through the session run cache.
"""

import numpy as np
from conftest import (
    BENCH_SCALE,
    BENCH_SEED,
    bench_store,
    ensure_stored,
    mixed_scenarios,
    routings_under_test,
)

from repro.analysis.mixed import mixed_rows_from_store
from repro.analysis.reports import ReportFilter, format_table


def _rows():
    rows = []
    for routing in routings_under_test():
        mixed, solos = mixed_scenarios(routing)
        ensure_stored([mixed, *solos])
        where = ReportFilter(routing=routing, seed=BENCH_SEED, scale=BENCH_SCALE)
        rows.extend(mixed_rows_from_store(bench_store(), where))
    return rows


def test_fig10_mixed_comm_time(benchmark):
    rows = benchmark.pedantic(_rows, rounds=1, iterations=1)
    print("\nFig. 10 — mixed-workload communication time (bench scale)\n" + format_table(
        rows, ["routing", "app", "standalone_comm_ns", "interfered_comm_ns", "slowdown", "variation"]
    ))
    by_key = {(r["routing"], r["app"]): r for r in rows}
    apps = {r["app"] for r in rows}
    assert apps == {"FFT3D", "CosmoFlow", "LU", "UR", "LQCD", "Stencil5D"}

    for routing in routings_under_test():
        for app in apps:
            row = by_key[(routing, app)]
            assert row["standalone_comm_ns"] > 0 and row["interfered_comm_ns"] > 0
        # Stencil5D (largest peak ingress volume) tolerates the mix.
        assert by_key[(routing, "Stencil5D")]["slowdown"] <= 1.35

    if {"par", "q-adaptive"} <= set(routings_under_test()):
        par_mean = np.mean([by_key[("par", a)]["comm_time_increase"] for a in apps])
        q_mean = np.mean([by_key[("q-adaptive", a)]["comm_time_increase"] for a in apps])
        # Paper: Q-adaptive reduces mixed-workload interference by ~49 % on
        # average; at bench scale require it to be no worse than PAR.
        assert q_mean <= par_mean + 0.05
