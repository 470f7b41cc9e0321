"""Table II — mixed-workload job sizes.

Checks that the benchmark-scale mixed workload allocates nodes to the six
applications in the same proportions as the paper's Table II.  The rows are
built **from the result store** (`repro.analysis.reports.table2_rows`): job
sizes come from the stored ``mixed/table2`` scenario description and the
``comm_time_ns`` column from its recorded metrics, so a warm store
regenerates the table without simulating.
"""

from conftest import BENCH_SCALE, BENCH_SEED, bench_store, ensure_stored, mixed_scenarios

from repro.analysis.reports import ReportFilter, format_table, table2_rows
from repro.experiments.configs import PAPER_TABLE2_JOB_SIZES


def _build_rows():
    mixed, _solos = mixed_scenarios("par")
    ensure_stored([mixed])
    return table2_rows(
        bench_store(), ReportFilter(routing="par", seed=BENCH_SEED, scale=BENCH_SCALE)
    )


def test_table2_mixed_workload_sizes(benchmark):
    rows = benchmark.pedantic(_build_rows, rounds=1, iterations=1)
    print("\nTable II — mixed workload job sizes (paper vs bench)\n" + format_table(rows))

    by_app = {row["app"]: row for row in rows}
    assert set(by_app) == set(PAPER_TABLE2_JOB_SIZES)
    # The proportions must follow the paper: LQCD and Stencil5D are the two
    # largest jobs; the other four are roughly equal.
    assert by_app["LQCD"]["bench_nodes"] == max(r["bench_nodes"] for r in rows)
    assert by_app["Stencil5D"]["bench_nodes"] >= by_app["FFT3D"]["bench_nodes"]
    for row in rows:
        assert abs(row["bench_fraction"] - row["paper_fraction"]) < 0.08
    assert sum(r["bench_nodes"] for r in rows) <= 70
    # Every application spent measurable time communicating in the mix.
    assert all(row["comm_time_ns"] > 0 for row in rows)
