#!/usr/bin/env python3
"""Synthetic backgrounds + staggered arrivals: the new interference regimes.

Co-runs a UR target against every synthetic traffic pattern
(``permutation``, ``shift``, ``bit-complement``, ``transpose``, ``hotspot``,
``bursty``) twice — once with both jobs starting together, once with the
target arriving only after the background reached steady state — sweeps the
grid through the result store, and renders the synthetic-background
comparison table from the store alone (zero re-simulation).

The same study from the command line:

    dragonfly-sim sweep --scenario pairwise/UR+hotspot \
        --start-times 0 200000 --store synthetic.sqlite
    dragonfly-sim run pairwise/UR --store synthetic.sqlite
    dragonfly-sim report synthetic/UR --store synthetic.sqlite --start-time 0

Run with:  python examples/synthetic_interference.py
(set REPRO_SMOKE=1 for a faster reduced-pattern run on the tiny system)
"""

import os
import sys
import tempfile
from pathlib import Path

from repro.analysis.reports import ReportFilter, format_table, synthetic_rows
from repro.config import SimulationConfig, tiny_system
from repro.experiments.scenario import expand_grid, pairwise_scenario
from repro.experiments.sweep import run_sweep
from repro.results import ResultStore

SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")

PATTERNS = ["hotspot", "bursty"] if SMOKE else [
    "permutation", "shift", "bit-complement", "transpose", "hotspot", "bursty",
]
#: Arrival time of the target in the staggered variant (ns).  By then the
#: background has been injecting for a while: the target lands in traffic
#: that is already at steady state, the regime a t=0 co-start never shows.
STAGGER_NS = 30_000.0 if SMOKE else 200_000.0


def make_grid():
    """One baseline + (simultaneous, staggered) co-runs per pattern."""
    if SMOKE:  # tiny system + small jobs so the docs CI finishes in seconds
        config = SimulationConfig(system=tiny_system())
        kwargs = dict(target_ranks=6, background_ranks=6, scale=0.3, config=config)
    else:
        kwargs = {}
    scenarios = [pairwise_scenario("UR", None, **kwargs)]
    for pattern in PATTERNS:
        base = pairwise_scenario("UR", pattern, **kwargs)
        scenarios.extend(expand_grid(base, start_times=[0.0, STAGGER_NS]))
    return scenarios


def main() -> None:
    store_path = Path(tempfile.mkdtemp(prefix="synthetic-")) / "results.sqlite"

    def progress(done, total, result):
        origin = "cache" if result.cached else f"{result.wall_seconds:.1f}s"
        print(f"[{done}/{total}] {result.scenario.name} ({origin})", file=sys.stderr)

    grid = make_grid()
    run_sweep(grid, workers=os.cpu_count() or 1, store=store_path, progress=progress)

    columns = ["background", "routing", "standalone_comm_ns", "interfered_comm_ns",
               "slowdown", "variation"]
    with ResultStore(store_path) as store:
        simultaneous = synthetic_rows(store, "UR", ReportFilter(start_time=0.0))
        staggered = synthetic_rows(store, "UR", ReportFilter(start_time=STAGGER_NS))

    print("=== UR vs. synthetic backgrounds — simultaneous arrival (t0 = 0) ===")
    print(format_table(simultaneous, columns))
    print()
    print(f"=== UR arriving at steady state (t0 = {STAGGER_NS:g} ns) ===")
    print(format_table(staggered, columns))
    print()
    worst = max(staggered, key=lambda row: row["slowdown"])
    print(f"Worst staggered background for UR: {worst['background']} "
          f"(slowdown {worst['slowdown']:.3f})")


if __name__ == "__main__":
    main()
