"""The benchmark's workloads: which scenarios each one sweeps and reports.

Every workload is a list of scenarios plus the reports rendered from their
stored results.  One *round* sweeps all of its scenarios into a fresh
result store and renders the reports (a cold regeneration); one *warm
operation* repeats the sweep against the populated store, where every cell
is a cache hit, and renders the reports again.

Each workload comes in two sizes: ``full`` is what the benchmark measures;
``tiny`` runs the same code paths on small inputs in seconds, for the
benchmark's own tests.  Why each workload was chosen is in ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.config import SimulationConfig, SystemConfig, paper_system, small_system
from repro.experiments.configs import BENCH_RANKS, AppSpec
from repro.experiments.scenario import (
    Scenario,
    loadcurve_scenario,
    mixed_scenario,
    mixed_solo_scenarios,
    table1_scenario,
)

SIZES = ("full", "tiny")

#: Volume scale of the Table I / Table II cells (full size).  Small enough
#: that a cold regeneration of all 32 cells takes ~6 s, so a run holds
#: several rounds; setup is then a large share of each cell.
TABLES_SCALE = 0.1
TABLES_SCALE_TINY = 0.02
#: Both routings of the paper's comparison.
ROUTINGS = ("par", "q-adaptive")

#: One report: ``(name, build_report keyword arguments)``.
Report = Tuple[str, Dict[str, str]]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload at one seed and size."""

    name: str
    scenarios: Tuple[Scenario, ...]
    reports: Tuple[Report, ...] = field(default=())
    #: Warm operations timed together as one latency sample of ~50 ms.  A
    #: host whose clock speed switches every few tens of milliseconds puts a
    #: short operation timed alone in one of two speed modes.
    warm_ops_per_sample: int = 1


def paper_qadaptive(seed: int, size: str) -> Workload:
    """Q-adaptive routing on the paper's 1,056-node system, open-loop shift."""
    if size == "full":
        system, warmup_ns, measurement_ns = paper_system(), 2_000.0, 12_000.0
    else:
        system, warmup_ns, measurement_ns = small_system(), 500.0, 1_500.0
    config = SimulationConfig(system=system, seed=seed).with_routing("q-adaptive")
    scenario = loadcurve_scenario(
        "shift",
        routing="q-adaptive",
        seed=seed,
        offered_load=0.7,
        warmup_ns=warmup_ns,
        measurement_ns=measurement_ns,
        config=config,
    )
    return Workload("paper_qadaptive", (scenario,), (("loadcurve/shift", {}),), 80)


def paper_tables(seed: int, size: str) -> Workload:
    """Table I (9 apps) and Table II (mix + 6 solo baselines), PAR and Q-adaptive."""
    scale = TABLES_SCALE if size == "full" else TABLES_SCALE_TINY
    scenarios: List[Scenario] = []
    for routing in ROUTINGS:
        scenarios += [table1_scenario(app, routing=routing, seed=seed, scale=scale) for app in BENCH_RANKS]
        scenarios.append(mixed_scenario(routing=routing, seed=seed, scale=scale))
        scenarios += mixed_solo_scenarios(routing=routing, seed=seed, scale=scale)
    reports: List[Report] = [
        (name, {"routing": routing}) for name in ("table1", "table2") for routing in ROUTINGS
    ]
    reports.append(("mixed", {}))
    return Workload("paper_tables", tuple(scenarios), tuple(reports), 3)


def flow_100k(seed: int, size: str) -> Workload:
    """100,000-rank shift at flow fidelity on a 101,000-node system."""
    if size == "full":
        system, ranks = SystemConfig(num_groups=101, routers_per_group=20, nodes_per_router=50), 100_000
    else:
        system, ranks = small_system(), 64
    # Minimal routing: adaptive path scoring at 100k flows takes minutes.
    config = SimulationConfig(system=system, seed=seed).with_routing("minimal").with_fidelity("flow")
    scenario = Scenario(
        name="synthetic/shift",
        jobs=(AppSpec("shift", ranks, {"message_bytes": 4096, "iterations": 1}),),
        config=config,
        placement="contiguous",
    )
    return Workload("flow_100k", (scenario,), (("synthetic/shift", {}),), 100)


WORKLOADS: Dict[str, Callable[[int, str], Workload]] = {
    "paper_qadaptive": paper_qadaptive,
    "paper_tables": paper_tables,
    "flow_100k": flow_100k,
}


def build(name: str, seed: int, size: str = "full") -> Workload:
    """The workload ``name`` at ``seed`` and ``size`` (one of :data:`SIZES`)."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {SIZES}")
    return WORKLOADS[name](seed, size)
