"""The cells of the golden-results corpus and how each one is measured.

Every cell is a small scenario on the 36-node ``tiny_system()``; its
observable outputs are the ``flatten_run`` row (``events_fired`` included),
``RunResult.summary()`` without ``wall_seconds``, and — for the recorded
cells — the ``trace_hash`` of every recorded job.  The set covers:

* seeded randomized scenarios × all six routings;
* windowed offered-load runs × all six routings;
* a staggered-arrival co-run;
* a registered preset (Table I cell);
* recorded traces × all six routings.

``corpus.json`` holds the expected values; ``regenerate.py`` rewrites it
from the current code.  Values are compared as canonical JSON text, so a
float that moves in its last bit is a failure.
"""

from __future__ import annotations

import json
import random
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.config import SimulationConfig, tiny_system
from repro.experiments.configs import AppSpec
from repro.experiments.runner import RunResult
from repro.experiments.scenario import (
    Scenario,
    loadcurve_scenario,
    scenario_hash,
    table1_scenario,
)
from repro.results import flatten_run
from repro.traces import record_scenario, trace_hash

__all__ = ["ALGORITHMS", "CELLS", "canonical", "measure"]

ALGORITHMS = ("minimal", "valiant", "ugal-g", "ugal-n", "par", "q-adaptive")

#: Applications drawn from by the randomized generator.
_APPS = ("Halo3D", "FFT3D", "LQCD", "Stencil5D", "UR", "shift")


def _on_tiny(scenario: Scenario) -> Scenario:
    return Scenario(
        name=scenario.name,
        config=scenario.config.with_system(tiny_system()),
        jobs=scenario.jobs,
        placement=scenario.placement,
    )


def _random_scenarios(algorithm: str, count: int = 2) -> Iterator[Scenario]:
    """Seeded random tiny-system scenarios (deterministic per algorithm).

    The seed string is historical; changing it changes every randomized cell.
    """
    rng = random.Random(f"backend-equivalence/{algorithm}")
    for index in range(count):
        app = rng.choice(_APPS)
        config = SimulationConfig(
            system=tiny_system(),
            seed=rng.randrange(1, 1_000_000),
        ).with_routing(algorithm)
        yield Scenario(
            name=f"rand/{algorithm}/{index}/{app}",
            config=config,
            jobs=(
                AppSpec(
                    app,
                    rng.choice((8, 12, 16)),
                    {"scale": 0.05} if app not in ("UR", "shift") else {},
                ),
            ),
            placement=rng.choice(("contiguous", "random")),
        )


def _windowed(algorithm: str) -> Scenario:
    return loadcurve_scenario(
        "shift",
        routing=algorithm,
        seed=11,
        offered_load=0.3,
        warmup_ns=5_000.0,
        measurement_ns=20_000.0,
        config=SimulationConfig(system=tiny_system()).with_routing(algorithm),
    )


def _staggered() -> Scenario:
    config = SimulationConfig(system=tiny_system(), seed=9).with_routing("ugal-g")
    return Scenario(
        name="stagger/halo3d+ur",
        config=config,
        jobs=(
            AppSpec("Halo3D", 8, {"scale": 0.05}),
            AppSpec("UR", 8, {"message_bytes": 2048, "iterations": 6}, start_time=7_500.0),
        ),
        placement="contiguous",
    )


def _preset() -> Scenario:
    return _on_tiny(table1_scenario("LQCD", routing="par", seed=2, scale=0.05))


def _traced(algorithm: str) -> Scenario:
    return _on_tiny(table1_scenario("Halo3D", routing=algorithm, seed=4, scale=0.05))


def _run_outputs(scenario: Scenario, require_completion: bool = True) -> Dict[str, Any]:
    result: RunResult = scenario.run(require_completion=require_completion)
    summary = result.summary()
    summary.pop("wall_seconds", None)
    return {
        "scenario_hash": scenario_hash(scenario),
        "flat": flatten_run(result),
        "summary": summary,
    }


def _trace_outputs(scenario: Scenario) -> Dict[str, Any]:
    _, traces = record_scenario(scenario)
    return {
        "scenario_hash": scenario_hash(scenario),
        "trace_hashes": {name: trace_hash(trace) for name, trace in traces.items()},
    }


def _cells() -> List[Tuple[str, Callable[[], Dict[str, Any]]]]:
    cells: List[Tuple[str, Callable[[], Dict[str, Any]]]] = []
    for algorithm in ALGORITHMS:
        for scenario in _random_scenarios(algorithm):
            cells.append((scenario.name, lambda s=scenario: _run_outputs(s)))
    for algorithm in ALGORITHMS:
        cells.append(
            (
                f"windowed/{algorithm}",
                lambda a=algorithm: _run_outputs(_windowed(a), require_completion=False),
            )
        )
    cells.append(("staggered/halo3d+ur", lambda: _run_outputs(_staggered())))
    cells.append(("preset/table1/LQCD", lambda: _run_outputs(_preset())))
    for algorithm in ALGORITHMS:
        cells.append((f"trace/{algorithm}", lambda a=algorithm: _trace_outputs(_traced(a))))
    return cells


#: ``(cell name, measure-it)`` pairs, in corpus order.
CELLS: List[Tuple[str, Callable[[], Dict[str, Any]]]] = _cells()


def canonical(value: Any) -> str:
    """Canonical JSON text of a cell's outputs (exact float repr, sorted keys)."""
    return json.dumps(value, sort_keys=True, indent=1)


def measure(name: str) -> Dict[str, Any]:
    """Outputs of one cell, normalized through JSON like the stored corpus."""
    for cell_name, run in CELLS:
        if cell_name == name:
            return json.loads(canonical(run()))
    raise KeyError(f"no golden cell named {name!r}")
