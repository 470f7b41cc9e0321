"""One workload, measured in one fresh interpreter (started by ``run.py``).

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 -m perfbench.child --workload paper_tables --seed 1 --seconds 30 --trace 0

Prints one JSON object on its last stdout line: the metrics, their sample
counts, every correctness check, the output digest and provenance.

A run is made of *rounds* and *warm samples* (see ``workloads.py``):

* untraced (``--trace 0``): rounds, each followed by :data:`WARM_SAMPLES`
  warm samples on its store, while the time left under ``--seconds``
  allows one more (at least :data:`MIN_ROUNDS`).  End-to-end metrics are
  medians over rounds, over cells for ``setup_s``, and percentiles over
  warm samples.  Times are reference seconds (see ``speed.py``): CPU
  seconds of this process (:data:`CLOCK`) scaled by the host's speed.
* traced (``--trace 1``): two untraced rounds, then one round and its warm
  samples with every traced layer wrapped.  The traced work is fixed, so
  its counts repeat exactly at one seed; ``trace.overhead`` compares the
  traced round's ``run_s`` with the second untraced round's.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

import repro  # noqa: E402  (PYTHONPATH is set by run.py)

if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}")

from repro.analysis import reports as reports_module  # noqa: E402
from repro.backends import active_backend_name  # noqa: E402
from repro.config import SimulationConfig  # noqa: E402
from repro.core.engine import Simulator  # noqa: E402
from repro.core.events import EventKind  # noqa: E402
from repro.experiments import sweep as sweep_module  # noqa: E402
from repro.experiments.scenario import Scenario, scenario_hash  # noqa: E402
from repro.flow import active_fidelity_name  # noqa: E402
from repro.results import ResultStore  # noqa: E402

from perfbench import spec, workloads  # noqa: E402
from perfbench.speed import Speedometer  # noqa: E402
from perfbench.tracer import PatchLog, Tracer, patch, restore  # noqa: E402

#: Fewest cold rounds per untraced run, so every median has three samples.
MIN_ROUNDS = 3
#: Warm-latency samples after each round.  Spreading them over the run
#: averages over the host's speed changes; the :data:`MIN_ROUNDS` rounds
#: give at least 102 samples, so at least 10 lie beyond p90.
WARM_SAMPLES = 34
#: Clock of every end-to-end time: CPU seconds of this process.  The
#: simulator is single-threaded, and on a shared host its wall time also
#: counts the time other tenants held the CPU.
CLOCK = time.process_time
#: ``Speedometer.scaled``: reference seconds of a :data:`CLOCK` interval.
Scale = Callable[[float, float], float]
#: Scenario-level output keys left out of the digest: ``events_fired``
#: changes when the engine fires fewer events per hop for the same model.
DIGEST_EXCLUDED = ("events_fired",)


@dataclass
class Cell:
    """:data:`CLOCK` stamps and checks of one ``Scenario.run`` call."""

    name: str
    start: float
    loop_start: Optional[float] = None
    returned: float = 0.0
    flatten_start: float = 0.0
    flatten_end: float = 0.0
    messages: int = 0
    qtable_entries: int = 0
    problems: List[str] = field(default_factory=list)

    def setup_s(self, scale: Scale) -> float:
        """From ``Scenario.run`` entry until the event loop starts."""
        return scale(self.start, self.loop_start if self.loop_start is not None else self.returned)

    def run_s(self, scale: Scale) -> float:
        """``Scenario.run`` plus the ``flatten_run`` of its result."""
        return scale(self.start, self.returned) + scale(self.flatten_start, self.flatten_end)


def messages_delivered(result: Any) -> int:
    """Network messages (data and protocol control) delivered to the MPI layer."""
    stats = result.stats
    if result.fidelity == "flow":
        return int(stats.total_messages_delivered)
    return sum(len(log) for log in stats.message_log.values())


def run_problems(result: Any) -> List[str]:
    """Correctness problems visible on a finished ``RunResult``."""
    problems = []
    for name, job in result.jobs.items():
        application = result.applications[name]
        if getattr(application, "offered_load", None) is None:
            finished = len(job.record.finish_time)
            if finished != job.num_ranks:
                problems.append(f"{name}: {finished} of {job.num_ranks} ranks finished")
        if result.fidelity == "flow":
            sent, analytic = job.record.total_bytes_sent, application.total_message_volume()
            if sent != analytic:
                problems.append(f"{name}: flow bytes {sent} != analytic volume {analytic}")
    return problems


def metric_problems(name: str, metrics: Dict[str, float]) -> List[str]:
    """Correctness problems visible in one cell's flat metrics."""
    problems = []
    for injected, ejected in (
        ("measured_packets_injected", "measured_packets_ejected"),
        ("measured_messages_injected", "measured_messages_delivered"),
    ):
        if injected in metrics and metrics[ejected] > metrics[injected]:
            problems.append(
                f"{name}: {ejected} {metrics[ejected]} > {injected} {metrics[injected]}"
            )
    return problems


class Probes:
    """Per-run timing hooks on ``Scenario.run``, ``Simulator.run`` and the
    sweep's ``flatten_run``.  Each runs once per simulated cell."""

    def __init__(self) -> None:
        self.cells: List[Cell] = []
        self._log: PatchLog = []

    def install(self) -> None:
        clock = CLOCK
        cells = self.cells
        scenario_run = Scenario.run
        simulator_run = Simulator.run
        flatten = sweep_module.flatten_run

        def probed_scenario_run(scenario: Scenario, *args: Any, **kwargs: Any) -> Any:
            cell = Cell(scenario.name, clock())
            cells.append(cell)
            result = scenario_run(scenario, *args, **kwargs)
            cell.returned = clock()
            cell.messages = messages_delivered(result)
            cell.problems = run_problems(result)
            total_entries = getattr(getattr(result.network, "routing", None), "total_table_entries", None)
            cell.qtable_entries = total_entries() if total_entries else 0
            return result

        def probed_simulator_run(sim: Simulator, *args: Any, **kwargs: Any) -> float:
            if cells and cells[-1].loop_start is None:
                cells[-1].loop_start = clock()
            return simulator_run(sim, *args, **kwargs)

        def probed_flatten(result: Any) -> Dict[str, float]:
            start = clock()
            metrics = flatten(result)
            if cells:
                cells[-1].flatten_start, cells[-1].flatten_end = start, clock()
            return metrics

        patch(self._log, Scenario, "run", probed_scenario_run)
        patch(self._log, Simulator, "run", probed_simulator_run)
        patch(self._log, sweep_module, "flatten_run", probed_flatten)

    def uninstall(self) -> None:
        restore(self._log)


@dataclass
class Round:
    """One cold regeneration: fresh store, sweep every cell, render reports."""

    start: float
    end: float
    cells: List[Cell]
    digest: str
    reports: List[str]

    def cold_s(self, scale: Scale) -> float:
        return scale(self.start, self.end)

    def run_s(self, scale: Scale) -> float:
        return sum(cell.run_s(scale) for cell in self.cells)

    @property
    def messages(self) -> int:
        return sum(cell.messages for cell in self.cells)


class Bench:
    """Runs one workload's rounds and warm phase and checks their outputs."""

    def __init__(self, workload: workloads.Workload, scratch: Path) -> None:
        self.workload = workload
        self.scratch = scratch
        #: Cell identities, computed before any tracing.
        self.keys = [scenario_hash(scenario) for scenario in workload.scenarios]
        self.probes = Probes()
        self.rounds: List[Round] = []
        self.store: Optional[ResultStore] = None
        self.speed = Speedometer(CLOCK)
        #: Warm samples: ``(start, end, operations)``, ``end`` inf on failure.
        self.warm: List[Tuple[float, float, int]] = []
        self.warm_hits = 0
        self.warm_cells = 0
        self.spans_file: Optional[Path] = None
        self.attempted = 0
        self.failures: List[str] = []

    # ---------------------------------------------------------------- checks
    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def digest(self, results: List[Any]) -> str:
        rows = []
        for key, result in zip(self.keys, results):
            metrics = {k: v for k, v in result.metrics.items() if k not in DIGEST_EXCLUDED}
            rows.append([key, metrics])
        blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    # ---------------------------------------------------------------- phases
    def sweep(self, store: ResultStore) -> Tuple[List[Any], List[str]]:
        results = sweep_module.run_sweep(list(self.workload.scenarios), workers=1, store=store)
        reports = [
            reports_module.build_report(store, name, **kwargs)
            for name, kwargs in self.workload.reports
        ]
        return results, reports

    def cold_round(self) -> Round:
        if self.store is not None:
            self.store.close()
        path = self.scratch / f"round{len(self.rounds)}.sqlite"
        first_cell = len(self.probes.cells)
        gc.collect()
        start = CLOCK()
        self.store = ResultStore(path)
        results, reports = self.sweep(self.store)
        end = CLOCK()
        cells = self.probes.cells[first_cell:]
        self.attempted += len(cells)
        for cell in cells:
            for problem in cell.problems:
                self.check(False, problem)
        for scenario, result in zip(self.workload.scenarios, results):
            for problem in metric_problems(scenario.name, result.metrics):
                self.check(False, problem)
        done = Round(start, end, cells, self.digest(results), reports)
        if self.rounds:
            reference = self.rounds[0]
            self.check(done.digest == reference.digest, f"output digest {done.digest} != {reference.digest}")
            self.check(done.reports == reference.reports, "reports differ between cold rounds")
        self.check(len(cells) == len(self.keys), f"{len(cells)} of {len(self.keys)} cells simulated")
        self.rounds.append(done)
        return done

    def warm_batch(self) -> None:
        """:data:`WARM_SAMPLES` timed samples of warm operations on the last
        round's store; each sample is the mean of the workload's
        ``warm_ops_per_sample`` consecutive operations."""
        assert self.store is not None
        reference = self.rounds[-1]
        simulated_before = len(self.probes.cells)
        per_sample = self.workload.warm_ops_per_sample
        gc.collect()  # the cold round's garbage is not the warm operations' cost
        for _ in range(WARM_SAMPLES):
            outputs = []
            start = CLOCK()
            try:
                for _ in range(per_sample):
                    outputs.append(self.sweep(self.store))
            except Exception as exc:  # a failed operation counts against latency
                self.warm.append((start, math.inf, per_sample))
                self.check(False, f"warm operation raised {type(exc).__name__}: {exc}")
                continue
            self.warm.append((start, CLOCK(), per_sample))
            for results, reports in outputs:
                hits = sum(1 for result in results if result.cached)
                self.warm_hits += hits
                self.warm_cells += len(results)
                ok = (
                    self.check(hits == len(results), f"warm sweep missed {len(results) - hits} cells")
                    and self.check(reports == reference.reports, "warm reports differ from cold reports")
                    and self.check(self.digest(results) == reference.digest, "stored metrics differ from simulated ones")
                )
                if not ok:
                    self.warm[-1] = (start, math.inf, per_sample)
        self.check(
            len(self.probes.cells) == simulated_before,
            f"warm phase simulated {len(self.probes.cells) - simulated_before} cells",
        )

    # ------------------------------------------------------------------ runs
    def measure(self, seconds: float) -> Dict[str, Any]:
        """Untraced run: end-to-end metrics."""
        start = time.perf_counter()
        self.probes.install()
        self.speed.start()
        try:
            last = 0.0
            while len(self.rounds) < MIN_ROUNDS or time.perf_counter() - start + last <= seconds:
                began = time.perf_counter()
                self.cold_round()
                self.warm_batch()
                last = time.perf_counter() - began
        finally:
            self.speed.stop()
            self.probes.uninstall()
        scale, rounds = self.speed.scaled, self.rounds
        setups = [cell.setup_s(scale) for r in rounds for cell in r.cells]
        run_s = [r.run_s(scale) for r in rounds]
        warm = sorted(
            scale(a, b) * 1e3 / n if b != math.inf else math.inf for a, b, n in self.warm
        )
        values = {
            "setup_s": (statistics.median(setups), len(setups)),
            "run_s": (statistics.median(run_s), len(rounds)),
            "msgs_per_s": (
                statistics.median(r.messages / s for r, s in zip(rounds, run_s)), len(rounds)
            ),
            "cold_s": (statistics.median(r.cold_s(scale) for r in rounds), len(rounds)),
            "warm_p50_ms": (statistics.median(warm), len(warm)),
            "warm_p90_ms": (statistics.quantiles(warm, n=10)[8], len(warm)),
            "peak_rss_mb": (peak_rss_mb(), 1),
        }
        return {name: {"value": v, "samples": n} for name, (v, n) in values.items()}

    def traced(self, out_dir: Path, seed: int) -> Dict[str, Any]:
        """Traced run: per-layer metrics."""
        tracer = Tracer()
        self.speed.start()
        try:
            self.probes.install()
            try:
                self.cold_round()
                baseline = self.cold_round()
            finally:
                self.probes.uninstall()
            tracer.install()
            self.probes.install()
            try:
                traced = self.cold_round()
                self.warm_batch()
            finally:
                self.probes.uninstall()
                tracer.uninstall()
        finally:
            self.speed.stop()
        self.spans_file = tracer.write_spans(
            out_dir / f"trace-{self.workload.name}-seed{seed}.json",
            {"workload": self.workload.name, "seed": seed},
        )
        overhead = traced.run_s(self.speed.scaled) / baseline.run_s(self.speed.scaled) - 1.0
        values = layer_metrics(tracer, traced, overhead, self.warm_hits, self.warm_cells)
        return {name: {"value": value, "samples": 1} for name, value in values.items()}


def outermost_time(tracer: Tracer, keys: Tuple[str, ...]) -> float:
    """Seconds in spans named ``keys`` that are not nested in another of them."""
    targets = {tracer.index_of(key) for key in keys}
    inside: List[bool] = []
    total = 0.0
    for index, start, end, parent in tracer.spans:
        nested = parent >= 0 and inside[parent]
        inside.append(nested or index in targets)
        if index in targets and not nested:
            total += end - start
    return total


def layer_metrics(
    tracer: Tracer, traced: Round, overhead: float, warm_hits: int, warm_cells: int
) -> Dict[str, float]:
    """Every per-layer metric of ``spec.PER_LAYER`` from one traced run."""
    calls = tracer.call_count
    inclusive = tracer.inclusive_time
    events = sum(tracer.kinds.values())
    hops = calls("repro.network.router:Router.receive_packet")
    loop_s = inclusive("repro.core.engine:Simulator.run")
    values: Dict[str, float] = {
        "core.events": events,
        **{
            f"core.events.{kind.name.lower()}": tracer.kinds.get(int(kind), 0)
            for kind in EventKind
        },
        "core.events_per_hop": events / hops if hops else 0.0,
        "core.loop_s": loop_s,
        "core.us_per_event": loop_s * 1e6 / events if events else 0.0,
        "core.self_s": tracer.layer_self_time("core"),
        "network.build_s": outermost_time(
            tracer,
            (
                "repro.network.network:DragonflyNetwork.__init__",
                "repro.network.topology:DragonflyTopology.__init__",
            ),
        ),
        "network.hops": hops,
        "network.link_tx": calls("repro.network.link:Link.transmit"),
        "network.credits": calls("repro.network.link:Link.return_credit"),
        "network.nic_msgs": calls("repro.network.nic:Nic.send_message"),
        "network.self_s": tracer.layer_self_time("network"),
        "routing.route_calls": tracer.count_where(
            lambda name: name.startswith("repro.routing.") and name.endswith(".route")
        ),
        "routing.feedback_calls": calls("repro.routing.qadaptive:QAdaptiveRouting._apply_feedback"),
        "routing.qtable_updates": calls("repro.routing.qtable:QTable.update"),
        "routing.qtable_entries": sum(cell.qtable_entries for cell in traced.cells),
        "routing.self_s": tracer.layer_self_time("routing"),
        "stats.calls": tracer.layer_calls("stats"),
        "stats.self_s": tracer.layer_self_time("stats"),
        "mpi.add_job_s": inclusive("repro.mpi.engine:MpiEngine.add_job"),
        "mpi.msgs": calls("repro.mpi.engine:MpiEngine.isend"),
        "mpi.self_s": tracer.layer_self_time("mpi"),
        "workloads.self_s": tracer.layer_self_time("workloads"),
        "placement.allocate_s": inclusive("repro.placement.allocator:NodeAllocator.allocate"),
        "flow.build_s": inclusive("repro.flow.network:FlowNetwork.__init__"),
        "flow.sends": calls("repro.flow.network:FlowNetwork.send_message"),
        "flow.self_s": tracer.layer_self_time("flow"),
        "results.flatten_s": inclusive("repro.results.schema:flatten_run"),
        "results.record_calls": calls("repro.results.store:ResultStore.record"),
        "results.record_s": inclusive("repro.results.store:ResultStore.record"),
        "results.get_calls": calls("repro.results.store:ResultStore.get"),
        "results.get_s": inclusive("repro.results.store:ResultStore.get"),
        "results.hit_ratio": warm_hits / warm_cells if warm_cells else 0.0,
        "experiments.hash_calls": calls("repro.experiments.scenario:scenario_hash"),
        "experiments.hash_s": inclusive("repro.experiments.scenario:scenario_hash"),
        "experiments.sweep_s": inclusive("repro.experiments.sweep:run_sweep"),
        "analysis.report_s": inclusive("repro.analysis.reports:build_report"),
        "trace.overhead": overhead,
    }
    return values


def peak_rss_mb() -> float:
    """Peak resident memory of this process, MB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, speed: Speedometer) -> Dict[str, Any]:
    default = SimulationConfig()
    return {
        "commit": git_commit(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "backend": active_backend_name(default),
        "fidelity": active_fidelity_name(default),
        "seed": seed,
        # The fixed calibration loop, sampled through the run: metadata that
        # lets times from different hosts be read side by side.
        "calibration_snippets_per_s": round(speed.score(), 1),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = workloads.build(args.workload, args.seed, args.size)
    args.out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.out, prefix="stores-") as scratch:
        bench = Bench(workload, Path(scratch))
        try:
            if args.trace:
                metrics = bench.traced(args.out, args.seed)
            else:
                metrics = bench.measure(args.seconds)
        finally:
            if bench.store is not None:
                bench.store.close()
    print(
        json.dumps(
            {
                "workload": args.workload,
                "trace": args.trace,
                "metrics": metrics,
                "digest": bench.rounds[0].digest if bench.rounds else None,
                "attempted": bench.attempted,
                "failures": bench.failures,
                "provenance": provenance(args.seed, bench.speed),
                "spans_file": str(bench.spans_file.relative_to(ROOT)) if bench.spans_file else None,
                "rounds": [
                    {
                        "cpu_s": r.end - r.start,
                        "cold_s": r.cold_s(bench.speed.scaled),
                        "run_s": r.run_s(bench.speed.scaled),
                    }
                    for r in bench.rounds
                ],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
