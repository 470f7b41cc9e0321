"""Experiment configurations: paper scale and benchmark scale.

The paper evaluates a 1,056-node Dragonfly with application volumes of
several GB per run.  A pure-Python flit-timing simulation cannot sweep that
within a benchmark suite, so every experiment is defined twice:

* the **paper** configuration (``repro.config.paper_system()``, job sizes of
  Table II, half-system pairwise runs) is constructible and documented here
  so the full-scale study can be launched when time permits;
* the **bench** configuration uses the 72-node system and per-application
  rank counts / message sizes chosen so that the *relative* intensities of
  Table I (who is burstier than whom) are preserved while each run finishes
  in seconds.

See DESIGN.md ("Substitutions") and EXPERIMENTS.md for the mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.config import SimulationConfig, small_system

__all__ = [
    "AppSpec",
    "BENCH_RANKS",
    "MIXED_WORKLOAD_FRACTIONS",
    "ML_RANKS",
    "PAPER_TABLE2_JOB_SIZES",
    "ROUTINGS",
    "SYNTHETIC_RANKS",
    "bench_config",
    "bench_spec",
    "mixed_workload_specs",
    "ml_spec",
    "pairwise_specs",
    "synthetic_spec",
]

#: The four routing algorithms compared throughout the paper's evaluation.
ROUTINGS: List[str] = ["ugal-g", "ugal-n", "par", "q-adaptive"]

#: Job sizes (nodes) of the paper's mixed workload (Table II, 1,056-node system).
PAPER_TABLE2_JOB_SIZES: Dict[str, int] = {
    "FFT3D": 140,
    "CosmoFlow": 138,
    "LU": 140,
    "UR": 139,
    "LQCD": 256,
    "Stencil5D": 243,
}

#: Fraction of the system each mixed-workload job occupies (from Table II).
MIXED_WORKLOAD_FRACTIONS: Dict[str, float] = {
    name: size / 1056.0 for name, size in PAPER_TABLE2_JOB_SIZES.items()
}

#: Benchmark-scale rank counts used for Table I and pairwise runs.  The
#: values are chosen so each application's process grid is reasonably shaped
#: on the 72-node system (e.g. 27 = 3x3x3 for Halo3D/LULESH, 32 = 2^5 for
#: Stencil5D) and the per-run packet counts stay tractable.
BENCH_RANKS: Dict[str, int] = {
    "UR": 24,
    "LU": 25,
    "FFT3D": 24,
    "Halo3D": 27,
    "LQCD": 36,
    "Stencil5D": 32,
    "CosmoFlow": 24,
    "DL": 24,
    "LULESH": 27,
}

#: Benchmark-scale rank counts of the synthetic traffic-pattern family
#: (see :mod:`repro.workloads.synthetic`).  Kept separate from
#: :data:`BENCH_RANKS` so Table I — defined over the paper's nine proxy
#: applications — is unchanged by the synthetic catalog.  32 = 2^5 keeps the
#: bit-permutation patterns (bit-complement, transpose) exact.
SYNTHETIC_RANKS: Dict[str, int] = {
    "permutation": 32,
    "shift": 32,
    "bit-complement": 32,
    "transpose": 32,
    "hotspot": 32,
    "bursty": 32,
}

#: Benchmark-scale rank counts of the ML-collective training-traffic family
#: (see :mod:`repro.workloads.mlcollectives`).  32 ranks keep the ring and
#: all-to-all schedules comparable with the synthetic catalog; the pipeline
#: runs 16 stages (deep enough to fill, shallow enough that the chain's
#: serial ramp stays cheap).
ML_RANKS: Dict[str, int] = {
    "ml.ring_allreduce": 32,
    "ml.moe_alltoall": 32,
    "ml.pipeline_p2p": 16,
}

#: Rank counts used when two applications co-run on the 72-node system.  As
#: in the paper the pair together fills most of the machine (the paper splits
#: the 1,056-node system in half per application).
PAIRWISE_RANKS: Dict[str, int] = {
    "UR": 32,
    "LU": 30,
    "FFT3D": 32,
    "Halo3D": 36,
    "LQCD": 32,
    "Stencil5D": 32,
    "CosmoFlow": 32,
    "DL": 32,
    "LULESH": 27,
    **SYNTHETIC_RANKS,
    **ML_RANKS,
}

#: Extra iterations given to the *background* application of a pairwise run so
#: its traffic stays active for the whole duration of the target application —
#: in the paper every application runs for a comparable ~13 ms window, so the
#: background never drains early.
BACKGROUND_ITERATION_BOOST: Dict[str, int] = {
    "UR": 60,
    "LU": 10,
    "FFT3D": 4,
    "Halo3D": 10,
    "LQCD": 4,
    "Stencil5D": 3,
    "CosmoFlow": 3,
    "DL": 5,
    "LULESH": 6,
    # The synthetic patterns are UR-class small-message workloads; like UR
    # they need many iterations to stay active for a whole target run.
    "permutation": 60,
    "shift": 60,
    "bit-complement": 60,
    "transpose": 60,
    "hotspot": 60,
    "bursty": 90,  # only duty_cycle of its iterations inject
    # ML collectives move larger per-iteration volumes than the synthetic
    # patterns, so a moderate boost keeps them active for a full target run.
    "ml.ring_allreduce": 8,
    "ml.moe_alltoall": 8,
    "ml.pipeline_p2p": 6,
}


@dataclass(frozen=True)
class AppSpec:
    """Declarative description of one job in an experiment.

    Construction is eagerly validated, mirroring
    :class:`~repro.config.RoutingConfig`: the application name is resolved
    against the workload registry (and canonicalized), ``num_ranks`` must be
    a positive integer, ``kwargs`` must only contain keywords the
    application's constructor accepts, and ``start_time`` — the simulated
    time (ns) at which the job's ranks begin executing — must be finite and
    non-negative.  A bad spec therefore fails where the experiment is
    *described*, with the offending job named, rather than inside a worker.
    """

    name: str
    num_ranks: int
    kwargs: dict = field(default_factory=dict)
    #: Simulated arrival time of the job in ns (0.0 = present from the start).
    start_time: float = 0.0

    def __post_init__(self) -> None:
        from repro.workloads import application_kwargs, resolve_application

        if not isinstance(self.name, str):
            raise ValueError(f"job name must be a string, got {self.name!r}")
        canonical = resolve_application(self.name)
        if canonical != self.name:
            object.__setattr__(self, "name", canonical)
        if isinstance(self.num_ranks, bool) or not isinstance(self.num_ranks, int):
            raise ValueError(
                f"job {self.name!r}: num_ranks must be an integer, "
                f"got {self.num_ranks!r}"
            )
        if self.num_ranks < 1:
            raise ValueError(
                f"job {self.name!r} needs a positive rank count, got {self.num_ranks}"
            )
        if not isinstance(self.kwargs, dict):
            raise ValueError(f"job {self.name!r}: kwargs must be a dict")
        accepted = application_kwargs(self.name)
        if accepted is not None:
            unknown = sorted(set(self.kwargs) - set(accepted))
            if unknown:
                raise ValueError(
                    f"job {self.name!r} does not accept kwargs {unknown}; "
                    f"valid kwargs: {sorted(accepted)}"
                )
        seed = self.kwargs.get("seed")
        if seed is not None and (
            isinstance(seed, bool) or not isinstance(seed, int) or seed < 0
        ):
            # The per-application RNG streams derive numpy seeds from this,
            # which must be non-negative integers; catch it here with the
            # job named instead of as a bare numpy error in a sweep worker.
            raise ValueError(
                f"job {self.name!r}: seed must be a non-negative integer, got {seed!r}"
            )
        try:
            start = float(self.start_time)
        except (TypeError, ValueError):
            raise ValueError(
                f"job {self.name!r}: start_time must be a number, "
                f"got {self.start_time!r}"
            ) from None
        if not math.isfinite(start) or start < 0:
            raise ValueError(
                f"job {self.name!r}: start_time must be finite and non-negative, "
                f"got {self.start_time!r}"
            )
        object.__setattr__(self, "start_time", start)

    def with_ranks(self, num_ranks: int) -> "AppSpec":
        """Copy of this spec with a different rank count."""
        return AppSpec(self.name, num_ranks, dict(self.kwargs), self.start_time)

    def with_start_time(self, start_time: float) -> "AppSpec":
        """Copy of this spec arriving at ``start_time`` ns."""
        return AppSpec(self.name, self.num_ranks, dict(self.kwargs), start_time)


#: Link bandwidth (Gb/s) of the benchmark system.  The paper uses 200 Gb/s
#: Slingshot-class links with GB-scale per-application volumes; the benchmark
#: volumes are ~1000x smaller, so the link speed is reduced to keep the
#: *offered load relative to capacity* — and therefore the contention the
#: routing algorithms must resolve — in the same regime (see EXPERIMENTS.md).
BENCH_LINK_BANDWIDTH_GBPS = 50.0


def bench_config(
    routing: str = "par",
    seed: int = 1,
    stats_bin_ns: float = 20_000.0,
    record_packets: bool = True,
    link_bandwidth_gbps: float = BENCH_LINK_BANDWIDTH_GBPS,
) -> SimulationConfig:
    """Benchmark-scale simulation configuration (72-node system)."""
    config = SimulationConfig(
        system=small_system().scaled(link_bandwidth_gbps=link_bandwidth_gbps),
        seed=seed,
        stats_bin_ns=stats_bin_ns,
        record_packets=record_packets,
    )
    return config.with_routing(routing)


def bench_spec(name: str, num_ranks: Optional[int] = None, **kwargs: Any) -> AppSpec:
    """Benchmark-scale spec for application ``name`` (defaults from BENCH_RANKS)."""
    if name not in BENCH_RANKS:
        raise ValueError(f"unknown application {name!r}")
    ranks = num_ranks if num_ranks is not None else BENCH_RANKS[name]
    return AppSpec(name, ranks, kwargs)


def synthetic_spec(
    pattern: str, num_ranks: Optional[int] = None, start_time: float = 0.0, **kwargs: Any
) -> AppSpec:
    """Benchmark-scale spec for one synthetic traffic pattern.

    ``kwargs`` carry the pattern knobs (``hot_fraction``, ``duty_cycle``,
    ``burst_length``, ``shift``, …); rank counts default to
    :data:`SYNTHETIC_RANKS`.
    """
    from repro.workloads import resolve_application

    pattern = resolve_application(pattern)
    if pattern not in SYNTHETIC_RANKS:
        raise ValueError(
            f"{pattern!r} is not a synthetic pattern; choose from {sorted(SYNTHETIC_RANKS)}"
        )
    ranks = num_ranks if num_ranks is not None else SYNTHETIC_RANKS[pattern]
    return AppSpec(pattern, ranks, kwargs, start_time)


def ml_spec(
    pattern: str, num_ranks: Optional[int] = None, start_time: float = 0.0, **kwargs: Any
) -> AppSpec:
    """Benchmark-scale spec for one ML-collective pattern.

    ``pattern`` accepts the registry name with or without the ``ml.`` prefix
    (``"ring_allreduce"`` == ``"ml.ring_allreduce"``); ``kwargs`` carry the
    pattern knobs (``payload_bytes``, ``capacity_factor``, ``microbatches``,
    …).  Rank counts default to :data:`ML_RANKS`.
    """
    from repro.workloads import resolve_application

    name = pattern if pattern.startswith("ml.") else f"ml.{pattern}"
    name = resolve_application(name)
    if name not in ML_RANKS:
        raise ValueError(
            f"{pattern!r} is not an ML-collective pattern; choose from {sorted(ML_RANKS)}"
        )
    ranks = num_ranks if num_ranks is not None else ML_RANKS[name]
    return AppSpec(name, ranks, kwargs, start_time)


def pairwise_specs(
    target: str,
    background: Optional[str],
    scale: float = 1.0,
    target_ranks: Optional[int] = None,
    background_ranks: Optional[int] = None,
) -> List[AppSpec]:
    """Specs for one pairwise co-run (``background=None`` -> standalone).

    The background application gets an iteration count large enough to keep
    injecting traffic for the whole target run (see
    :data:`BACKGROUND_ITERATION_BOOST`).  Rank counts default to
    :data:`PAIRWISE_RANKS` (together roughly filling the 72-node benchmark
    system) and can be overridden for smaller test systems.
    """
    specs = [AppSpec(target, target_ranks or PAIRWISE_RANKS[target], {"scale": scale})]
    if background is not None:
        if background == target:
            raise ValueError("target and background must be different applications")
        kwargs = {"scale": scale, "seed": 7, "iterations": BACKGROUND_ITERATION_BOOST[background]}
        specs.append(AppSpec(background, background_ranks or PAIRWISE_RANKS[background], kwargs))
    return specs


def mixed_workload_specs(
    total_nodes: int = 70, scale: float = 1.0, names: Optional[Sequence[str]] = None
) -> List[AppSpec]:
    """Mixed-workload specs scaled down from Table II proportions.

    Each application receives a share of ``total_nodes`` proportional to its
    paper job size (LQCD and Stencil5D get the larger shares so they can form
    their high-dimensional process grids, exactly as in the paper).
    """
    selected = list(names) if names is not None else list(PAPER_TABLE2_JOB_SIZES)
    total_fraction = sum(MIXED_WORKLOAD_FRACTIONS[name] for name in selected)
    specs = []
    for index, name in enumerate(selected):
        share = MIXED_WORKLOAD_FRACTIONS[name] / total_fraction
        ranks = max(4, int(round(share * total_nodes)))
        specs.append(AppSpec(name, ranks, {"scale": scale, "seed": 11 + index}))
    # Trim if rounding overshot the node budget.
    while sum(s.num_ranks for s in specs) > total_nodes:
        largest = max(specs, key=lambda s: s.num_ranks)
        specs[specs.index(largest)] = largest.with_ranks(largest.num_ranks - 1)
    return specs
