"""Report generation: render tables and figure rows as text, CSV or Markdown.

Two kinds of entry point live here:

* **renderers** — :func:`format_table` (aligned plain text),
  :func:`format_csv`, :func:`format_markdown` and the :func:`render_rows`
  dispatcher turn a list of dict rows into a string;
* **store-backed report builders** — :func:`table1_rows`,
  :func:`table2_rows` and (via :mod:`repro.analysis.pairwise` /
  :mod:`repro.analysis.mixed`) the pairwise/mixed comparison rows read a
  populated :class:`~repro.results.ResultStore` and rebuild the paper's
  tables **without launching a single simulation**.  Each reads the runs
  one :class:`ReportFilter` selects.  :func:`build_report` dispatches on a
  report name and backs the ``dragonfly-sim report`` subcommand (see
  docs/results.md).  The ``table1`` and ``pairwise`` study commands record
  their runs into an in-memory store and print these same reports.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.results import ResultStore
    from repro.results.store import StoredResult

__all__ = [
    "OUTPUT_FORMATS",
    "ReportFilter",
    "build_report",
    "format_csv",
    "format_markdown",
    "format_table",
    "loadcurve_rows",
    "render_rows",
    "report_names",
    "synthetic_rows",
    "table1_rows",
    "table2_rows",
]

#: Column schemas of the store-backed reports.
TABLE1_COLUMNS = [
    "pattern",
    "app",
    "total_msg_bytes",
    "execution_time_ns",
    "injection_rate_gbps",
    "peak_ingress_bytes",
]
TABLE2_COLUMNS = [
    "app",
    "paper_nodes",
    "paper_fraction",
    "bench_nodes",
    "bench_fraction",
    "comm_time_ns",
]
PAIRWISE_COLUMNS = [
    "routing",
    "target",
    "background",
    "standalone_comm_ns",
    "interfered_comm_ns",
    "slowdown",
    "variation",
]
MIXED_COLUMNS = [
    "routing",
    "app",
    "standalone_comm_ns",
    "interfered_comm_ns",
    "slowdown",
    "variation",
]
LOADCURVE_COLUMNS = [
    "routing",
    "pattern",
    "fidelity",
    "offered_load",
    "window_ns",
    "accepted_throughput_gbps",
    "latency_mean_ns",
    "latency_p50_ns",
    "latency_p99_ns",
]


# ------------------------------------------------------------------ renderers
def format_table(rows: Sequence[dict], columns: Optional[Sequence[str]] = None) -> str:
    """Render a list of dict rows as an aligned plain-text table."""
    if not rows:
        return "(empty table)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered: List[List[str]] = [[str(c) for c in columns]]
    for row in rows:
        rendered.append([_format_cell(row.get(c, "")) for c in columns])
    widths = [max(len(r[i]) for r in rendered) for i in range(len(columns))]
    lines = []
    for index, row in enumerate(rendered):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def format_csv(rows: Sequence[dict], columns: Optional[Sequence[str]] = None) -> str:
    """Render dict rows as CSV (header + one line per row, raw values)."""
    if not rows:
        return ""
    if columns is None:
        columns = list(rows[0].keys())
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row.get(c, "") for c in columns])
    return buffer.getvalue().rstrip("\n")


def format_markdown(rows: Sequence[dict], columns: Optional[Sequence[str]] = None) -> str:
    """Render dict rows as a GitHub-flavoured Markdown table."""
    if not rows:
        return "(empty table)"
    if columns is None:
        columns = list(rows[0].keys())
    lines = [
        "| " + " | ".join(str(c) for c in columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_format_cell(row.get(c, "")) for c in columns) + " |")
    return "\n".join(lines)


_FORMATS = {"table": format_table, "csv": format_csv, "markdown": format_markdown}

#: Names ``render_rows``/``build_report`` accept — the CLI's --format choices.
OUTPUT_FORMATS = tuple(sorted(_FORMATS))


def render_rows(
    rows: Sequence[dict], columns: Optional[Sequence[str]] = None, fmt: str = "table"
) -> str:
    """Render ``rows`` in one of the supported formats (table/csv/markdown)."""
    try:
        renderer = _FORMATS[fmt]
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}; choose from {sorted(_FORMATS)}") from None
    return renderer(rows, columns)


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        if abs(value) >= 1000:
            return f"{value:,.1f}"
        return f"{value:.3f}"
    return str(value)


# ------------------------------------------------- store-backed report builders
@dataclass(frozen=True)
class ReportFilter:
    """Which stored runs a report reads (``None`` = any value of that axis).

    ``routing``, ``placement`` and the job names of ``knobs`` are
    canonicalized at construction (``"UGALG"`` -> ``"ugal-g"``,
    ``"Random"`` -> ``"random"``, ``"HOTSPOT"`` -> ``"hotspot"``), because
    stored runs carry canonical names; an unknown value raises
    ``ValueError`` naming the field.  ``start_time`` keeps one arrival
    stagger, ``knobs`` (``{job: {kwarg: value}}``) one cell of a
    ``job_knobs`` sweep and ``fidelity`` one simulation fidelity — see
    :meth:`repro.results.ResultStore.runs`, whose filters these are.
    """

    routing: Optional[str] = None
    seed: Optional[int] = None
    scale: Optional[float] = None
    placement: Optional[str] = None
    start_time: Optional[float] = None
    knobs: Optional[Dict[str, Dict[str, object]]] = None
    fidelity: Optional[str] = None

    def __post_init__(self) -> None:
        from repro.placement import resolve_placement
        from repro.routing import resolve_algorithm
        from repro.workloads import resolve_application

        # The resolvers' own errors name the routing algorithm / placement
        # policy; a bad knob job name says it came from the knobs filter.
        if self.routing is not None:
            object.__setattr__(self, "routing", resolve_algorithm(self.routing))
        if self.placement is not None:
            object.__setattr__(self, "placement", resolve_placement(self.placement))
        if self.knobs is not None:
            try:
                knobs = {resolve_application(job): dict(kw) for job, kw in self.knobs.items()}
            except ValueError as exc:
                raise ValueError(f"knobs filter: {exc}") from None
            object.__setattr__(self, "knobs", knobs)

    def query(self) -> Dict[str, Any]:
        """The keyword arguments of :meth:`ResultStore.runs` this filter stands for."""
        return {field.name: getattr(self, field.name) for field in fields(self)}

    def runs(self, store: "ResultStore", family: str) -> List["StoredResult"]:
        """Stored runs of ``family`` (exact name or grid expansion) that match."""
        return store.runs_named(family, **self.query())

    def baseline(self) -> "ReportFilter":
        """This filter for a comparison's baseline: the simultaneous-arrival,
        knob-free standalone run (a standalone job delayed into an empty
        network is the same experiment shifted in time)."""
        return replace(self, start_time=0.0, knobs=None)


def _intensity(runs: Sequence["StoredResult"], job: str) -> Dict[str, float]:
    """Table I's four intensity metrics of ``job``, averaged over ``runs``."""
    from repro.results.store import mean_metric

    return {metric: mean_metric(runs, metric, job) for metric in TABLE1_COLUMNS[2:]}


def table1_rows(store: "ResultStore", where: ReportFilter = ReportFilter()) -> List[dict]:
    """Table I rows (application communication intensity) from a result store.

    Selects the stored ``table1/<App>`` standalone runs that match
    ``where``, aggregates each metric across them (mean over seeds), and
    returns one row per application.  No simulation is launched.  Raises
    ``ValueError`` on an unpopulated store.
    """
    from repro.results.store import ensure_uniform
    from repro.workloads import APPLICATIONS

    by_app: Dict[str, list] = {}
    for run in store.runs(name_prefix="table1/", **where.query()):
        if len(run.jobs) == 1:
            by_app.setdefault(run.jobs[0], []).append(run)
    if not by_app:
        raise ValueError(
            "no table1/<App> runs in the store; populate it with e.g. "
            "'dragonfly-sim run table1/FFT3D --store PATH' or "
            "'dragonfly-sim sweep --scenario table1/FFT3D --store PATH'"
        )
    rows = []
    for app in sorted(by_app):
        ensure_uniform(by_app[app], f"table1/{app}")
        pattern = APPLICATIONS[app].pattern
        rows.append({"pattern": pattern, "app": app, **_intensity(by_app[app], app)})
    return rows


def table2_rows(store: "ResultStore", where: ReportFilter = ReportFilter()) -> List[dict]:
    """Table II rows (mixed-workload job sizes + measured comm time) from a store.

    Job sizes come from the stored ``mixed/table2`` scenario description and
    are compared against the paper's 1,056-node Table II proportions;
    ``comm_time_ns`` is each application's mean communication time in the
    mix, aggregated across the runs that match ``where``.
    """
    from repro.experiments.configs import PAPER_TABLE2_JOB_SIZES
    from repro.results.store import ensure_uniform, mean_metric

    runs = where.runs(store, "mixed/table2")
    if not runs:
        raise ValueError(
            "no mixed/table2 runs in the store; populate it with "
            "'dragonfly-sim sweep --scenario mixed/table2 --store PATH'"
        )
    ensure_uniform(runs, "mixed/table2")
    ranks = runs[0].job_ranks()
    total = sum(ranks.values())
    paper_total = float(sum(PAPER_TABLE2_JOB_SIZES.values()))
    rows = []
    for app in ranks:
        paper_nodes = PAPER_TABLE2_JOB_SIZES.get(app)
        rows.append(
            {
                "app": app,
                "paper_nodes": paper_nodes if paper_nodes is not None else "",
                "paper_fraction": paper_nodes / paper_total if paper_nodes else 0.0,
                "bench_nodes": ranks[app],
                "bench_fraction": ranks[app] / total,
                "comm_time_ns": mean_metric(runs, "comm_time_ns", app),
            }
        )
    return rows


def synthetic_rows(
    store: "ResultStore", target: str, where: ReportFilter = ReportFilter()
) -> List[dict]:
    """Synthetic-background comparison rows for one target — no simulation.

    For every synthetic pattern with a stored ``pairwise/<target>+<pattern>``
    co-run matching ``where``, builds the Fig. 4-style comparison against
    the stored ``pairwise/<target>`` baseline (one row per pattern ×
    routing).  This is the ``dragonfly-sim report synthetic/<Target>``
    table: how much each traffic pattern slows the target down, side by
    side.
    """
    from repro.analysis.pairwise import comparison_rows
    from repro.workloads import SYNTHETIC_PATTERNS, resolve_application

    target = resolve_application(target)
    # One prefix query discovers every stored background family; the names
    # are either "pairwise/<T>+<p>" or a grid expansion "...[axis,...]".
    prefix = f"pairwise/{target}+"
    present = {
        run.name[len(prefix):].partition("[")[0]
        for run in store.runs(name_prefix=prefix, **where.query())
    }
    found = [pattern for pattern in sorted(SYNTHETIC_PATTERNS) if pattern in present]
    if not found:
        raise ValueError(
            f"no stored pairwise/{target}+<pattern> runs for any synthetic "
            f"pattern ({sorted(SYNTHETIC_PATTERNS)}); populate the store with "
            f"e.g. 'dragonfly-sim run pairwise/{target}+hotspot --store PATH' "
            f"(and 'dragonfly-sim run pairwise/{target} --store PATH' for the baseline)"
        )
    rows = [row for pattern in found for row in comparison_rows(store, target, pattern, where)]
    rows.sort(key=lambda row: (row["background"], row["routing"]))
    return rows


def _intensity_rows(
    store: "ResultStore",
    family: str,
    job: str,
    identity: Dict[str, str],
    populate: str,
    where: ReportFilter,
) -> List[dict]:
    """Intensity rows of one standalone ``family``, one per routing.

    ``job`` names the run's per-app metrics, ``identity`` gives the rows'
    ``pattern``/``app`` columns and ``populate`` is the command a missing
    family's error points at.  Backs the ``synthetic/<pattern>``,
    ``ml/<pattern>`` and ``trace/<name>`` reports.
    """
    from repro.results.store import ensure_uniform

    runs = where.runs(store, family)
    if not runs:
        raise ValueError(f"no stored {family} runs; populate the store with '{populate}'")
    rows = []
    for routing in sorted({run.routing for run in runs}):
        matched = [run for run in runs if run.routing == routing]
        ensure_uniform(matched, family)
        rows.append({"routing": routing, **identity, **_intensity(matched, job)})
    return rows


def loadcurve_rows(
    store: "ResultStore", pattern: str, where: ReportFilter = ReportFilter()
) -> List[dict]:
    """Latency-vs-offered-load curve rows for one pattern — no simulation.

    Reads the stored ``loadcurve/<pattern>`` steady-state runs (see
    :func:`repro.experiments.scenario.loadcurve_scenario`) that match
    ``where``, groups them by routing algorithm × offered load ×
    measurement window × arrival config, aggregates each group across
    seeds, and returns one row per group sorted so each routing algorithm's
    rows trace its latency-throughput curve.  Every reported metric is a
    measurement-window metric: warmup is excluded by construction.  A store
    holding several window configs of one pattern yields one row per
    config, told apart by the ``window_ns`` column
    (``warmup+measurement``); ``where.start_time`` narrows to one arrival
    stagger like the other reports.
    """
    from repro.results.store import ensure_uniform, mean_metric
    from repro.workloads import SYNTHETIC_PATTERNS, resolve_application

    pattern = resolve_application(pattern)
    if pattern not in SYNTHETIC_PATTERNS:
        raise ValueError(
            f"{pattern!r} is not a synthetic pattern; loadcurve reports cover "
            f"{sorted(SYNTHETIC_PATTERNS)}"
        )
    runs = where.runs(store, f"loadcurve/{pattern}")
    if not runs:
        raise ValueError(
            f"no stored loadcurve/{pattern} runs; populate the store with e.g. "
            f"'dragonfly-sim sweep --scenario loadcurve/{pattern} "
            f"--offered-loads 0.1 0.4 0.7 --store PATH'"
        )
    groups: Dict[tuple, list] = {}
    for run in runs:
        loads = {load for load in run.job_offered_loads() if load is not None}
        if len(loads) != 1:
            continue  # not a single-load steady-state run
        # Fidelity is a grouping axis: packet- and flow-level points of one
        # pattern trace *separate* curves (flow latencies are message-level
        # approximations), never one blended statistic.
        key = (
            run.routing, loads.pop(), run.window(), run.job_start_times(),
            run.fidelity(),
        )
        groups.setdefault(key, []).append(run)
    rows = []
    # Stringify the window for ordering: a warmup-only config carries
    # measurement_ns=None, which floats refuse to compare against.
    for routing, load, window, _starts, fidelity in sorted(
        groups, key=lambda k: (k[0], k[1], tuple(str(part) for part in k[2]), k[3], k[4])
    ):
        matched = groups[(routing, load, window, _starts, fidelity)]
        ensure_uniform(matched, f"loadcurve/{pattern}")
        warmup, measurement = window
        # Flow-level runs have no packets: their windowed latency columns
        # come from the message-level analogues (see docs/fidelity.md).
        latency = "measured_message_latency" if fidelity == "flow" else "measured_packet_latency"
        rows.append(
            {
                "routing": routing,
                "pattern": pattern,
                "fidelity": fidelity,
                "offered_load": load,
                "window_ns": f"{warmup:g}+{measurement:g}" if measurement else f"{warmup:g}+",
                "accepted_throughput_gbps": mean_metric(matched, "accepted_throughput_gbps"),
                "latency_mean_ns": mean_metric(matched, f"{latency}_mean_ns"),
                "latency_p50_ns": mean_metric(matched, f"{latency}_p50_ns"),
                "latency_p99_ns": mean_metric(matched, f"{latency}_p99_ns"),
            }
        )
    return rows


def report_names() -> List[str]:
    """Names ``build_report`` accepts (pairwise reports are parameterized)."""
    return [
        "table1",
        "table2",
        "mixed",
        "pairwise/<Target>+<Background>",
        "synthetic/<Target>",
        "synthetic/<pattern>",
        "loadcurve/<pattern>",
        "ml/<pattern>",
        "trace/<name>",
    ]


def build_report(store: "ResultStore", name: str, fmt: str = "table", **filters: Any) -> str:
    """Build a named report from a result store, rendered in ``fmt``.

    ``name`` is ``table1``, ``table2``, ``mixed`` (the Fig. 10 interference
    rows), ``pairwise/<Target>+<Background>`` (``pairwise/<Target>`` for
    the standalone baseline row), ``synthetic/<Target>`` (the target
    against every stored synthetic background), ``synthetic/<pattern>``
    (that pattern's standalone intensity per routing),
    ``loadcurve/<pattern>`` (the steady-state latency-vs-offered-load
    curve, one row per routing × load), ``ml/<pattern>`` (standalone
    ML-collective intensity per routing) or ``trace/<name>`` (stored
    trace-replay intensity per routing).  ``filters`` are the fields of
    :class:`ReportFilter` and narrow the stored runs considered; metrics
    are aggregated (mean) across whatever still matches.  ``fidelity``
    disambiguates stores holding packet- and flow-level runs of one
    scenario (see docs/fidelity.md): the two are different approximations
    and are never averaged together.  Backs ``dragonfly-sim report``.
    """
    from repro.workloads import ML_COLLECTIVES, SYNTHETIC_PATTERNS, resolve_application

    where = ReportFilter(**filters)
    kind, _, arg = name.partition("/")
    # Every parameterized report needs its name; a pairwise one its target.
    if kind in ("pairwise", "synthetic", "loadcurve", "ml", "trace") and (
        not arg or (kind == "pairwise" and arg.startswith("+"))
    ):
        usage = [n for n in report_names() if n.startswith(kind + "/")]
        raise ValueError(f"{kind} report needs a name: {' or '.join(usage)}")
    intensity_columns = ["routing"] + TABLE1_COLUMNS
    if name == "table1":
        title = "Table I — application communication intensity"
        rows, columns = table1_rows(store, where), TABLE1_COLUMNS
    elif name in ("table2", "mixed/table2"):
        title = "Table II — mixed workload job sizes and communication time"
        rows, columns = table2_rows(store, where), TABLE2_COLUMNS
    elif name == "mixed":
        from repro.analysis.mixed import mixed_rows_from_store

        title = "Mixed workload — per-application interference (Fig. 10)"
        rows, columns = mixed_rows_from_store(store, where), MIXED_COLUMNS
    elif kind == "pairwise":
        from repro.analysis.pairwise import comparison_rows

        target, _, background = arg.partition("+")
        title = f"Pairwise interference — {arg} (Fig. 4)"
        rows = comparison_rows(store, target, background or None, where)
        columns = PAIRWISE_COLUMNS
    elif kind == "loadcurve":
        title = f"Steady-state latency vs offered load — {arg}"
        rows, columns = loadcurve_rows(store, arg, where), LOADCURVE_COLUMNS
    elif kind == "ml":
        app = resolve_application(arg if arg.startswith("ml.") else f"ml.{arg}")
        if app not in ML_COLLECTIVES:
            raise ValueError(
                f"{arg!r} is not an ML-collective pattern; ml reports cover "
                f"{sorted(ML_COLLECTIVES)}"
            )
        short = app.split(".", 1)[1]
        title = f"ML-collective intensity — {arg} (standalone)"
        rows = _intensity_rows(
            store, f"ml/{short}", app, {"pattern": ML_COLLECTIVES[app].pattern, "app": app},
            f"dragonfly-sim run ml/{short} --store PATH", where,
        )
        columns = intensity_columns
    elif kind == "trace":
        title = f"Trace replay intensity — {arg}"
        # The replayed job is always named "trace" in the run's metrics.
        rows = _intensity_rows(
            store, f"trace/{arg}", "trace", {"pattern": "trace-replay", "app": arg},
            "dragonfly-sim trace replay PATH.trace.jsonl --store PATH", where,
        )
        columns = intensity_columns
    elif kind == "synthetic" and resolve_application(arg) in SYNTHETIC_PATTERNS:
        # `synthetic/<pattern>` is also a scenario family ("run" stores its
        # standalone runs under that name), so a pattern name here reports
        # those runs rather than treating the pattern as a co-run target.
        pattern = resolve_application(arg)
        title = f"Synthetic pattern intensity — {pattern} (standalone)"
        rows = _intensity_rows(
            store, f"synthetic/{pattern}", pattern, {"pattern": pattern, "app": pattern},
            f"dragonfly-sim run synthetic/{pattern} --store PATH", where,
        )
        columns = intensity_columns
    elif kind == "synthetic":
        title = f"Synthetic-background interference — {arg}"
        rows, columns = synthetic_rows(store, arg, where), PAIRWISE_COLUMNS
    else:
        raise ValueError(f"unknown report {name!r}; choose from {report_names()}")

    body = render_rows(rows, columns, fmt)
    if fmt == "csv":
        return body
    if fmt == "markdown":
        return f"### {title}\n\n{body}"
    return f"{title}\n{body}"
