"""Pinned rendered text of every store-backed report family.

A hand-recorded store of fake metrics (no simulation) is rendered through
:func:`repro.analysis.reports.build_report` for every report family, in the
plain-text format, plus CSV and Markdown for one family, and with one case
each for the ``routing``, ``start_time``, ``knobs`` and ``fidelity``
filters.  The expected strings are literals: a refactor of the row
builders must reproduce them byte for byte.
"""

import pytest

from repro.analysis.reports import build_report
from repro.experiments.scenario import (
    loadcurve_scenario,
    mixed_scenario,
    mixed_solo_scenarios,
    ml_scenario,
    pairwise_scenario,
    synthetic_scenario,
    table1_scenario,
)
from repro.results import ResultStore
from repro.traces import RecvRecord, SendRecord, Trace, WaitRecord, replay_scenario

STAGGER_NS = 20_000.0


def _intensity(key, volume, execution, rate, peak):
    return {
        f"total_msg_bytes/{key}": volume,
        f"execution_time_ns/{key}": execution,
        f"injection_rate_gbps/{key}": rate,
        f"peak_ingress_bytes/{key}": peak,
    }


def _comm(app, mean, std):
    return {f"comm_time_ns/{app}": mean, f"comm_time_std_ns/{app}": std}


def _tiny_trace() -> Trace:
    return Trace(
        app="pingpong",
        num_ranks=2,
        rank_ops=(
            (
                SendRecord(dst_rank=1, size_bytes=64, tag=7, t_ns=0.0),
                RecvRecord(src_rank=1, tag=9, t_ns=0.0),
                WaitRecord(requests=(0, 1), t_ns=10.0),
            ),
            (
                SendRecord(dst_rank=0, size_bytes=32, tag=9, t_ns=0.0),
                RecvRecord(src_rank=0, tag=7, t_ns=0.0),
                WaitRecord(requests=(0, 1), t_ns=12.0),
            ),
        ),
        peak_ingress_bytes=64,
        message_volume_per_rank=96,
    )


def _record_base(store: ResultStore) -> None:
    """Runs every report family renders from without any filter."""
    # table1: UR averaged over two seeds, FFT3D from one.
    store.record(table1_scenario("UR", seed=1), _intensity("UR", 1000, 2000.0, 0.5, 400))
    store.record(table1_scenario("UR", seed=2), _intensity("UR", 3000, 4000.0, 1.5, 600))
    store.record(table1_scenario("FFT3D"), _intensity("FFT3D", 4000, 1000.0, 4.0, 800))

    # table2 + mixed: the Table II mix and one solo baseline per application.
    mix = mixed_scenario()
    metrics = {}
    for index, spec in enumerate(mix.jobs):
        metrics.update(_comm(spec.name, 300.0 + 50.0 * index, 30.0 + index))
    store.record(mix, metrics)
    for index, solo in enumerate(mixed_solo_scenarios()):
        store.record(solo, _comm(solo.jobs[0].name, 200.0 + 10.0 * index, 4.0))

    # pairwise/UR (+hotspot, +bursty): baseline and co-runs, two routings.
    for routing, base_comm in [("par", 100.0), ("q-adaptive", 80.0)]:
        store.record(pairwise_scenario("UR", None, routing=routing), _comm("UR", base_comm, 10.0))
        store.record(
            pairwise_scenario("UR", "hotspot", routing=routing),
            _comm("UR", base_comm * 1.5, 20.0),
        )
    store.record(pairwise_scenario("UR", "bursty"), _comm("UR", 120.0, 12.0))

    # synthetic/hotspot standalone intensity, two routings.
    store.record(synthetic_scenario("hotspot"), _intensity("hotspot", 5000, 3000.0, 2.5, 700))
    store.record(
        synthetic_scenario("hotspot", routing="q-adaptive"),
        _intensity("hotspot", 5000, 2500.0, 3.0, 650),
    )

    # loadcurve/shift: two loads under par (one over two seeds), one under q-adaptive.
    for routing, load, seed, throughput, latency in [
        ("par", 0.1, 1, 10.0, 900.0),
        ("par", 0.5, 1, 40.0, 1500.0),
        ("par", 0.5, 2, 44.0, 1700.0),
        ("q-adaptive", 0.5, 1, 46.0, 1200.0),
    ]:
        store.record(
            loadcurve_scenario("shift", routing=routing, seed=seed, offered_load=load),
            {
                "accepted_throughput_gbps": throughput,
                "measured_packet_latency_mean_ns": latency,
                "measured_packet_latency_p50_ns": latency * 0.9,
                "measured_packet_latency_p99_ns": latency * 2.5,
            },
        )

    # ml/ring_allreduce standalone intensity.
    store.record(
        ml_scenario("ring_allreduce"),
        _intensity("ml.ring_allreduce", 8000, 6000.0, 1.25, 2048),
    )

    # trace/pingpong: a tiny recorded trace replayed under two routings.
    for routing, execution in [("par", 700.0), ("q-adaptive", 650.0)]:
        store.record(
            replay_scenario(_tiny_trace(), routing=routing),
            _intensity("trace", 192, execution, 0.25, 64),
        )


def _record_variants(store: ResultStore) -> None:
    """Runs that only the routing/start_time/knobs/fidelity filters separate."""
    store.record(
        table1_scenario("UR", routing="q-adaptive"), _intensity("UR", 1000, 1800.0, 0.6, 380)
    )
    store.record(
        pairwise_scenario("UR", "bursty").with_updates(start_time=STAGGER_NS),
        _comm("UR", 240.0, 24.0),
    )
    knob = pairwise_scenario("UR", "hotspot").with_updates(
        name="pairwise/UR+hotspot[hot_fraction=0.9]",
        job_kwargs={"hotspot": {"hot_fraction": 0.9}},
    )
    store.record(knob, _comm("UR", 500.0, 50.0))
    packet = table1_scenario("FFT3D")
    store.record(
        packet.with_updates(name=f"{packet.name}[fidelity=flow]", fidelity="flow"),
        _intensity("FFT3D", 4000, 900.0, 4.4, 750),
    )


@pytest.fixture(scope="module")
def base_store():
    store = ResultStore()
    _record_base(store)
    yield store
    store.close()


@pytest.fixture(scope="module")
def variant_store():
    store = ResultStore()
    _record_base(store)
    _record_variants(store)
    yield store
    store.close()


#: (report name, format) -> exact rendered text, from the base store.
FAMILIES = {
    ("table1", "table"): (
        "Table I — application communication intensity",
        "pattern   app    total_msg_bytes  execution_time_ns  injection_rate_gbps  peak_ingress_bytes",
        "--------  -----  ---------------  -----------------  -------------------  ------------------",
        "alltoall  FFT3D  4,000.0          1,000.0            4.000                800.000           ",
        "random    UR     2,000.0          3,000.0            1.000                500.000           ",
    ),
    ("table2", "table"): (
        "Table II — mixed workload job sizes and communication time",
        "app        paper_nodes  paper_fraction  bench_nodes  bench_fraction  comm_time_ns",
        "---------  -----------  --------------  -----------  --------------  ------------",
        "FFT3D      140          0.133           9            0.130           300.000     ",
        "CosmoFlow  138          0.131           9            0.130           350.000     ",
        "LU         140          0.133           9            0.130           400.000     ",
        "UR         139          0.132           9            0.130           450.000     ",
        "LQCD       256          0.242           17           0.246           500.000     ",
        "Stencil5D  243          0.230           16           0.232           550.000     ",
    ),
    ("mixed", "table"): (
        "Mixed workload — per-application interference (Fig. 10)",
        "routing  app        standalone_comm_ns  interfered_comm_ns  slowdown  variation",
        "-------  ---------  ------------------  ------------------  --------  ---------",
        "par      FFT3D      200.000             300.000             1.500     0.150    ",
        "par      CosmoFlow  210.000             350.000             1.667     0.148    ",
        "par      LU         220.000             400.000             1.818     0.145    ",
        "par      UR         230.000             450.000             1.957     0.143    ",
        "par      LQCD       240.000             500.000             2.083     0.142    ",
        "par      Stencil5D  250.000             550.000             2.200     0.140    ",
    ),
    ("pairwise/UR+hotspot", "table"): (
        "Pairwise interference — UR+hotspot (Fig. 4)",
        "routing     target  background  standalone_comm_ns  interfered_comm_ns  slowdown  variation",
        "----------  ------  ----------  ------------------  ------------------  --------  ---------",
        "par         UR      hotspot     100.000             150.000             1.500     0.200    ",
        "q-adaptive  UR      hotspot     80.000              120.000             1.500     0.250    ",
    ),
    ("pairwise/UR", "table"): (
        "Pairwise interference — UR (Fig. 4)",
        "routing     target  background  standalone_comm_ns  interfered_comm_ns  slowdown  variation",
        "----------  ------  ----------  ------------------  ------------------  --------  ---------",
        "par         UR      None        100.000             100.000             1.000     0.100    ",
        "q-adaptive  UR      None        80.000              80.000              1.000     0.125    ",
    ),
    ("synthetic/UR", "table"): (
        "Synthetic-background interference — UR",
        "routing     target  background  standalone_comm_ns  interfered_comm_ns  slowdown  variation",
        "----------  ------  ----------  ------------------  ------------------  --------  ---------",
        "par         UR      bursty      100.000             120.000             1.200     0.120    ",
        "par         UR      hotspot     100.000             150.000             1.500     0.200    ",
        "q-adaptive  UR      hotspot     80.000              120.000             1.500     0.250    ",
    ),
    ("synthetic/hotspot", "table"): (
        "Synthetic pattern intensity — hotspot (standalone)",
        "routing     pattern  app      total_msg_bytes  execution_time_ns  injection_rate_gbps  peak_ingress_bytes",
        "----------  -------  -------  ---------------  -----------------  -------------------  ------------------",
        "par         hotspot  hotspot  5,000.0          3,000.0            2.500                700.000           ",
        "q-adaptive  hotspot  hotspot  5,000.0          2,500.0            3.000                650.000           ",
    ),
    ("loadcurve/shift", "table"): (
        "Steady-state latency vs offered load — shift",
        "routing     pattern  fidelity  offered_load  window_ns     accepted_throughput_gbps  latency_mean_ns  latency_p50_ns  latency_p99_ns",
        "----------  -------  --------  ------------  ------------  ------------------------  ---------------  --------------  --------------",
        "par         shift    packet    0.100         20000+100000  10.000                    900.000          810.000         2,250.0       ",
        "par         shift    packet    0.500         20000+100000  42.000                    1,600.0          1,440.0         4,000.0       ",
        "q-adaptive  shift    packet    0.500         20000+100000  46.000                    1,200.0          1,080.0         3,000.0       ",
    ),
    ("ml/ring_allreduce", "table"): (
        "ML-collective intensity — ring_allreduce (standalone)",
        "routing  pattern         app                total_msg_bytes  execution_time_ns  injection_rate_gbps  peak_ingress_bytes",
        "-------  --------------  -----------------  ---------------  -----------------  -------------------  ------------------",
        "par      allreduce-ring  ml.ring_allreduce  8,000.0          6,000.0            1.250                2,048.0           ",
    ),
    ("trace/pingpong", "table"): (
        "Trace replay intensity — pingpong",
        "routing     pattern       app       total_msg_bytes  execution_time_ns  injection_rate_gbps  peak_ingress_bytes",
        "----------  ------------  --------  ---------------  -----------------  -------------------  ------------------",
        "par         trace-replay  pingpong  192.000          700.000            0.250                64.000            ",
        "q-adaptive  trace-replay  pingpong  192.000          650.000            0.250                64.000            ",
    ),
    ("pairwise/UR+hotspot", "csv"): (
        "routing,target,background,standalone_comm_ns,interfered_comm_ns,slowdown,variation",
        "par,UR,hotspot,100.0,150.0,1.5,0.2",
        "q-adaptive,UR,hotspot,80.0,120.0,1.5,0.25",
    ),
    ("pairwise/UR+hotspot", "markdown"): (
        "### Pairwise interference — UR+hotspot (Fig. 4)",
        "",
        "| routing | target | background | standalone_comm_ns | interfered_comm_ns | slowdown | variation |",
        "| --- | --- | --- | --- | --- | --- | --- |",
        "| par | UR | hotspot | 100.000 | 150.000 | 1.500 | 0.200 |",
        "| q-adaptive | UR | hotspot | 80.000 | 120.000 | 1.500 | 0.250 |",
    ),
}

#: (report name, filter keyword, filter value, exact rendered text), from
#: the base store plus the variant runs.
FILTERED = [
    (
        "table1",
        "routing",
        "q-adaptive",
        (
            "Table I — application communication intensity",
            "pattern  app  total_msg_bytes  execution_time_ns  injection_rate_gbps  peak_ingress_bytes",
            "-------  ---  ---------------  -----------------  -------------------  ------------------",
            "random   UR   1,000.0          1,800.0            0.600                380.000           ",
        ),
    ),
    (
        "synthetic/UR",
        "start_time",
        STAGGER_NS,
        (
            "Synthetic-background interference — UR",
            "routing  target  background  standalone_comm_ns  interfered_comm_ns  slowdown  variation",
            "-------  ------  ----------  ------------------  ------------------  --------  ---------",
            "par      UR      bursty      100.000             240.000             2.400     0.240    ",
        ),
    ),
    (
        "pairwise/UR+hotspot",
        "knobs",
        {"hotspot": {"hot_fraction": 0.9}},
        (
            "Pairwise interference — UR+hotspot (Fig. 4)",
            "routing  target  background  standalone_comm_ns  interfered_comm_ns  slowdown  variation",
            "-------  ------  ----------  ------------------  ------------------  --------  ---------",
            "par      UR      hotspot     100.000             500.000             5.000     0.500    ",
        ),
    ),
    (
        "table1",
        "fidelity",
        "flow",
        (
            "Table I — application communication intensity",
            "pattern   app    total_msg_bytes  execution_time_ns  injection_rate_gbps  peak_ingress_bytes",
            "--------  -----  ---------------  -----------------  -------------------  ------------------",
            "alltoall  FFT3D  4,000.0          900.000            4.400                750.000           ",
        ),
    ),
]


@pytest.mark.parametrize("name,fmt", sorted(FAMILIES))
def test_report_family_renders_pinned_text(base_store, name, fmt):
    assert build_report(base_store, name, fmt=fmt) == "\n".join(FAMILIES[name, fmt])


@pytest.mark.parametrize(
    "name,key,value,expected", FILTERED, ids=[f"{name}-{key}" for name, key, _, _ in FILTERED]
)
def test_filtered_report_renders_pinned_text(variant_store, name, key, value, expected):
    assert build_report(variant_store, name, **{key: value}) == "\n".join(expected)
