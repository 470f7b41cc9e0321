"""Tests of the flow-level fidelity: selection, solver, cross-validation.

Three layers:

* **selection** — ``resolve_fidelity``/``active_fidelity_name`` semantics,
  config validation, and the hash-neutrality contract (the default fidelity
  is never serialized, so every pre-existing scenario hash is unchanged);
* **solver** — max-min fair rates on hand-checkable configurations of
  :class:`repro.flow.network.FlowNetwork` (single flow, shared bottleneck,
  staggered arrival re-rating);
* **cross-validation** — matched small scenarios run at both fidelities:
  per-application communication *volumes* must match exactly (the workload
  layer is shared), and latency/throughput must agree within the documented
  tolerances of docs/fidelity.md (flow results are approximations, not
  bit-equivalent).
"""

import pytest

from repro.config import SimulationConfig, tiny_system
from repro.core.engine import Simulator
from repro.experiments.configs import AppSpec
from repro.experiments.scenario import (
    Scenario,
    expand_grid,
    loadcurve_scenario,
    scenario_hash,
)
from repro.flow import (
    DEFAULT_FIDELITY,
    ENV_FIDELITY,
    FLOW_FIDELITY,
    active_fidelity_name,
    fidelity_names,
    resolve_fidelity,
)
from repro.flow.network import FlowNetwork
from repro.network.packet import Message


@pytest.fixture(autouse=True)
def _no_fidelity_override(monkeypatch):
    """Each test exercises exactly the fidelity it names (clear CI override)."""
    monkeypatch.delenv(ENV_FIDELITY, raising=False)


def _tiny_scenario(fidelity=None, **config_overrides) -> Scenario:
    config = SimulationConfig(system=tiny_system(), seed=1, **config_overrides)
    if fidelity is not None:
        config = config.with_fidelity(fidelity)
    return Scenario(
        name="flowtest/UR",
        jobs=(AppSpec("UR", 8, {"scale": 0.2, "iterations": 2}),),
        config=config,
    )


# ------------------------------------------------------------------ selection
def test_resolve_fidelity_canonicalizes_names_and_aliases():
    assert fidelity_names() == (DEFAULT_FIDELITY, FLOW_FIDELITY)
    for alias in ("packet", "PACKET", " pkt ", "packets"):
        assert resolve_fidelity(alias) == "packet"
    for alias in ("flow", "Flow", "fluid", "flows"):
        assert resolve_fidelity(alias) == "flow"
    with pytest.raises(ValueError, match="valid fidelities: packet, flow"):
        resolve_fidelity("packte")


def test_config_validates_fidelity_at_construction():
    config = SimulationConfig(system=tiny_system(), fidelity="FLOWS")
    assert config.fidelity == "flow"  # canonicalized
    with pytest.raises(ValueError, match="SimulationConfig.fidelity"):
        SimulationConfig(system=tiny_system(), fidelity="hybrid")


def test_env_override_applies_only_to_default_fidelity(monkeypatch):
    default = SimulationConfig(system=tiny_system())
    pinned = default.with_fidelity("flow")
    assert active_fidelity_name(default) == "packet"
    assert active_fidelity_name(pinned) == "flow"
    monkeypatch.setenv(ENV_FIDELITY, "flow")
    assert active_fidelity_name(default) == "flow"
    # An explicitly pinned fidelity describes the experiment: never overridden.
    monkeypatch.setenv(ENV_FIDELITY, "packet")
    assert active_fidelity_name(pinned) == "flow"
    monkeypatch.setenv(ENV_FIDELITY, "nonsense")
    with pytest.raises(ValueError):
        active_fidelity_name(default)


def test_default_fidelity_is_never_serialized_or_hashed():
    """Hash neutrality: packet-fidelity scenarios hash exactly as before."""
    packet = _tiny_scenario()
    flow = _tiny_scenario(fidelity="flow")
    assert "fidelity" not in packet.to_dict()["sim"]
    assert flow.to_dict()["sim"]["fidelity"] == "flow"
    assert scenario_hash(packet) != scenario_hash(flow)
    # Round-trip: the serialized flow scenario rebuilds with its fidelity.
    rebuilt = Scenario.from_dict(flow.to_dict())
    assert rebuilt.config.fidelity == "flow"
    assert scenario_hash(rebuilt) == scenario_hash(flow)


def test_expand_grid_sweeps_the_fidelity_axis():
    grid = expand_grid(_tiny_scenario(), fidelities=["packet", "flow"])
    assert [s.config.fidelity for s in grid] == ["packet", "flow"]
    # The packet cell keeps the base name (same cache key as a pre-fidelity
    # sweep); only the non-default cell is renamed.
    assert grid[0].name == "flowtest/UR"
    assert grid[1].name == "flowtest/UR[fidelity=flow]"
    assert scenario_hash(grid[0]) == scenario_hash(_tiny_scenario())


# ------------------------------------------------------------------ solver
def _flow_network(routing="minimal", seed=3):
    config = (
        SimulationConfig(system=tiny_system(), seed=seed)
        .with_routing(routing)
        .with_fidelity("flow")
    )
    sim = Simulator()
    network = FlowNetwork(sim, config)
    return sim, network


def test_single_flow_transfers_at_full_link_bandwidth():
    sim, network = _flow_network()
    capacity = network.config.system.link_bandwidth_bytes_per_ns
    size = 10_000
    delivered = []
    network.send_message(
        Message(src_node=0, dst_node=1, size_bytes=size),
        on_delivery=lambda m: delivered.append(sim.now),
    )
    sim.run()
    assert len(delivered) == 1
    # Same router: inj -> ej, no inter-router hop.  Transfer time at full
    # capacity plus the fixed propagation offset (two terminal latencies).
    expected = size / capacity + 2.0 * network.config.system.terminal_latency_ns
    assert delivered[0] == pytest.approx(expected, rel=1e-9)
    assert network.quiescent()


def test_shared_bottleneck_splits_bandwidth_max_min_fairly():
    sim, network = _flow_network()
    capacity = network.config.system.link_bandwidth_bytes_per_ns
    size = 10_000
    done = {}
    # Two different sources, one destination: the ejection link at node 2 is
    # the single shared bottleneck, so each flow gets capacity/2.
    for src in (0, 1):
        network.send_message(
            Message(src_node=src, dst_node=2, size_bytes=size),
            on_delivery=lambda m: done.setdefault(m.msg_id, sim.now),
        )
    sim.run()
    assert len(done) == 2
    # Nodes 0 and 2 sit on different routers of one group (tiny system has 2
    # nodes per router): the propagation offset is two terminal hops plus one
    # local hop.
    system = network.config.system
    offset = 2.0 * system.terminal_latency_ns + system.local_latency_ns
    expected = 2 * size / capacity + offset
    for finish in done.values():
        assert finish == pytest.approx(expected, rel=1e-9)


def test_late_arrival_rerates_the_running_flow():
    sim, network = _flow_network()
    capacity = network.config.system.link_bandwidth_bytes_per_ns
    size = 10_000
    half_transfer = 0.5 * size / capacity
    done = {}

    def start(src):
        network.send_message(
            Message(src_node=src, dst_node=2, size_bytes=size),
            on_delivery=lambda m: done.setdefault(m.msg_id, sim.now),
        )

    start(0)
    # The second flow arrives once the first has moved half its bytes; the
    # remaining half then drains at capacity/2.
    sim.schedule(half_transfer, lambda: start(1))
    sim.run()
    system = network.config.system
    offset = 2.0 * system.terminal_latency_ns + system.local_latency_ns
    first_finish, second_finish = sorted(done.values())
    assert first_finish == pytest.approx(
        half_transfer + size / capacity + offset, rel=1e-9
    )
    # The late flow: half its life at capacity/2 (sharing), the rest alone
    # at full capacity after the first flow finishes.
    assert second_finish == pytest.approx(
        half_transfer + 1.5 * size / capacity + offset, rel=1e-9
    )


@pytest.mark.parametrize(
    "routing", ["minimal", "valiant", "ugal-g", "ugal-n", "par", "q-adaptive"]
)
def test_every_routing_algorithm_completes_at_flow_fidelity(routing):
    scenario = _tiny_scenario(fidelity="flow").with_updates(
        name=f"flowtest/UR-{routing}", routing=routing
    )
    result = scenario.run()
    assert result.fidelity == "flow"
    assert result.completed
    stats = result.stats
    assert stats.total_messages_injected == stats.total_messages_delivered > 0
    assert stats.total_bytes_injected == stats.total_bytes_delivered > 0
    assert result.network.quiescent()


def test_flow_run_result_and_metrics_schema():
    result = _tiny_scenario(fidelity="flow").run()
    from repro.results import flatten_run

    metrics = flatten_run(result)
    # Packet-only keys are omitted, not faked.
    for absent in ("packets_injected", "packets_ejected", "total_port_stall_ns"):
        assert absent not in metrics
    assert metrics["messages_injected"] == metrics["messages_delivered"] > 0
    assert metrics["message_latency_mean_ns"] > 0
    assert metrics["makespan_ns"] > 0
    assert metrics["bytes_ejected"] > 0
    assert metrics["comm_time_ns/UR"] >= 0


def test_env_override_refidelities_a_default_config_run(monkeypatch):
    monkeypatch.setenv(ENV_FIDELITY, "flow")
    result = _tiny_scenario().run()
    assert result.fidelity == "flow"
    assert result.config.fidelity == "packet"  # the description is unchanged
    assert type(result.network).__name__ == "FlowNetwork"


# ----------------------------------------------------------- cross-validation
#: Relative tolerances of the cross-validation contract (docs/fidelity.md):
#: measured agreement on the matched scenarios below is ~1-5%; the asserted
#: bounds leave headroom so the contract pins trends, not noise.
MAKESPAN_RTOL = 0.30
THROUGHPUT_RTOL = 0.10


def _both_fidelities(scenario: Scenario):
    packet = scenario.run()
    flow = scenario.with_updates(
        name=f"{scenario.name}[fidelity=flow]", fidelity="flow"
    ).run()
    assert packet.fidelity == "packet" and flow.fidelity == "flow"
    return packet, flow


@pytest.mark.parametrize("app", ["FFT3D", "Halo3D", "LU"])
def test_cross_validation_volumes_exact_and_makespan_close(app):
    """Table I apps: identical communication volumes, agreeing makespans."""
    from repro.results import flatten_run

    scenario = Scenario(
        name=f"xval/{app}",
        jobs=(AppSpec(app, 8, {"scale": 0.1}),),
        config=SimulationConfig(system=tiny_system(), seed=1).with_routing("minimal"),
    )
    packet, flow = _both_fidelities(scenario)
    pm, fm = flatten_run(packet), flatten_run(flow)
    # The workload layer is shared: the *volume* an application sends is
    # fidelity-independent and must match exactly, byte for byte.
    assert fm[f"total_msg_bytes/{app}"] == pm[f"total_msg_bytes/{app}"]
    assert fm["bytes_ejected"] == pm["bytes_ejected"]
    # Timing is approximated, not reproduced: makespans agree within the
    # documented tolerance.
    assert fm["makespan_ns"] == pytest.approx(pm["makespan_ns"], rel=MAKESPAN_RTOL)


def test_cross_validation_loadcurve_throughput_and_latency_trend():
    """Steady-state points: accepted throughput agrees; latency rises with load."""
    from repro.results import flatten_run

    config = SimulationConfig(
        system=tiny_system(), seed=2, warmup_ns=5_000.0, measurement_ns=40_000.0
    ).with_routing("minimal")
    rows = {}
    for load in (0.2, 0.6):
        scenario = loadcurve_scenario(
            "shift", offered_load=load, num_ranks=16, config=config
        )
        packet, flow = _both_fidelities(scenario)
        rows[load] = (flatten_run(packet), flatten_run(flow))
    for load, (pm, fm) in rows.items():
        assert fm["accepted_throughput_gbps"] == pytest.approx(
            pm["accepted_throughput_gbps"], rel=THROUGHPUT_RTOL
        )
    # Monotone trend at both fidelities: more offered load, higher latency.
    pm_low, fm_low = rows[0.2]
    pm_high, fm_high = rows[0.6]
    assert (
        pm_high["measured_packet_latency_mean_ns"]
        > pm_low["measured_packet_latency_mean_ns"]
    )
    assert (
        fm_high["measured_message_latency_mean_ns"]
        > fm_low["measured_message_latency_mean_ns"]
    )


def test_flow_fidelity_is_deterministic():
    first = _tiny_scenario(fidelity="flow").run()
    second = _tiny_scenario(fidelity="flow").run()
    from repro.results import flatten_run

    assert flatten_run(first) == flatten_run(second)


def test_report_fidelity_filter_disambiguates_mixed_stores(tmp_path):
    """``--fidelity`` narrows a store holding both fidelities of one scenario.

    Packet- and flow-level runs of the same experiment are different
    approximations and must never be averaged into one report row:
    unfiltered, the uniformity check refuses (naming ``--fidelity``); the
    filter then selects exactly one family per value.
    """
    from repro.analysis.reports import build_report
    from repro.experiments.scenario import table1_scenario
    from repro.results import ResultStore

    packet = table1_scenario("FFT3D", scale=0.1)
    flow = packet.with_updates(name=f"{packet.name}[fidelity=flow]", fidelity="flow")
    with ResultStore(tmp_path / "runs.sqlite") as store:
        for scenario in (packet, flow):
            store.record_run(scenario, scenario.run())
        with pytest.raises(ValueError, match="--fidelity"):
            build_report(store, "table1")
        packet_report = build_report(store, "table1", fidelity="packet")
        flow_report = build_report(store, "table1", fidelity="flow")
    # Same application, same volume column; the timing columns differ.
    assert "FFT3D" in packet_report and "FFT3D" in flow_report
    assert packet_report != flow_report
