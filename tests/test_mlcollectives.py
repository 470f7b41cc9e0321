"""Tests of the ML-collective workload family: knobs, analytic metrics,
collective building blocks and end-to-end runs through the preset library."""

import numpy as np
import pytest

from repro.config import SimulationConfig, tiny_system
from repro.experiments.configs import AppSpec, ML_RANKS, ml_spec
from repro.experiments.scenario import Scenario, get_scenario
from repro.workloads import MoEAllToAll, PipelineP2P, RingAllreduce, create_application

TINY = SimulationConfig(system=tiny_system(), seed=2).with_routing("par")


# -------------------------------------------------------------- construction
def test_registry_and_spec_construction():
    for name in ML_RANKS:
        app = create_application(name, 8)
        assert app.name == name
        assert app.peak_ingress_bytes() > 0
        assert app.message_volume_per_rank() > 0
    spec = ml_spec("ring_allreduce")  # the ml. prefix is optional
    assert spec.name == "ml.ring_allreduce"
    assert spec.num_ranks == ML_RANKS["ml.ring_allreduce"]
    with pytest.raises(ValueError):
        ml_spec("FFT3D")  # resolves as "ml.FFT3D", which does not exist


def test_knob_validation():
    with pytest.raises(ValueError, match="payload_bytes"):
        RingAllreduce(8, payload_bytes=0)
    with pytest.raises(ValueError, match="compute_ns"):
        RingAllreduce(8, compute_ns=-1.0)
    with pytest.raises(ValueError, match="capacity_factor"):
        MoEAllToAll(8, capacity_factor=0.0)
    with pytest.raises(ValueError, match="alpha"):
        MoEAllToAll(8, alpha=-0.5)
    with pytest.raises(ValueError, match="tokens_bytes"):
        MoEAllToAll(8, tokens_bytes=0)
    with pytest.raises(ValueError, match="microbatches"):
        PipelineP2P(8, microbatches=0)
    with pytest.raises(ValueError, match="microbatch_bytes"):
        PipelineP2P(8, microbatch_bytes=0)


def test_pattern_metrics_expose_the_knobs():
    metrics = RingAllreduce(8, payload_bytes=4096, iterations=2).pattern_metrics()
    assert metrics == {"iterations": 2.0, "payload_bytes": 4096.0}
    metrics = MoEAllToAll(8, capacity_factor=2.0, alpha=0.7).pattern_metrics()
    assert metrics["capacity_factor"] == 2.0 and metrics["alpha"] == 0.7
    metrics = PipelineP2P(8, microbatches=4).pattern_metrics()
    assert metrics["microbatches"] == 4.0


# ----------------------------------------------------------------- analytics
def test_ring_allreduce_analytic_volume():
    app = RingAllreduce(8, payload_bytes=8192, iterations=3)
    # Bandwidth-optimal ring: 2*(n-1) rounds of payload/n per iteration.
    assert app.chunk_bytes() == 8192 // 8
    assert app.message_volume_per_rank() == 2 * 7 * (8192 // 8) * 3
    assert app.peak_ingress_bytes() == app.chunk_bytes()


def test_moe_shares_are_deterministic_capped_and_skewed():
    app = MoEAllToAll(8, seed=3)
    twin = MoEAllToAll(8, seed=3)
    shares = app.expert_shares(0)
    assert np.array_equal(shares, twin.expert_shares(0))  # shared draw
    assert not np.array_equal(shares, app.expert_shares(1))  # varies per iter
    assert np.all(shares <= app.capacity_factor / 8 + 1e-12)  # capacity cap
    assert app.message_volume_per_rank() > 0


def test_pipeline_volume_counts_both_directions():
    app = PipelineP2P(4, microbatch_bytes=1024, microbatches=2, iterations=3)
    assert app.message_volume_per_rank() == 2 * 2 * 3 * 1024
    assert app.peak_ingress_bytes() == 1024


# --------------------------------------------------------------- end-to-end
@pytest.mark.parametrize("name", sorted(ML_RANKS))
def test_every_ml_pattern_runs_to_completion(name):
    spec = AppSpec(name, 8, {"scale": 0.25, "iterations": 2})
    result = Scenario(f"test/{name}", (spec,), TINY).run()
    record = result.record(name)
    assert result.completed and record.finished
    assert record.total_bytes_sent > 0
    assert result.network.quiescent()


def test_ring_allreduce_sends_its_analytic_volume_exactly():
    """The ring schedule is deterministic, so measured == analytic exactly."""
    spec = AppSpec("ml.ring_allreduce", 8, {"scale": 0.25, "iterations": 2})
    result = Scenario("test/ring", (spec,), TINY).run()
    app = result.application("ml.ring_allreduce")
    assert result.record("ml.ring_allreduce").total_bytes_sent == (
        app.message_volume_per_rank() * app.num_ranks
    )


def test_ml_presets_are_registered_and_runnable():
    scenario = get_scenario("ml/pipeline_p2p")
    assert [spec.name for spec in scenario.jobs] == ["ml.pipeline_p2p"]
    pair = get_scenario("pairwise/UR+ml.ring_allreduce")
    assert [spec.name for spec in pair.jobs] == ["UR", "ml.ring_allreduce"]
