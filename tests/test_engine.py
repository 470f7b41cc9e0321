"""Unit tests of the discrete-event engine."""

import importlib
import pkgutil
import random

import pytest

import repro

from repro.core.engine import SimulationError, Simulator
from repro.core.events import EventKind


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(30.0, fired.append, "c")
    sim.schedule(10.0, fired.append, "a")
    sim.schedule(20.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 30.0


def test_same_time_events_fire_fifo():
    sim = Simulator()
    fired = []
    for label in range(10):
        sim.schedule(5.0, fired.append, label)
    sim.run()
    assert fired == list(range(10))


def test_zero_delay_event_fires_after_current():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(0.0, fired.append, "nested")

    sim.schedule(1.0, first)
    sim.schedule(1.0, fired.append, "second")
    sim.run()
    assert fired == ["first", "second", "nested"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(5.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []
    assert handle.cancelled


def test_run_until_stops_clock_at_bound():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, "early")
    sim.schedule(100.0, fired.append, "late")
    sim.run(until=50.0)
    assert fired == ["early"]
    assert sim.now == 50.0
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_when_calendar_drains_early():
    # Documented semantics: run(until=t) always ends with now == t unless cut
    # short by stop() or max_events — even if the calendar drains before t.
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, "only")
    assert sim.run(until=50.0) == 50.0
    assert sim.now == 50.0
    assert fired == ["only"]
    # Scheduling resumes from the advanced clock.
    handle = sim.schedule(5.0, fired.append, "later")
    assert handle.time == 55.0


def test_last_event_time_tracks_fired_events_not_idle_advance():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run(until=50.0)
    assert sim.now == 50.0
    assert sim.last_event_time == 10.0  # watchdog callers report completion
    sim.schedule(5.0, lambda: None)  # fires at t=55
    sim.run()
    assert sim.last_event_time == sim.now == 55.0


def test_run_until_advances_clock_on_empty_calendar():
    sim = Simulator()
    assert sim.run(until=25.0) == 25.0
    assert sim.now == 25.0


def test_stop_and_max_events_do_not_advance_to_until():
    sim = Simulator()
    sim.schedule(1.0, sim.stop)
    assert sim.run(until=100.0) == 1.0

    sim2 = Simulator()
    sim2.schedule(1.0, lambda: None)
    sim2.schedule(2.0, lambda: None)
    assert sim2.run(until=100.0, max_events=1) == 1.0


def test_run_max_events_limit():
    sim = Simulator()
    for i in range(20):
        sim.schedule(float(i), lambda: None)
    sim.run(max_events=7)
    assert sim.events_fired == 7


def test_stop_terminates_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, fired.append, 3)
    sim.run()
    assert fired == [1]
    assert sim.pending_events == 1


def test_drain_discards_pending_events():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.drain() == 2
    assert sim.run() == 0.0


def test_trace_records_event_kinds():
    sim = Simulator(trace=True)
    sim.schedule(1.0, lambda: None, kind=EventKind.NIC_INJECT)
    sim.run()
    assert len(sim.trace_log) == 1
    assert sim.trace_log[0][1] == EventKind.NIC_INJECT


def test_run_is_not_reentrant():
    sim = Simulator()

    def reenter():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, reenter)
    sim.run()


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def test_simulator_run_is_the_only_event_loop():
    """The event loop lives in ``Simulator.run`` itself: no subclass anywhere
    in the package overrides it (a second loop would also escape the
    ``Simulator.run`` timing probe the benchmark relies on)."""
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        importlib.import_module(info.name)
    assert Simulator.run.__module__ == "repro.core.engine"
    overriding = [cls for cls in _all_subclasses(Simulator) if "run" in vars(cls)]
    assert overriding == []


def test_stop_takes_effect_before_the_next_same_time_event():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "a")
    sim.schedule(5.0, sim.stop)
    sim.schedule(5.0, fired.append, "b")
    sim.run()
    assert fired == ["a"]
    sim.run()
    assert fired == ["a", "b"]


def test_cancelled_event_past_until_is_left_pending():
    """A cancelled entry past ``until`` bounds the run like a live one: it
    stays in the calendar and the run counts as cut, not drained."""
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(50.0, fired.append, "late").cancel()
    assert sim.run(until=10.0) == 10.0
    assert fired == ["a"]
    assert sim.pending_events == 1
    assert sim.last_event_time == 10.0


def test_cancelled_event_inside_a_same_time_batch_is_skipped():
    sim = Simulator()
    fired = []
    handles = {}

    def first():
        fired.append("a")
        handles["b"].cancel()

    sim.schedule(5.0, first)
    handles["b"] = sim.schedule(5.0, fired.append, "b")
    sim.schedule(5.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "c"]
    assert sim.events_fired == 2


def test_every_event_exactly_at_until_fires():
    sim = Simulator()
    fired = []
    for label in range(3):
        sim.schedule(10.0, fired.append, label)
    sim.schedule(10.5, fired.append, "late")
    assert sim.run(until=10.0) == 10.0
    assert fired == [0, 1, 2]
    assert sim.pending_events == 1
    assert sim.last_event_time == 10.0


def test_step_and_run_share_one_calendar_order():
    """Stepping one event at a time (``run(max_events=1)``, the bounded loop)
    and the batched loop fire the calendar in one ``(time, seq)`` order."""
    sim = Simulator()
    fired = []
    for label, delay in enumerate([3.0, 1.0, 1.0, 2.0]):
        sim.schedule(delay, fired.append, label)
    sim.run(max_events=1)
    assert fired == [1] and sim.now == 1.0
    sim.run()
    assert fired == [1, 2, 3, 0]
    sim.run(max_events=1)
    assert fired == [1, 2, 3, 0]
    assert sim.events_fired == 4


def _scripted_run(seed, mode):
    """Drive a random self-extending calendar through one run loop.

    Every callback derives its actions (children at zero or positive delay,
    cancelling a pending event, stopping the run) from its own label, so the
    script is identical whichever loop fires it.  ``mode`` picks the loop:
    ``batched`` (the default), ``traced`` or ``bounded`` (``max_events``) —
    the last two take the diagnostic loop.
    """
    sim = Simulator(trace=(mode == "traced"))
    fired = []
    handles = {}

    def make(label):
        def callback():
            fired.append((sim.now, label))
            rng = random.Random(f"{seed}:{label}")
            if label.count(".") < 5:
                for child in range(rng.choice([0, 0, 1, 2, 3])):
                    name = f"{label}.{child}"
                    delay = rng.choice([0.0, 0.0, 1.0, 2.5, 5.0])
                    handles[name] = sim.schedule(delay, make(name))
            if rng.random() < 0.1 and handles:
                handles[rng.choice(sorted(handles))].cancel()
            if rng.random() < 0.05:
                sim.stop()

        return callback

    rng = random.Random(seed)
    for root in range(12):
        sim.schedule(float(rng.randint(0, 6)), make(str(root)))
    kwargs = {"max_events": 10**9} if mode == "bounded" else {}
    stops = [sim.run(until=4.0, **kwargs)]
    while sim.pending_events:
        stops.append(sim.run(**kwargs))
    return fired, stops, sim.events_fired, sim.now, sim.last_event_time


@pytest.mark.parametrize("seed", range(8))
def test_batched_and_diagnostic_loops_fire_identically(seed):
    """The batched same-timestamp loop and the plain diagnostic loop of
    ``Simulator.run`` fire the same events in the same ``(time, seq)`` order,
    stop at the same points and leave the same clock."""
    batched = _scripted_run(seed, "batched")
    assert len(batched[0]) > 12
    assert _scripted_run(seed, "traced") == batched
    assert _scripted_run(seed, "bounded") == batched
