"""Deterministic discrete-event simulation engine.

The engine is a classic calendar built on :mod:`heapq`.  Time is measured in
nanoseconds (floats).  Determinism guarantees:

* events scheduled for the same time fire in the order they were scheduled;
* all randomness lives in :mod:`repro.core.rng`, never in the engine.

The engine is deliberately minimal: components schedule callbacks, the engine
fires them.  There is no process abstraction — higher layers (the MPI engine,
NICs, routers) implement their own state machines on top of callbacks.

Implementation note: the calendar holds plain ``[time, seq, callback, args,
kind]`` lists rather than event objects.  Heap ordering compares ``time`` then
``seq`` (which is unique, so comparison never reaches the callback), and
cancellation nulls out the callback slot in place.  This keeps the per-event
cost of the hot loop — millions of heap pushes/pops per run — to plain list
indexing instead of dataclass construction and ``__lt__`` dispatch.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from repro.core.events import EventKind

__all__ = ["EventHandle", "Simulator", "SimulationError"]

#: Calendar entry layout: [time, seq, callback, args, kind].
_TIME, _SEQ, _CALLBACK, _ARGS, _KIND = range(5)


class SimulationError(RuntimeError):
    """Raised for invalid engine operations (e.g. scheduling in the past)."""


class EventHandle:
    """Opaque handle returned by :meth:`Simulator.schedule`.

    Holding the handle allows the caller to cancel the event before it fires.
    """

    __slots__ = ("_entry",)

    def __init__(self, entry: list):
        self._entry = entry

    @property
    def time(self) -> float:
        """Scheduled firing time in nanoseconds."""
        return self._entry[_TIME]

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called on this handle."""
        return self._entry[_CALLBACK] is None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self._entry[_CALLBACK] = None


class Simulator:
    """Single-threaded discrete-event simulator.

    Parameters
    ----------
    trace:
        When true, every fired event is appended to :attr:`trace_log` as a
        ``(time, kind, callback_name)`` tuple.  Only intended for debugging
        and small tests — tracing a large run is expensive.
    """

    def __init__(self, trace: bool = False):
        self._heap: List[list] = []
        self._now: float = 0.0
        self._seq: int = 0
        self._fired: int = 0
        self._running = False
        self._stopped = False
        self._idled_from: Optional[float] = None
        self.trace = trace
        self.trace_log: list[tuple[float, EventKind, str]] = []

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def last_event_time(self) -> float:
        """Time of the most recently fired event.

        Equals :attr:`now` except after a ``run(until=...)`` whose calendar
        drained early, where :attr:`now` idled forward to ``until`` while the
        last event fired earlier.  Callers that use ``until`` as a watchdog
        cutoff (rather than a simulation window) should report this as the
        completion time.
        """
        return self._idled_from if self._idled_from is not None else self._now

    @property
    def events_fired(self) -> int:
        """Total number of events fired so far."""
        return self._fired

    @property
    def pending_events(self) -> int:
        """Number of events still in the calendar (including cancelled)."""
        return len(self._heap)

    # ------------------------------------------------------------- scheduling
    # reprolint: hot
    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        kind: EventKind = EventKind.GENERIC,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` ns from now.

        ``delay`` must be non-negative; zero-delay events fire after all
        events already scheduled for the current timestamp.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event with negative delay {delay!r}")
        entry = [self._now + delay, self._seq, callback, args, kind]
        self._seq += 1
        heapq.heappush(self._heap, entry)
        return EventHandle(entry)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        kind: EventKind = EventKind.GENERIC,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now {self._now}"
            )
        entry = [float(time), self._seq, callback, args, kind]
        self._seq += 1
        heapq.heappush(self._heap, entry)
        return EventHandle(entry)

    # -------------------------------------------------------------- execution
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run until the calendar drains, ``until`` is reached, or ``max_events`` fire.

        Returns the simulated time at which the run stopped.  ``until`` is an
        absolute time; events scheduled exactly at ``until`` still fire.

        ``until`` semantics: the clock always reaches ``until`` unless the run
        was cut short by :meth:`stop` or ``max_events``.  In particular, when
        the calendar drains *before* ``until`` the clock still advances to
        ``until`` — the system simply sat idle for the remainder — so
        ``run(until=t)`` post-condition ``now == t`` holds whether or not any
        event fired near the bound.

        This is the simulator's only event loop, and it stays in this method:
        components push calendar entries but never drain the calendar
        themselves.  Traced or ``max_events``-bounded runs (diagnostic modes)
        take a plain loop; every other run drains all events already
        scheduled at the current timestamp in an inner batch loop that skips
        the clock store and cutoff check of the outer loop.  Both fire events
        in the identical ``(time, seq)`` order.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._stopped = False
        self._idled_from = None
        heap = self._heap
        pop = heapq.heappop
        try:
            if self.trace or max_events is not None:
                trace = self.trace
                fired_this_run = 0
                # reprolint: hot
                while heap and not self._stopped:
                    if until is not None and heap[0][_TIME] > until:
                        self._now = until
                        break
                    if max_events is not None and fired_this_run >= max_events:
                        break
                    entry = pop(heap)
                    callback = entry[_CALLBACK]
                    if callback is None:
                        continue
                    self._now = entry[_TIME]
                    if trace:
                        name = getattr(callback, "__qualname__", repr(callback))
                        self.trace_log.append((entry[_TIME], entry[_KIND], name))
                    callback(*entry[_ARGS])
                    self._fired += 1
                    fired_this_run += 1
            else:
                # Entries are indexed with literals here ([time, seq, callback,
                # args, kind]): this loop runs once per event.
                # reprolint: hot
                while heap and not self._stopped:
                    entry = pop(heap)
                    time = entry[0]
                    if until is not None and time > until:
                        # Past the bound: put the entry back (its time and seq
                        # restore its place) and idle the clock to `until`.
                        heapq.heappush(heap, entry)
                        self._now = until
                        break
                    callback = entry[2]
                    if callback is None:
                        continue
                    self._now = time
                    callback(*entry[3])
                    self._fired += 1
                    # Batch: every event already scheduled at this timestamp
                    # fires here.  None can be past `until` (the first was
                    # not), so the clock store and cutoff check are skipped.
                    while heap and heap[0][0] == time:
                        # Callbacks flip this flag, so it must be re-read
                        # before every event — a hoisted local would go stale.
                        if self._stopped:
                            break
                        entry = pop(heap)
                        callback = entry[2]
                        if callback is None:
                            continue
                        callback(*entry[3])
                        self._fired += 1
            if (
                until is not None
                and not heap
                and not self._stopped
                and self._now < until
            ):
                # Calendar drained before the bound: idle out to `until`,
                # remembering where the last event actually fired.
                self._idled_from = self._now
                self._now = until
        finally:
            self._running = False
        return self._now

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def drain(self) -> int:
        """Discard all pending events.  Returns the number discarded."""
        count = len(self._heap)
        self._heap.clear()
        return count

    # ------------------------------------------------------------------ misc
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.1f}ns, pending={len(self._heap)}, "
            f"fired={self._fired})"
        )
