"""Central statistics collector (the paper's enhanced "IO module").

All network components report events to one :class:`StatsCollector`; analysis
code then reads its counters, packet records and time series after (or
during) the run.  To keep memory bounded for large runs, per-packet records
can be disabled (``SimulationConfig.record_packets = False``), in which case
only aggregate counters and binned series are kept — mirroring the coalescing
IO-module configuration described in Section III of the paper.

The collector is **measurement-window aware**: when the simulation config
declares a steady-state window (``warmup_ns``/``measurement_ns``), injection
and ejection counters are additionally split into a warmup bucket and a
measurement bucket, and the windowed summaries (accepted throughput,
measurement-window latency percentiles) are computed over the measurement
window only — warmup transients (cold Q-tables, empty buffers) never leak
into a reported steady-state metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.config import SimulationConfig
from repro.core.engine import Simulator
from repro.network.link import Link, LinkKind
from repro.network.packet import Message, Packet
from repro.stats.appstats import ApplicationRecord
from repro.stats.counters import LinkTrafficCounter, PortStallCounter
from repro.stats.timeseries import BinnedSeries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.nic import Nic
    from repro.network.router import Router

__all__ = ["PacketRecord", "StatsCollector"]


@dataclass(frozen=True)
class PacketRecord:
    """Immutable per-packet record kept for latency analysis."""

    app_id: int
    src_node: int
    dst_node: int
    size_bytes: int
    inject_time: float
    eject_time: float
    hops: int

    @property
    def latency(self) -> float:
        """Injection-to-ejection latency in ns."""
        return self.eject_time - self.inject_time


class StatsCollector:
    """Accumulates application- and network-level metrics during a run."""

    def __init__(self, sim: Simulator, config: SimulationConfig):
        self.sim = sim
        self.config = config

        bin_ns = config.stats_bin_ns
        #: Per-application ejected (delivered) bytes over time.
        self.ejected_bytes: Dict[int, BinnedSeries] = {}
        #: Per-application injected bytes over time.
        self.injected_bytes: Dict[int, BinnedSeries] = {}
        #: System-wide delivered bytes over time.
        self.system_ejected_bytes = BinnedSeries(bin_ns)
        #: Per-application packet-latency samples over time (for Fig 7).
        self.latency_series: Dict[int, BinnedSeries] = {}

        self.port_stall = PortStallCounter()
        self.link_traffic = LinkTrafficCounter()

        #: Per-packet records (only if ``config.record_packets``).
        self.packet_records: List[PacketRecord] = []
        #: Per-application message delivery log: (create, deliver, size).
        self.message_log: Dict[int, List[tuple]] = {}
        #: Per-application records registered by the workload layer.
        self.applications: Dict[int, ApplicationRecord] = {}

        self.total_packets_injected = 0
        self.total_packets_ejected = 0
        self.total_bytes_ejected = 0
        self._bin_ns = bin_ns

        # ------------------------------------------- measurement window state
        #: Start of the measurement window (0.0 = no warmup).
        self.warmup_ns: float = config.warmup_ns
        #: End of the measurement window (None = open-ended).
        self.window_end_ns: Optional[float] = config.window_end_ns
        #: Whether warmup/measurement windows are configured for this run.
        self.windowed: bool = config.windowed
        #: Counters restricted to the measurement window.
        self.measured_packets_injected = 0
        self.measured_bytes_injected = 0
        self.measured_packets_ejected = 0
        self.measured_bytes_ejected = 0

    # ----------------------------------------------------------- app setup
    def register_application(self, record: ApplicationRecord) -> None:
        """Register an application so its per-app series exist even if idle."""
        self.applications[record.app_id] = record
        self._app_series(self.ejected_bytes, record.app_id)
        self._app_series(self.injected_bytes, record.app_id)
        self._app_series(self.latency_series, record.app_id)
        self.message_log.setdefault(record.app_id, [])

    def _app_series(self, table: Dict[int, BinnedSeries], app_id: int) -> BinnedSeries:
        series = table.get(app_id)
        if series is None:
            series = BinnedSeries(self._bin_ns)
            table[app_id] = series
        return series

    # ----------------------------------------------------------- windowing
    def in_measurement(self, time: float) -> bool:
        """Whether ``time`` falls inside the measurement window.

        The window is ``[warmup_ns, warmup_ns + measurement_ns]`` — events
        fired exactly at the closing bound (the run's termination instant)
        still count, matching ``Simulator.run(until=...)`` semantics.
        """
        if time < self.warmup_ns:
            return False
        return self.window_end_ns is None or time <= self.window_end_ns

    # -------------------------------------------------------- network hooks
    # reprolint: hot
    def record_packet_injected(self, nic: "Nic", packet: Packet) -> None:
        """A packet entered the network at ``nic``."""
        self.total_packets_injected += 1
        now = self.sim.now
        # `windowed` first: unwindowed runs (the common case, and the hot
        # path PR 1 optimized) pay one attribute check per packet, no more.
        if self.windowed and self.in_measurement(now):
            self.measured_packets_injected += 1
            self.measured_bytes_injected += packet.size_bytes
        self._app_series(self.injected_bytes, packet.app_id).add(now, packet.size_bytes)

    # reprolint: hot
    def record_packet_ejected(self, nic: "Nic", packet: Packet) -> None:
        """A packet reached its destination node."""
        size_bytes = packet.size_bytes
        app_id = packet.app_id
        self.total_packets_ejected += 1
        self.total_bytes_ejected += size_bytes
        now = self.sim.now
        if self.windowed and self.in_measurement(now):
            self.measured_packets_ejected += 1
            self.measured_bytes_ejected += size_bytes
        self._app_series(self.ejected_bytes, app_id).add(now, size_bytes)
        self.system_ejected_bytes.add(now, size_bytes)
        latency = packet.latency
        if latency is not None:
            self._app_series(self.latency_series, app_id).add(now, latency)
        if self.config.record_packets and packet.inject_time is not None:
            self.packet_records.append(
                PacketRecord(
                    app_id=app_id,
                    src_node=packet.src_node,
                    dst_node=packet.dst_node,
                    size_bytes=size_bytes,
                    inject_time=packet.inject_time,
                    eject_time=packet.eject_time if packet.eject_time is not None else now,
                    hops=packet.hop_count,
                )
            )

    def record_message_delivered(self, message: Message) -> None:
        """A full message was reassembled at its destination."""
        log = self.message_log.setdefault(message.app_id, [])
        log.append((message.create_time, message.deliver_time, message.size_bytes))

    # reprolint: hot
    def record_port_stall(self, router: "Router", port: int, stall_ns: float, app_id: int) -> None:
        """Charge head-of-queue blocking time to a router output port."""
        if stall_ns <= 0:
            return
        link = router.out_links[port]
        if link is not None:
            kind = link.kind
        else:
            # Unwired port (partially-constructed routers in unit tests):
            # derive the class from the topology instead of defaulting to
            # LOCAL, which silently polluted the local-stall breakdown with
            # terminal-port (ejection) stalls.
            kind = LinkKind[router.topology.port_kind(port).name]
        self.port_stall.add(router.router_id, port, kind, stall_ns, app_id)

    # reprolint: hot
    def record_link_traffic(self, link: Link, packet: Packet) -> None:
        """A packet was serialized onto ``link``."""
        if link.link_id is None:
            return
        self.link_traffic.add(link.link_id, link.kind, packet.size_bytes, packet.app_id)

    # ------------------------------------------------------------ summaries
    def packet_latencies(self, app_id: Optional[int] = None) -> np.ndarray:
        """Array of packet latencies (ns), optionally for one application."""
        if app_id is None:
            return np.array([r.latency for r in self.packet_records])
        return np.array([r.latency for r in self.packet_records if r.app_id == app_id])

    def measurement_packet_latencies(self, app_id: Optional[int] = None) -> np.ndarray:
        """Latencies of packets *ejected inside the measurement window* (ns).

        The steady-state complement of :meth:`packet_latencies`: packets that
        left the network during warmup are excluded, so latency percentiles
        describe the measured window only.
        """
        return np.array(
            [
                r.latency
                for r in self.packet_records
                if self.in_measurement(r.eject_time)
                and (app_id is None or r.app_id == app_id)
            ]
        )

    @property
    def measurement_elapsed_ns(self) -> float:
        """Length of the *observed* measurement window, ns.

        The window opens at ``warmup_ns`` and closes at the earlier of the
        configured window end and the last fired event (a run that drained
        early was only observed until its last event).  Raises ``ValueError``
        when the window is empty — i.e. the run ended before the warmup did —
        because every metric normalized by it would be meaningless.
        """
        last = self.sim.last_event_time
        end = last if self.window_end_ns is None else min(self.window_end_ns, last)
        elapsed = end - self.warmup_ns
        if elapsed <= 0:
            raise ValueError(
                f"empty measurement window: the run ended at {last:.0f} ns but "
                f"warmup_ns={self.warmup_ns:.0f}; shorten the warmup or lengthen "
                "the workload"
            )
        return elapsed

    def accepted_throughput_bytes_per_ns(self) -> float:
        """Accepted (delivered) throughput over the measurement window.

        System-wide delivered payload bytes per nanosecond, counting only
        ejections inside the measurement window — the y-axis companion of an
        offered-load sweep.
        """
        return self.measured_bytes_ejected / self.measurement_elapsed_ns

    def measurement_summary(self) -> dict:
        """Window-restricted counters and rates (windowed runs only)."""
        elapsed = self.measurement_elapsed_ns
        return {
            "warmup_ns": self.warmup_ns,
            "measurement_elapsed_ns": elapsed,
            "measured_packets_injected": self.measured_packets_injected,
            "measured_bytes_injected": self.measured_bytes_injected,
            "measured_packets_ejected": self.measured_packets_ejected,
            "measured_bytes_ejected": self.measured_bytes_ejected,
            "accepted_throughput_bytes_per_ns": self.measured_bytes_ejected / elapsed,
        }

    def app_throughput_series(self, app_id: int) -> tuple:
        """(times, GB/ms) series of delivered bytes for one application.

        GB per millisecond is the unit used by the paper's throughput plots
        (Figs 5, 9, 13b).
        """
        times, rates = self._app_series(self.ejected_bytes, app_id).rates(per=1e6)
        return times, rates / 1e9

    def system_throughput_series(self) -> tuple:
        """(times, GB/ms) series of system-wide delivered bytes."""
        times, rates = self.system_ejected_bytes.rates(per=1e6)
        return times, rates / 1e9

    def summary(self) -> dict:
        """Coarse run summary for reports and sanity checks."""
        summary = {
            # Last fired event, not sim.now: run(until=...) idles the clock
            # forward to the watchdog bound even when the calendar drained
            # earlier, which would inflate now_ns on early-finishing runs
            # (the convention metrics/congestion.py already follows).
            "now_ns": self.sim.last_event_time,
            "packets_injected": self.total_packets_injected,
            "packets_ejected": self.total_packets_ejected,
            "bytes_ejected": self.total_bytes_ejected,
            "applications": {a: r.summary() for a, r in self.applications.items()},
            "total_port_stall_ns": self.port_stall.total(),
        }
        if self.windowed:
            summary["measurement"] = self.measurement_summary()
        return summary
