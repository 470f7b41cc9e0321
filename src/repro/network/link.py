"""Unidirectional link model: serialization, propagation and credit return.

A :class:`Link` connects one output port of an upstream entity (router or NIC)
to one input port of a downstream entity.  It serializes one packet at a time
at the configured bandwidth (flit-quantized), then delivers the packet after
the propagation latency.  Credits returned by the downstream entity travel
back over the same link with the same latency.
"""

from __future__ import annotations

import enum
from heapq import heappush
from typing import TYPE_CHECKING, Optional

from repro.core.engine import Simulator
from repro.core.events import EventKind
from repro.network.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stats.collector import StatsCollector

__all__ = ["Link", "LinkKind"]

# Bound once: transmit() and return_credit() run for every packet on every hop.
_SERIALIZED = EventKind.LINK_SERIALIZED
_DELIVERY = EventKind.LINK_DELIVERY
_CREDIT = EventKind.CREDIT_RETURN


class LinkKind(enum.IntEnum):
    """Physical class of a link, used for latency selection and statistics."""

    TERMINAL = 0
    LOCAL = 1
    GLOBAL = 2


class Link:
    """One direction of a physical link.

    Parameters
    ----------
    sim:
        The discrete-event engine.
    src, src_port:
        Upstream entity (must expose ``link_free(port)`` and
        ``credit_returned(port, vc)``) and its output port index.
    dst, dst_port:
        Downstream entity (must expose ``receive_packet(port, packet)``) and
        its input port index.
    kind:
        Terminal, local or global — selects latency and statistics bucket.
    bandwidth_bytes_per_ns, latency_ns, flit_size:
        Physical parameters.
    stats:
        Optional statistics collector; per-app traffic and busy time are
        reported to it.
    link_id:
        Stable identifier used by the statistics layer.
    """

    __slots__ = (
        "sim",
        "src",
        "src_port",
        "dst",
        "dst_port",
        "kind",
        "bandwidth",
        "latency",
        "flit_size",
        "stats",
        "link_id",
        "busy",
        "busy_time",
        "bytes_carried",
        "packets_carried",
    )

    def __init__(
        self,
        sim: Simulator,
        src,
        src_port: int,
        dst,
        dst_port: int,
        kind: LinkKind,
        bandwidth_bytes_per_ns: float,
        latency_ns: float,
        flit_size: int,
        stats: Optional["StatsCollector"] = None,
        link_id: Optional[tuple] = None,
    ):
        if bandwidth_bytes_per_ns <= 0:
            raise ValueError("link bandwidth must be positive")
        if latency_ns < 0:
            raise ValueError("link latency must be non-negative")
        self.sim = sim
        self.src = src
        self.src_port = src_port
        self.dst = dst
        self.dst_port = dst_port
        self.kind = kind
        self.bandwidth = bandwidth_bytes_per_ns
        self.latency = latency_ns
        self.flit_size = flit_size
        self.stats = stats
        self.link_id = link_id

        self.busy = False
        #: Cumulative time this link spent serializing packets (ns).
        self.busy_time = 0.0
        #: Cumulative payload bytes carried.
        self.bytes_carried = 0
        #: Cumulative packets carried.
        self.packets_carried = 0

    # ----------------------------------------------------------------- send
    def serialization_time(self, packet: Packet) -> float:
        """Flit-quantized serialization time of ``packet`` on this link."""
        return (packet.num_flits * self.flit_size) / self.bandwidth

    # reprolint: hot
    def transmit(self, packet: Packet) -> None:
        """Start serializing ``packet``.  The link must be idle.

        The two calendar entries (serialization done, delivery) are pushed
        directly, with the exact float expressions and ``seq`` numbers that
        two :meth:`Simulator.schedule` calls would give: no ``EventHandle``
        per event, and the delivery fires the downstream ``receive_packet``
        itself rather than a trampoline.
        """
        if self.busy:
            raise RuntimeError(f"link {self.link_id} is busy; arbitration bug upstream")
        self.busy = True
        ser = self.serialization_time(packet)
        self.busy_time += ser
        self.bytes_carried += packet.size_bytes
        self.packets_carried += 1
        stats = self.stats
        if stats is not None:
            stats.record_link_traffic(self, packet)
        sim = self.sim
        now = sim._now
        seq = sim._seq
        sim._seq = seq + 2
        heap = sim._heap
        heappush(heap, [now + ser, seq, self._serialization_done, (), _SERIALIZED])
        heappush(
            heap,
            [
                now + (ser + self.latency),
                seq + 1,
                self.dst.receive_packet,
                (self.dst_port, packet),
                _DELIVERY,
            ],
        )

    # reprolint: hot
    def _serialization_done(self) -> None:
        self.busy = False
        self.src.link_free(self.src_port)

    # -------------------------------------------------------------- credits
    # reprolint: hot
    def return_credit(self, vc: int) -> None:
        """Send one credit back to the upstream entity (takes ``latency`` ns)."""
        sim = self.sim
        seq = sim._seq
        sim._seq = seq + 1
        heappush(
            sim._heap,
            [sim._now + self.latency, seq, self.src.credit_returned, (self.src_port, vc), _CREDIT],
        )

    # ------------------------------------------------------------------ misc
    def utilization(self, elapsed_ns: float) -> float:
        """Fraction of ``elapsed_ns`` this link spent serializing packets."""
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed_ns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link(id={self.link_id}, kind={self.kind.name}, busy={self.busy})"
