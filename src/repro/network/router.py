"""Input-queued Dragonfly router with credit flow control and stall accounting.

The router model mirrors the paper's SST/Merlin configuration:

* one input buffer per (port, VC), ``buffer_packets`` deep;
* one output link per port, serializing one packet at a time;
* credit-based flow control towards every downstream buffer;
* round-robin arbitration among input (port, VC) pairs contending for the
  same output port;
* virtual channels assigned by hop index, which makes the VC order strictly
  increasing along any allowed path and therefore deadlock-free;
* per-output-port *stall time*: the cumulative time head packets spent
  blocked waiting for the output link or for downstream credits.  This is the
  network-level interference metric of Fig. 11.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, List, Optional, Tuple

from repro.config import SimulationConfig
from repro.core.engine import Simulator
from repro.network.buffers import CreditTracker, VcInputBuffer
from repro.network.link import Link
from repro.network.packet import Packet
from repro.network.topology import DragonflyTopology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.routing.base import RoutingAlgorithm
    from repro.stats.collector import StatsCollector

__all__ = ["Router"]


class Router:
    """One Dragonfly router.

    Parameters
    ----------
    sim, topology, config:
        Shared simulation infrastructure.
    router_id:
        Global router id (0 .. num_routers-1).
    routing:
        The routing algorithm driving output-port selection.  May be ``None``
        during wiring and set afterwards via :attr:`routing`.
    stats:
        Optional statistics collector.
    """

    __slots__ = (
        "sim",
        "topology",
        "config",
        "router_id",
        "group",
        "_routing",
        "_on_recv",
        "stats",
        "num_ports",
        "num_vcs",
        "in_buffers",
        "in_links",
        "out_links",
        "credits",
        "out_requests",
        "packets_forwarded",
        "_router_of_node",
        "_terminal_port_of_node",
        "_serialization_ns",
    )

    def __init__(
        self,
        sim: Simulator,
        topology: DragonflyTopology,
        config: SimulationConfig,
        router_id: int,
        routing: Optional["RoutingAlgorithm"] = None,
        stats: Optional["StatsCollector"] = None,
    ):
        self.sim = sim
        self.topology = topology
        self.config = config
        self.router_id = router_id
        self.group = topology.group_of_router(router_id)
        self._on_recv: Optional[Callable[[Router, int, Packet], None]] = None
        self.routing = routing
        self.stats = stats

        system = config.system
        self.num_ports = topology.ports_per_router
        self.num_vcs = system.num_vcs
        # Hot-path lookups bound once: per-packet routing indexes these
        # directly instead of going through the checked topology methods.
        self._router_of_node = topology.router_of_node_table
        self._terminal_port_of_node = topology.terminal_port_of_node_table
        self._serialization_ns = system.packet_serialization_ns

        self.in_buffers: List[VcInputBuffer] = [
            VcInputBuffer(self.num_vcs, system.buffer_packets) for _ in range(self.num_ports)
        ]
        #: Link delivering packets *into* each input port (None until wired).
        self.in_links: List[Optional[Link]] = [None] * self.num_ports
        #: Link carrying packets *out of* each output port (None until wired).
        self.out_links: List[Optional[Link]] = [None] * self.num_ports
        #: Credits available on the downstream buffer of each output port.
        self.credits: List[CreditTracker] = [
            CreditTracker(self.num_vcs, system.buffer_packets) for _ in range(self.num_ports)
        ]
        #: (input port, vc) pairs whose head packet wants each output port.
        self.out_requests: List[Deque[Tuple[int, int]]] = [
            deque() for _ in range(self.num_ports)
        ]
        self.packets_forwarded = 0

    # ------------------------------------------------------------ routing
    @property
    def routing(self) -> Optional["RoutingAlgorithm"]:
        """The routing algorithm driving output-port selection."""
        return self._routing

    @routing.setter
    def routing(self, routing: Optional["RoutingAlgorithm"]) -> None:
        self._routing = routing
        # The per-hop arrival hook is bound once here, and skipped entirely
        # when the algorithm keeps the base class's no-op implementation.
        from repro.routing.base import RoutingAlgorithm  # import cycle

        if routing is None or (
            type(routing).on_packet_received is RoutingAlgorithm.on_packet_received
        ):
            self._on_recv = None
        else:
            self._on_recv = routing.on_packet_received

    # ------------------------------------------------------------- wiring
    def attach_output_link(self, port: int, link: Link) -> None:
        """Install the link carrying traffic out of ``port``."""
        if self.out_links[port] is not None:
            raise RuntimeError(f"router {self.router_id} port {port} already has an output link")
        self.out_links[port] = link

    def attach_input_link(self, port: int, link: Link) -> None:
        """Install the link delivering traffic into ``port``."""
        if self.in_links[port] is not None:
            raise RuntimeError(f"router {self.router_id} port {port} already has an input link")
        self.in_links[port] = link

    # ---------------------------------------------------------- congestion
    def output_occupancy(self, port: int) -> int:
        """Congestion estimate of an output port, in packets.

        The estimate combines the occupancy of the downstream input buffer
        (credits consumed) with the number of local head packets waiting for
        the port.  This is the queue-occupancy signal used by the adaptive
        routing family.
        """
        return self.credits[port]._used + len(self.out_requests[port])

    def queue_delay_estimate(self, port: int) -> float:
        """Estimated queueing delay (ns) a packet would see at ``port``."""
        return self.output_occupancy(port) * self._serialization_ns

    # ------------------------------------------------------------- receive
    # The receive -> route -> arbitrate -> grant chain below works on the raw
    # buffer and credit state (``VcInputBuffer._queues``/``_bytes``,
    # ``CreditTracker._credits``/``_used``) with the same guards and the same
    # mutations as the methods of those classes, and runs as one iterative
    # loop: a call per hop stage is most of the per-event cost.

    # reprolint: hot
    def receive_packet(self, in_port: int, packet: Packet) -> None:
        """A packet arrived on ``in_port`` (called by the upstream link)."""
        if packet.trace is not None:
            packet.trace.append(self.router_id)
        on_recv = self._on_recv
        if on_recv is not None:
            on_recv(self, in_port, packet)
        vc = packet.vc
        buffer = self.in_buffers[in_port]
        queue = buffer._queues[vc]
        occupancy = len(queue)
        if occupancy >= buffer.capacity:
            raise OverflowError(
                f"VC {vc} buffer overflow (capacity {buffer.capacity}); "
                "credit flow control violated"
            )
        queue.append(packet)
        buffer._bytes += packet.size_bytes
        if occupancy == 0:
            self._route_head(in_port, vc)

    # -------------------------------------------------------------- routing
    # reprolint: hot
    def _route_head(self, in_port: int, vc: int) -> None:
        """Route the new head packet of ``(in_port, vc)``, then grant onwards.

        One loop iteration routes a head packet, requests its output port
        and attempts one grant there; when the grant exposes a new head
        packet on the granted input, the loop continues with that input.
        """
        now = self.sim._now
        router_id = self.router_id
        in_buffers = self.in_buffers
        out_requests = self.out_requests
        router_of_node = self._router_of_node
        routing = self._routing
        while True:
            packet = in_buffers[in_port]._queues[vc][0]
            dst_node = packet.dst_node
            if router_of_node[dst_node] == router_id:
                out_port = self._terminal_port_of_node[dst_node]
                next_vc = 0
            else:
                # Note: sending a packet back out of the port it arrived on
                # is legal (UGALn/PAR detours can revisit the intermediate
                # group's entry router), so no U-turn check is applied here.
                out_port, next_vc = routing.route(self, packet)  # type: ignore[union-attr]
            packet.out_port = out_port
            packet.next_vc = next_vc
            packet.request_time = now
            out_requests[out_port].append((in_port, vc))
            granted = self._grant(out_port)
            if granted is None:
                return
            in_port, vc = granted

    # ---------------------------------------------------------- arbitration
    # reprolint: hot
    def _grant(self, out_port: int) -> Optional[Tuple[int, int]]:
        """Grant ``out_port`` to one waiting head packet if possible.

        Round-robin over the requests: a head packet without a downstream
        credit on its next VC rotates to the back so other inputs contending
        for the port still make progress.  Returns the ``(in_port, vc)``
        whose next head packet must now be routed, or ``None``.
        """
        requests = self.out_requests[out_port]
        if not requests:
            return None
        link = self.out_links[out_port]
        if link is None or link.busy:
            return None
        in_buffers = self.in_buffers
        credits = self.credits[out_port]
        available = credits._credits
        packet: Optional[Packet] = None
        in_port = vc = 0
        for _ in range(len(requests)):
            in_port, vc = requests[0]
            head = in_buffers[in_port]._queues[vc][0]
            if available[head.next_vc] > 0:
                requests.popleft()
                packet = head
                break
            requests.rotate(-1)
        if packet is None:
            return None

        buffer = in_buffers[in_port]
        queue = buffer._queues[vc]
        queue.popleft()
        buffer._bytes -= packet.size_bytes
        next_vc = packet.next_vc
        # Cannot underflow: the arbitration guard just saw a credit.
        available[next_vc] -= 1  # type: ignore[index]
        credits._used += 1

        # request_time == 0.0 is a legitimate timestamp (packets routed at
        # t=0), so test against None rather than falsiness.
        request_time = packet.request_time
        stall = self.sim._now - request_time if request_time is not None else 0.0
        if stall > 0.0:
            stats = self.stats
            if stats is not None:
                stats.record_port_stall(self, out_port, stall, packet.app_id)

        packet.vc = next_vc  # type: ignore[assignment]
        packet.hop_count += 1
        packet.out_port = None
        packet.next_vc = None
        self.packets_forwarded += 1

        # Free the slot in our own input buffer: return a credit upstream.
        in_link = self.in_links[in_port]
        if in_link is not None:
            in_link.return_credit(vc)
        link.transmit(packet)
        # The next packet on this (port, VC) becomes head and gets routed.
        if queue:
            return in_port, vc
        return None

    # reprolint: hot
    def _try_output(self, out_port: int) -> None:
        """Grant the output port to a waiting head packet if possible."""
        granted = self._grant(out_port)
        if granted is not None:
            self._route_head(*granted)

    # ------------------------------------------------------------ callbacks
    #: Output link finished serializing: try to grant the next packet.
    link_free = _try_output

    # reprolint: hot
    def credit_returned(self, out_port: int, vc: int) -> None:
        """Downstream freed a buffer slot on (out_port, vc)."""
        credits = self.credits[out_port]
        available = credits._credits
        if available[vc] >= credits.initial:
            raise RuntimeError(
                f"credit overflow on VC {vc}: more credits returned than the "
                "downstream buffer can hold"
            )
        available[vc] += 1
        credits._used -= 1
        self._try_output(out_port)

    # ------------------------------------------------------------------ misc
    @property
    def buffered_packets(self) -> int:
        """Packets currently waiting in this router's input buffers."""
        return sum(buf.total_packets for buf in self.in_buffers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Router(id={self.router_id}, group={self.group}, buffered={self.buffered_packets})"
