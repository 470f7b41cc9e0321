"""Assembly of the full Dragonfly network: routers, NICs, links and routing.

:class:`DragonflyNetwork` is the network-facing API of the simulator.  The
MPI layer (and tests) use it through two calls:

* :meth:`send_message` — hand an application message to its source NIC;
* :meth:`on_message_delivered` (callback) — invoked when a message has been
  fully reassembled at its destination NIC.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.config import SimulationConfig
from repro.core.engine import Simulator
from repro.core.rng import RngRegistry
from repro.network.link import Link, LinkKind
from repro.network.nic import Nic
from repro.network.packet import Message
from repro.network.router import Router
from repro.network.topology import DragonflyTopology, PortKind
from repro.stats.collector import StatsCollector

__all__ = ["DragonflyNetwork"]


class DragonflyNetwork:
    """A fully-wired Dragonfly system ready to carry messages."""

    def __init__(
        self,
        sim: Simulator,
        config: SimulationConfig,
        stats: Optional[StatsCollector] = None,
        rng: Optional[RngRegistry] = None,
    ):
        self.sim = sim
        self.config = config
        self.topology = DragonflyTopology(config.system)
        self.rng = rng if rng is not None else RngRegistry(config.seed)
        self.stats = stats if stats is not None else StatsCollector(sim, config)

        # Routing is created before routers so routers can hold a reference.
        from repro.routing import create_routing  # local import to avoid a cycle

        self.routing = create_routing(
            config.routing.algorithm, self, config.routing, self.rng.get("routing")
        )

        self.routers: List[Router] = [
            Router(
                sim, self.topology, config, router_id, routing=self.routing, stats=self.stats
            )
            for router_id in range(self.topology.num_routers)
        ]
        self.nics: List[Nic] = [
            Nic(sim, config, node_id, stats=self.stats)
            for node_id in range(self.topology.num_nodes)
        ]
        for nic in self.nics:
            nic.on_message_delivered = self._message_delivered

        #: Global delivery callback (set by the MPI engine).
        self.on_message_delivered: Optional[Callable[[Message], None]] = None
        #: Per-message delivery callbacks registered through send_message().
        self._message_callbacks: Dict[int, Callable[[Message], None]] = {}

        self._wire()

    # -------------------------------------------------------------- wiring
    def _wire(self) -> None:
        """Create every directed link and attach it to its endpoints."""
        system = self.config.system
        bandwidth = system.link_bandwidth_bytes_per_ns
        flit = system.flit_size_bytes
        topo = self.topology

        for router in self.routers:
            rid = router.router_id
            for port in range(topo.ports_per_router):
                kind = topo.port_kind(port)
                endpoint = topo.neighbor(rid, port)
                latency = topo.link_latency(port)
                if kind == PortKind.TERMINAL:
                    nic = self.nics[endpoint.node]
                    # Router -> NIC (ejection).
                    down = Link(
                        self.sim, router, port, nic, 0, LinkKind.TERMINAL,
                        bandwidth, latency, flit, stats=self.stats,
                        link_id=("R", rid, port),
                    )
                    router.attach_output_link(port, down)
                    nic.in_link = down
                    # NIC -> Router (injection).
                    up = Link(
                        self.sim, nic, 0, router, port, LinkKind.TERMINAL,
                        bandwidth, latency, flit, stats=self.stats,
                        link_id=("N", endpoint.node, 0),
                    )
                    nic.out_link = up
                    router.attach_input_link(port, up)
                else:
                    link_kind = LinkKind.LOCAL if kind == PortKind.LOCAL else LinkKind.GLOBAL
                    peer = self.routers[endpoint.router]
                    link = Link(
                        self.sim, router, port, peer, endpoint.port, link_kind,
                        bandwidth, latency, flit, stats=self.stats,
                        link_id=("R", rid, port),
                    )
                    router.attach_output_link(port, link)
                    peer.attach_input_link(endpoint.port, link)

        self._check_wiring()

    def _check_wiring(self) -> None:
        """Sanity-check that every port of every router ended up connected."""
        for router in self.routers:
            for port in range(self.topology.ports_per_router):
                if router.out_links[port] is None or router.in_links[port] is None:
                    raise RuntimeError(
                        f"router {router.router_id} port {port} is not fully wired"
                    )
        for nic in self.nics:
            if nic.out_link is None or nic.in_link is None:
                raise RuntimeError(f"NIC {nic.node_id} is not fully wired")

    # ------------------------------------------------------------ messaging
    def send_message(
        self,
        message: Message,
        on_delivery: Optional[Callable[[Message], None]] = None,
    ) -> Message:
        """Inject ``message`` at its source node.

        ``on_delivery`` (if given) is called with the message once every
        packet has reached the destination node, in addition to the global
        :attr:`on_message_delivered` callback.
        """
        if on_delivery is not None:
            self._message_callbacks[message.msg_id] = on_delivery
        self.nics[message.src_node].send_message(message)
        return message

    def _message_delivered(self, message: Message) -> None:
        callback = self._message_callbacks.pop(message.msg_id, None)
        if callback is not None:
            callback(message)
        if self.on_message_delivered is not None:
            self.on_message_delivered(message)

    # ------------------------------------------------------------ inspection
    def router_of_node(self, node: int) -> Router:
        """Router object hosting ``node``."""
        return self.routers[self.topology.router_of_node(node)]

    @property
    def num_nodes(self) -> int:
        """Total compute nodes in the system."""
        return self.topology.num_nodes

    def quiescent(self) -> bool:
        """True when no packet is buffered or waiting anywhere in the network."""
        if any(nic.pending_packets for nic in self.nics):
            return False
        return all(router.buffered_packets == 0 for router in self.routers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DragonflyNetwork(nodes={self.num_nodes}, routing={self.routing.name}, "
            f"now={self.sim.now:.0f}ns)"
        )
