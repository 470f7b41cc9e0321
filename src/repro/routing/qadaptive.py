"""Q-adaptive routing: reinforcement-learning path selection on Dragonfly.

The algorithm follows the description in the paper (Section II-B, Fig. 2) and
its reference (Kang et al., HPDC'21):

1. every router keeps a light-weight **two-level Q-table** whose entries
   estimate the remaining delivery time towards each destination group
   (inter-group level) or towards each router of its own group (intra-group
   level), per output port;
2. when a router receives a packet from a neighbouring router it sends back a
   **feedback signal** — its own best estimate of the remaining delivery time
   for that packet's destination — after one reverse-link latency; the
   upstream router folds the measured hop delay plus that estimate into the
   Q-value of the port it used (Boyan–Littman Q-routing update);
3. at the source router the packet chooses between the minimal port and a few
   sampled non-minimal first hops by **minimizing queue delay + Q**, with a
   small ε-greedy exploration term.  Downstream routers follow the chosen
   path like the UGAL family does.

The decisive difference from adaptive routing is therefore *what the decision
is based on*: learned end-to-end delivery-time estimates (which reflect
congestion anywhere along the path) instead of local queue occupancy only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

import numpy as np

from repro.config import RoutingConfig
from repro.core.events import EventKind
from repro.network.packet import Packet, PathClass
from repro.network.router import Router as _Router
from repro.routing.base import RoutingAlgorithm
from repro.routing.qtable import DestKey, QTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.network import DragonflyNetwork
    from repro.network.router import Router

__all__ = ["QAdaptiveRouting"]

_FEEDBACK = EventKind.ROUTING_FEEDBACK


class QAdaptiveRouting(RoutingAlgorithm):
    """Distributed Q-routing over the Dragonfly candidate paths."""

    name = "q-adaptive"

    def __init__(self, network: "DragonflyNetwork", config: RoutingConfig, rng: np.random.Generator):
        super().__init__(network, config, rng)
        self._tables: Dict[int, QTable] = {}
        #: Total feedback signals applied (observability / tests).
        self.feedback_count = 0
        system = network.config.system
        self._serialization_ns = system.packet_serialization_ns
        #: Remaining time once the packet sits at its destination router.
        self._terminal_remaining = (
            system.packet_serialization_ns + system.terminal_latency_ns
        )
        # Ports a packet may leave a router through, by destination level.
        # Intra-group ("r") destinations stay inside the group, so only local
        # ports are viable; inter-group ("g") destinations may take any
        # router-to-router port (local hop towards a gateway or global hop).
        topo = self.topology
        self._local_ports = tuple(topo.local_ports())
        self._router_ports = tuple(topo.local_ports()) + tuple(topo.global_ports())
        # Destination keys, interned: one tuple per group and per router,
        # built once instead of once per routed or received packet.
        self._group_keys: List[DestKey] = [("g", g) for g in range(topo.num_groups)]
        self._router_keys: List[DestKey] = [("r", r) for r in range(topo.num_routers)]

    # --------------------------------------------------------------- tables
    def table_for(self, router: "Router") -> QTable:
        """The Q-table of ``router`` (created on first use)."""
        table = self._tables.get(router.router_id)
        if table is None:
            table = QTable(
                router.router_id, self.topology.ports_per_router, self._make_initializer(router)
            )
            self._tables[router.router_id] = table
        return table

    def _make_initializer(self, router: "Router") -> Callable[[int, DestKey], float]:
        """Optimistic zero-load initial estimates for a router's table.

        The hop cost and the neighbour behind every port are tabulated once
        per table, so materializing an entry is a few list reads.
        """
        topo = self.topology
        config = self.network.config.system
        local, global_, terminal = (
            config.local_latency_ns,
            config.global_latency_ns,
            config.terminal_latency_ns,
        )
        serialization = config.packet_serialization_ns
        hop: List[float] = []
        # Router behind each port (-1: the port leads to a node).
        next_router: List[int] = []
        next_group: List[int] = []
        for port in range(topo.ports_per_router):
            hop.append(topo.link_latency(port) + serialization)
            neighbor = topo.neighbor(router.router_id, port)
            if neighbor.is_node:
                next_router.append(-1)
                next_group.append(-1)
            else:
                next_router.append(neighbor.router)
                next_group.append(topo.group_of_router(neighbor.router))

        def initializer(port: int, dest: DestKey) -> float:
            # Remaining time ≈ hop over `port` + minimal remainder from the
            # neighbour, assuming an uncongested network.
            peer = next_router[port]
            if peer < 0:
                return hop[port]
            if dest[0] == "r":
                remaining = 0.0 if peer == dest[1] else local
            elif next_group[port] == dest[1]:
                remaining = local
            else:
                remaining = local + global_ + local
            return hop[port] + remaining + terminal

        return initializer

    # ------------------------------------------------------------ decisions
    def _dest_key(self, router: "Router", packet: Packet) -> DestKey:
        topo = self.topology
        dst_router = topo.router_of_node_table[packet.dst_node]
        dst_group = topo.group_of_router_table[dst_router]
        if dst_group == router.group:
            return self._router_keys[dst_router]
        return self._group_keys[dst_group]

    def _candidates(self, router: "Router", packet: Packet) -> List[Tuple[int, int, int | None]]:
        """Candidate first hops: ``(port, PathClass, intermediate_group)``."""
        candidates: List[Tuple[int, int, int | None]] = []
        min_port = self.minimal_port(router, packet.dst_node)
        candidates.append((min_port, PathClass.MINIMAL, None))
        dst_group = self.topology.group_of_node_table[packet.dst_node]
        if dst_group != router.group:
            for group in self.sample_intermediate_groups(
                router, packet, self.config.nonminimal_candidates
            ):
                port = self.port_toward_group(router, group)
                candidates.append((port, PathClass.NONMINIMAL, group))
        return candidates

    def decide_at_source(self, router: "Router", packet: Packet) -> None:
        """Pick minimal vs non-minimal using learned delivery-time estimates."""
        table = self.table_for(router)
        dest = self._dest_key(router, packet)
        candidates = self._candidates(router, packet)

        if len(candidates) > 1 and self.rng.random() < self.config.q_exploration:
            choice = candidates[int(self.rng.integers(len(candidates)))]
        else:
            best_score = float("inf")
            choice = candidates[0]
            for candidate in candidates:
                port = candidate[0]
                score = (
                    self.config.q_queue_weight * router.queue_delay_estimate(port)
                    + table.get(port, dest)
                )
                if score < best_score:
                    best_score = score
                    choice = candidate

        _, path_class, intermediate = choice
        packet.path_class = PathClass(path_class)
        packet.intermediate_group = intermediate
        packet.minimal_decision_final = True

    def route(self, router: "Router", packet: Packet) -> Tuple[int, int]:
        if packet.path_class == PathClass.UNDECIDED:
            self.decide_at_source(router, packet)
        port = self.forward_port(router, packet)
        return port, self.next_vc(router, packet)

    # ------------------------------------------------------------- learning
    # reprolint: hot
    def estimate_remaining(self, router: "Router", packet: Packet) -> float:
        """This router's best estimate of the packet's remaining delivery time.

        Per the Boyan–Littman Q-routing update (and the paper's "router's own
        best estimate" feedback rule) this is the *minimum* of
        ``queue_weight * queue_delay + Q`` over every viable output port — not
        just the port the packet happens to take next.
        """
        topo = self.topology
        dst_router = topo.router_of_node_table[packet.dst_node]
        if dst_router == router.router_id:
            # Only the terminal hop remains.
            return self._terminal_remaining
        table = self.table_for(router)
        dst_group = topo.group_of_router_table[dst_router]
        if dst_group == router.group:
            dest = self._router_keys[dst_router]
            ports = self._local_ports
        else:
            dest = self._group_keys[dst_group]
            ports = self._router_ports
        weight_ns = self.config.q_queue_weight * self._serialization_ns
        credits = router.credits
        requests = router.out_requests
        row = table.row(dest)
        best = float("inf")
        for port in ports:
            q = row[port]
            if q is None:
                q = table.get(port, dest)
            # Router.output_occupancy, inlined.
            score = weight_ns * (credits[port]._used + len(requests[port])) + q
            if score < best:
                best = score
        return best

    def on_packet_received(self, router: "Router", in_port: int, packet: Packet) -> None:
        """Send the delivery-time feedback for this hop back to the sender."""
        in_link = router.in_links[in_port]
        if in_link is None:
            return
        sender = in_link.src
        # Feedback only flows between routers; NIC injections carry no Q-value.
        if not isinstance(sender, _Router):
            return
        if packet.request_time is None:
            return
        hop_delay = router.sim.now - packet.request_time
        estimate = self.estimate_remaining(router, packet)
        dest = self._dest_key(sender, packet)
        sample = hop_delay + estimate
        router.sim.schedule(
            in_link.latency,
            self._apply_feedback,
            sender,
            in_link.src_port,
            dest,
            sample,
            kind=_FEEDBACK,
        )

    def _apply_feedback(self, sender: "Router", port: int, dest: DestKey, sample: float) -> None:
        self.table_for(sender).update(port, dest, sample, self.config.q_learning_rate)
        self.feedback_count += 1

    # ------------------------------------------------------------------ misc
    def total_table_entries(self) -> int:
        """Materialized table entries across all routers (observability)."""
        return sum(t.known_entries() for t in self._tables.values())
