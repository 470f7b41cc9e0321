"""Two-level Q-table held by every router under Q-adaptive routing.

The table stores, per output port, the estimated remaining delivery time (in
nanoseconds) towards

* every destination *group* (the inter-group level), and
* every destination *router of the local group* (the intra-group level).

Storage is one port-indexed row per destination key: ``row[port]`` is the
Q-value of forwarding towards that destination through ``port``, or ``None``
while the entry has not been materialized.  Entries materialize lazily on
first touch, initialized with an optimistic zero-load estimate provided by
the caller, so the very first packets follow minimal paths and exploration
starts from a sensible prior — matching the paper's setup where Q-adaptive
starts "without any pre-trained information".
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["QTable"]

#: Destination key: ("g", group_id) for inter-group, ("r", router_id) intra-group.
DestKey = Tuple[str, int]

#: One destination's Q-values, indexed by output port (None = not yet touched).
QRow = List[Optional[float]]


class QTable:
    """Per-router table mapping (output port, destination key) to a Q-value.

    Parameters
    ----------
    router_id:
        The router owning the table.
    num_ports:
        Output ports per router: the length of every row.
    initializer:
        ``initializer(port, dest)`` gives the initial estimate of an entry
        the first time it is touched.
    """

    __slots__ = ("router_id", "num_ports", "_rows", "_initializer", "_entries", "updates")

    def __init__(
        self,
        router_id: int,
        num_ports: int,
        initializer: Callable[[int, DestKey], float],
    ):
        self.router_id = router_id
        self.num_ports = num_ports
        self._rows: Dict[DestKey, QRow] = {}
        self._initializer = initializer
        self._entries = 0
        #: Number of learning updates applied (observability / tests).
        self.updates = 0

    def row(self, dest: DestKey) -> QRow:
        """The port-indexed row of ``dest`` (``None`` = entry not touched yet).

        Read-only for callers: an untouched entry must be materialized with
        :meth:`get`, never written directly.
        """
        row = self._rows.get(dest)
        if row is None:
            row = [None] * self.num_ports
            self._rows[dest] = row
        return row

    def get(self, port: int, dest: DestKey) -> float:
        """Current Q-value for forwarding towards ``dest`` through ``port``."""
        row = self._rows.get(dest)
        if row is None:
            row = self.row(dest)
        value = row[port]
        if value is None:
            value = float(self._initializer(port, dest))
            row[port] = value
            self._entries += 1
        return value

    def update(self, port: int, dest: DestKey, sample: float, learning_rate: float) -> float:
        """Blend a new delivery-time ``sample`` into the estimate.

        Standard exponential moving average update
        ``Q ← (1 - α) Q + α · sample``; returns the new value.
        """
        if sample < 0:
            raise ValueError("a delivery-time sample cannot be negative")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning rate must be in (0, 1]")
        old = self.get(port, dest)
        new = (1.0 - learning_rate) * old + learning_rate * sample
        self._rows[dest][port] = new
        self.updates += 1
        return new

    def best(self, ports_and_delays: Iterable[Tuple[int, float]], dest: DestKey) -> Tuple[int, float]:
        """Port with the smallest (queue delay + Q) among ``ports_and_delays``.

        ``ports_and_delays`` is an iterable of ``(port, queue_delay_ns)``.
        Returns ``(port, score)``.
        """
        best_port = -1
        best_score = float("inf")
        for port, delay in ports_and_delays:
            score = delay + self.get(port, dest)
            if score < best_score:
                best_score = score
                best_port = port
        if best_port < 0:
            raise ValueError("best() called with an empty candidate set")
        return best_port, best_score

    def known_entries(self) -> int:
        """Number of materialized (port, destination) entries."""
        return self._entries

    def snapshot(self) -> Dict[Tuple[int, DestKey], float]:
        """Copy of the materialized entries (for inspection and tests)."""
        return {
            (port, dest): value
            for dest, row in self._rows.items()
            for port, value in enumerate(row)
            if value is not None
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QTable(router={self.router_id}, entries={self._entries}, updates={self.updates})"
