"""Fidelity selection: packet-level vs. flow-level simulation.

The simulator models the network at one of two *fidelities*, selected
per-run by ``SimulationConfig.fidelity``:

* ``"packet"`` (default) — the flit-timed packet-level simulation every
  paper result uses: NICs segment messages into packets, routers arbitrate
  per-packet with credit flow control, links serialize flits.
* ``"flow"`` — messages travel as *fluid flows* over the same
  :class:`~repro.network.topology.DragonflyTopology`: each flow gets a
  max-min fair share of the bandwidth of every link on its path
  (progressive filling), rates are recomputed event-driven whenever a flow
  starts or finishes, and the routing algorithm maps to path selection
  (see :class:`repro.flow.network.FlowNetwork`).  Per-packet effects
  (buffer occupancy, credit stalls, VC arbitration) are *not* modelled —
  flow results are approximations cross-validated against packet-level
  ones, traded for orders-of-magnitude scale (100k+ endpoints in seconds).

Selection:

* ``resolve_fidelity`` validates/canonicalizes a name (used by
  ``SimulationConfig.__post_init__`` so typos fail at configuration time);
* ``active_fidelity_name`` resolves the fidelity of a run, honoring the
  ``REPRO_FIDELITY`` environment override **only when the config carries
  the default** — a scenario that pins ``fidelity="flow"`` explicitly is
  never overridden, and the default is never serialized or hashed, so all
  pre-existing scenario hashes are byte-identical (see docs/fidelity.md).

Fidelities are **not** bit-equivalent: ``"flow"`` changes
the numbers, not just the execution strategy.  That is why the fidelity is
part of the scenario description (hashed when non-default) instead of a
pure execution knob.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SimulationConfig

__all__ = [
    "DEFAULT_FIDELITY",
    "ENV_FIDELITY",
    "FLOW_FIDELITY",
    "active_fidelity_name",
    "fidelity_names",
    "resolve_fidelity",
]

#: The fidelity every run uses unless told otherwise.
DEFAULT_FIDELITY = "packet"
#: The flow-level fidelity name.
FLOW_FIDELITY = "flow"
#: Environment variable overriding the fidelity of default-fidelity configs.
ENV_FIDELITY = "REPRO_FIDELITY"

_FIDELITY_NAMES: Tuple[str, ...] = (DEFAULT_FIDELITY, FLOW_FIDELITY)
_ALIASES = {
    "pkt": DEFAULT_FIDELITY,
    "packets": DEFAULT_FIDELITY,
    "fluid": FLOW_FIDELITY,
    "flows": FLOW_FIDELITY,
}


def fidelity_names() -> Tuple[str, ...]:
    """Every registered fidelity name, default first."""
    return _FIDELITY_NAMES


def resolve_fidelity(name: str) -> str:
    """Canonical fidelity name for ``name`` (case/alias tolerant).

    Raises ``ValueError`` naming the valid fidelities on an unknown name —
    the error ``SimulationConfig.__post_init__`` re-raises with field
    context, so a typo fails at configuration time.
    """
    canonical = str(name).strip().lower()
    canonical = _ALIASES.get(canonical, canonical)
    if canonical not in _FIDELITY_NAMES:
        raise ValueError(
            f"unknown simulation fidelity {name!r}; "
            f"valid fidelities: {', '.join(_FIDELITY_NAMES)}"
        )
    return canonical


def active_fidelity_name(config: "SimulationConfig") -> str:
    """Fidelity that will actually execute ``config``.

    The ``REPRO_FIDELITY`` environment override applies **only** when the
    config carries the default fidelity: an explicit ``fidelity="flow"``
    describes the experiment itself and is never overridden.  Since the
    default is never serialized/hashed, the override can only ever
    re-fidelity runs whose description says nothing about fidelity.
    """
    if config.fidelity == DEFAULT_FIDELITY:
        env = os.environ.get(ENV_FIDELITY, "").strip()
        if env:
            return resolve_fidelity(env)
    return config.fidelity
