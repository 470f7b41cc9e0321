"""Backend names accepted by ``SimulationConfig.backend``.

The simulator has a single hot core (see the "Hot core" section of
docs/architecture.md).  ``SimulationConfig.backend`` predates that: stored
scenario documents may carry ``"backend": "fast"`` from when a second,
bit-identical copy of the core existed.  The field is still parsed,
validated and preserved — serialized and hashed only when non-default, so
every scenario hash and stored result stays addressable — but it no longer
selects anything: every run executes the one core.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SimulationConfig

__all__ = ["DEFAULT_BACKEND", "active_backend_name", "resolve_backend"]

#: The backend name a config holds when it does not name one.
DEFAULT_BACKEND = "reference"

#: Every name a stored scenario may carry.
_BACKEND_NAMES: Tuple[str, ...] = (DEFAULT_BACKEND, "fast")


def resolve_backend(name: str) -> str:
    """Normalize ``name`` (case, surrounding space) to an accepted backend name.

    Raises ``ValueError`` naming the valid choices for unknown names; used
    by ``SimulationConfig`` so a typo fails at construction, not mid-run.
    """
    canonical = name.strip().lower()
    if canonical not in _BACKEND_NAMES:
        valid = ", ".join(_BACKEND_NAMES)
        raise ValueError(f"unknown simulation backend {name!r}; valid backends: {valid}")
    return canonical


def active_backend_name(config: "SimulationConfig") -> str:
    """The hot core that executes ``config``: always the one core, ``"reference"``."""
    return DEFAULT_BACKEND
