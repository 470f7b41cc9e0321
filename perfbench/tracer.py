"""Per-layer tracing by wrapping ``repro`` layer functions from outside.

:class:`Tracer` replaces every function and method defined in the modules of
each layer package (``repro.core``, ``repro.network``, ...) with a wrapper,
and puts the originals back on :meth:`Tracer.uninstall`.  It must be
installed before the simulator stack is built: components capture bound
methods (``self._schedule = sim.schedule``) at construction, and those
captures only see wrappers that were already on the class.

Every wrapped call adds to two accumulators:

* its function's call count, and
* its layer's self time: the call's duration minus the time spent in the
  wrapped calls it made.  Time in unwrapped code (builtins, third-party
  libraries, modules outside the traced layers) counts as self time of the
  nearest wrapped caller.

Calls of the functions named in :data:`SPAN_FUNCTIONS` (layer boundaries
that run a bounded number of times per run) are also recorded as spans,
``(name, start, end, parent)``, kept in memory and written out by
:meth:`Tracer.write_spans`.  Hot per-event functions are counted but not
recorded as spans, which keeps a paper-scale traced run within memory.

Generator functions (rank programs, collectives) are wrapped so that each
*resumption* of the generator is one call of its layer; otherwise the time
spent inside rank programs would be charged to the MPI engine driving them.
"""

from __future__ import annotations

import enum
import importlib
import inspect
import json
import pkgutil
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Traced layers: ``repro.<layer>`` packages, in report order.
LAYERS: Tuple[str, ...] = (
    "core",
    "network",
    "routing",
    "stats",
    "mpi",
    "workloads",
    "placement",
    "flow",
    "results",
    "experiments",
    "analysis",
)

#: Functions recorded as spans, by ``module:qualname``.  Their inclusive
#: time (outermost call only, so recursion is not double counted) is kept
#: per function as well.
SPAN_FUNCTIONS: Tuple[str, ...] = (
    "repro.core.engine:Simulator.run",
    "repro.network.network:DragonflyNetwork.__init__",
    "repro.network.topology:DragonflyTopology.__init__",
    "repro.flow.network:FlowNetwork.__init__",
    "repro.mpi.engine:MpiEngine.__init__",
    "repro.mpi.engine:MpiEngine.add_job",
    "repro.mpi.engine:MpiEngine.run",
    "repro.placement.allocator:NodeAllocator.allocate",
    "repro.results.schema:flatten_run",
    "repro.results.store:ResultStore.record",
    "repro.results.store:ResultStore.get",
    "repro.experiments.scenario:Scenario.run",
    "repro.experiments.scenario:scenario_hash",
    "repro.experiments.sweep:run_sweep",
    "repro.analysis.reports:build_report",
)

#: The scheduling entry points whose ``kind=`` argument is tallied.
_SCHEDULE_FUNCTIONS = (
    "repro.core.engine:Simulator.schedule",
    "repro.core.engine:Simulator.schedule_at",
)

#: Dunder methods that are wrapped; every other dunder is left alone.
_WRAPPED_DUNDERS = frozenset({"__init__", "__call__"})


#: ``(owner, attribute, original)`` entries, in patching order.
PatchLog = List[Tuple[Any, str, Any]]


def patch(log: PatchLog, owner: Any, attr: str, value: Any) -> None:
    """Set ``owner.attr = value``, remembering the raw original in ``log``."""
    log.append((owner, attr, vars(owner)[attr]))
    setattr(owner, attr, value)


def restore(log: PatchLog) -> None:
    """Undo every patch in ``log``, newest first, and empty it."""
    for owner, attr, original in reversed(log):
        setattr(owner, attr, original)
    log.clear()


def layer_modules(layer: str) -> List[Any]:
    """Import and return every module of package ``repro.<layer>``."""
    package = importlib.import_module(f"repro.{layer}")
    modules = [package]
    for info in pkgutil.walk_packages(package.__path__, prefix=f"repro.{layer}."):
        modules.append(importlib.import_module(info.name))
    return modules


class Tracer:
    """Wraps the traced layers while installed; see the module docstring."""

    def __init__(self, layers: Tuple[str, ...] = LAYERS) -> None:
        self.layers = layers
        self.clock: Callable[[], float] = time.perf_counter
        #: Function keys (``module:qualname``) in wrapping order.
        self.names: List[str] = []
        #: Layer index of each function key.
        self.name_layer: List[int] = []
        self.calls: List[int] = []
        #: Outermost inclusive time of each span function (0 for the rest).
        self.inclusive: List[float] = []
        self.self_time: List[float] = [0.0] * len(layers)
        #: Event counts by ``EventKind`` value, tallied at scheduling.
        self.kinds: Dict[int, int] = {}
        #: Recorded spans: ``[name index, start, end, parent span or -1]``.
        self.spans: List[list] = []
        self._stack: List[float] = [0.0]
        self._span_stack: List[int] = [-1]
        self._depth: List[int] = []
        self._patched: PatchLog = []
        self.installed = False

    # --------------------------------------------------------------- install
    def install(self) -> None:
        """Wrap every function and method of the traced layers."""
        if self.installed:
            raise RuntimeError("tracer is already installed")
        self.installed = True
        replaced: Dict[int, Any] = {}
        for layer_index, layer in enumerate(self.layers):
            for module in layer_modules(layer):
                for attr, value in list(vars(module).items()):
                    if getattr(value, "__module__", None) != module.__name__:
                        continue
                    if inspect.isfunction(value):
                        wrapper = self._wrap(value, layer_index, replaced)
                        self._patch(module, attr, wrapper)
                    elif inspect.isclass(value) and not issubclass(
                        value, (enum.Enum, BaseException)
                    ):
                        self._wrap_class(value, layer_index, replaced)
        # Module-level functions imported by name elsewhere (``from
        # repro.results.schema import flatten_run``) are rebound in every
        # loaded repro module, so calls through those names are traced too.
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in replaced:
                    wrapper = replaced[id(value)]
                    if wrapper is not value:
                        self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        restore(self._patched)
        self.installed = False

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        patch(self._patched, owner, attr, value)

    def _wrap_class(self, cls: type, layer_index: int, replaced: Dict[int, Any]) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("__") and attr not in _WRAPPED_DUNDERS:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                wrapper = self._wrap(raw.__func__, layer_index, replaced)
                self._patch(cls, attr, type(raw)(wrapper))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, layer_index, replaced))

    def _register(self, fn: Callable[..., Any], layer_index: int) -> int:
        self.names.append(f"{fn.__module__}:{fn.__qualname__}")
        self.name_layer.append(layer_index)
        self.calls.append(0)
        self.inclusive.append(0.0)
        self._depth.append(0)
        return len(self.names) - 1

    def _wrap(self, fn: Callable[..., Any], layer_index: int, replaced: Dict[int, Any]) -> Any:
        """One wrapper per function object (class-level aliases share it)."""
        if id(fn) in replaced:
            return replaced[id(fn)]
        index = self._register(fn, layer_index)
        key = self.names[index]
        if inspect.isgeneratorfunction(fn):
            wrapper = self._generator_wrapper(fn, layer_index, index)
        elif key in SPAN_FUNCTIONS:
            wrapper = self._span_wrapper(fn, layer_index, index)
        elif key in _SCHEDULE_FUNCTIONS:
            wrapper = self._schedule_wrapper(fn, layer_index, index)
        else:
            wrapper = self._plain_wrapper(fn, layer_index, index)
        wrapper.__wrapped__ = fn
        for field in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(wrapper, field, getattr(fn, field))
        replaced[id(fn)] = wrapper
        return wrapper

    # -------------------------------------------------------------- wrappers
    # Each wrapper keeps its state in closure variables: these run once per
    # wrapped call, millions of times in a paper-scale traced run.
    def _plain_wrapper(self, fn: Callable[..., Any], layer: int, index: int) -> Any:
        stack, self_time, calls, clock = self._stack, self.self_time, self.calls, self.clock

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_time[layer] += duration - stack.pop()
                stack[-1] += duration
                calls[index] += 1

        return wrapper

    def _schedule_wrapper(self, fn: Callable[..., Any], layer: int, index: int) -> Any:
        stack, self_time, calls, clock = self._stack, self.self_time, self.calls, self.clock
        kinds = self.kinds

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            kind = int(kwargs.get("kind", 0))
            kinds[kind] = kinds.get(kind, 0) + 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_time[layer] += duration - stack.pop()
                stack[-1] += duration
                calls[index] += 1

        return wrapper

    def _span_wrapper(self, fn: Callable[..., Any], layer: int, index: int) -> Any:
        stack, self_time, calls, clock = self._stack, self.self_time, self.calls, self.clock
        spans, span_stack, depth, inclusive = (
            self.spans, self._span_stack, self._depth, self.inclusive,
        )

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = [index, 0.0, 0.0, span_stack[-1]]
            spans.append(span)
            span_stack.append(len(spans) - 1)
            depth[index] += 1
            stack.append(0.0)
            start = span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = span[2] = clock()
                duration = end - start
                self_time[layer] += duration - stack.pop()
                stack[-1] += duration
                calls[index] += 1
                span_stack.pop()
                depth[index] -= 1
                if depth[index] == 0:
                    inclusive[index] += duration

        return wrapper

    def _generator_wrapper(self, fn: Callable[..., Any], layer: int, index: int) -> Any:
        stack, self_time, calls, clock = self._stack, self.self_time, self.calls, self.clock

        class TracedGenerator:
            """Generator proxy: every resumption is one call of ``fn``'s layer."""

            __slots__ = ("_gen",)

            def __init__(self, gen: Any) -> None:
                self._gen = gen

            def __iter__(self) -> "TracedGenerator":
                return self

            def __next__(self) -> Any:
                return self.send(None)

            def send(self, value: Any) -> Any:
                stack.append(0.0)
                start = clock()
                try:
                    return self._gen.send(value)
                finally:
                    duration = clock() - start
                    self_time[layer] += duration - stack.pop()
                    stack[-1] += duration
                    calls[index] += 1

            def throw(self, *args: Any) -> Any:
                return self._gen.throw(*args)

            def close(self) -> None:
                self._gen.close()

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return TracedGenerator(fn(*args, **kwargs))

        return wrapper

    # --------------------------------------------------------------- queries
    def index_of(self, key: str) -> int:
        """Index of function ``module:qualname`` (``ValueError`` if not wrapped)."""
        return self.names.index(key)

    def call_count(self, key: str) -> int:
        """Calls of function ``module:qualname`` so far."""
        return self.calls[self.index_of(key)]

    def inclusive_time(self, key: str) -> float:
        """Outermost inclusive seconds of span function ``module:qualname``."""
        return self.inclusive[self.index_of(key)]

    def count_where(self, predicate: Callable[[str], bool]) -> int:
        """Total calls of the functions whose key satisfies ``predicate``."""
        return sum(c for name, c in zip(self.names, self.calls) if predicate(name))

    def layer_calls(self, layer: str) -> int:
        """Total wrapped calls into ``layer``."""
        target = self.layers.index(layer)
        return sum(c for li, c in zip(self.name_layer, self.calls) if li == target)

    def layer_self_time(self, layer: str) -> float:
        """Self seconds of ``layer`` so far."""
        return self.self_time[self.layers.index(layer)]

    def write_spans(self, path: Path, extra: Optional[Dict[str, Any]] = None) -> Path:
        """Write the recorded spans and per-function counts as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "layers": list(self.layers),
            "functions": [
                {"name": name, "layer": self.layers[layer], "calls": calls}
                for name, layer, calls in zip(self.names, self.name_layer, self.calls)
                if calls
            ],
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [self.names[index], start, end, parent]
                for index, start, end, parent in self.spans
            ],
        }
        if extra:
            payload.update(extra)
        path.write_text(json.dumps(payload) + "\n")
        return path
