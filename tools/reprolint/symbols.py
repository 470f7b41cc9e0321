"""Project-wide symbol table and call graph for the multi-pass analyzer.

The v1 checkers were per-file and syntactic; the v2 rule families (unit
dataflow REP31x, exception contracts REP6xx) need to answer cross-module
questions:

* "which function does this call resolve to?" — :meth:`SymbolTable.resolve_call`
  follows local defs, ``import``/``from`` bindings, module-attribute chains
  and ``self.method()`` dispatch through the project MRO;
* "what class does this class subclass?" — :meth:`SymbolTable.mro` walks
  base-class names through the import table, staying inside the linted set.

Everything is derived from the parsed modules handed to one lint run: a
symbol that lives in a file outside the run simply does not resolve, and
every consumer treats "unresolved" as "unknown", never as an error.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "SymbolTable",
    "module_name_of",
]

#: Directory names that anchor a dotted module path.  ``src`` is stripped
#: (it is the package root), the others are kept as the leading component.
_KEPT_ANCHORS = ("tools", "examples", "benchmarks", "tests")


def module_name_of(path: str) -> str:
    """Dotted module name of a source path (``src/repro/x.py`` -> ``repro.x``).

    Works for both repo-relative and absolute paths: the segment after the
    last ``src`` component starts the module path; ``tools``/``examples``/
    ``benchmarks``/``tests`` anchor themselves.  A path outside any anchor
    falls back to its bare stem, which keeps single-file fixtures usable.
    """
    parts = [p for p in Path(path).parts if p not in ("/", "\\")]
    if "src" in parts:
        parts = parts[len(parts) - 1 - parts[::-1].index("src"):][1:]
    else:
        for anchor in _KEPT_ANCHORS:
            if anchor in parts:
                parts = parts[parts.index(anchor):]
                break
        else:
            parts = [parts[-1]] if parts else []
    if not parts:
        return ""
    leaf = parts[-1]
    if leaf.endswith(".py"):
        leaf = leaf[:-3]
    parts = list(parts[:-1]) + [leaf]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


# ------------------------------------------------------------------- symbols
@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str
    module: str
    path: str
    name: str
    node: ast.FunctionDef
    #: Positional parameter names in order (``self``/``cls`` included).
    params: Tuple[str, ...]
    #: Keyword-only parameter names.
    kwonly: Tuple[str, ...]
    #: Names of parameters that carry a default.
    defaulted: Tuple[str, ...]
    has_vararg: bool
    has_kwarg: bool
    #: Dotted decorator names, e.g. ``("property",)``.
    decorators: Tuple[str, ...]
    class_name: Optional[str] = None

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    @property
    def is_property(self) -> bool:
        return any(d == "property" or d.endswith(".setter") for d in self.decorators)

    @property
    def is_static(self) -> bool:
        return "staticmethod" in self.decorators


@dataclass
class ClassInfo:
    """One class definition plus the facts the checkers need."""

    qualname: str
    module: str
    path: str
    name: str
    node: ast.ClassDef
    #: Base-class expressions as written (dotted names; unresolvable kept raw).
    bases: Tuple[str, ...]
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Class-level ``name = other_method`` aliases (e.g. ``link_free = _try_output``).
    method_aliases: Dict[str, str] = field(default_factory=dict)
    #: Instance attributes assigned as ``self.X = ...`` anywhere in the class.
    attrs: Set[str] = field(default_factory=set)


def _decorator_name(node: ast.expr) -> str:
    target = node.func if isinstance(node, ast.Call) else node
    parts: List[str] = []
    while isinstance(target, ast.Attribute):
        parts.append(target.attr)
        target = target.value
    if isinstance(target, ast.Name):
        parts.append(target.id)
    return ".".join(reversed(parts))


def _dotted_name(node: ast.expr) -> str:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _function_info(
    node: ast.FunctionDef, module: str, path: str, class_name: Optional[str]
) -> FunctionInfo:
    args = node.args
    params = tuple(a.arg for a in args.posonlyargs + args.args)
    kwonly = tuple(a.arg for a in args.kwonlyargs)
    defaulted = tuple(params[len(params) - len(args.defaults):]) if args.defaults else ()
    kw_defaulted = tuple(
        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    )
    prefix = f"{module}.{class_name}." if class_name else f"{module}."
    return FunctionInfo(
        qualname=prefix + node.name,
        module=module,
        path=path,
        name=node.name,
        node=node,
        params=params,
        kwonly=kwonly,
        defaulted=defaulted + kw_defaulted,
        has_vararg=args.vararg is not None,
        has_kwarg=args.kwarg is not None,
        decorators=tuple(_decorator_name(d) for d in node.decorator_list),
        class_name=class_name,
    )


class SymbolTable:
    """Symbols of every module in one lint run, plus resolution helpers."""

    def __init__(self) -> None:
        #: module name -> {local name -> fully qualified target}
        self.imports: Dict[str, Dict[str, str]] = {}
        #: class qualname -> info
        self.classes: Dict[str, ClassInfo] = {}
        #: function qualname (module.fn or module.Class.fn) -> info
        self.functions: Dict[str, FunctionInfo] = {}
        #: module name -> {top-level symbol name -> qualname}
        self.module_symbols: Dict[str, Dict[str, str]] = {}
        #: module name -> source path (first seen wins)
        self.module_paths: Dict[str, str] = {}

    # ------------------------------------------------------------- building
    def add_module(self, path: str, tree: ast.Module) -> None:
        module = module_name_of(path)
        if not module or module in self.module_paths:
            # Duplicate module names (two fixture files with one stem) keep
            # the first definition; resolution stays deterministic.
            if module in self.module_paths:
                return
        self.module_paths[module] = path
        imports: Dict[str, str] = {}
        symbols: Dict[str, str] = {}
        package = module.rsplit(".", 1)[0] if "." in module else ""
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    if alias.asname:
                        imports[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module is not None:
                base = node.module
                if node.level:
                    parent = module.split(".")
                    parent = parent[: len(parent) - node.level]
                    base = ".".join(parent + [node.module])
                for alias in node.names:
                    imports[alias.asname or alias.name] = f"{base}.{alias.name}"
            elif isinstance(node, ast.ImportFrom) and node.level:
                parent = module.split(".")
                base = ".".join(parent[: len(parent) - node.level])
                for alias in node.names:
                    imports[alias.asname or alias.name] = f"{base}.{alias.name}"
        self.imports[module] = imports

        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                info = _function_info(stmt, module, path, None)
                self.functions[info.qualname] = info
                symbols[stmt.name] = info.qualname
            elif isinstance(stmt, ast.ClassDef):
                cls = self._class_info(stmt, module, path)
                self.classes[cls.qualname] = cls
                symbols[stmt.name] = cls.qualname
                for method in cls.methods.values():
                    self.functions[method.qualname] = method
        self.module_symbols[module] = symbols

    def _class_info(self, node: ast.ClassDef, module: str, path: str) -> ClassInfo:
        cls = ClassInfo(
            qualname=f"{module}.{node.name}",
            module=module,
            path=path,
            name=node.name,
            node=node,
            bases=tuple(filter(None, (_dotted_name(b) for b in node.bases))),
        )
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef):
                cls.methods[stmt.name] = _function_info(stmt, module, path, node.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and isinstance(stmt.value, ast.Name):
                        cls.method_aliases[target.id] = stmt.value.id
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.ctx, ast.Store)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
            ):
                cls.attrs.add(sub.attr)
        return cls

    # ------------------------------------------------------------ resolution
    def resolve(self, module: str, dotted: str) -> Optional[str]:
        """Fully qualified name of ``dotted`` as seen from ``module``."""
        if not dotted:
            return None
        head, _, rest = dotted.partition(".")
        target = self.imports.get(module, {}).get(head)
        if target is None:
            local = self.module_symbols.get(module, {}).get(head)
            if local is not None:
                target = local
            elif head in self.module_paths:
                target = head
            else:
                return None
        return f"{target}.{rest}" if rest else target

    def resolve_class(self, module: str, dotted: str) -> Optional[ClassInfo]:
        qualname = self.resolve(module, dotted)
        if qualname is None:
            return None
        return self.classes.get(qualname)

    def mro(self, cls: ClassInfo) -> List[ClassInfo]:
        """The class and its project-resolvable ancestors, nearest first."""
        chain: List[ClassInfo] = []
        seen: Set[str] = set()
        stack: List[ClassInfo] = [cls]
        while stack:
            current = stack.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            chain.append(current)
            for base in current.bases:
                resolved = self.resolve_class(current.module, base)
                if resolved is not None:
                    stack.append(resolved)
        return chain

    def lookup_method(self, cls: ClassInfo, name: str) -> Optional[FunctionInfo]:
        """Resolve a method through the project MRO (aliases followed)."""
        for ancestor in self.mro(cls):
            if name in ancestor.methods:
                return ancestor.methods[name]
            alias = ancestor.method_aliases.get(name)
            if alias is not None and alias in ancestor.methods:
                return ancestor.methods[alias]
        return None

    def resolve_call(
        self, module: str, call: ast.Call, enclosing_class: Optional[ClassInfo] = None
    ) -> Optional[FunctionInfo]:
        """The :class:`FunctionInfo` a call resolves to, or None.

        Handles plain names (local defs and imported symbols), module
        attributes (``mod.func``), class constructors (resolving to
        ``__init__`` when defined) and ``self.method()`` dispatch.
        """
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and enclosing_class is not None
        ):
            return self.lookup_method(enclosing_class, func.attr)
        dotted = _dotted_name(func)
        if not dotted:
            return None
        qualname = self.resolve(module, dotted)
        if qualname is None:
            return None
        if qualname in self.functions:
            return self.functions[qualname]
        cls = self.classes.get(qualname)
        if cls is not None:
            return self.lookup_method(cls, "__init__")
        return None
