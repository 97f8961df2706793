"""Project-wide symbol index and call graph for the dataflow analyses.

The per-file rules (PL001–PL010, PL015) deliberately see one module at a time;
the dataflow families (PL011–PL014) need to know *who calls whom* across
the whole of ``src/repro``.  This module builds that picture in two
passes, mirroring how an import actually binds names:

1. **Symbol resolution.**  Every library file is parsed once and its
   :class:`~repro.lint.engine.ImportMap` captures what each top-level
   name refers to.  :meth:`ProjectIndex.canonicalize` then follows
   re-export chains (``from repro.serve.ledger import BudgetLedger``
   re-exported through ``repro/serve/__init__.py``) until a name lands
   on its defining module, so ``repro.serve.BudgetLedger`` and
   ``repro.serve.ledger.BudgetLedger`` are the same node.

2. **Receiver typing.**  Methods are reachable through attributes
   (``self._ledger.spend_batch(...)``), so the index records, per
   class, the declared or constructed type of every ``self.X``
   attribute — from ``__init__`` parameter annotations, ``self.X:  T``
   annotations, and ``self.X = ClassName(...)`` constructor calls —
   plus which attributes hold ``threading`` locks.  Call resolution
   walks that map; what it cannot prove it leaves unresolved rather
   than guessing.

Everything here is best-effort and sound-ish in the direction the
analyses need: an unresolved call contributes no edges (the analyses
treat unknown callees conservatively per family), and a resolved edge
is only emitted when the receiver's type chain is provable from the
source.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.engine import (
    ImportMap,
    Suppressions,
    _classify,
    _parse_suppressions,
)

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "attr_chain",
]


def attr_chain(expr: ast.expr) -> list[str] | None:
    """``a.b.c`` → ``["a", "b", "c"]``; None for non-Name-rooted chains."""
    parts: list[str] = []
    cur = expr
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    parts.reverse()
    return parts


@dataclass
class ModuleInfo:
    """One parsed library module."""

    module: str
    path: str
    tree: ast.Module
    imports: ImportMap
    suppressions: Suppressions
    is_package: bool


@dataclass
class FunctionInfo:
    """One function or method, addressed by its qualified name."""

    qualname: str  # repro.serve.ledger.BudgetLedger.spend_batch
    module: str
    cls: str | None  # owning class qualname, or None for module functions
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    path: str
    params: list[str] = field(default_factory=list)
    param_types: dict[str, str] = field(default_factory=dict)
    return_type: str | None = None


@dataclass
class ClassInfo:
    """One class: its methods, typed attributes, and lock attributes."""

    qualname: str
    module: str
    bases: list[str] = field(default_factory=list)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    attr_types: dict[str, str] = field(default_factory=dict)
    # attr name -> "lock" | "rlock" for threading.Lock()/RLock() attrs
    lock_attrs: dict[str, str] = field(default_factory=dict)


_LOCK_CTORS = {
    "threading.Lock": "lock",
    "threading.RLock": "rlock",
    "threading.Condition": "lock",
    "threading.Semaphore": "lock",
    "threading.BoundedSemaphore": "lock",
}


class ProjectIndex:
    """Symbols, classes, functions, and name resolution over a file set."""

    def __init__(self, files: list[Path]) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        for file_path in files:
            role, module = _classify(file_path)
            if role != "library" or not module:
                continue
            try:
                source = file_path.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=str(file_path))
            except (OSError, SyntaxError):
                continue
            is_package = file_path.name == "__init__.py"
            self.modules[module] = ModuleInfo(
                module=module,
                path=str(file_path),
                tree=tree,
                imports=ImportMap(tree, module=module, is_package=is_package),
                suppressions=_parse_suppressions(source, tree),
                is_package=is_package,
            )
        for mi in self.modules.values():
            self._collect_definitions(mi)
        # Second pass: types need the full class table to resolve against.
        for mi in self.modules.values():
            self._collect_types(mi)

    # ------------------------------------------------------------------
    # definition collection

    def _collect_definitions(self, mi: ModuleInfo) -> None:
        for node in mi.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(mi, node, cls=None)
            elif isinstance(node, ast.ClassDef):
                qualname = f"{mi.module}.{node.name}"
                ci = ClassInfo(qualname=qualname, module=mi.module)
                ci.bases = [
                    base
                    for base in (self.resolve_base(mi, b) for b in node.bases)
                    if base is not None
                ]
                self.classes[qualname] = ci
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        fi = self._add_function(mi, item, cls=qualname)
                        ci.methods[item.name] = fi

    def _add_function(
        self,
        mi: ModuleInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls: str | None,
    ) -> FunctionInfo:
        owner = cls if cls is not None else mi.module
        fi = FunctionInfo(
            qualname=f"{owner}.{node.name}",
            module=mi.module,
            cls=cls,
            name=node.name,
            node=node,
            path=mi.path,
            params=[a.arg for a in [*node.args.posonlyargs, *node.args.args]],
        )
        self.functions[fi.qualname] = fi
        return fi

    # ------------------------------------------------------------------
    # type collection

    def _collect_types(self, mi: ModuleInfo) -> None:
        for fi in self.functions.values():
            if fi.module != mi.module:
                continue
            for arg in [*fi.node.args.posonlyargs, *fi.node.args.args,
                        *fi.node.args.kwonlyargs]:
                if arg.annotation is not None:
                    resolved = self.resolve_type(mi, arg.annotation)
                    if resolved is not None:
                        fi.param_types[arg.arg] = resolved
            if fi.node.returns is not None:
                fi.return_type = self.resolve_type(mi, fi.node.returns)
        for ci in self.classes.values():
            if ci.module != mi.module:
                continue
            self._collect_class_attrs(mi, ci)

    def _collect_class_attrs(self, mi: ModuleInfo, ci: ClassInfo) -> None:
        for meth in ci.methods.values():
            for stmt in ast.walk(meth.node):
                if isinstance(stmt, ast.AnnAssign):
                    target, ann = stmt.target, stmt.annotation
                    attr = self._self_attr(target)
                    if attr is None:
                        continue
                    resolved = self.resolve_type(mi, ann)
                    if resolved is not None:
                        ci.attr_types.setdefault(attr, resolved)
                elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    attr = self._self_attr(stmt.targets[0])
                    if attr is None:
                        continue
                    self._type_from_value(mi, ci, meth, attr, stmt.value)

    @staticmethod
    def _self_attr(target: ast.expr) -> str | None:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return target.attr
        return None

    def _type_from_value(
        self,
        mi: ModuleInfo,
        ci: ClassInfo,
        meth: FunctionInfo,
        attr: str,
        value: ast.expr,
    ) -> None:
        if isinstance(value, ast.Call):
            ctor = mi.imports.resolve(value.func)
            if ctor is None and isinstance(value.func, ast.Name):
                ctor = f"{mi.module}.{value.func.id}"
            if ctor is not None:
                ctor = self.canonicalize(ctor)
                kind = _LOCK_CTORS.get(ctor)
                if kind is not None:
                    ci.lock_attrs.setdefault(attr, kind)
                    return
                if ctor in self.classes:
                    ci.attr_types.setdefault(attr, ctor)
                    return
                # `self.x = make_thing(...)` with an annotated return type.
                fn = self.functions.get(ctor)
                if fn is not None and fn.return_type is not None:
                    ci.attr_types.setdefault(attr, fn.return_type)
        elif isinstance(value, ast.Name):
            # `self.x = param` where the parameter carries an annotation.
            resolved = meth.param_types.get(value.id)
            if resolved is not None:
                ci.attr_types.setdefault(attr, resolved)

    # ------------------------------------------------------------------
    # name resolution

    def canonicalize(self, dotted: str) -> str:
        """Follow re-export chains until *dotted* stops moving."""
        for _ in range(16):
            moved = self._canonicalize_once(dotted)
            if moved == dotted:
                return dotted
            dotted = moved
        return dotted

    def _canonicalize_once(self, dotted: str) -> str:
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            mi = self.modules.get(prefix)
            if mi is None:
                continue
            rest = parts[cut:]
            if not rest:
                return dotted
            origin = mi.imports.symbols.get(rest[0])
            if origin is not None:
                return ".".join([origin, *rest[1:]])
            return dotted
        return dotted

    def resolve_type(self, mi: ModuleInfo, ann: ast.expr) -> str | None:
        """A class qualname for an annotation expression, or None.

        Handles the project idioms: plain names, dotted names, string
        annotations (``"BudgetLedger | None"``), unions (first non-None
        member), and subscripted generics (the base is taken).
        """
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            text = ann.value
        else:
            try:
                text = ast.unparse(ann)
            except Exception:
                return None
        for member in text.split("|"):
            base = member.strip().strip("\"'").split("[")[0].strip()
            if not base or base == "None":
                continue
            return self._resolve_dotted_text(mi, base)
        return None

    def _resolve_dotted_text(self, mi: ModuleInfo, text: str) -> str | None:
        head, _, tail = text.partition(".")
        origin = mi.imports.symbols.get(head)
        if origin is None:
            module_alias = mi.imports.modules.get(head)
            if module_alias is not None:
                origin = module_alias
            elif f"{mi.module}.{head}" in self.classes:
                origin = f"{mi.module}.{head}"
            else:
                return None
        dotted = self.canonicalize(f"{origin}.{tail}" if tail else origin)
        return dotted if dotted in self.classes else None

    def lookup_method(self, cls_qualname: str, name: str) -> FunctionInfo | None:
        """Find *name* on the class or (breadth-first) its base classes."""
        seen: set[str] = set()
        queue = [cls_qualname]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            ci = self.classes.get(current)
            if ci is None:
                continue
            if name in ci.methods:
                return ci.methods[name]
            queue.extend(ci.bases)
        return None

    def class_attr_type(self, cls_qualname: str, attr: str) -> str | None:
        seen: set[str] = set()
        queue = [cls_qualname]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            ci = self.classes.get(current)
            if ci is None:
                continue
            if attr in ci.attr_types:
                return ci.attr_types[attr]
            queue.extend(ci.bases)
        return None

    def lock_attr_kind(self, cls_qualname: str, attr: str) -> str | None:
        seen: set[str] = set()
        queue = [cls_qualname]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            ci = self.classes.get(current)
            if ci is None:
                continue
            if attr in ci.lock_attrs:
                return ci.lock_attrs[attr]
            queue.extend(ci.bases)
        return None

    def resolve_call(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        local_types: dict[str, str],
    ) -> str | None:
        """The dotted target of *call* inside *fn*, or None.

        Returns a project function/class qualname when provable, an
        external dotted name (``os.replace``) when the import map knows
        it, and None otherwise.
        """
        mi = self.modules.get(fn.module)
        if mi is None:
            return None
        chain = attr_chain(call.func)
        if chain is None:
            return None
        root = chain[0]
        if root == "self" and fn.cls is not None:
            if len(chain) == 2:
                target = self.lookup_method(fn.cls, chain[1])
                return target.qualname if target else None
            if len(chain) == 3:
                owner = self.class_attr_type(fn.cls, chain[1])
                if owner is not None:
                    target = self.lookup_method(owner, chain[2])
                    return target.qualname if target else f"{owner}.{chain[2]}"
            return None
        if root in local_types and len(chain) == 2:
            owner = local_types[root]
            target = self.lookup_method(owner, chain[1])
            return target.qualname if target else f"{owner}.{chain[1]}"
        dotted = mi.imports.resolve(call.func)
        if dotted is not None:
            return self.canonicalize(dotted)
        if isinstance(call.func, ast.Name):
            local = f"{fn.module}.{call.func.id}"
            if local in self.functions or local in self.classes:
                return local
        return None

    def resolve_base(self, mi: ModuleInfo, base: ast.expr) -> str | None:
        dotted = mi.imports.resolve(base)
        if dotted is None and isinstance(base, ast.Name):
            dotted = f"{mi.module}.{base.id}"
        if dotted is None:
            return None
        return self.canonicalize(dotted)
