"""Dataflow fact extraction and the lock/commit analyses (PL013, PL014).

Built on :class:`~repro.lint.callgraph.ProjectIndex`.  One scan pass
walks every function body **in statement order**, tracking which locks
are held (``with self._lock:`` nesting), inferring local variable types
for call resolution, and recording the facts the analyses consume:

* resolved call sites, each annotated with the locks held at the site;
* blocking atoms (unbounded ``.get()``/``.wait()``/``.join()``/
  ``.recv()``, any ``sleep``, and ``os.fsync``) with the held-lock
  context;
* directly acquired locks and lock-nesting edges;
* ordered commit events (writes, flushes, ``os.fsync``, ``os.replace``)
  for the commit-protocol checks.

Summaries are then propagated along call edges to a fixpoint ("does
this function transitively block / fsync / acquire lock L"), which is
what lets PL013 see through ``BudgetLedger.spend_batch`` →
``_append_wal`` → ``os.fsync`` and PL014 credit a delegated
``atomic_write_text`` as the fsync-before-rename step.

:func:`run_analyses` is the engine-facing entry point.
"""

from __future__ import annotations

import ast
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.callgraph import FunctionInfo, ProjectIndex, attr_chain
from repro.lint.engine import Violation

__all__ = ["FactsDB", "FunctionFacts", "run_analyses"]

#: PL008's unbounded-blocking method set; bare calls with no positional
#: deadline and no timeout= keyword.
_BLOCKING_ATTRS = {"get", "wait", "join", "recv"}

#: Builtin write methods whose first argument (or receiver) names the
#: written file for the commit-protocol target spelling.
_PATH_WRITE_ATTRS = {"write_text", "write_bytes"}


def _spelling(expr: ast.expr) -> str:
    try:
        return ast.unparse(expr).lower()
    except Exception:
        return ""


def _has_token(spelled: str, token: str) -> bool:
    """Word-ish containment: ``wal`` matches ``self._wal`` / ``WAL_NAME``
    but not ``ast.walk``."""
    idx = 0
    while True:
        idx = spelled.find(token, idx)
        if idx < 0:
            return False
        before = spelled[idx - 1] if idx > 0 else ""
        after_idx = idx + len(token)
        after = spelled[after_idx] if after_idx < len(spelled) else ""
        if not before.isalpha() and not after.isalpha():
            return True
        idx = after_idx


@dataclass
class CallSite:
    callee: str | None  # project qualname or external dotted name
    node: ast.Call
    held: tuple[str, ...]  # lock ids held at the site, outermost first


@dataclass
class CommitEvent:
    kind: str  # "write" | "atomic_write" | "flush" | "fsync" | "replace"
    lineno: int
    node: ast.AST
    target: str = ""  # spelled write target / replace source, lowercased
    dest: str = ""  # replace destination spelling


@dataclass
class FunctionFacts:
    """Everything one scan pass learned about one function."""

    fn: FunctionInfo
    calls: list[CallSite] = field(default_factory=list)
    # id(ast.Call) -> resolved callee; shared with the taint layer.
    resolution: dict[int, str | None] = field(default_factory=dict)
    blocking: list[tuple[ast.AST, str, tuple[str, ...]]] = field(
        default_factory=list
    )
    acquires: set[str] = field(default_factory=set)
    lock_edges: list[tuple[str, str, ast.AST]] = field(default_factory=list)
    events: list[CommitEvent] = field(default_factory=list)
    local_types: dict[str, str] = field(default_factory=dict)


class _FunctionScanner:
    """One in-order walk of a function body collecting facts."""

    def __init__(self, index: ProjectIndex, fn: FunctionInfo) -> None:
        self.index = index
        self.fn = fn
        self.facts = FunctionFacts(fn=fn)
        self._seed_param_types()

    def _seed_param_types(self) -> None:
        self.facts.local_types.update(self.fn.param_types)

    def run(self) -> FunctionFacts:
        self._scan_body(self.fn.node.body, held=())
        return self.facts

    # ------------------------------------------------------------------

    def _scan_body(self, body: Sequence[ast.stmt], held: tuple[str, ...]) -> None:
        for stmt in body:
            self._scan_stmt(stmt, held)

    def _scan_stmt(self, stmt: ast.stmt, held: tuple[str, ...]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested definitions execute elsewhere
        if isinstance(stmt, ast.With) or isinstance(stmt, ast.AsyncWith):
            inner = held
            for item in stmt.items:
                self._scan_expr(item.context_expr, inner)
                lock_id = self._lock_id(item.context_expr)
                if lock_id is not None:
                    self.facts.acquires.add(lock_id)
                    for outer in inner:
                        self.facts.lock_edges.append((outer, lock_id, stmt))
                    inner = (*inner, lock_id)
                if item.optional_vars is not None:
                    self._bind_type(item.optional_vars, item.context_expr)
            self._scan_body(stmt.body, inner)
            return
        if isinstance(stmt, ast.Assign):
            self._scan_expr(stmt.value, held)
            if len(stmt.targets) == 1:
                self._bind_type(stmt.targets[0], stmt.value)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._scan_expr(stmt.value, held)
            mi = self.index.modules.get(self.fn.module)
            if mi is not None and isinstance(stmt.target, ast.Name):
                resolved = self.index.resolve_type(mi, stmt.annotation)
                if resolved is not None:
                    self.facts.local_types[stmt.target.id] = resolved
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter, held)
            self._scan_body(stmt.body, held)
            self._scan_body(stmt.orelse, held)
            return
        if isinstance(stmt, ast.While):
            self._scan_expr(stmt.test, held)
            self._scan_body(stmt.body, held)
            self._scan_body(stmt.orelse, held)
            return
        if isinstance(stmt, ast.If):
            self._scan_expr(stmt.test, held)
            self._scan_body(stmt.body, held)
            self._scan_body(stmt.orelse, held)
            return
        if isinstance(stmt, ast.Try):
            self._scan_body(stmt.body, held)
            for handler in stmt.handlers:
                self._scan_body(handler.body, held)
            self._scan_body(stmt.orelse, held)
            self._scan_body(stmt.finalbody, held)
            return
        # Leaf statements: scan every contained expression.
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                self._visit_call(node, held)

    def _scan_expr(self, expr: ast.expr, held: tuple[str, ...]) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._visit_call(node, held)

    # ------------------------------------------------------------------

    def _bind_type(self, target: ast.expr, value: ast.expr) -> None:
        if not isinstance(target, ast.Name):
            return
        inferred: str | None = None
        if isinstance(value, ast.Call):
            callee = self.index.resolve_call(self.fn, value, self.facts.local_types)
            if callee is not None:
                if callee in self.index.classes:
                    inferred = callee
                else:
                    called = self.index.functions.get(callee)
                    if called is not None:
                        inferred = called.return_type
        elif isinstance(value, ast.Attribute):
            chain = attr_chain(value)
            if (
                chain is not None
                and chain[0] == "self"
                and len(chain) == 2
                and self.fn.cls is not None
            ):
                inferred = self.index.class_attr_type(self.fn.cls, chain[1])
        elif isinstance(value, ast.Name):
            inferred = self.facts.local_types.get(value.id)
        if inferred is not None:
            self.facts.local_types[target.id] = inferred

    def _lock_id(self, expr: ast.expr) -> str | None:
        """A stable identity for a lock expression, or None for non-locks."""
        chain = attr_chain(expr)
        if chain is None:
            return None
        if chain[0] == "self" and len(chain) == 2 and self.fn.cls is not None:
            attr = chain[1]
            kind = self.index.lock_attr_kind(self.fn.cls, attr)
            if kind is not None or "lock" in attr.lower():
                return f"{self.fn.cls}.{attr}"
            return None
        if len(chain) == 1 and "lock" in chain[0].lower():
            # Local lock object: identity is function-scoped.
            return f"{self.fn.qualname}.<local>.{chain[0]}"
        return None

    def lock_kind(self, lock_id: str) -> str:
        owner, _, attr = lock_id.rpartition(".")
        kind = self.index.lock_attr_kind(owner, attr) if owner else None
        return kind or "lock"

    # ------------------------------------------------------------------

    def _visit_call(self, node: ast.Call, held: tuple[str, ...]) -> None:
        callee = self.index.resolve_call(self.fn, node, self.facts.local_types)
        self.facts.resolution[id(node)] = callee
        self.facts.calls.append(CallSite(callee=callee, node=node, held=held))
        self._record_blocking(node, callee, held)
        self._record_commit_event(node, callee)
        self._record_acquire_edge(node, held)

    def _record_blocking(
        self, node: ast.Call, callee: str | None, held: tuple[str, ...]
    ) -> None:
        func = node.func
        if callee == "os.fsync":
            self.facts.blocking.append((node, "os.fsync()", held))
            return
        if callee == "time.sleep" or (
            isinstance(func, ast.Attribute) and func.attr == "sleep"
        ):
            self.facts.blocking.append((node, "sleep()", held))
            return
        if isinstance(func, ast.Attribute) and func.attr in _BLOCKING_ATTRS:
            if node.args:
                return  # keyed lookup or positional deadline: bounded
            if any(kw.arg == "timeout" for kw in node.keywords):
                return
            self.facts.blocking.append(
                (node, f".{func.attr}() with no timeout", held)
            )

    def _record_acquire_edge(self, node: ast.Call, held: tuple[str, ...]) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "acquire"):
            return
        lock_id = self._lock_id(func.value)
        if lock_id is None:
            return
        self.facts.acquires.add(lock_id)
        for outer in held:
            self.facts.lock_edges.append((outer, lock_id, node))

    def _record_commit_event(self, node: ast.Call, callee: str | None) -> None:
        func = node.func
        lineno = getattr(node, "lineno", 0)
        if callee == "os.replace":
            src = _spelling(node.args[0]) if node.args else ""
            dst = _spelling(node.args[1]) if len(node.args) > 1 else ""
            self.facts.events.append(
                CommitEvent("replace", lineno, node, target=src, dest=dst)
            )
            return
        if callee == "os.fsync":
            self.facts.events.append(CommitEvent("fsync", lineno, node))
            return
        name = callee.rsplit(".", 1)[-1] if callee else ""
        if not name:
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
        if name == "atomic_writer" or name.startswith("atomic_write"):
            target = _spelling(node.args[0]) if node.args else ""
            self.facts.events.append(
                CommitEvent("atomic_write", lineno, node, target=target)
            )
            return
        if isinstance(func, ast.Attribute):
            if func.attr in _PATH_WRITE_ATTRS:
                self.facts.events.append(
                    CommitEvent("write", lineno, node, target=_spelling(func.value))
                )
            elif func.attr == "write":
                self.facts.events.append(
                    CommitEvent("write", lineno, node, target=_spelling(func.value))
                )
            elif func.attr == "flush":
                self.facts.events.append(
                    CommitEvent("flush", lineno, node, target=_spelling(func.value))
                )


class FactsDB:
    """Per-function facts plus call-edge summary fixpoints."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.facts: dict[str, FunctionFacts] = {}
        for qualname, fn in index.functions.items():
            self.facts[qualname] = _FunctionScanner(index, fn).run()
        self.callers: dict[str, set[str]] = {}
        for qualname, facts in self.facts.items():
            for site in facts.calls:
                if site.callee in self.facts:
                    self.callers.setdefault(site.callee, set()).add(qualname)
        self.blocks: dict[str, str | None] = {}
        self.fsyncs: dict[str, bool] = {}
        self.acquires: dict[str, set[str]] = {}
        self._fixpoint()

    def _fixpoint(self) -> None:
        for qualname, facts in self.facts.items():
            self.blocks[qualname] = (
                facts.blocking[0][1] + f" in {qualname}" if facts.blocking else None
            )
            self.fsyncs[qualname] = any(e.kind == "fsync" for e in facts.events)
            self.acquires[qualname] = set(facts.acquires)
        pending = set(self.facts)
        while pending:
            qualname = pending.pop()
            facts = self.facts[qualname]
            changed = False
            for site in facts.calls:
                callee = site.callee
                if callee not in self.facts:
                    continue
                if self.blocks[qualname] is None and self.blocks[callee] is not None:
                    self.blocks[qualname] = self.blocks[callee]
                    changed = True
                if not self.fsyncs[qualname] and self.fsyncs[callee]:
                    self.fsyncs[qualname] = True
                    changed = True
                missing = self.acquires[callee] - self.acquires[qualname]
                if missing:
                    self.acquires[qualname] |= missing
                    changed = True
            if changed:
                pending |= self.callers.get(qualname, set())

    def lock_kind(self, lock_id: str) -> str:
        owner, _, attr = lock_id.rpartition(".")
        kind = self.index.lock_attr_kind(owner, attr) if owner else None
        return kind or "lock"


def _violation(
    rule_id: str, path: str, node: ast.AST, message: str
) -> Violation:
    return Violation(
        path=path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        rule_id=rule_id,
        message=message,
    )


# ----------------------------------------------------------------------
# PL013 — lock-order and blocking discipline


_LOCK_SCOPE = ("repro.serve", "repro.federated")


def _in_scope(module: str, prefixes: tuple[str, ...]) -> bool:
    return any(
        module == p or module.startswith(p + ".") for p in prefixes
    )


def analyze_locks(db: FactsDB) -> list[Violation]:
    """Blocking-under-lock, same-lock reacquisition, and lock-order cycles."""
    violations: list[Violation] = []
    # (from, to) -> (witness path, witness node) for the lock graph.
    edges: dict[tuple[str, str], tuple[str, ast.AST]] = {}

    for qualname, facts in sorted(db.facts.items()):
        if not _in_scope(facts.fn.module, _LOCK_SCOPE):
            continue
        for node, desc, held in facts.blocking:
            if held:
                violations.append(
                    _violation(
                        "PL013",
                        facts.fn.path,
                        node,
                        f"{desc} while holding {held[-1]}; a stalled thread "
                        "here blocks every thread contending for the lock — "
                        "move the blocking work outside the critical section",
                    )
                )
        for site in facts.calls:
            if not site.held or site.callee not in db.facts:
                continue
            witness = db.blocks[site.callee]
            if witness is not None:
                violations.append(
                    _violation(
                        "PL013",
                        facts.fn.path,
                        site.node,
                        f"call to {site.callee} while holding "
                        f"{site.held[-1]} reaches a blocking operation "
                        f"({witness}); blocking while holding a lock stalls "
                        "every contending thread",
                    )
                )
            for inner in sorted(db.acquires[site.callee]):
                for outer in site.held:
                    edges.setdefault(
                        (outer, inner), (facts.fn.path, site.node)
                    )
        for outer, inner, node in facts.lock_edges:
            edges.setdefault((outer, inner), (facts.fn.path, node))

    # Same-lock reacquisition through a non-reentrant threading.Lock is an
    # immediate self-deadlock, no second thread required.
    for (outer, inner), (path, node) in sorted(edges.items()):
        if outer == inner and db.lock_kind(outer) != "rlock":
            violations.append(
                _violation(
                    "PL013",
                    path,
                    node,
                    f"{outer} is re-acquired while already held; "
                    "threading.Lock is non-reentrant, so this path "
                    "deadlocks itself — split the locked helper or use "
                    "a _locked() variant that asserts the lock is held",
                )
            )

    # Cycles among distinct locks: any strongly connected component of
    # the acquired-while-holding graph with more than one lock means two
    # threads can each hold the lock the other wants.
    graph: dict[str, set[str]] = {}
    for outer, inner in edges:
        if outer != inner:
            graph.setdefault(outer, set()).add(inner)
            graph.setdefault(inner, set())
    for component in _strongly_connected(graph):
        if len(component) < 2:
            continue
        members = set(component)
        for (outer, inner), (path, node) in sorted(edges.items()):
            if outer in members and inner in members and outer != inner:
                violations.append(
                    _violation(
                        "PL013",
                        path,
                        node,
                        f"lock-order cycle: {outer} is held while acquiring "
                        f"{inner}, and another path acquires them in the "
                        "opposite order — pick one global order for "
                        f"{{{', '.join(sorted(members))}}} and stick to it",
                    )
                )
    return violations


def _strongly_connected(graph: dict[str, set[str]]) -> list[list[str]]:
    """Tarjan's SCC, iterative, deterministic node order."""
    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    result: list[list[str]] = []
    counter = 0

    for start in sorted(graph):
        if start in index_of:
            continue
        call_stack: list[tuple[str, int]] = [(start, 0)]
        while call_stack:
            node, pos = call_stack.pop()
            if pos == 0:
                index_of[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            succs = sorted(graph.get(node, ()))
            descended = False
            for i in range(pos, len(succs)):
                succ = succs[i]
                if succ not in index_of:
                    call_stack.append((node, i + 1))
                    call_stack.append((succ, 0))
                    descended = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index_of[succ])
            if descended:
                continue
            if low[node] == index_of[node]:
                component: list[str] = []
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    component.append(top)
                    if top == node:
                        break
                result.append(sorted(component))
            if call_stack:
                parent = call_stack[-1][0]
                low[parent] = min(low[parent], low[node])
    return result


# ----------------------------------------------------------------------
# PL014 — commit-protocol conformance


def analyze_commit_protocol(db: FactsDB) -> list[Violation]:
    """Ordering checks over each function's commit events.

    (a) ``os.replace`` must be preceded by an fsync (direct or through a
        delegated atomic helper) — rename publishes; unflushed data can
        still be lost after the rename, leaving a *committed* torn file.
    (b) payload-first/manifest-last: a write whose target mentions
        ``payload`` must not follow one mentioning ``manifest`` in the
        same function — readers trust the manifest as the commit record.
    (c) a WAL write must be fsync'd before the function returns —
        append-only logs are the crash-recovery source of truth.
    (d) nothing may write to a temp file after it was renamed into place.
    """
    violations: list[Violation] = []
    for qualname, facts in sorted(db.facts.items()):
        events = sorted(facts.events, key=lambda e: e.lineno)
        path = facts.fn.path
        fsync_lines = [e.lineno for e in events if e.kind == "fsync"]
        # Delegated fsyncs: a call to a project function that transitively
        # fsyncs counts at the call line (atomic_write_text et al.).
        for site in facts.calls:
            if site.callee in db.facts and db.fsyncs[site.callee]:
                fsync_lines.append(getattr(site.node, "lineno", 0))
        fsync_lines.sort()

        for event in events:
            if event.kind != "replace":
                continue
            if not any(line <= event.lineno for line in fsync_lines):
                violations.append(
                    _violation(
                        "PL014",
                        path,
                        event.node,
                        "os.replace publishes a file that was never fsync'd; "
                        "a crash after the rename can surface a torn-but-"
                        "committed file — fsync the temp file first (or "
                        "delegate to repro.core.atomic)",
                    )
                )

        writes = [e for e in events if e.kind in ("write", "atomic_write")]
        manifest_writes = [e for e in writes if _has_token(e.target, "manifest")]
        payload_writes = [e for e in writes if _has_token(e.target, "payload")]
        for manifest_event in manifest_writes:
            if any(p.lineno > manifest_event.lineno for p in payload_writes):
                violations.append(
                    _violation(
                        "PL014",
                        path,
                        manifest_event.node,
                        "manifest written before the payload it describes; "
                        "a crash between the two leaves a manifest that "
                        "vouches for bytes that are not there — write the "
                        "payload first, the manifest last",
                    )
                )

        for event in writes:
            if event.kind == "atomic_write":
                continue  # self-committing: fsyncs internally
            if not _has_token(event.target, "wal"):
                continue
            if not any(line >= event.lineno for line in fsync_lines):
                violations.append(
                    _violation(
                        "PL014",
                        path,
                        event.node,
                        "WAL append is never fsync'd in this function; an "
                        "acknowledged spend could vanish on power loss — "
                        "flush and os.fsync the WAL handle before treating "
                        "the record as durable",
                    )
                )

        for event in events:
            if event.kind != "replace" or not event.target:
                continue
            for later in events:
                if (
                    later.kind in ("write", "atomic_write")
                    and later.lineno > event.lineno
                    and later.target == event.target
                ):
                    violations.append(
                        _violation(
                            "PL014",
                            path,
                            later.node,
                            f"write to {later.target!r} after it was "
                            "os.replace'd into place; the rename is the "
                            "commit point — nothing may touch the temp "
                            "path afterwards",
                        )
                    )
    return violations


# ----------------------------------------------------------------------
# entry point


_FAMILIES = ("taint", "locks", "commit")


def run_analyses(
    files: list[Path],
    families: Sequence[str],
    *,
    select: Sequence[str] | None = None,
) -> list[Violation]:
    """Run the requested dataflow families over *files*.

    Only library files (``src/repro``-style paths with a derivable
    dotted module) participate: benchmarks/examples are scripts without
    stable module identities, and test code is exempt by policy.
    Violations honour the same ``# poiagg: disable=`` pragmas and
    ``--select`` filtering as the per-file rules.
    """
    wanted = {f for f in families}
    unknown = wanted - set(_FAMILIES)
    if unknown:
        raise ValueError(f"unknown analysis families: {sorted(unknown)}")
    index = ProjectIndex(files)
    db = FactsDB(index)
    violations: list[Violation] = []
    if "taint" in wanted:
        from repro.lint.taint import analyze_taint

        violations.extend(analyze_taint(db))
    if "locks" in wanted:
        violations.extend(analyze_locks(db))
    if "commit" in wanted:
        violations.extend(analyze_commit_protocol(db))
    suppressions = {mi.path: mi.suppressions for mi in index.modules.values()}
    selected = set(select) if select is not None else None
    kept: list[Violation] = []
    for v in violations:
        if selected is not None and v.rule_id not in selected:
            continue
        supp = suppressions.get(v.path)
        if supp is not None and supp.active(v.rule_id, v.line):
            continue
        kept.append(v)
    return kept
