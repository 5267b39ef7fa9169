"""AST model of lock usage for the lock-discipline analyzer.

This module turns Python source into the facts :mod:`repro.analysis.lockcheck`
checks: which classes own which lock attributes, which methods acquire
which locks (``with``-blocks and bare ``.acquire()`` calls), what every
method writes / calls / blocks on and what was held at that point, and a
name-resolved call graph good enough to propagate "may acquire" and "may
block" summaries across method boundaries.

Resolution is deliberately conservative.  A receiver is resolved only when

* it is ``self`` (same class),
* it is ``self.<attr>`` with a constructor assignment or annotation that
  names an analyzed class,
* it is a local variable assigned from an analyzed class constructor, or
* the method name is defined by **exactly one** analyzed class (unique-name
  fallback — precise for framework-specific names like ``enqueue_update``,
  skipped for ubiquitous ones like ``get``).

Unresolved calls contribute nothing — the analysis under-approximates
rather than invent lock-order edges that would produce phantom cycles.

Suppression: a line carrying ``# lockcheck: ok(<reason>)`` suppresses any
finding anchored at that line; the reason string is preserved so reports
can show *why* a site is exempt.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Acquire",
    "Blocking",
    "CallEvent",
    "ClassModel",
    "CodeModel",
    "LockSite",
    "MethodModel",
    "Write",
    "build_model",
    "build_model_from_sources",
]

#: ``threading.X`` / sanitizer-factory constructor names -> lock kind.
_LOCK_CTORS = {
    "Lock": "lock",
    "RLock": "rlock",
    "Condition": "condition",
    "new_lock": "lock",
    "new_rlock": "rlock",
    "new_condition": "condition",
}

#: Method/attribute names treated as primitively blocking when called.
_BLOCKING_ATTRS = {"sleep", "join", "wait", "wait_for", "serve_forever",
                   "recv", "send", "sendall", "accept", "connect",
                   "check_call", "check_output", "urlopen", "makedirs"}
#: Bare-name calls treated as primitively blocking.
_BLOCKING_NAMES = {"open", "urlopen"}
#: ``.join`` receivers that are string/path machinery, not threads.
_JOIN_EXEMPT_RECEIVERS = {"path", "os.path", "sep"}

_SUPPRESS_RE = re.compile(r"#\s*lockcheck:\s*ok\((?P<reason>[^)]*)\)")


@dataclass(frozen=True)
class LockSite:
    """One lock attribute (``Class._lock``) or module-level lock."""

    key: str          #: canonical identity, e.g. ``"PlanCache._lock"``
    kind: str         #: ``lock`` | ``rlock`` | ``condition``
    module: str
    lineno: int
    alias_of: str | None = None  #: condition built over an existing lock


@dataclass(frozen=True)
class Acquire:
    """One acquisition event (``with lock:`` or bare ``lock.acquire()``)."""

    lock: str                 #: canonical lock key (conditions canonicalized)
    held: tuple[str, ...]     #: locks held at this point
    lineno: int
    bare: bool                #: True for ``.acquire()`` outside a ``with``
    safe: bool = True         #: bare only: release guaranteed via finally


@dataclass(frozen=True)
class Write:
    """One ``self.<attr>`` write (assignment / augassign / item-store)."""

    attr: str
    held: tuple[str, ...]
    lineno: int
    suppressed: str | None


@dataclass(frozen=True)
class CallEvent:
    """One call made by a method, with what was held when it was made."""

    name: str
    receiver: str | None       #: ``"self"``, ``"self.attr"``, a local, or None
    held: tuple[str, ...]
    lineno: int
    suppressed: str | None


@dataclass(frozen=True)
class Blocking:
    """One primitively blocking call site."""

    what: str                  #: rendered callee, e.g. ``"time.sleep"``
    held: tuple[str, ...]
    lineno: int
    suppressed: str | None
    #: for condvar waits: the canonical lock the wait releases (waiting
    #: while holding *only* that lock is the intended pattern, not a finding)
    own_lock: str | None = None


@dataclass
class MethodModel:
    """Everything the checker needs to know about one function/method."""

    qualname: str              #: ``"repro.obs.flight.FlightRecorder.drain"``
    module: str
    cls: str | None
    name: str
    lineno: int
    acquires: list[Acquire] = field(default_factory=list)
    writes: list[Write] = field(default_factory=list)
    calls: list[CallEvent] = field(default_factory=list)
    blocking: list[Blocking] = field(default_factory=list)


@dataclass
class ClassModel:
    """One class: its lock attributes, attribute types, and methods."""

    name: str
    module: str
    locks: dict[str, LockSite] = field(default_factory=dict)       #: attr -> site
    attr_types: dict[str, str] = field(default_factory=dict)       #: attr -> class name
    methods: dict[str, MethodModel] = field(default_factory=dict)


@dataclass
class CodeModel:
    """The whole analyzed corpus."""

    classes: dict[str, ClassModel] = field(default_factory=dict)   #: "module.Class"
    methods: dict[str, MethodModel] = field(default_factory=dict)  #: qualname
    module_locks: dict[str, LockSite] = field(default_factory=dict)
    #: simple class name -> list of "module.Class" (for attr-type resolution)
    classes_by_name: dict[str, list[str]] = field(default_factory=dict)
    #: method name -> list of qualnames (for unique-name fallback)
    methods_by_name: dict[str, list[str]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def canonical(self, lock_key: str) -> str:
        """Condition sites resolve to the lock they share (fixpoint)."""
        seen = set()
        key = lock_key
        while key not in seen:
            seen.add(key)
            site = self._site(key)
            if site is None or site.alias_of is None:
                return key
            key = site.alias_of
        return key

    def _site(self, key: str) -> LockSite | None:
        if key in self.module_locks:
            return self.module_locks[key]
        cls_attr = key.rsplit(".", 1)
        if len(cls_attr) == 2:
            for cls in self.classes.values():
                if cls.name == cls_attr[0]:
                    return cls.locks.get(cls_attr[1])
        return None

    def lock_sites(self) -> list[LockSite]:
        """Every discovered lock site (module-level and class attributes)."""
        out = list(self.module_locks.values())
        for cls in self.classes.values():
            out.extend(cls.locks.values())
        return out

    # ------------------------------------------------------------------
    def resolve_call(self, caller: MethodModel, call: CallEvent) -> list[str]:
        """Qualnames ``call`` may land on (empty when unresolvable)."""
        # self.m() -> the caller's own class.
        if call.receiver == "self" and caller.cls is not None:
            target = f"{caller.module}.{caller.cls}.{call.name}"
            return [target] if target in self.methods else []
        # self.attr.m() -> via the attribute's recorded type.
        if call.receiver is not None and call.receiver.startswith("self.") and caller.cls:
            cls = self.classes.get(f"{caller.module}.{caller.cls}")
            type_name = cls.attr_types.get(call.receiver[5:]) if cls else None
            if type_name:
                for qual_cls in self.classes_by_name.get(type_name, ()):
                    target = f"{qual_cls}.{call.name}"
                    if target in self.methods:
                        return [target]
        # bare f() -> module-level function in the same module.
        if call.receiver is None:
            target = f"{caller.module}.{call.name}"
            if target in self.methods:
                return [target]
        # unique-name fallback: exactly one analyzed class defines it.
        candidates = [
            q for q in self.methods_by_name.get(call.name, ())
            if self.methods[q].cls is not None
        ]
        owners = {q.rsplit(".", 2)[1] for q in candidates}
        if len(owners) == 1 and candidates:
            return candidates[:1] if len(candidates) == 1 else [candidates[0]]
        return []


# ---------------------------------------------------------------------------
# Per-function walker
# ---------------------------------------------------------------------------
class _FunctionWalker:
    """Walks one function body tracking the set of held locks."""

    def __init__(self, model: CodeModel, method: MethodModel,
                 class_model: ClassModel | None,
                 module_locks: dict[str, LockSite],
                 suppressions: dict[int, str]) -> None:
        self.model = model
        self.method = method
        self.cls = class_model
        self.module_locks = module_locks
        self.suppressions = suppressions
        self.held: list[str] = []

    # -- lock expression resolution --------------------------------------
    def lock_key(self, node: ast.expr) -> str | None:
        """The lock site a ``with``/acquire target refers to, if known."""
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self.cls is not None
            and node.attr in self.cls.locks
        ):
            return f"{self.cls.name}.{node.attr}"
        if isinstance(node, ast.Name):
            key = f"{self.method.module}.{node.id}"
            if key in self.module_locks:
                return key
        return None

    def _suppression(self, lineno: int) -> str | None:
        return self.suppressions.get(lineno)

    def _held_tuple(self) -> tuple[str, ...]:
        # Deduplicate while preserving acquisition order.
        out: list[str] = []
        for key in self.held:
            if key not in out:
                out.append(key)
        return tuple(out)

    # -- statement-list processing ---------------------------------------
    def walk_body(self, body: list[ast.stmt]) -> None:
        i = 0
        while i < len(body):
            stmt = body[i]
            bare = self._bare_acquire(stmt)
            if bare is not None:
                lock_key, lineno = bare
                safe = self._release_follows(body[i + 1:], lock_key)
                canonical = self.model.canonical(lock_key)
                self.method.acquires.append(Acquire(
                    lock=canonical, held=self._held_tuple(), lineno=lineno,
                    bare=True, safe=safe,
                ))
                # The lock is held for the rest of this block (approximation:
                # until a matching release statement).
                self.held.append(canonical)
                self._visit_expr(stmt)
                i += 1
                continue
            released = self._bare_release(stmt)
            if released is not None and self.model.canonical(released) in self.held:
                self.held.remove(self.model.canonical(released))
                i += 1
                continue
            self.visit_stmt(stmt)
            i += 1

    def _bare_acquire(self, stmt: ast.stmt) -> tuple[str, int] | None:
        """``lock.acquire(...)`` as a standalone statement."""
        if not isinstance(stmt, ast.Expr) or not isinstance(stmt.value, ast.Call):
            return None
        call = stmt.value
        if isinstance(call.func, ast.Attribute) and call.func.attr == "acquire":
            key = self.lock_key(call.func.value)
            if key is not None:
                return key, stmt.lineno
        return None

    def _bare_release(self, stmt: ast.stmt) -> str | None:
        if not isinstance(stmt, ast.Expr) or not isinstance(stmt.value, ast.Call):
            return None
        call = stmt.value
        if isinstance(call.func, ast.Attribute) and call.func.attr == "release":
            return self.lock_key(call.func.value)
        return None

    def _release_follows(self, rest: list[ast.stmt], lock_key: str) -> bool:
        """Whether a following sibling ``try`` releases ``lock_key`` in finally."""
        for stmt in rest:
            if isinstance(stmt, ast.Try) and stmt.finalbody:
                for fin in ast.walk(ast.Module(body=stmt.finalbody, type_ignores=[])):
                    if (
                        isinstance(fin, ast.Call)
                        and isinstance(fin.func, ast.Attribute)
                        and fin.func.attr == "release"
                        and self.lock_key(fin.func.value) == lock_key
                    ):
                        return True
                return False
            # Any other statement between acquire and try leaves an
            # exception window; stop at the first non-try statement.
            return False
        return False

    # -- structured statements -------------------------------------------
    def visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.With):
            self._visit_with(stmt)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested defs run later, under unknown lock state
        elif isinstance(stmt, ast.Try):
            self.walk_body(stmt.body)
            for handler in stmt.handlers:
                self.walk_body(handler.body)
            self.walk_body(stmt.orelse)
            self.walk_body(stmt.finalbody)
        elif isinstance(stmt, (ast.If,)):
            self._visit_expr(stmt.test)
            self.walk_body(stmt.body)
            self.walk_body(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._visit_expr(stmt.iter)
            self.walk_body(stmt.body)
            self.walk_body(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._visit_expr(stmt.test)
            self.walk_body(stmt.body)
            self.walk_body(stmt.orelse)
        else:
            self._record_writes(stmt)
            self._visit_expr(stmt)

    def _visit_with(self, stmt: ast.With) -> None:
        acquired: list[str] = []
        for item in stmt.items:
            expr = item.context_expr
            key = self.lock_key(expr)
            if key is not None:
                canonical = self.model.canonical(key)
                self.method.acquires.append(Acquire(
                    lock=canonical, held=self._held_tuple(),
                    lineno=stmt.lineno, bare=False,
                ))
                self.held.append(canonical)
                acquired.append(canonical)
            else:
                self._visit_expr(expr)
        self.walk_body(stmt.body)
        for canonical in reversed(acquired):
            if canonical in self.held:
                self.held.remove(canonical)

    # -- writes ----------------------------------------------------------
    def _record_writes(self, stmt: ast.stmt) -> None:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        for target in targets:
            attr = self._self_attr(target)
            if attr is not None:
                self.method.writes.append(Write(
                    attr=attr, held=self._held_tuple(), lineno=stmt.lineno,
                    suppressed=self._suppression(stmt.lineno),
                ))

    def _self_attr(self, node: ast.expr) -> str | None:
        """``self.x`` / ``self.x[...]`` as a write target -> ``"x"``."""
        if isinstance(node, ast.Subscript):
            node = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None

    # -- expressions: calls / blocking -----------------------------------
    def _visit_expr(self, node: ast.AST) -> None:
        for child in ast.walk(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Call):
                self._record_call(child)

    def _record_call(self, call: ast.Call) -> None:
        held = self._held_tuple()
        lineno = call.lineno
        suppressed = self._suppression(lineno)
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in _BLOCKING_NAMES:
                self.method.blocking.append(Blocking(
                    what=func.id, held=held, lineno=lineno, suppressed=suppressed,
                ))
            self.method.calls.append(CallEvent(
                name=func.id, receiver=None, held=held,
                lineno=lineno, suppressed=suppressed,
            ))
            return
        if not isinstance(func, ast.Attribute):
            return
        receiver = self._receiver(func.value)
        name = func.attr
        if name in ("wait", "wait_for"):
            own = None
            key = self.lock_key(func.value)
            if key is not None:
                own = self.model.canonical(key)
            self.method.blocking.append(Blocking(
                what=f"{receiver or '?'}.{name}", held=held, lineno=lineno,
                suppressed=suppressed, own_lock=own,
            ))
            return
        if name in _BLOCKING_ATTRS and not self._join_exempt(name, func.value, receiver):
            self.method.blocking.append(Blocking(
                what=f"{receiver or '?'}.{name}", held=held, lineno=lineno,
                suppressed=suppressed,
            ))
        if name in ("acquire", "release"):
            return  # handled structurally by walk_body
        self.method.calls.append(CallEvent(
            name=name, receiver=receiver, held=held,
            lineno=lineno, suppressed=suppressed,
        ))

    def _join_exempt(self, name: str, value: ast.expr, receiver: str | None) -> bool:
        """``", ".join`` / ``os.path.join`` are string/path ops, not threads."""
        if name != "join":
            return False
        if isinstance(value, (ast.Constant, ast.JoinedStr)):
            return True
        return receiver in _JOIN_EXEMPT_RECEIVERS or (
            receiver is not None and receiver.endswith(".path")
        )

    def _receiver(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return "self" if node.id == "self" else node.id
        if isinstance(node, ast.Attribute):
            base = self._receiver(node.value)
            if base is not None:
                return f"{base}.{node.attr}"
        return None


# ---------------------------------------------------------------------------
# Class / module scanning
# ---------------------------------------------------------------------------
def _lock_ctor_kind(call: ast.expr) -> tuple[str, ast.expr | None] | None:
    """``threading.Lock()`` / ``new_condition(x)`` -> (kind, base-lock expr)."""
    if not isinstance(call, ast.Call):
        return None
    func = call.func
    name = None
    if isinstance(func, ast.Attribute):
        name = func.attr
    elif isinstance(func, ast.Name):
        name = func.id
    if name not in _LOCK_CTORS:
        return None
    kind = _LOCK_CTORS[name]
    base = call.args[0] if (kind == "condition" and call.args) else None
    if base is not None and isinstance(base, ast.Constant):
        base = None
    return kind, base


def _scan_class(module: str, node: ast.ClassDef) -> ClassModel:
    cls = ClassModel(name=node.name, module=module)
    pending_conditions: list[tuple[str, ast.expr, int]] = []
    for fn in node.body:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for stmt in ast.walk(fn):
            target: ast.expr | None = None
            value: ast.expr | None = None
            annotation: ast.expr | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value, annotation = stmt.target, stmt.value, stmt.annotation
            if target is None or not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            attr = target.attr
            ctor = _lock_ctor_kind(value) if value is not None else None
            if ctor is not None:
                kind, base = ctor
                if kind == "condition" and base is not None:
                    pending_conditions.append((attr, base, stmt.lineno))
                else:
                    cls.locks[attr] = LockSite(
                        key=f"{node.name}.{attr}", kind=kind,
                        module=module, lineno=stmt.lineno,
                    )
                continue
            # Attribute types, for receiver resolution.
            type_name = None
            if annotation is not None:
                type_name = _annotation_name(annotation)
            if type_name is None and isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                type_name = value.func.id
            if type_name and attr not in cls.attr_types:
                cls.attr_types[attr] = type_name
    for attr, base, lineno in pending_conditions:
        alias = None
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
            and base.attr in cls.locks
        ):
            alias = f"{node.name}.{base.attr}"
        cls.locks[attr] = LockSite(
            key=f"{node.name}.{attr}", kind="condition",
            module=module, lineno=lineno, alias_of=alias,
        )
    return cls


def _annotation_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip("\"'").split("|")[0].strip()
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _scan_suppressions(source: str) -> dict[int, str]:
    out: dict[int, str] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match:
            out[lineno] = match.group("reason").strip()
    return out


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def build_model_from_sources(sources: dict[str, str]) -> CodeModel:
    """Build the corpus model from ``{module_name: source}`` pairs."""
    model = CodeModel()
    parsed: dict[str, tuple[ast.Module, dict[int, str]]] = {}
    # Pass 1: discover classes, lock attributes, module locks.
    for module, source in sorted(sources.items()):
        tree = ast.parse(source)
        suppressions = _scan_suppressions(source)
        parsed[module] = (tree, suppressions)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                cls = _scan_class(module, node)
                qual = f"{module}.{cls.name}"
                model.classes[qual] = cls
                model.classes_by_name.setdefault(cls.name, []).append(qual)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                ctor = _lock_ctor_kind(node.value)
                if isinstance(target, ast.Name) and ctor is not None:
                    key = f"{module}.{target.id}"
                    model.module_locks[key] = LockSite(
                        key=key, kind=ctor[0], module=module, lineno=node.lineno,
                    )
    # Pass 2: walk every function/method with lock resolution available.
    for module, (tree, suppressions) in parsed.items():
        module_locks = {
            k: v for k, v in model.module_locks.items() if v.module == module
        }
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _walk_function(model, module, None, node, module_locks, suppressions)
            elif isinstance(node, ast.ClassDef):
                qual = f"{module}.{node.name}"
                for fn in node.body:
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        _walk_function(
                            model, module, model.classes[qual], fn,
                            module_locks, suppressions,
                        )
    return model


def _walk_function(model: CodeModel, module: str, cls: ClassModel | None,
                   node: ast.FunctionDef | ast.AsyncFunctionDef,
                   module_locks: dict[str, LockSite],
                   suppressions: dict[int, str]) -> None:
    cls_name = cls.name if cls is not None else None
    qual = f"{module}.{cls_name}.{node.name}" if cls_name else f"{module}.{node.name}"
    method = MethodModel(
        qualname=qual, module=module, cls=cls_name, name=node.name,
        lineno=node.lineno,
    )
    walker = _FunctionWalker(model, method, cls, module_locks, suppressions)
    walker.walk_body(node.body)
    model.methods[qual] = method
    model.methods_by_name.setdefault(node.name, []).append(qual)
    if cls is not None:
        cls.methods[node.name] = method


def build_model(root: Path | str) -> CodeModel:
    """Build the model for every ``.py`` file under ``root``.

    Module names are dotted paths rooted at ``root``'s basename (for the
    framework: ``repro.obs.flight`` etc.), matching the ``where`` strings
    in diagnostics and the committed baseline.
    """
    root = Path(root)
    sources: dict[str, str] = {}
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        parts = (root.name,) + rel.parts[:-1]
        stem = rel.stem
        module = ".".join(parts if stem == "__init__" else parts + (stem,))
        sources[module] = path.read_text(encoding="utf-8")
    return build_model_from_sources(sources)
