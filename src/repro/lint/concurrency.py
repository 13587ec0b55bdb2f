"""Tier C: whole-program lock-discipline analysis.

The serving plane holds a dozen ``threading`` primitives across its
caches, metrics, slow log and shard coordinator.  Its lock hierarchy is
flat, and this pass keeps it flat, the way Tier A checks plans and
Tier B checks source invariants:

* **inventory** — every ``threading.Lock/RLock/Event/Condition/
  Semaphore/Thread`` created under the linted tree, identified as
  ``Class.attr`` (instance locks) or ``module:NAME`` (module-level
  locks);
* **no nesting** — no lock is acquired while another is held, either
  directly (``with`` / ``acquire()`` nesting) or through a resolved
  call chain (a may-acquire fixpoint over the call graph)
  (``conc.nested-lock``).  Two locks never held together cannot be
  taken in opposite orders, so no deadlock needs an order to be
  chosen.  Re-entering an ``RLock`` is allowed; re-acquiring a held
  non-reentrant lock is ``conc.self-deadlock``;
* **release discipline** — a bare ``lock.acquire()`` whose release is
  not guaranteed on exception paths (``with`` or an immediately
  following ``try/finally: release()``) is flagged
  (``conc.acquire-no-release``);
* **guarded-field registry** — shared mutable attributes declared via
  a class-level ``GUARDED_BY = {"field": "_lock"}`` map (or a
  trailing ``# guarded-by: _lock`` comment on the ``__init__``
  assignment) must only be touched inside a ``with`` on the named
  lock (``conc.unguarded-field``).  Two escape hatches, both explicit
  in source: ``# holds: _lock`` on a ``def`` line declares a helper
  that is only called with the lock held (call sites are checked:
  ``conc.holds-violation``), and ``# lockfree-read`` on a *read* site
  documents the double-checked-locking fast path (mutations can never
  be waived).

Resolution is deliberately best-effort: calls are followed through
``self`` methods, module functions, intra-package imports, annotated
parameters and ``self.attr = ClassName(...)`` attribute types.  What
cannot be resolved is skipped — the analysis under-approximates the
call graph but never guesses, so a diagnostic is actionable.

Entry point: :func:`lint_concurrency`, used by
``repro lint-concurrency`` and the CI ``concurrency-lint`` job.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

from repro.lint.diagnostics import SourceDiagnostic

#: every threading primitive the inventory tracks.
PRIMITIVE_KINDS = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
    "Event", "Barrier", "Thread",
})

#: the subset the nesting rule applies to.  A ``Condition`` is
#: entered with ``with`` like a lock and is checked as a plain one:
#: re-entering it counts as a self-deadlock.
LOCK_KINDS = frozenset({"Lock", "RLock", "Condition"})

#: kinds a thread may legally re-acquire while holding.
REENTRANT_KINDS = frozenset({"RLock"})

#: method names that mutate their receiver — a ``# lockfree-read``
#: waiver never applies when the guarded field receives one of these.
MUTATOR_METHODS = frozenset({
    "append", "add", "clear", "discard", "extend", "insert", "pop",
    "popitem", "remove", "setdefault", "update", "move_to_end",
    "sort", "reverse", "write", "writelines",
})

_AnyFunc = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass(frozen=True)
class Primitive:
    """One inventoried threading primitive."""

    kind: str
    identity: str
    file: str
    line: int

    @property
    def reentrant(self) -> bool:
        return self.kind in REENTRANT_KINDS

    def to_dict(self) -> dict[str, object]:
        return {"kind": self.kind, "identity": self.identity,
                "file": self.file, "line": self.line}


@dataclass(frozen=True, order=True)
class LockEdge:
    """A nesting: ``source`` is held at ``file:line`` when ``target``
    is acquired (``via`` names the function that acquires it)."""

    source: str
    target: str
    file: str
    line: int
    via: str

    def to_dict(self) -> dict[str, object]:
        return {"source": self.source, "target": self.target,
                "file": self.file, "line": self.line, "via": self.via}


@dataclass
class ConcurrencyReport:
    """Everything the Tier-C pass knows about the linted tree."""

    primitives: list[Primitive]
    #: the nestings found; each is also a ``conc.nested-lock``
    #: diagnostic, so a clean tree has none.
    edges: list[LockEdge]
    diagnostics: list[SourceDiagnostic]

    @property
    def ok(self) -> bool:
        return not any(d.severity == "error" for d in self.diagnostics)

    def to_dict(self) -> dict[str, object]:
        return {
            "primitives": [p.to_dict() for p in self.primitives],
            "edges": [e.to_dict() for e in self.edges],
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "ok": self.ok,
        }


# -- collection ---------------------------------------------------------------


class _Module:
    """One parsed file plus its name-resolution context."""

    __slots__ = ("path", "stem", "tree", "lines", "threading_aliases",
                 "primitive_names", "module_aliases", "imported_names",
                 "functions")

    def __init__(self, path: Path, tree: ast.Module, source: str):
        self.path = path
        self.stem = path.stem
        self.tree = tree
        self.lines = source.splitlines()
        #: names bound to the ``threading`` module itself.
        self.threading_aliases: set[str] = set()
        #: name -> kind, for ``from threading import Lock [as L]``.
        self.primitive_names: dict[str, str] = {}
        #: local name -> module stem, for intra-package module imports.
        self.module_aliases: dict[str, str] = {}
        #: local name -> (module stem, original name) from-imports.
        self.imported_names: dict[str, tuple[str, str]] = {}
        #: module-level function name -> node.
        self.functions: dict[str, _AnyFunc] = {}

    def line_comment(self, lineno: int) -> str:
        """The raw source line (1-based), for comment annotations."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


class _Class:
    """One class definition and its concurrency-relevant facts."""

    __slots__ = ("name", "module", "node", "bases", "methods", "locks",
                 "primitives", "attr_types", "guarded", "holds")

    def __init__(self, node: ast.ClassDef, module: _Module):
        self.name = node.name
        self.module = module
        self.node = node
        self.bases = tuple(
            base.id if isinstance(base, ast.Name)
            else base.attr if isinstance(base, ast.Attribute) else ""
            for base in node.bases)
        self.methods: dict[str, _AnyFunc] = {}
        #: lock-like attributes only (the nesting rule's subjects).
        self.locks: dict[str, Primitive] = {}
        #: every inventoried primitive attribute (threads/events too).
        self.primitives: dict[str, Primitive] = {}
        #: attribute -> class name, best-effort.
        self.attr_types: dict[str, str] = {}
        #: guarded field -> guarding lock attribute.
        self.guarded: dict[str, str] = {}
        #: method name -> lock attrs the caller must hold.
        self.holds: dict[str, frozenset[str]] = {}

    def lock_identity(self, attr: str) -> str | None:
        primitive = self.locks.get(attr)
        return primitive.identity if primitive is not None else None


class _Analysis:
    """Shared state of one :func:`lint_concurrency` run."""

    def __init__(self) -> None:
        self.modules: list[_Module] = []
        self.stems: dict[str, _Module] = {}
        self.classes: dict[str, _Class] = {}
        #: module-level locks: (stem, name) -> Primitive.
        self.module_locks: dict[tuple[str, str], Primitive] = {}
        self.primitives: list[Primitive] = []
        #: funcid -> scanner-ready context.
        self.functions: dict[str, "_Function"] = {}
        self.diagnostics: list[SourceDiagnostic] = []
        #: funcid -> lock identities it (transitively) may acquire.
        self.may_acquire: dict[str, set[str]] = {}
        #: all (caller, callee, held, file, line) call observations.
        self.calls: list[tuple[str, str, tuple[str, ...], str, int]] = []
        #: every acquisition made while another lock is held.
        self.edges: set[LockEdge] = set()
        #: identity -> Primitive for every inventoried lock.
        self.locks_by_identity: dict[str, Primitive] = {}


class _Function:
    """One function/method plus the context needed to scan it."""

    __slots__ = ("funcid", "node", "cls", "module", "nested",
                 "assumed_held")

    def __init__(self, funcid: str, node: _AnyFunc,
                 cls: _Class | None, module: _Module,
                 assumed_held: tuple[str, ...] = ()):
        self.funcid = funcid
        self.node = node
        self.cls = cls
        self.module = module
        #: nested def name -> funcid.
        self.nested: dict[str, str] = {}
        #: identities held on entry (``# holds:`` annotation).
        self.assumed_held = assumed_held


def _python_files(paths: Iterable[str | Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    seen: set[Path] = set()
    unique: list[Path] = []
    for file in files:
        resolved = file.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(file)
    return unique


def _primitive_kind(call: ast.expr, module: _Module) -> str | None:
    """``threading.Lock()``-shaped expression -> primitive kind."""
    if not isinstance(call, ast.Call):
        return None
    func = call.func
    if isinstance(func, ast.Attribute) and \
            isinstance(func.value, ast.Name) and \
            func.value.id in module.threading_aliases and \
            func.attr in PRIMITIVE_KINDS:
        return func.attr
    if isinstance(func, ast.Name) and \
            func.id in module.primitive_names:
        return module.primitive_names[func.id]
    return None


def _primitive_in(value: ast.expr, module: _Module
                  ) -> tuple[str, ast.expr] | None:
    """The primitive construction inside ``value`` (IfExp branches
    included), as ``(kind, call_node)``."""
    candidates: list[ast.expr] = [value]
    if isinstance(value, ast.IfExp):
        candidates = [value.body, value.orelse]
    for candidate in candidates:
        kind = _primitive_kind(candidate, module)
        if kind is not None:
            return kind, candidate
    return None


def _collect_imports(module: _Module, stems: set[str]) -> None:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                if alias.name == "threading":
                    module.threading_aliases.add(local)
                elif alias.name.split(".")[-1] in stems:
                    module.module_aliases[local] = \
                        alias.name.split(".")[-1]
        elif isinstance(node, ast.ImportFrom):
            source = (node.module or "").split(".")[-1]
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module == "threading":
                    if alias.name in PRIMITIVE_KINDS:
                        module.primitive_names[local] = alias.name
                elif alias.name in stems:
                    module.module_aliases[local] = alias.name
                elif source:
                    module.imported_names[local] = (source, alias.name)


def _annotation_class(annotation: ast.expr | None,
                      classes: dict[str, _Class]) -> str | None:
    """The single known class an annotation names, if any."""
    if annotation is None:
        return None
    names: list[str] = []
    stack: list[ast.expr] = [annotation]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Constant) and \
                isinstance(node.value, str):
            names.append(node.value.strip().strip('"'))
        elif isinstance(node, ast.BinOp):
            stack.extend((node.left, node.right))
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    known = [name for name in names if name in classes]
    return known[0] if len(known) == 1 else None


def _parse_guard_comment(line: str, marker: str) -> list[str]:
    """Names after ``marker`` in a trailing comment, or []."""
    index = line.find(marker)
    if index < 0:
        return []
    tail = line[index + len(marker):]
    return [part.strip() for part in tail.split(",") if part.strip()]


def _collect_class_facts(analysis: _Analysis) -> None:
    """Second pass: locks, attribute types, guards per class."""
    for cls in analysis.classes.values():
        module = cls.module
        for stmt in cls.node.body:
            if isinstance(stmt,
                          (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls.methods[stmt.name] = stmt
                holds = _parse_guard_comment(
                    module.line_comment(stmt.lineno), "# holds:")
                if holds:
                    cls.holds[stmt.name] = frozenset(holds)
            elif isinstance(stmt, ast.Assign):
                _class_body_assign(cls, stmt, module)
            elif isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                if stmt.value is not None:
                    _register_primitive_attr(
                        cls, stmt.target.id, stmt.value, module)
                type_name = _annotation_class(stmt.annotation,
                                              analysis.classes)
                if type_name is not None:
                    cls.attr_types[stmt.target.id] = type_name
        for method in cls.methods.values():
            _collect_method_facts(cls, method, analysis)


def _class_body_assign(cls: _Class, stmt: ast.Assign,
                       module: _Module) -> None:
    for target in stmt.targets:
        if not isinstance(target, ast.Name):
            continue
        if target.id == "GUARDED_BY" and \
                isinstance(stmt.value, ast.Dict):
            for key, value in zip(stmt.value.keys, stmt.value.values):
                if isinstance(key, ast.Constant) and \
                        isinstance(key.value, str) and \
                        isinstance(value, ast.Constant) and \
                        isinstance(value.value, str):
                    cls.guarded[key.value] = value.value
            continue
        _register_primitive_attr(cls, target.id, stmt.value, module)


def _register_primitive_attr(cls: _Class, attr: str, value: ast.expr,
                             module: _Module) -> None:
    found = _primitive_in(value, module)
    if found is None or attr in cls.primitives:
        return
    kind, call = found
    primitive = Primitive(kind, f"{cls.name}.{attr}",
                          str(module.path), call.lineno)
    cls.primitives[attr] = primitive
    if kind in LOCK_KINDS:
        cls.locks[attr] = primitive


def _collect_method_facts(cls: _Class, method: _AnyFunc,
                          analysis: _Analysis) -> None:
    """Primitive attributes, attribute types and guarded-by comments
    declared by assignments inside one method (usually __init__)."""
    module = cls.module
    param_types: dict[str, str] = {}
    for arg in (list(method.args.posonlyargs) + list(method.args.args)
                + list(method.args.kwonlyargs)):
        type_name = _annotation_class(arg.annotation, analysis.classes)
        if type_name is not None:
            param_types[arg.arg] = type_name
    for node in ast.walk(method):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            attr = target.attr
            _register_primitive_attr(cls, attr, node.value, module)
            guards = _parse_guard_comment(
                module.line_comment(node.lineno), "# guarded-by:")
            if guards:
                cls.guarded[attr] = guards[0]
            type_name = _value_class(node.value, param_types,
                                     analysis.classes)
            if type_name is not None and attr not in cls.attr_types:
                cls.attr_types[attr] = type_name


def _value_class(value: ast.expr, param_types: dict[str, str],
                 classes: dict[str, _Class]) -> str | None:
    """The class an assigned expression constructs or forwards."""
    candidates: list[ast.expr] = [value]
    if isinstance(value, ast.IfExp):
        candidates = [value.body, value.orelse]
    for candidate in candidates:
        if isinstance(candidate, ast.Call) and \
                isinstance(candidate.func, ast.Name) and \
                candidate.func.id in classes:
            return candidate.func.id
        if isinstance(candidate, ast.Name) and \
                candidate.id in param_types:
            return param_types[candidate.id]
    return None


# -- function registry --------------------------------------------------------


def _register_functions(analysis: _Analysis) -> None:
    for module in analysis.modules:
        for stmt in module.tree.body:
            if isinstance(stmt,
                          (ast.FunctionDef, ast.AsyncFunctionDef)):
                module.functions[stmt.name] = stmt
                _register_function(analysis,
                                   f"{module.stem}:{stmt.name}",
                                   stmt, None, module)
    for cls in analysis.classes.values():
        for name, method in cls.methods.items():
            holds = cls.holds.get(name, frozenset())
            assumed: list[str] = []
            for attr in sorted(holds):
                identity = cls.lock_identity(attr)
                if identity is None:
                    analysis.diagnostics.append(SourceDiagnostic.make(
                        "conc.unknown-guard", str(cls.module.path),
                        method.lineno,
                        f"{cls.name}.{name} declares `# holds: "
                        f"{attr}` but {cls.name}.{attr} is not an "
                        "inventoried lock"))
                else:
                    assumed.append(identity)
            _register_function(analysis, f"{cls.name}.{name}",
                               method, cls, cls.module,
                               tuple(assumed))


def _register_function(analysis: _Analysis, funcid: str,
                       node: _AnyFunc, cls: _Class | None,
                       module: _Module,
                       assumed_held: tuple[str, ...] = ()) -> None:
    function = _Function(funcid, node, cls, module, assumed_held)
    analysis.functions[funcid] = function
    for child in ast.walk(node):
        if child is node or not isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nested_id = f"{funcid}.<locals>.{child.name}"
        if child.name not in function.nested:
            function.nested[child.name] = nested_id
            _register_function(analysis, nested_id, child, cls,
                               module)


# -- the scan -----------------------------------------------------------------


class _Scanner:
    """Walks one function with the current held-lock set."""

    def __init__(self, analysis: _Analysis, function: _Function):
        self.analysis = analysis
        self.function = function
        self.cls = function.cls
        self.module = function.module
        self.direct: set[str] = set()
        #: local variable -> class name.
        self.var_types: dict[str, str] = {}
        node = function.node
        for arg in (list(node.args.posonlyargs) + list(node.args.args)
                    + list(node.args.kwonlyargs)):
            type_name = _annotation_class(arg.annotation,
                                          self.analysis.classes)
            if type_name is not None:
                self.var_types[arg.arg] = type_name

    # -- resolution -----------------------------------------------------------

    def resolve_lock(self, expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Name):
            key = (self.module.stem, expr.id)
            primitive = self.analysis.module_locks.get(key)
            return primitive.identity if primitive is not None else None
        if not isinstance(expr, ast.Attribute):
            return None
        owner = expr.value
        if isinstance(owner, ast.Name):
            if owner.id == "self" and self.cls is not None:
                return self.cls.lock_identity(expr.attr)
            type_name = self.var_types.get(owner.id)
            if type_name is not None:
                owner_cls = self.analysis.classes.get(type_name)
                if owner_cls is not None:
                    return owner_cls.lock_identity(expr.attr)
            return None
        if isinstance(owner, ast.Attribute) and \
                isinstance(owner.value, ast.Name) and \
                owner.value.id == "self" and self.cls is not None:
            type_name = self.cls.attr_types.get(owner.attr)
            if type_name is not None:
                owner_cls = self.analysis.classes.get(type_name)
                if owner_cls is not None:
                    return owner_cls.lock_identity(expr.attr)
        return None

    def _method_funcid(self, class_name: str,
                       method: str) -> str | None:
        seen: set[str] = set()
        stack = [class_name]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            cls = self.analysis.classes.get(name)
            if cls is None:
                continue
            if method in cls.methods:
                return f"{name}.{method}"
            stack.extend(base for base in cls.bases if base)
        return None

    def resolve_call(self, call: ast.Call) -> str | None:
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.function.nested:
                return self.function.nested[name]
            if name in self.analysis.classes:
                return self._method_funcid(name, "__init__")
            if name in self.module.functions:
                return f"{self.module.stem}:{name}"
            imported = self.module.imported_names.get(name)
            if imported is not None:
                funcid = f"{imported[0]}:{imported[1]}"
                if funcid in self.analysis.functions:
                    return funcid
            return None
        if not isinstance(func, ast.Attribute):
            return None
        owner = func.value
        if isinstance(owner, ast.Name):
            if owner.id == "self" and self.cls is not None:
                return self._method_funcid(self.cls.name, func.attr)
            alias = self.module.module_aliases.get(owner.id)
            if alias is not None:
                funcid = f"{alias}:{func.attr}"
                if funcid in self.analysis.functions:
                    return funcid
            type_name = self.var_types.get(owner.id)
            if type_name is not None:
                return self._method_funcid(type_name, func.attr)
            return None
        if isinstance(owner, ast.Attribute) and \
                isinstance(owner.value, ast.Name) and \
                owner.value.id == "self" and self.cls is not None:
            type_name = self.cls.attr_types.get(owner.attr)
            if type_name is not None:
                return self._method_funcid(type_name, func.attr)
        return None

    # -- the walk -------------------------------------------------------------

    def scan(self) -> None:
        self._walk_block(self.function.node.body,
                         self.function.assumed_held)

    def _walk_block(self, stmts: list[ast.stmt],
                    held: tuple[str, ...]) -> None:
        index = 0
        while index < len(stmts):
            stmt = stmts[index]
            consumed = self._try_acquire_pattern(stmts, index, held)
            if consumed:
                index += consumed
                continue
            self._walk_stmt(stmt, held)
            index += 1

    def _try_acquire_pattern(self, stmts: list[ast.stmt], index: int,
                             held: tuple[str, ...]) -> int:
        """``lock.acquire()`` followed by ``try/finally: release()``:
        treat the try body as running with the lock held.  Returns the
        number of statements consumed (0 = not the pattern)."""
        stmt = stmts[index]
        if not (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Attribute)
                and stmt.value.func.attr == "acquire"):
            return 0
        identity = self.resolve_lock(stmt.value.func.value)
        if identity is None:
            return 0
        following = stmts[index + 1] if index + 1 < len(stmts) else None
        if isinstance(following, ast.Try) and \
                self._releases_in_finally(following, identity):
            new_held = self._acquire(identity, held, stmt.lineno)
            self._walk_stmt(following, new_held)
            return 2
        self.analysis.diagnostics.append(SourceDiagnostic.make(
            "conc.acquire-no-release", str(self.module.path),
            stmt.lineno,
            f"{identity} is acquired without a release guaranteed "
            "on exception paths",
            hint="use `with`, or follow the acquire with "
                 "try/finally: release()"))
        return 1

    def _releases_in_finally(self, node: ast.Try,
                             identity: str) -> bool:
        for stmt in node.finalbody:
            for child in ast.walk(stmt):
                if isinstance(child, ast.Call) and \
                        isinstance(child.func, ast.Attribute) and \
                        child.func.attr == "release" and \
                        self.resolve_lock(child.func.value) \
                        == identity:
                    return True
        return False

    def _acquire(self, identity: str, held: tuple[str, ...],
                 lineno: int) -> tuple[str, ...]:
        self.direct.add(identity)
        primitive = self.analysis.locks_by_identity.get(identity)
        if identity in held:
            if primitive is not None and not primitive.reentrant:
                self.analysis.diagnostics.append(
                    SourceDiagnostic.make(
                        "conc.self-deadlock", str(self.module.path),
                        lineno,
                        f"non-reentrant {identity} is acquired while "
                        "already held on this path"))
            return held
        for holder in held:
            self.analysis.edges.add(LockEdge(
                holder, identity, str(self.module.path), lineno,
                self.function.funcid))
        return held + (identity,)

    def _walk_stmt(self, stmt: ast.stmt,
                   held: tuple[str, ...]) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            new_held = held
            for item in stmt.items:
                identity = self.resolve_lock(item.context_expr)
                if identity is not None:
                    new_held = self._acquire(
                        identity, new_held, item.context_expr.lineno)
                else:
                    self._scan_expr(item.context_expr, new_held)
                if item.optional_vars is not None:
                    self._scan_expr(item.optional_vars, new_held)
            self._walk_block(stmt.body, new_held)
        elif isinstance(stmt, ast.Try):
            self._walk_block(stmt.body, held)
            for handler in stmt.handlers:
                self._walk_block(handler.body, held)
            self._walk_block(stmt.orelse, held)
            self._walk_block(stmt.finalbody, held)
        elif isinstance(stmt, ast.If):
            self._scan_expr(stmt.test, held)
            self._walk_block(stmt.body, held)
            self._walk_block(stmt.orelse, held)
        elif isinstance(stmt, ast.While):
            self._scan_expr(stmt.test, held)
            self._walk_block(stmt.body, held)
            self._walk_block(stmt.orelse, held)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.target, held)
            self._scan_expr(stmt.iter, held)
            self._walk_block(stmt.body, held)
            self._walk_block(stmt.orelse, held)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            return  # nested defs are scanned as their own functions.
        else:
            self._scan_stmt_exprs(stmt, held)
            if isinstance(stmt, ast.Assign):
                self._note_local_types(stmt)

    def _note_local_types(self, stmt: ast.Assign) -> None:
        if len(stmt.targets) != 1 or \
                not isinstance(stmt.targets[0], ast.Name):
            return
        type_name = _value_class(stmt.value, {},
                                 self.analysis.classes)
        if type_name is not None:
            self.var_types[stmt.targets[0].id] = type_name

    def _scan_stmt_exprs(self, stmt: ast.stmt,
                         held: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._scan_expr(child, held)

    def _scan_expr(self, expr: ast.expr,
                   held: tuple[str, ...]) -> None:
        parents: dict[int, ast.AST] = {}
        stack: list[ast.AST] = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Lambda):
                continue  # deferred execution: held set is unrelated.
            if isinstance(node, ast.Call):
                self._scan_call(node, held)
            elif isinstance(node, ast.Attribute):
                self._check_guarded(node, held, parents)
            for child in ast.iter_child_nodes(node):
                parents[id(child)] = node
                stack.append(child)

    def _scan_call(self, call: ast.Call,
                   held: tuple[str, ...]) -> None:
        func = call.func
        if isinstance(func, ast.Attribute) and \
                func.attr in ("acquire", "release") and \
                self.resolve_lock(func.value) is not None:
            if func.attr == "acquire":
                # acquire() reached outside the sanctioned
                # statement + try/finally shape.
                self.analysis.diagnostics.append(
                    SourceDiagnostic.make(
                        "conc.acquire-no-release",
                        str(self.module.path), call.lineno,
                        f"{self.resolve_lock(func.value)} is "
                        "acquired without a release guaranteed on "
                        "exception paths",
                        hint="use `with`, or follow the acquire "
                             "with try/finally: release()"))
            return
        callee = self.resolve_call(call)
        if callee is not None:
            self.analysis.calls.append(
                (self.function.funcid, callee, held,
                 str(self.module.path), call.lineno))

    def _check_guarded(self, node: ast.Attribute,
                       held: tuple[str, ...],
                       parents: dict[int, ast.AST]) -> None:
        if self.cls is None or \
                not isinstance(node.value, ast.Name) or \
                node.value.id != "self" or \
                node.attr not in self.cls.guarded:
            return
        method_name = self.function.node.name
        if method_name in ("__init__", "__del__"):
            return
        guard_attr = self.cls.guarded[node.attr]
        identity = self.cls.lock_identity(guard_attr)
        if identity is None:
            self.analysis.diagnostics.append(SourceDiagnostic.make(
                "conc.unknown-guard", str(self.module.path),
                node.lineno,
                f"{self.cls.name}.{node.attr} is declared guarded by "
                f"{guard_attr!r}, which is not an inventoried lock"))
            return
        if identity in held:
            return
        mutating = self._is_mutation(node, parents)
        if not mutating and "# lockfree-read" in \
                self.module.line_comment(node.lineno):
            return
        what = "mutated" if mutating else "read"
        self.analysis.diagnostics.append(SourceDiagnostic.make(
            "conc.unguarded-field", str(self.module.path),
            node.lineno,
            f"{self.cls.name}.{node.attr} is {what} outside "
            f"`with self.{guard_attr}` (declared guarded)",
            hint="take the lock, annotate the method `# holds: "
                 f"{guard_attr}`, or mark a benign racy read "
                 "`# lockfree-read`"))

    def _is_mutation(self, node: ast.Attribute,
                     parents: dict[int, ast.AST]) -> bool:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            return True
        parent = parents.get(id(node))
        if isinstance(parent, ast.Call) and parent.func is node:
            return False
        if isinstance(parent, ast.Attribute) and \
                isinstance(parent.ctx, (ast.Store, ast.Del)):
            return True
        if isinstance(parent, ast.Attribute):
            grand = parents.get(id(parent))
            if isinstance(grand, ast.Call) and \
                    grand.func is parent and \
                    parent.attr in MUTATOR_METHODS:
                return True
        if isinstance(parent, ast.Subscript) and \
                parent.value is node and \
                isinstance(parent.ctx, (ast.Store, ast.Del)):
            return True
        if isinstance(parent, (ast.AugAssign,)):
            return True
        return False


# -- call closure -------------------------------------------------------------


def _fixpoint_may_acquire(analysis: _Analysis,
                          direct: dict[str, set[str]]) -> None:
    callees: dict[str, set[str]] = {}
    for caller, callee, _held, _file, _line in analysis.calls:
        callees.setdefault(caller, set()).add(callee)
    may = {funcid: set(acquired)
           for funcid, acquired in direct.items()}
    changed = True
    while changed:
        changed = False
        for funcid, targets in callees.items():
            bucket = may.setdefault(funcid, set())
            before = len(bucket)
            for target in targets:
                bucket |= may.get(target, set())
            if len(bucket) != before:
                changed = True
    analysis.may_acquire = may


def _check_calls(analysis: _Analysis) -> None:
    for caller, callee, held, file, line in analysis.calls:
        callee_function = analysis.functions.get(callee)
        if callee_function is not None:
            missing = [assumed for assumed
                       in callee_function.assumed_held
                       if assumed not in held]
            for assumed in missing:
                analysis.diagnostics.append(SourceDiagnostic.make(
                    "conc.holds-violation", file, line,
                    f"{callee} requires {assumed} held "
                    f"(`# holds:`), but {caller} calls it without"))
        if not held:
            continue
        for target in sorted(analysis.may_acquire.get(callee, ())):
            for holder in held:
                if holder == target:
                    primitive = \
                        analysis.locks_by_identity.get(target)
                    if primitive is not None and \
                            not primitive.reentrant:
                        analysis.diagnostics.append(
                            SourceDiagnostic.make(
                                "conc.self-deadlock", file, line,
                                f"{caller} holds {holder} while "
                                f"calling {callee}, which may "
                                "acquire it again (non-reentrant)"))
                    continue
                analysis.edges.add(LockEdge(
                    holder, target, file, line, callee))


# -- entry point --------------------------------------------------------------


def lint_concurrency(paths: Iterable[str | Path]
                     ) -> ConcurrencyReport:
    """Run the Tier-C concurrency pass over ``paths``."""
    analysis = _Analysis()
    for file in _python_files(paths):
        source = file.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(file))
        except SyntaxError as exc:
            analysis.diagnostics.append(SourceDiagnostic.make(
                "src.bare-except", str(file), exc.lineno or 0,
                f"file does not parse: {exc.msg}"))
            continue
        analysis.modules.append(_Module(file, tree, source))

    stems = {module.stem for module in analysis.modules}
    for module in analysis.modules:
        _collect_imports(module, stems)
        analysis.stems.setdefault(module.stem, module)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and \
                    node.name not in analysis.classes:
                analysis.classes[node.name] = _Class(node, module)
        for stmt in module.tree.body:
            if isinstance(stmt, ast.Assign) and \
                    len(stmt.targets) == 1 and \
                    isinstance(stmt.targets[0], ast.Name):
                found = _primitive_in(stmt.value, module)
                if found is not None:
                    kind, call = found
                    name = stmt.targets[0].id
                    primitive = Primitive(
                        kind, f"{module.stem}:{name}",
                        str(module.path), call.lineno)
                    analysis.module_locks[(module.stem, name)] = \
                        primitive
                    analysis.primitives.append(primitive)

    _collect_class_facts(analysis)
    for cls in analysis.classes.values():
        analysis.primitives.extend(cls.primitives.values())
        for field_name, guard_attr in sorted(cls.guarded.items()):
            if cls.lock_identity(guard_attr) is None:
                analysis.diagnostics.append(SourceDiagnostic.make(
                    "conc.unknown-guard", str(cls.module.path),
                    cls.node.lineno,
                    f"{cls.name}.{field_name} is declared guarded "
                    f"by {guard_attr!r}, which is not an "
                    "inventoried lock of the class"))
    analysis.locks_by_identity = {
        primitive.identity: primitive
        for primitive in analysis.primitives
        if primitive.kind in LOCK_KINDS}

    _register_functions(analysis)
    direct: dict[str, set[str]] = {}
    for funcid, function in analysis.functions.items():
        scanner = _Scanner(analysis, function)
        scanner.scan()
        direct[funcid] = scanner.direct - set(function.assumed_held)
    _fixpoint_may_acquire(analysis, direct)
    _check_calls(analysis)

    edges = sorted(analysis.edges)
    for edge in edges:
        analysis.diagnostics.append(SourceDiagnostic.make(
            "conc.nested-lock", edge.file, edge.line,
            f"{edge.target} is acquired (by {edge.via}) while "
            f"{edge.source} is held",
            hint="release the held lock first: no lock is taken "
                 "while another is held"))

    analysis.primitives.sort(key=lambda p: (p.file, p.line))
    analysis.diagnostics.sort(key=lambda d: (d.file, d.line, d.rule))
    return ConcurrencyReport(
        primitives=analysis.primitives,
        edges=edges,
        diagnostics=analysis.diagnostics,
    )
