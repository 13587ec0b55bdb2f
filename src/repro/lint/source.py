"""Tier B: ``ast``-based source lint for engine-wide invariants.

Unlike the plan verifier (which checks one query's plan), this tier
checks the *code*: every physical operator routes iteration through the
traced base ``__iter__`` and implements ``_batches``; every codec wired
into :mod:`repro.compression.registry` declares its §3.2
:class:`~repro.compression.base.CompressionProperties` capability
tuple; decompression inside :mod:`repro.query.physical` happens only at
the sanctioned ``TextContent``/``Decompress`` sites; every
``threading`` primitive is created where the Tier-C concurrency
inventory (:mod:`repro.lint.concurrency`) can see it; and the usual
Python footguns (bare ``except:``, mutable default arguments) stay out
of ``src/repro``.

Entry point: :func:`lint_paths`, used by ``repro lint-src`` and CI.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable

from repro.lint.diagnostics import SourceDiagnostic

#: physical-operator classes allowed to call ``.decode(...)`` directly:
#: the two sanctioned decompression sites of the plan algebra (§4).
SANCTIONED_DECODE_SITES = frozenset({"TextContent", "Decompress"})

#: constructor names whose call as a default argument is mutable.
_MUTABLE_FACTORIES = frozenset({"list", "dict", "set"})

#: threading primitives the Tier-C inventory tracks; creating one
#: anywhere the inventory cannot see it defeats the lock analysis.
_THREADING_PRIMITIVES = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
    "Event", "Barrier", "Thread",
})

#: the root of the codec hierarchy; declaring ``properties`` there does
#: not count as a concrete declaration.
_CODEC_ROOT = "Codec"


class _ClassRecord:
    """One class definition seen anywhere in the linted tree."""

    __slots__ = ("name", "bases", "file", "line",
                 "declares_properties", "declares_iter",
                 "declares_batches")

    def __init__(self, node: ast.ClassDef, file: str):
        self.name = node.name
        self.bases = tuple(_base_name(b) for b in node.bases)
        self.file = file
        self.line = node.lineno
        self.declares_properties = _assigns(node, "properties")
        self.declares_iter = _defines(node, "__iter__")
        self.declares_batches = _defines(node, "_batches")


def _base_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _assigns(node: ast.ClassDef, name: str) -> bool:
    """Does the class body assign ``name`` at the top level?"""
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return True
        elif isinstance(stmt, ast.AnnAssign):
            target = stmt.target
            if isinstance(target, ast.Name) and target.id == name:
                return True
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if stmt.name == name:
                # a ``properties`` method/property also counts.
                return True
    return False


def _defines(node: ast.ClassDef, name: str) -> bool:
    """Does the class body define method ``name``?"""
    return any(
        isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and stmt.name == name
        for stmt in node.body)


def _python_files(paths: Iterable[str | Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    # de-duplicate while keeping order stable.
    seen: set[Path] = set()
    unique: list[Path] = []
    for file in files:
        resolved = file.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(file)
    return unique


def lint_paths(paths: Iterable[str | Path]
               ) -> list[SourceDiagnostic]:
    """Lint all Python files under ``paths``; returns diagnostics.

    Runs two passes: the first builds a cross-file class table (needed
    to resolve codec ancestries and the registry contents), the second
    applies the per-file rules.
    """
    files = _python_files(paths)
    trees: list[tuple[Path, ast.Module]] = []
    diagnostics: list[SourceDiagnostic] = []
    for file in files:
        try:
            tree = ast.parse(file.read_text(encoding="utf-8"),
                             filename=str(file))
        except SyntaxError as exc:
            diagnostics.append(SourceDiagnostic.make(
                "src.bare-except", str(file), exc.lineno or 0,
                f"file does not parse: {exc.msg}"))
            continue
        trees.append((file, tree))

    classes: dict[str, _ClassRecord] = {}
    registered: dict[str, tuple[str, int]] = {}
    for file, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = _ClassRecord(node, str(file))
        if file.name == "registry.py":
            registered.update(_registered_codecs(tree, str(file)))

    for file, tree in trees:
        diagnostics.extend(_lint_file(file, tree))
    diagnostics.extend(_check_operators(classes))
    diagnostics.extend(_check_codec_properties(classes, registered))
    diagnostics.sort(key=lambda d: (d.file, d.line, d.rule))
    return diagnostics


# -- registry resolution ------------------------------------------------------

def _registered_codecs(tree: ast.Module, file: str
                       ) -> dict[str, tuple[str, int]]:
    """Class names appearing as values of the ``_REGISTRY`` literal or
    passed to ``register_codec``/``_REGISTRY[...] = cls``."""
    found: dict[str, tuple[str, int]] = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "_REGISTRY"
                        for t in node.targets)
                and isinstance(node.value, ast.Dict)):
            for value in node.value.values:
                name = _base_name(value)
                if name is not None:
                    found[name] = (file, value.lineno)
    return found


def _codec_declares_properties(record: _ClassRecord,
                               classes: dict[str, _ClassRecord]
                               ) -> bool:
    """Does the codec class (or an ancestor below ``Codec``) declare a
    concrete ``properties``?"""
    seen: set[str] = set()
    stack = [record.name]
    while stack:
        name = stack.pop()
        if name in seen or name == _CODEC_ROOT:
            continue
        seen.add(name)
        current = classes.get(name)
        if current is None:
            continue
        if current.declares_properties:
            return True
        stack.extend(b for b in current.bases if b is not None)
    return False


def _check_codec_properties(classes: dict[str, _ClassRecord],
                            registered: dict[str, tuple[str, int]]
                            ) -> list[SourceDiagnostic]:
    diagnostics: list[SourceDiagnostic] = []
    for name, (reg_file, reg_line) in sorted(registered.items()):
        record = classes.get(name)
        if record is None:
            diagnostics.append(SourceDiagnostic.make(
                "src.codec-properties", reg_file, reg_line,
                f"registered codec {name} is not defined in the "
                "linted tree"))
            continue
        if not _codec_declares_properties(record, classes):
            diagnostics.append(SourceDiagnostic.make(
                "src.codec-properties", record.file, record.line,
                f"codec {name} does not declare "
                "CompressionProperties",
                hint="add a class-level `properties = "
                     "CompressionProperties(...)` capability tuple "
                     "(§3.2)"))
    return diagnostics


# -- operator invariants ------------------------------------------------------

def _check_operators(classes: dict[str, _ClassRecord]
                     ) -> list[SourceDiagnostic]:
    diagnostics: list[SourceDiagnostic] = []
    for record in classes.values():
        if "Operator" not in record.bases:
            continue
        if not record.declares_batches:
            diagnostics.append(SourceDiagnostic.make(
                "src.operator-rows", record.file, record.line,
                f"operator {record.name} does not implement _batches",
                hint="operators yield RecordBatches from "
                     "_batches(size) (chunk a per-row generator with "
                     "batches_from_rows); __iter__/batches() on the "
                     "base route them through _traced"))
        if record.declares_iter:
            diagnostics.append(SourceDiagnostic.make(
                "src.operator-iter-override", record.file,
                record.line,
                f"operator {record.name} overrides __iter__, "
                "bypassing telemetry",
                hint="implement _batches and inherit "
                     "Operator.__iter__"))
    return diagnostics


# -- per-file rules -----------------------------------------------------------

def _lint_file(file: Path, tree: ast.Module
               ) -> list[SourceDiagnostic]:
    diagnostics: list[SourceDiagnostic] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            diagnostics.append(SourceDiagnostic.make(
                "src.bare-except", str(file), node.lineno,
                "bare except: catches SystemExit/KeyboardInterrupt "
                "and hides typed errors",
                hint="catch a concrete exception (see repro.errors)"))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            diagnostics.extend(_check_defaults(file, node))
    diagnostics.extend(_check_threading_primitives(file, tree))
    if file.name == "physical.py" and "query" in file.parts:
        diagnostics.extend(_check_raw_decode(file, tree))
    return diagnostics


def _threading_calls(tree: ast.Module) -> set[int]:
    """``id()`` of every Call node constructing a threading primitive
    (``threading.Lock()`` or a from-imported ``Lock()``)."""
    module_aliases = {"threading"} if any(
        isinstance(n, ast.Import)
        and any(a.name == "threading" for a in n.names)
        for n in ast.walk(tree)) else set()
    from_names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "threading":
                    module_aliases.add(alias.asname or "threading")
        elif isinstance(node, ast.ImportFrom) and \
                node.module == "threading":
            for alias in node.names:
                if alias.name in _THREADING_PRIMITIVES:
                    from_names.add(alias.asname or alias.name)
    calls: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name) and \
                func.value.id in module_aliases and \
                func.attr in _THREADING_PRIMITIVES:
            calls.add(id(node))
        elif isinstance(func, ast.Name) and func.id in from_names:
            calls.add(id(node))
    return calls


def _check_threading_primitives(file: Path, tree: ast.Module
                                ) -> list[SourceDiagnostic]:
    """Flag threading primitives created where the Tier-C inventory
    (:mod:`repro.lint.concurrency`) cannot see them.

    Inventoried positions: a module-level ``NAME = ...`` constant, a
    class-body constant, a ``self.attr = ...`` assignment, or a local
    variable the same function then publishes as ``self.attr =
    name``.  Anything else (a lock born inside a loop, passed straight
    into a call, stuffed in a dict) is invisible to the static lock
    graph and the runtime watchdog.
    """
    calls = _threading_calls(tree)
    if not calls:
        return []
    sanctioned: set[int] = set()

    def sanction(value: ast.expr) -> None:
        for node in ast.walk(value):
            if id(node) in calls:
                sanctioned.add(id(node))

    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and all(
                isinstance(t, ast.Name) for t in stmt.targets):
            sanction(stmt.value)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    sanction(stmt.value)
                elif isinstance(stmt, ast.AnnAssign) and \
                        stmt.value is not None:
                    sanction(stmt.value)
        elif isinstance(node,
                        (ast.FunctionDef, ast.AsyncFunctionDef)):
            published: set[str] = set()
            for child in ast.walk(node):
                if not isinstance(child, ast.Assign):
                    continue
                for target in child.targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        sanction(child.value)
                        if isinstance(child.value, ast.Name):
                            published.add(child.value.id)
            for child in ast.walk(node):
                if isinstance(child, ast.Assign) and all(
                        isinstance(t, ast.Name)
                        and t.id in published
                        for t in child.targets) and child.targets:
                    sanction(child.value)
    diagnostics: list[SourceDiagnostic] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) in calls and \
                id(node) not in sanctioned:
            diagnostics.append(SourceDiagnostic.make(
                "src.untracked-threading-primitive", str(file),
                node.lineno,
                "threading primitive created outside the "
                "inventoried positions",
                hint="bind it as a module constant, class-body "
                     "constant or self-attribute so the Tier-C lock "
                     "analysis and the watchdog can see it"))
    return diagnostics


def _check_defaults(file: Path,
                    node: ast.FunctionDef | ast.AsyncFunctionDef
                    ) -> list[SourceDiagnostic]:
    diagnostics: list[SourceDiagnostic] = []
    defaults = list(node.args.defaults) + [
        d for d in node.args.kw_defaults if d is not None]
    for default in defaults:
        mutable = isinstance(default,
                             (ast.List, ast.Dict, ast.Set)) or (
            isinstance(default, ast.Call)
            and isinstance(default.func, ast.Name)
            and default.func.id in _MUTABLE_FACTORIES)
        if mutable:
            diagnostics.append(SourceDiagnostic.make(
                "src.mutable-default", str(file), default.lineno,
                f"mutable default argument in {node.name}()",
                hint="default to None and construct inside the body"))
    return diagnostics


def _check_raw_decode(file: Path, tree: ast.Module
                      ) -> list[SourceDiagnostic]:
    """``.decode(...)`` calls inside operator bodies in physical.py
    outside the sanctioned TextContent/Decompress sites."""
    diagnostics: list[SourceDiagnostic] = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        if not any(_base_name(b) == "Operator" for b in cls.bases):
            continue
        if cls.name in SANCTIONED_DECODE_SITES:
            continue
        for node in ast.walk(cls):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "decode"):
                diagnostics.append(SourceDiagnostic.make(
                    "src.raw-decode", str(file), node.lineno,
                    f"operator {cls.name} decodes values inline",
                    hint="decompression belongs to the explicit "
                         "Decompress/TextContent operators (§4)"))
    return diagnostics
