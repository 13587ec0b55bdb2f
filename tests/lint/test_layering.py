"""Storage and compression sit below observability.

No module under ``repro/compression`` or ``repro/storage`` imports
``repro.obs``: a run's access counts are its ``EvaluationStats``, and
telemetry hooks in the deep layers cannot grow back.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPRO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: packages that must not depend on the observability layer.
LOWER_LAYERS = ("compression", "storage")


def _imported_names(path: Path) -> set[str]:
    """Every module (and ``from`` target) one source file imports,
    relative imports resolved against its package."""
    package = ["repro", *path.relative_to(REPRO_SRC).parent.parts]
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] \
                if node.level else []
            module = ".".join(base + ([node.module] if node.module
                                      else []))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_compression_and_storage_never_import_obs():
    files = [path for layer in LOWER_LAYERS
             for path in sorted((REPRO_SRC / layer).rglob("*.py"))]
    assert files
    offenders = {
        str(path.relative_to(REPRO_SRC)): sorted(
            name for name in _imported_names(path)
            if name == "repro.obs" or name.startswith("repro.obs."))
        for path in files}
    assert {path: names for path, names in offenders.items()
            if names} == {}
