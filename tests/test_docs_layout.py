"""DESIGN.md §4 "Package layout" is the tree: every module it names
exists under ``src/repro/`` and every module there is named."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def test_layout_block_matches_the_tree():
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = design.split("## 4. Package layout", 1)[1]
    block = section.split("```", 2)[1]
    directory, named = PACKAGE, set()
    for line in block.splitlines():
        for token in line.split("#", 1)[0].split():
            if token.endswith("/"):
                directory = PACKAGE if token == "src/repro/" \
                    else PACKAGE / token
            elif re.fullmatch(r"\w+\.py", token):
                named.add(directory / token)
    on_disk = {path for path in PACKAGE.rglob("*.py")
               if path.name != "__init__.py"}
    assert sorted(named - on_disk) == [], "named but missing"
    assert sorted(on_disk - named) == [], "present but not named"
