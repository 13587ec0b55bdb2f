"""Atomic file replacement for journals and other observability files.

Observability files are written while queries (or benchmark runs) are
in flight; a crash mid-write must never leave a truncated JSON/JSONL
file behind.  The standard recipe applies: write the full content to a
temporary sibling, fsync it, then ``os.replace`` over the target —
rename within one directory is atomic on POSIX.
"""

from __future__ import annotations

import os
from pathlib import Path


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` via a temp file + atomic rename.

    Readers either see the previous complete content or the new
    complete content, never a prefix.  Returns the target path.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    temp = target.with_name(target.name + ".tmp")
    with open(temp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, target)
    return target
