"""Atomic file replacement for repository files.

A save that dies midway must never destroy the previous good file.
The standard recipe applies: write the full content to a temporary
sibling, fsync it, then ``os.replace`` it over the target — rename
within one directory is atomic on POSIX.
"""

from __future__ import annotations

import os
from pathlib import Path


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` via a temp file + atomic rename.

    Readers either see the previous complete content or the new
    complete content, never a prefix; a failed write removes the
    temp file and leaves the target as it was.  Returns the target.
    """
    target = Path(path)
    temp = target.with_name(target.name + ".tmp")
    try:
        with open(temp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    return target
