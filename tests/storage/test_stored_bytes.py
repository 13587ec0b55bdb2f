"""The stored form is pinned: ``.xqc`` files of fixed documents, byte for byte.

Every literal below is the sha256 and size of
``save_repository(load_document(doc))`` computed at commit 15a0ec7,
before the load path was rewritten to mine, segment and pack in bulk.
A change to the loader, a codec's training or the file layout that
moves a single stored byte fails here; a deliberate format change
re-derives the literals and says so.  CI also runs this file under two
fixed ``PYTHONHASHSEED`` values: the token set passes through ``set()``s
and the stored bytes must not depend on hash order.
"""

import hashlib

import pytest

from repro.storage.loader import load_document
from repro.storage.serialization import load_repository, save_repository
from repro.xmark import (
    generate_baseball,
    generate_shakespeare,
    generate_washington_course,
    generate_xmark,
)

#: (generator, factor, seed, sha256 of the .xqc file, its size) — the
#: four ``ingest`` documents of ``benchmarks/e2e`` and the ``join`` one.
PINNED = [
    (generate_xmark, 0.008, 42,
     "88dd66c8adcfe7f21de1c591065bd2e8c127bb25788b7159c0dbccd5ff5bb68f",
     106_496),
    (generate_shakespeare, 0.027, 7,
     "70cc94ba552d6bf0d92369f3ae91895a3b5e86f9234a951f9192e90448a70f5c",
     143_360),
    (generate_washington_course, 0.05, 11,
     "5615f37d0a530b59a8d17ed032d5e357b213dc6eeb4bf000c57972d9bea138e8",
     102_400),
    (generate_baseball, 0.09, 13,
     "ff74b63ebd0f632c62667114b081ac1f37659e12c2858b98681719c88188c3b2",
     114_688),
    (generate_xmark, 0.025, 42,
     "67ba1d6e9f4caf04f2551734608903aca1979d91a51a43066812ee17fb71d8c1",
     237_568),
]


@pytest.mark.parametrize(
    "generate, factor, seed, sha256, size", PINNED,
    ids=[f"{g.__name__}-{f}" for g, f, _, _, _ in PINNED])
def test_stored_file_is_byte_identical(tmp_path, generate, factor, seed,
                                       sha256, size):
    path = tmp_path / "document.xqc"
    save_repository(load_document(generate(factor, seed=seed)), path)
    data = path.read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, sha256)


@pytest.mark.parametrize(
    "generate, factor, seed, sha256, size", PINNED,
    ids=[f"{g.__name__}-{f}" for g, f, _, _, _ in PINNED])
def test_reopened_file_saves_identically(tmp_path, generate, factor, seed,
                                         sha256, size):
    """The column reader and writer are inverses on every pinned file:
    reopening and saving again reproduces it byte for byte."""
    path, again = tmp_path / "document.xqc", tmp_path / "again.xqc"
    save_repository(load_document(generate(factor, seed=seed)), path)
    save_repository(load_repository(path), again)
    assert again.read_bytes() == path.read_bytes()
