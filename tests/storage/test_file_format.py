"""The repository file's frame: a fuzzer over it and a crash-safe save.

Every damaged file — truncated anywhere, a byte flipped in the header,
the section table or any section, trailing bytes, a section missing or
named twice, another version of the format — raises
:class:`PageError` before any object is built: never ``IndexError``,
``struct.error``, ``ValueError`` or a partial repository.
"""

import builtins
import os
import random
from pathlib import Path

import pytest

from repro.errors import PageError
from repro.storage.loader import load_document
from repro.storage.serialization import (
    _STREAMS,
    _frame,
    _sections,
    load_repository,
    save_repository,
)
from repro.xmark.generator import generate_xmark

#: a paged ``XQC1`` file as the layout before sections wrote it, of
#: ``<r a="1"><b>x</b>y</r>``.
PAGED_XQC1 = Path(__file__).parents[1] / "data" / "paged_xqc1.xqc"


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """A small repository file, its bytes and the offsets where each
    region — header, table, then every section — starts."""
    path = tmp_path_factory.mktemp("frame") / "small.xqc"
    save_repository(load_document(generate_xmark(0.001, seed=5)), path)
    data = path.read_bytes()
    sections = _sections(data)
    starts = {"header": 0, "table": 4}
    at = len(data) - sum(len(payload) for payload in sections.values())
    for name in _STREAMS:
        starts[name] = at
        at += len(sections[name])
    return data, starts


@pytest.fixture
def load(tmp_path):
    def load(data: bytes):
        path = tmp_path / "damaged.xqc"
        path.write_bytes(data)
        return load_repository(path)
    return load


def _regions(data: bytes, starts: dict) -> list[tuple[str, int, int]]:
    bounds = sorted(starts.values()) + [len(data)]
    return [(name, start, bounds[bounds.index(start) + 1])
            for name, start in starts.items()]


class TestFuzz:
    def test_intact_file_loads(self, stored, load):
        data, _ = stored
        assert len(load(data).structure) > 0

    def test_truncation_anywhere(self, stored, load):
        data, starts = stored
        table_end = starts["meta"]
        # Every offset through the table, then every 13th.
        for end in [*range(table_end + 1),
                    *range(table_end + 1, len(data), 13), len(data) - 1]:
            with pytest.raises(PageError):
                load(data[:end])

    def test_flipped_byte_in_every_region(self, stored, load):
        data, starts = stored
        rng = random.Random(3)
        for name, start, stop in _regions(data, starts):
            offsets = {start, stop - 1,
                       *rng.sample(range(start, stop),
                                   min(6, stop - start))}
            for offset in sorted(offsets):
                for mask in (0xFF, 0x01, 0x80):
                    damaged = bytearray(data)
                    damaged[offset] ^= mask
                    with pytest.raises(PageError):
                        load(bytes(damaged))

    @pytest.mark.parametrize("tail", [b"\x00", b"XQC\x02", b"x" * 4096])
    def test_trailing_bytes(self, stored, load, tail):
        data, _ = stored
        with pytest.raises(PageError, match="add up"):
            load(data + tail)

    def test_missing_or_duplicated_section(self, stored, load):
        data, _ = stored
        pairs = list(_sections(data).items())
        with pytest.raises(PageError, match="6 sections"):
            load(_frame(pairs[1:]))
        with pytest.raises(PageError, match="8 sections"):
            load(_frame(pairs + pairs[:1]))
        with pytest.raises(PageError, match="once"):
            load(_frame(pairs[:-1] + pairs[:1]))
        with pytest.raises(PageError, match="once"):
            load(_frame(pairs[:-1] + [("extra", b"")]))

    def test_future_version(self, stored, load):
        data, _ = stored
        with pytest.raises(PageError, match="version 03 is not 02"):
            load(data[:3] + b"\x03" + data[4:])

    def test_paged_xqc1_file_says_recompress(self, load):
        with pytest.raises(PageError, match="re-compress"):
            load(PAGED_XQC1.read_bytes())

    @pytest.mark.parametrize("data", [b"", b"XQ", b"\x00" * 8192])
    def test_not_a_repository_file(self, load, data):
        with pytest.raises(PageError, match="not an XQueC"):
            load(data)


class _FailingHandle:
    """A file handle whose writes stop with ``ENOSPC`` after ``limit``
    bytes, the bytes before that written."""

    def __init__(self, handle, limit: int):
        self._handle = handle
        self._left = limit

    def write(self, data) -> int:
        data = bytes(data)
        if len(data) > self._left:
            self._handle.write(data[:self._left])
            self._left = 0
            raise OSError(28, "No space left on device")
        self._left -= len(data)
        return self._handle.write(data)

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return self._handle.__exit__(*exc_info)


class TestCrashSafeSave:
    def test_failed_save_keeps_the_previous_file(self, tmp_path,
                                                 monkeypatch):
        path = tmp_path / "auction.xqc"
        first = load_document(generate_xmark(0.001, seed=5))
        save_repository(first, path)
        previous = path.read_bytes()
        real_open = builtins.open

        def failing_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            if "w" in mode or "+" in mode:
                return _FailingHandle(handle, limit=1000)
            return handle

        second = load_document(generate_xmark(0.002, seed=6))
        monkeypatch.setattr(builtins, "open", failing_open)
        with pytest.raises(OSError, match="No space"):
            save_repository(second, path)
        monkeypatch.undo()
        assert path.read_bytes() == previous
        assert len(load_repository(path).structure) == \
            len(first.structure)
        assert os.listdir(tmp_path) == ["auction.xqc"]
