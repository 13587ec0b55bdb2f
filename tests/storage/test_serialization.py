"""Repository save/load round-trips, including query equivalence."""

import numpy as np
import pytest

from repro.core.system import tuned_configuration
from repro.errors import PageError
from repro.query.engine import QueryEngine
from repro.storage.loader import load_document
from repro.storage.serialization import (
    _read_structure,
    _read_summary,
    _sections,
    _write_structure,
    _write_summary,
    load_repository,
    save_repository,
)
from repro.util.varint import decode_varints, encode_varints
from repro.xmark.generator import generate_xmark

QUERIES = [
    "/site/people/person/name/text()",
    'for $p in /site/people/person where $p/name/text() < "D" '
    "return $p/@id",
    "count(//item)",
    "for $p in /site/people/person, "
    "$a in /site/closed_auctions/closed_auction "
    "where $a/buyer/@person = $p/@id return $p/name/text()",
]

#: every column of a StructureTree.
COLUMNS = ("parents", "tags", "posts", "levels", "pointer_offsets",
           "pointer_containers", "pointer_slots", "content_offsets",
           "content")


@pytest.fixture(scope="module")
def xml_text():
    return generate_xmark(factor=0.005, seed=4)


@pytest.fixture(scope="module")
def saved(tmp_path_factory, xml_text):
    repo = load_document(xml_text)
    path = tmp_path_factory.mktemp("repo") / "auction.xqc"
    save_repository(repo, path)
    return repo, path


class TestRoundTrip:
    def test_structure_identical(self, saved):
        repo, path = saved
        loaded = load_repository(path)
        assert len(loaded.structure) == len(repo.structure)
        assert loaded.structure.paths == repo.structure.paths
        for column in COLUMNS:
            assert np.array_equal(getattr(loaded.structure, column),
                                  getattr(repo.structure, column)), column

    def test_dictionary_identical(self, saved):
        repo, path = saved
        loaded = load_repository(path)
        assert loaded.dictionary.names() == repo.dictionary.names()

    def test_containers_bit_identical(self, saved):
        repo, path = saved
        loaded = load_repository(path)
        assert loaded.container_paths() == repo.container_paths()
        for container_path in repo.container_paths():
            original = list(repo.container(container_path).scan())
            restored = list(loaded.container(container_path).scan())
            assert original == restored, container_path

    def test_summary_identical(self, saved):
        repo, path = saved
        loaded = load_repository(path)
        original = {n.path: (n.extent, n.container_path)
                    for n in repo.summary.root.walk()}
        restored = {n.path: (n.extent, n.container_path)
                    for n in loaded.summary.root.walk()}
        assert original == restored

    def test_statistics_identical(self, saved):
        repo, path = saved
        loaded = load_repository(path)
        assert loaded.statistics.element_count == \
            repo.statistics.element_count
        assert loaded.statistics.tag_cardinality == \
            repo.statistics.tag_cardinality
        assert loaded.statistics.average_fanout("people") == \
            repo.statistics.average_fanout("people")

    def test_size_report_close(self, saved):
        repo, path = saved
        loaded = load_repository(path)
        assert loaded.size_report().total == repo.size_report().total

    @pytest.mark.parametrize("query", QUERIES)
    def test_queries_identical(self, saved, query):
        repo, path = saved
        loaded = load_repository(path)
        assert QueryEngine(loaded).execute(query).to_xml() == \
            QueryEngine(repo).execute(query).to_xml()


class TestWorkloadConfiguredRepository:
    def test_shared_models_stay_shared(self, tmp_path, xml_text):
        configuration = tuned_configuration(load_document(xml_text), [
            "for $p in /site/people/person, "
            "$a in /site/closed_auctions/closed_auction "
            "where $a/buyer/@person = $p/@id return $p"])
        path = tmp_path / "tuned.xqc"
        save_repository(load_document(xml_text,
                                      configuration=configuration), path)
        loaded = load_repository(path)
        group = configuration.group_of(
            "/site/people/person/@id")
        if group is not None and len(group.container_paths) > 1:
            codecs = {id(loaded.container(p).codec)
                      for p in group.container_paths}
            assert len(codecs) == 1, "shared source model lost"


class TestFailureInjection:
    def test_not_a_repository(self, tmp_path):
        path = tmp_path / "junk.xqc"
        path.write_bytes(b"\x00" * 8192)
        with pytest.raises(PageError):
            load_repository(path)

    def test_corrupt_stream_detected(self, saved, tmp_path):
        _, source = saved
        target = tmp_path / "corrupt.xqc"
        data = bytearray(source.read_bytes())
        # Flip a byte inside the structure section (the payloads end
        # the file, in table order); its checksum must catch it.
        sections = _sections(bytes(data))
        start = len(data) - sum(len(sections[name]) for name in
                                ("structure", "summary", "statistics"))
        data[start + 7] ^= 0xFF
        target.write_bytes(bytes(data))
        with pytest.raises(PageError, match="'structure' fails"):
            load_repository(target)


class TestCorruptStructureStream:
    """Each reference field of the structure stream is checked on read:
    a bad one raises :class:`PageError`, never a bare ``IndexError`` or
    a silently wrapped negative index.

    ``<r a="1"><b>x</b>y</r>`` over the containers ``/r/#text``,
    ``/r/@a``, ``/r/b/#text`` is the varint fields::

        2                                  node count
        t 0 1 0  2 1 0 0 0  2 0 1 1 1      r: @a, "y"; content b, "y"
        t 1 0 1  1 2 0      1 1 0          b: "x"; content "x"
    """

    XML = '<r a="1"><b>x</b>y</r>'

    @pytest.fixture(scope="class")
    def stored(self):
        repository = load_document(self.XML)
        paths = repository.container_paths()
        containers = {path: repository.container(path) for path in paths}
        data = _write_structure(repository.structure,
                                {path: i for i, path in enumerate(paths)})
        return decode_varints(data), containers

    def read(self, stored, position=None, value=None):
        fields, containers = stored
        fields = fields.copy()
        if position is not None:
            fields[position] = value
        return _read_structure(encode_varints(fields), containers)

    def test_layout_is_the_documented_one(self, stored):
        fields, _ = stored
        assert fields[[0, 2, 5, 6, 7, 10, 11, 12, 13, 14]].tolist() == \
            [2, 0, 2, 1, 0, 2, 0, 1, 1, 1]
        assert fields[16:].tolist() == [1, 0, 1, 1, 2, 0, 1, 1, 0]
        assert self.read(stored).children_of(0) == [1]

    def test_parent_delta_before_the_root(self, stored):
        with pytest.raises(PageError, match="parent"):
            self.read(stored, 16, 2)

    def test_container_index_out_of_range(self, stored):
        with pytest.raises(PageError, match="container"):
            self.read(stored, 6, 3)

    def test_slot_past_the_container(self, stored):
        with pytest.raises(PageError, match="slot"):
            self.read(stored, 7, 1)

    def test_text_reference_past_the_values(self, stored):
        with pytest.raises(PageError, match="text"):
            self.read(stored, 24, 1)

    def test_element_reference_not_a_child(self, stored):
        # b's text entry becomes an element entry naming b itself.
        with pytest.raises(PageError, match="child"):
            self.read(stored, 23, 0)
        # r's element entry names r.
        with pytest.raises(PageError, match="child"):
            self.read(stored, 12, 0)

    def test_truncated_stream(self, stored):
        fields, containers = stored
        with pytest.raises(PageError):
            _read_structure(encode_varints(fields[:-3]), containers)


class TestCorruptSummaryStream:
    """A summary node's container index is checked on read: one past
    the container list raises :class:`PageError`, not ``IndexError``."""

    def test_container_index_out_of_range(self):
        repository = load_document(TestCorruptStructureStream.XML)
        paths = repository.container_paths()
        data = _write_summary(repository.summary,
                              {path: len(paths) for path in paths})
        with pytest.raises(PageError, match="container"):
            _read_summary(data, paths)
