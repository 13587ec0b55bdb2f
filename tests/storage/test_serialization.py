"""Repository save/load round-trips, including query equivalence."""

import pytest

from repro.core.system import tuned_configuration
from repro.errors import PageError
from repro.query.engine import QueryEngine
from repro.storage.loader import load_document
from repro.storage.serialization import load_repository, save_repository
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
        for node_id in range(len(repo.structure)):
            a = repo.structure.record(node_id)
            b = loaded.structure.record(node_id)
            assert (a.tag_code, a.parent_id, a.post, a.level) == \
                (b.tag_code, b.parent_id, b.post, b.level)
            assert a.children == b.children
            assert a.value_pointers == b.value_pointers
            assert a.content_sequence == b.content_sequence

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
        # Flip the first payload byte of page 1 (first stream page);
        # the page checksum must catch it.
        data[4096 + 7] ^= 0xFF
        target.write_bytes(bytes(data))
        with pytest.raises(PageError):
            load_repository(target)
