"""Tests for the §3 workload-driven loader and workload extraction."""

import hashlib

import pytest

from repro.core.system import extract_workload, tuned_configuration
from repro.partitioning import assign_shards
from repro.service.session import Database
from repro.storage.loader import load_document
from repro.storage.serialization import save_repository
from repro.xmark.generator import generate_xmark
from repro.xmark.queries import query_text

QUERIES = [
    'for $p in /site/people/person where $p/name/text() > "M" '
    "return $p/name/text()",
    'for $p in /site/people/person, $a in '
    "/site/closed_auctions/closed_auction "
    "where $a/buyer/@person = $p/@id return $p/name/text()",
    'for $i in /site/regions/europe/item '
    'where starts-with($i/name/text(), "gold") return $i',
]

#: SHA-256 of the saved XMark (f 0.01, seed 2) repository loaded under
#: ``tuned_configuration(..., QUERIES)``; a different hash means the
#: greedy search or the loader changed a stored byte.  Re-derived when
#: the file became seven checksummed sections (every section payload
#: equal to the stream the paged layout stored).
TUNED_SHA256 = \
    "c0989698f8cd937f16baac3f069d5112925fb44c76a8df96e5f3c65612124c10"


@pytest.fixture(scope="module")
def xml_text():
    return generate_xmark(factor=0.01, seed=2)


def _tuned(xml_text, queries):
    configuration = tuned_configuration(load_document(xml_text), queries)
    return configuration, Database.from_xml(xml_text,
                                            configuration=configuration)


class TestLoadWithoutWorkload:
    def test_defaults(self, xml_text):
        database = Database.from_xml(xml_text)
        name = database.repository.container(
            "/site/people/person/name/#text")
        assert name.codec.name == "alm"

    def test_compression_factor_positive(self, xml_text):
        database = Database.from_xml(xml_text)
        assert 0.0 < database.repository.compression_factor < 1.0

    def test_query_roundtrip(self, xml_text):
        session = Database.from_xml(xml_text).session()
        result = session.execute(
            '/site/people/person[@id = "person0"]/name/text()')
        assert len(result.items) == 1


class TestWorkloadExtraction:
    def test_predicates_classified(self, xml_text):
        repo = load_document(xml_text)
        workload = extract_workload(QUERIES, repo)
        kinds = {p.kind for p in workload}
        assert kinds == {"eq", "ineq", "wild"}

    def test_join_produces_two_sided_predicate(self, xml_text):
        repo = load_document(xml_text)
        workload = extract_workload([QUERIES[1]], repo)
        joins = [p for p in workload if p.is_join]
        assert joins
        assert joins[0].left_path.endswith("@person")
        assert joins[0].right_path.endswith("@id")

    def test_constant_predicate_single_sided(self, xml_text):
        repo = load_document(xml_text)
        workload = extract_workload([QUERIES[0]], repo)
        assert any(not p.is_join and p.kind == "ineq" for p in workload)


def _predicates(workload) -> list[tuple]:
    return [(p.kind, p.left_path, p.right_path) for p in workload]


class TestStepPredicates:
    """Step predicates are workload predicates too: each is walked with
    the context item ``.`` bound to its step's summary path."""

    def test_q1_yields_its_id_lookup(self, xml_text):
        workload = extract_workload([query_text("Q1")],
                                    load_document(xml_text))
        assert _predicates(workload) == \
            [("eq", "/site/people/person/@id", None)]

    def test_nested_predicates_take_their_own_context(self, xml_text):
        workload = extract_workload(
            ["/site/people/person[profile[@income > 5000]]"
             "[name/text() = $n]/@id"], load_document(xml_text))
        assert sorted(_predicates(workload)) == [
            ("eq", "/site/people/person/name/#text", None),
            ("ineq", "/site/people/person/profile/@income", None)]

    def test_q1_tuned_load_binds_the_selection(self, xml_text):
        """Tuned to Q1, ``@id`` is no longer a bzip2 blob: Q1's step
        predicate binds a ``ContAccess`` and answers as before."""
        q1 = query_text("Q1")
        configuration, database = _tuned(xml_text, [q1])
        assert configuration.algorithm_of(
            "/site/people/person/@id") == "alm"
        session = database.session()
        (clause,) = session.prepare(q1).plan.bound.clauses.values()
        assert clause.selection is not None
        assert "ContAccess interval ['person0', 'person0'] on " \
            "/site/people/person/@id" in session.explain(q1)
        expected = Database.from_xml(xml_text).session().execute(q1)
        assert session.execute(q1).to_xml() == expected.to_xml() != ""

    def test_serve_placement_keeps_its_subtrees(self):
        """The serve workload's placement (15 queries, XMark f 0.05,
        seed 42, two shards): Q1's ``@id`` predicate moves a weight,
        no subtree."""
        serve = ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q13", "Q14",
                 "Q15", "Q16", "Q17", "Q18", "Q19", "Q20")
        repository = load_document(generate_xmark(factor=0.05, seed=42))
        assignment = assign_shards(repository, 2,
                                   queries=[query_text(q) for q in serve])
        assert assignment.subtrees_by_shard == [
            ["/site/regions"],
            ["/site/categories", "/site/closed_auctions",
             "/site/open_auctions", "/site/people"]]


class TestLoadWithWorkload:
    def test_configuration_produced(self, xml_text):
        configuration = tuned_configuration(load_document(xml_text),
                                            QUERIES)
        assert configuration.groups

    def test_inequality_container_gets_alm(self, xml_text):
        configuration = tuned_configuration(load_document(xml_text),
                                            [QUERIES[0]])
        algorithm = configuration.algorithm_of(
            "/site/people/person/name/#text")
        assert algorithm == "alm"

    def test_joined_containers_share_codec(self, xml_text):
        config, database = _tuned(xml_text, [QUERIES[1]])
        buyer = config.group_of(
            "/site/closed_auctions/closed_auction/buyer/@person")
        person = config.group_of("/site/people/person/@id")
        if buyer is not None and person is not None and buyer is person:
            c1 = database.repository.container(
                "/site/closed_auctions/closed_auction/buyer/@person")
            c2 = database.repository.container(
                "/site/people/person/@id")
            assert c1.codec is c2.codec

    def test_queries_still_correct_under_configuration(self, xml_text):
        plain = Database.from_xml(xml_text).session()
        tuned = _tuned(xml_text, QUERIES)[1].session()
        for query in QUERIES:
            assert plain.execute(query).to_xml() == \
                tuned.execute(query).to_xml()

    def test_size_report(self, xml_text):
        _, database = _tuned(xml_text, QUERIES)
        report = database.repository.size_report()
        assert report.total > 0
        assert report.essential < report.total

    def test_stored_bytes_pinned(self, xml_text, tmp_path):
        _, database = _tuned(xml_text, QUERIES)
        path = tmp_path / "tuned.xqc"
        save_repository(database.repository, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            TUNED_SHA256
