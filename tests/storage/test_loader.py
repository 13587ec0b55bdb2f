"""Tests for the loader/compressor and the repository it builds."""

import pytest

from repro.errors import ContainerNotFoundError, NodeNotFoundError
from repro.storage.loader import infer_value_type, load_document

DOC = """
<site>
  <people>
    <person id="p0"><name>Alice</name><age>31</age></person>
    <person id="p1"><name>Bob</name><age>27</age></person>
  </people>
  <regions>
    <item id="i0"><price>12.5</price><name>Lamp</name></item>
  </regions>
</site>
"""


@pytest.fixture(scope="module")
def repo():
    return load_document(DOC)


class TestTypeInference:
    def test_ints(self):
        assert infer_value_type(["1", "22", "-3"]) == "int"

    def test_floats(self):
        assert infer_value_type(["1.5", "2.0", "-0.25"]) == "float"

    def test_mixed_int_float_stays_string(self):
        # "2" is not a canonical float ("2.0" is): a float codec would
        # decode it as "2.0", which is lossy.  Mixed containers used to
        # infer "float" and then crash at seal time.
        assert infer_value_type(["1.5", "2", "-0.25"]) == "string"

    def test_strings(self):
        assert infer_value_type(["1", "two"]) == "string"

    def test_non_canonical_stays_string(self):
        assert infer_value_type(["007"]) == "string"

    def test_empty(self):
        assert infer_value_type([]) == "string"


class TestStructure(object):
    def test_node_count(self, repo):
        # site, people, 2 person, 2 name, 2 age, regions, item, price, name
        assert len(repo.structure) == 12

    def test_root_record(self, repo):
        root = repo.structure.record(0)
        assert root.parent_id == -1
        assert repo.tag_of(0) == "site"

    def test_document_order_ids(self, repo):
        assert repo.tag_of(1) == "people"
        assert repo.tag_of(2) == "person"

    def test_children_navigation(self, repo):
        people = repo.structure.children_of(0)[0]
        persons = repo.structure.children_of(people)
        assert [repo.tag_of(p) for p in persons] == ["person", "person"]

    def test_descendants_via_post_numbers(self, repo):
        descendants = repo.structure.descendants_of(0)
        assert len(descendants) == 11

    def test_levels(self, repo):
        assert repo.structure.record(0).level == 0
        assert repo.structure.record(2).level == 2

    def test_missing_node(self, repo):
        with pytest.raises(NodeNotFoundError):
            repo.structure.record(999)


class TestContainers:
    def test_one_container_per_path(self, repo):
        paths = repo.container_paths()
        assert "/site/people/person/@id" in paths
        assert "/site/people/person/name/#text" in paths
        assert "/site/regions/item/price/#text" in paths

    def test_numeric_typing(self, repo):
        assert repo.container(
            "/site/people/person/age/#text").value_type == "int"
        assert repo.container(
            "/site/regions/item/price/#text").value_type == "float"
        assert repo.container(
            "/site/people/person/name/#text").value_type == "string"

    def test_values_roundtrip(self, repo):
        container = repo.container("/site/people/person/name/#text")
        values = sorted(v for _, v in container.scan_decoded())
        assert values == ["Alice", "Bob"]

    def test_missing_container(self, repo):
        with pytest.raises(ContainerNotFoundError):
            repo.container("/nope")


class TestValuePointers:
    def test_text_of(self, repo):
        name_ids = repo.summary.resolve(
            [("child", "site"), ("child", "people"), ("child", "person"),
             ("child", "name")])[0].extent
        assert [repo.text_of(n) for n in name_ids] == ["Alice", "Bob"]

    def test_attribute_of(self, repo):
        person_ids = repo.summary.resolve(
            [("child", "site"), ("child", "people"),
             ("child", "person")])[0].extent
        assert [repo.attribute_of(p, "id") for p in person_ids] == \
            ["p0", "p1"]

    def test_attribute_missing(self, repo):
        assert repo.attribute_of(0, "nope") is None

    def test_full_text_concatenates_subtree(self, repo):
        person = repo.summary.resolve(
            [("child", "site"), ("child", "people"),
             ("child", "person")])[0].extent[0]
        assert repo.full_text_of(person) == "Alice31"


class TestSummary:
    def test_distinct_paths_counted_once(self, repo):
        # person appears twice in the document, once in the summary:
        # site, people, person, @id, name, #text, age, #text, regions,
        # item, @id, price, #text, name, #text = 15 distinct paths.
        assert repo.summary.node_count() == 15

    def test_descendant_resolution(self, repo):
        nodes = repo.summary.resolve([("descendant", "name")])
        assert len(nodes) == 2  # person/name and item/name

    def test_wildcard(self, repo):
        nodes = repo.summary.resolve([("child", "site"), ("child", "*")])
        assert {n.step for n in nodes} == {"people", "regions"}

    def test_extents_in_document_order(self, repo):
        person = repo.summary.resolve([("descendant", "person")])[0]
        assert person.extent == sorted(person.extent)


class TestStatistics:
    def test_cardinality(self, repo):
        assert repo.statistics.cardinality("person") == 2
        assert repo.statistics.cardinality("site") == 1

    def test_fanout(self, repo):
        assert repo.statistics.average_fanout("people") == 2.0

    def test_counts(self, repo):
        assert repo.statistics.element_count == 12
        assert repo.statistics.attribute_count == 3
        # Alice, 31, Bob, 27, 12.5, Lamp
        assert repo.statistics.text_count == 6


class TestSizeReport:
    def test_components_positive(self, repo):
        report = repo.size_report()
        assert report.name_dictionary > 0
        assert report.structure_records > 0
        assert report.container_data > 0
        assert report.summary > 0
        assert report.total > 0

    def test_essential_smaller_than_total(self, repo):
        report = repo.size_report()
        assert report.essential < report.total

    def test_compression_factor_bounded(self, repo):
        assert repo.compression_factor < 1.0


class TestConfigurationSealing:
    def test_grouped_containers_share_codec(self):
        from repro.partitioning.config import (
            CompressionConfiguration,
            ContainerGroup,
        )
        config = CompressionConfiguration(groups=[
            ContainerGroup(
                container_paths=("/site/people/person/name/#text",
                                 "/site/regions/item/name/#text"),
                algorithm="huffman"),
        ])
        repo = load_document(DOC, configuration=config)
        c1 = repo.container("/site/people/person/name/#text")
        c2 = repo.container("/site/regions/item/name/#text")
        assert c1.codec is c2.codec
        assert c1.codec.name == "huffman"
        # Ungrouped containers still get defaults.
        assert repo.container(
            "/site/people/person/age/#text").codec.name == "integer"

    @pytest.mark.parametrize("algorithm", ["alm", "bzip2"])
    def test_group_members_keep_their_own_values(self, algorithm):
        # One codec trained (and, for ALM, the values encoded) over the
        # union: each member must be sealed with its own share.
        from repro.partitioning.config import (
            CompressionConfiguration,
            ContainerGroup,
        )
        paths = ("/site/people/person/name/#text",
                 "/site/regions/item/name/#text",
                 "/site/people/person/@id")
        config = CompressionConfiguration(groups=[
            ContainerGroup(container_paths=paths, algorithm=algorithm)])
        grouped = load_document(DOC, configuration=config)
        plain = load_document(DOC)
        for path in paths:
            assert grouped.container(path).codec.name == algorithm
            assert sorted(grouped.container(path).scan_decoded()) == \
                sorted(plain.container(path).scan_decoded())
        for node_id in range(len(plain.structure)):
            assert grouped.text_of(node_id) == plain.text_of(node_id)


class TestStagingIsLinear:
    def test_staged_values_read_a_constant_number_of_times(
            self, monkeypatch):
        # The loader once asked the container for a fresh copy of its
        # staged values per attribute and text node, just to take its
        # length: quadratic in the container.
        from repro.storage.containers import ValueContainer
        reads = []
        original = ValueContainer.pending_values

        def spy(container):
            reads.append(container.path)
            return original.fget(container)

        monkeypatch.setattr(ValueContainer, "pending_values",
                            property(spy))
        count = 2000
        repo = load_document(
            "<r>" + "".join(f"<v>value {i % 700}</v>"
                            for i in range(count)) + "</r>")
        assert len(repo.container("/r/v/#text")) == count
        assert 1 <= reads.count("/r/v/#text") <= 3
        assert [repo.text_of(i + 1) for i in (0, 699, 700, count - 1)] \
            == ["value 0", "value 699", "value 0",
                f"value {(count - 1) % 700}"]
