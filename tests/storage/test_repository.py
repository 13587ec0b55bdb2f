"""Direct tests for CompressedRepository and SizeReport."""

import pytest

from repro.storage.loader import load_document
from repro.storage.repository import SizeReport

DOC = """
<library>
  <shelf label="fiction">
    <book><title>Dune</title><pages>412</pages></book>
    <book><title>Foundation</title><pages>255</pages></book>
  </shelf>
  <shelf label="poetry">
    <book><title>Leaves of Grass</title><pages>145</pages></book>
  </shelf>
</library>
"""


@pytest.fixture(scope="module")
def repo():
    return load_document(DOC)


class TestAccessors:
    def test_tag_of(self, repo):
        assert repo.tag_of(0) == "library"

    def test_container_paths_sorted(self, repo):
        paths = repo.container_paths()
        assert paths == sorted(paths)

    def test_containers_matches_paths(self, repo):
        assert [c.path for c in repo.containers()] == \
            repo.container_paths()

    def test_text_of_direct_children_only(self, repo):
        shelf = repo.summary.resolve([("descendant", "shelf")])[0]
        shelf_id = shelf.extent[0]
        assert repo.text_of(shelf_id) == ""  # titles are deeper

    def test_full_text_of_subtree(self, repo):
        shelf = repo.summary.resolve([("descendant", "shelf")])[0]
        assert "Dune" in repo.full_text_of(shelf.extent[0])

    def test_attribute_of(self, repo):
        shelf = repo.summary.resolve([("descendant", "shelf")])[0]
        labels = [repo.attribute_of(i, "label") for i in shelf.extent]
        assert labels == ["fiction", "poetry"]

    def test_repr(self, repo):
        text = repr(repo)
        assert "nodes" in text and "containers" in text


class TestSizeReport:
    def test_total_is_sum_of_components(self, repo):
        report = repo.size_report()
        assert report.total == (
            report.name_dictionary + report.structure_records
            + report.structure_index + report.container_data
            + report.source_models + report.summary)

    def test_essential_excludes_access_support(self, repo):
        report = repo.size_report()
        assert report.essential == max(
            report.total - report.structure_index - report.summary
            - report.backward_edges, 0)

    def test_compression_factor_formula(self, repo):
        report = repo.size_report()
        assert report.compression_factor == pytest.approx(
            1.0 - report.total / report.original)

    def test_zero_original_degenerate(self):
        report = SizeReport(
            name_dictionary=1, structure_records=1, structure_index=1,
            container_data=1, source_models=1, summary=1, original=0)
        assert report.compression_factor == 0.0

    def test_backward_edges_bounded_by_components(self, repo):
        report = repo.size_report()
        assert 0 < report.backward_edges < \
            report.structure_records + report.container_data


class TestBenchReporting:
    def test_format_table_alignment(self):
        from repro.bench.reporting import format_table
        table = format_table("T", ["col", "n"],
                             [("a", 1.5), ("long-name", 20)],
                             note="note text")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "col" in lines[2]
        assert "1.500" in table
        assert table.endswith("note text")

    def test_record_result_writes_file(self, tmp_path, monkeypatch,
                                       capsys):
        import repro.bench.reporting as reporting
        monkeypatch.setattr(reporting, "RESULTS_DIR", tmp_path)
        reporting.record_result("exp", "TABLE BODY")
        assert (tmp_path / "exp.txt").read_text(
            encoding="utf-8").strip() == "TABLE BODY"
        assert "TABLE BODY" in capsys.readouterr().out


class TestCollate:
    def test_collate_orders_and_includes_all(self, tmp_path):
        from repro.bench.collate import collate, main
        (tmp_path / "fig7_qet.txt").write_text("FIG7", encoding="utf-8")
        (tmp_path / "zzz_custom.txt").write_text("CUSTOM",
                                                 encoding="utf-8")
        (tmp_path / "table1_datasets.txt").write_text("T1",
                                                      encoding="utf-8")
        report = collate(tmp_path)
        assert report.index("T1") < report.index("FIG7") < \
            report.index("CUSTOM")
        assert main([str(tmp_path)]) == 0
        assert (tmp_path / "INDEX.md").exists()


class TestDeepDocument:
    """A document nested deeper than Python's recursion limit loads, and
    its string value, reconstruction, serialization and shipping walk
    it iteratively."""

    DEPTH = 1_500

    def test_string_value_and_materialization(self):
        from repro.query.context import EvaluationStats
        from repro.query.engine import QueryEngine
        xml = "<a>" * self.DEPTH + "x" + "</a>" * self.DEPTH
        repository = load_document(xml)
        assert repository.full_text_of(0) == "x"
        element = QueryEngine(repository).materialize_node(
            0, EvaluationStats())
        assert element.name == "a" and len(element.children) == 1

    def test_decompress_equals_the_source(self):
        from repro.service.session import Session
        xml = "<a>" * self.DEPTH + "x" + "</a>" * self.DEPTH
        assert Session(load_document(xml)).decompress() == xml

    def test_shipping_the_subtree_round_trips(self):
        from repro.query.engine import QueryEngine
        from repro.query.shipping import receive_result, ship_result
        xml = "<a>" * self.DEPTH + "x" + "</a>" * self.DEPTH
        result = QueryEngine(load_document(xml)).execute("/a/a")
        received = receive_result(ship_result(result))
        assert received.values == [xml[3:-4]]
        assert received.compressed_value_bytes > 0
