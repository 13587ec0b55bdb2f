"""Moderate-scale smoke test: load, persist, query, reconstruct."""

import pytest

from repro.core.system import tuned_configuration
from repro.query.engine import QueryEngine
from repro.query.context import EvaluationStats
from repro.service.session import Database
from repro.storage.loader import load_document
from repro.storage.serialization import load_repository, save_repository
from repro.xmark.generator import generate_xmark
from repro.xmark.queries import XMARK_QUERIES, query_text
from repro.xmlio.dom import parse
from repro.xmlio.writer import serialize


@pytest.fixture(scope="module")
def xml_text():
    return generate_xmark(factor=0.03, seed=99)


@pytest.fixture(scope="module")
def session(xml_text):
    configuration = tuned_configuration(
        load_document(xml_text), [q for _, q in XMARK_QUERIES.values()])
    return Database.from_xml(xml_text,
                             configuration=configuration).session()


class TestScaleSmoke:
    def test_compression_band(self, session):
        assert 0.5 < session.repository.compression_factor < 0.8

    def test_every_benchmark_query_runs(self, session):
        for query_id in sorted(XMARK_QUERIES):
            result = session.execute(query_text(query_id))
            assert result.to_xml() is not None, query_id

    def test_document_reconstruction_exact(self, session, xml_text):
        engine = QueryEngine(session.repository)
        rebuilt = engine.materialize_node(0, EvaluationStats())
        assert serialize(rebuilt) == serialize(parse(xml_text))

    def test_persistence_roundtrip_at_scale(self, session, tmp_path):
        path = tmp_path / "scale.xqc"
        save_repository(session.repository, path)
        loaded = load_repository(path)
        query = query_text("Q8")
        assert QueryEngine(loaded).execute(query).to_xml() == \
            session.execute(query).to_xml()

    def test_repository_file_smaller_than_document(self, session,
                                                   tmp_path, xml_text):
        path = tmp_path / "scale.xqc"
        save_repository(session.repository, path)
        # Page padding costs a little; still clearly below the source.
        assert path.stat().st_size < 0.75 * len(xml_text.encode())
