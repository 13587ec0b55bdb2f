"""Tests for live workload capture (recorder, records, engine hook)."""

import json

import pytest

from repro.obs import runtime
from repro.obs.journal import WorkloadJournal
from repro.obs.telemetry import Telemetry
from repro.obs.workload import (
    WorkloadCapture,
    WorkloadRecord,
    WorkloadRecorder,
)
from repro.query.engine import QueryEngine
from repro.query.options import ExecutionOptions
from repro.storage.loader import load_document

XML = "<site><people>%s</people></site>" % "".join(
    f"<person><name>Person {i:03d}</name><age>{20 + i % 40}</age>"
    "</person>" for i in range(30))

EQ_QUERY = ('for $p in /site/people/person '
            'where $p/name/text() = "Person 007" '
            'return $p/name/text()')
INEQ_QUERY = ('for $p in /site/people/person '
              'where $p/name/text() > "Person 025" '
              'return $p/name/text()')


@pytest.fixture
def repository():
    return load_document(XML)


@pytest.fixture
def journal(tmp_path):
    return WorkloadJournal(tmp_path / "doc.workload.jsonl")


class TestWorkloadCapture:
    def test_accumulates_per_container(self):
        capture = WorkloadCapture()
        capture.record_access("/a/#text", "scans")
        capture.record_access("/a/#text", "scans")
        capture.record_access("/b/#text", "record_reads", n=3)
        capture.record_predicate("/a/#text", "eq")
        assert capture.containers == {
            "/a/#text": {"scans": 2, "eq": 1},
            "/b/#text": {"record_reads": 3},
        }


class TestWorkloadRecord:
    def test_dict_roundtrip(self):
        record = WorkloadRecord(
            query="q", ts="2026-01-01T00:00:00", wall_ns=42,
            containers={"/a/#text": {"eq": 1}},
            predicates=[{"kind": "eq", "left": "/a/#text",
                         "right": None}],
            counters={"compressed_comparisons": 3,
                      "decompressed_comparisons": 1})
        back = WorkloadRecord.from_dict(record.to_dict())
        assert back == record

    def test_compressed_ratio(self):
        record = WorkloadRecord(
            query="q", ts="", wall_ns=0,
            counters={"compressed_comparisons": 3,
                      "decompressed_comparisons": 1})
        assert record.compressed_ratio == pytest.approx(0.75)

    def test_compressed_ratio_none_without_comparisons(self):
        record = WorkloadRecord(query="q", ts="", wall_ns=0)
        assert record.compressed_ratio is None


class TestRecorderWithEngine:
    def test_journals_one_record_per_execute(self, repository,
                                             journal):
        recorder = WorkloadRecorder(journal)
        engine = QueryEngine(repository, recorder=recorder)
        engine.execute(EQ_QUERY)
        engine.execute(INEQ_QUERY)
        assert recorder.records_written == 2
        assert len(journal) == 2

    def test_record_names_probed_container(self, repository, journal):
        engine = QueryEngine(repository,
                             recorder=WorkloadRecorder(journal))
        engine.execute(EQ_QUERY)
        [record] = journal.records()
        activity = record["containers"]
        assert "/site/people/person/name/#text" in activity
        assert activity["/site/people/person/name/#text"]["eq"] == 1

    def test_static_predicates_extracted(self, repository, journal):
        engine = QueryEngine(repository,
                             recorder=WorkloadRecorder(journal))
        engine.execute(INEQ_QUERY)
        [record] = journal.records()
        assert {"kind": "ineq",
                "left": "/site/people/person/name/#text",
                "right": None} in record["predicates"]

    def test_counters_and_wall_time_present(self, repository,
                                            journal):
        engine = QueryEngine(repository,
                             recorder=WorkloadRecorder(journal))
        engine.execute(EQ_QUERY)
        [record] = journal.records()
        assert record["wall_ns"] > 0
        assert "decompressions" in record["counters"]
        assert record["ts"]  # ISO timestamp

    def test_workload_metrics_mirrored(self, repository, journal):
        engine = QueryEngine(repository,
                             recorder=WorkloadRecorder(journal))
        telemetry = Telemetry()  # a traced run mirrors its record
        result = engine.execute(
            EQ_QUERY, ExecutionOptions(telemetry=telemetry))
        assert result.telemetry is telemetry
        metrics = telemetry.metrics
        assert metrics.counter("workload.records").value == 1
        assert metrics.counter("workload.predicates.eq").value == 1

    def test_results_unaffected_by_recording(self, repository,
                                             journal, tmp_path):
        plain = QueryEngine(load_document(XML))
        recorded = QueryEngine(repository,
                               recorder=WorkloadRecorder(journal))
        for query in (EQ_QUERY, INEQ_QUERY):
            assert recorded.execute(query).items == \
                plain.execute(query).items

    def test_journal_lines_are_json(self, repository, journal):
        engine = QueryEngine(repository,
                             recorder=WorkloadRecorder(journal))
        engine.execute(EQ_QUERY)
        for line in journal.path.read_text().splitlines():
            assert isinstance(json.loads(line), dict)


class TestDisabledRecorder:
    def test_no_recorder_no_journal_io(self, repository, tmp_path):
        engine = QueryEngine(repository)
        engine.execute(EQ_QUERY)
        assert list(tmp_path.iterdir()) == []

    def test_disabled_recorder_writes_nothing(self, repository,
                                              journal):
        recorder = WorkloadRecorder(journal, enabled=False)
        engine = QueryEngine(repository, recorder=recorder)
        engine.execute(EQ_QUERY)
        assert recorder.records_written == 0
        assert not journal.exists()

    def test_recorder_global_restored_after_run(self, repository,
                                                journal):
        engine = QueryEngine(repository,
                             recorder=WorkloadRecorder(journal))
        engine.execute(EQ_QUERY)
        assert runtime.RECORDER is None


class TestRuntimeRecording:
    def test_recording_sets_and_restores_global(self):
        capture = WorkloadCapture()
        assert runtime.RECORDER is None
        with runtime.recording(capture) as active:
            assert active is capture
            assert runtime.RECORDER is capture
        assert runtime.RECORDER is None

    def test_recording_is_reentrant(self):
        outer, inner = WorkloadCapture(), WorkloadCapture()
        with runtime.recording(outer):
            with runtime.recording(inner):
                assert runtime.RECORDER is inner
            assert runtime.RECORDER is outer

    def test_restores_on_exception(self):
        capture = WorkloadCapture()
        with pytest.raises(RuntimeError):
            with runtime.recording(capture):
                raise RuntimeError("boom")
        assert runtime.RECORDER is None
