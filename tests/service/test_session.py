"""Tests for Database/Session/PreparedQuery — the serving layer."""

import pytest

from repro.errors import PlanVerificationError
from repro.lint.diagnostics import PlanDiagnostic
from repro.query.engine import QueryEngine, QueryResult
from repro.query.options import ExecutionOptions
from repro.service.session import Database, PreparedQuery, Session
from repro.service.slowlog import SlowQueryLog
from repro.storage.loader import load_document
from repro.storage.serialization import save_repository
from repro.xmark.generator import generate_xmark
from repro.xmark.queries import query_text

DOC = """
<library>
  <book isbn="1"><title>Dune</title><price>9.99</price></book>
  <book isbn="2"><title>Foundation</title><price>7.5</price></book>
  <book isbn="3"><title>Hyperion</title><price>12.0</price></book>
</library>
"""

QUERY = ('for $b in /library/book where $b/title = "Dune" '
         "return $b/price/text()")


@pytest.fixture(scope="module")
def repository():
    return load_document(DOC)


@pytest.fixture
def session(repository):
    return Session(repository)


class TestExecute:
    def test_returns_query_result(self, session):
        result = session.execute("/library/book/title")
        assert isinstance(result, QueryResult)
        assert len(result) == 3

    def test_sequence_protocol(self, session):
        result = session.execute("/library/book/title/text()")
        assert result[0] == "Dune"
        assert list(result) == ["Dune", "Foundation", "Hyperion"]

    def test_matches_bare_engine(self, repository, session):
        engine = QueryEngine(repository)
        assert session.execute(QUERY).values() == \
            engine.execute(QUERY).values()

    def test_counts_executions(self, session):
        session.execute(QUERY)
        session.execute(QUERY)
        assert session.metrics.counters()["session.executions"] == 2

    def test_untraced_runs_leave_no_histograms(self, session):
        """The serving registry counts; per-operator records (spans,
        rows, batches) exist only in a traced run's own telemetry."""
        session.execute(QUERY)
        session.execute_many([QUERY, "/library/book/title"] * 2,
                             max_workers=2)
        counters = session.metrics.counters()
        assert counters["session.executions"] == 5
        assert not [name for name in [*counters, *session.metrics.gauges()]
                    if name.startswith(("span.", "op.", "lint."))]


class TestPlanCache:
    def test_warm_hit_skips_parse_and_verify(self, repository,
                                             monkeypatch):
        session = Session(repository)
        parses = []
        import repro.query.engine as engine_module
        real_parse = engine_module.parse_query
        monkeypatch.setattr(
            engine_module, "parse_query",
            lambda text: parses.append(text) or real_parse(text))
        verifies = []
        real_verify = engine_module.verify_plan
        monkeypatch.setattr(
            engine_module, "verify_plan",
            lambda tree: verifies.append(tree) or real_verify(tree))
        first = session.execute(QUERY)
        warm = [session.execute(QUERY) for _ in range(3)]
        assert [r.values() for r in warm] == \
            [first.values() for _ in range(3)]
        assert len(parses) == 1
        assert len(verifies) == 1
        counters = session.metrics.counters()
        assert counters["cache.plan.hit"] == 3
        assert counters["cache.plan.miss"] == 1
        assert counters["session.parses"] == 1

    def test_whitespace_variants_share_one_slot(self, session):
        session.execute("/library/book/title")
        session.execute("  /library/book/title \n")
        counters = session.metrics.counters()
        assert counters["cache.plan.hit"] == 1
        assert len(session.plan_cache) == 1

    def test_use_plan_cache_false_bypasses(self, repository):
        session = Session(repository)
        options = ExecutionOptions(use_plan_cache=False)
        session.execute(QUERY, options)
        session.execute(QUERY, options)
        counters = session.metrics.counters()
        assert counters.get("cache.plan.hit", 0) == 0
        assert counters["session.parses"] == 2
        assert len(session.plan_cache) == 0

    def test_verification_error_raises_at_prepare(self, repository,
                                                  monkeypatch):
        session = Session(repository)
        bad = PlanDiagnostic.make(
            "plan.missing-decompress", "XMLSerialize",
            "injected error for the prepare gate test")
        monkeypatch.setattr("repro.query.engine.verify_plan",
                            lambda tree: [bad])
        with pytest.raises(PlanVerificationError):
            session.prepare("/library/book")
        monkeypatch.undo()
        # The failed plan was never cached: prepare now succeeds.
        prepared = session.prepare("/library/book")
        assert prepared.diagnostics == []

    def test_invalidate_caches_forces_cold_run(self, session):
        session.execute(QUERY)
        session.invalidate_caches()
        session.execute(QUERY)
        counters = session.metrics.counters()
        assert counters.get("cache.plan.hit", 0) == 0
        assert counters["cache.plan.miss"] == 2


class TestPreparedQuery:
    def test_exposes_plan(self, session):
        prepared = session.prepare(QUERY)
        assert isinstance(prepared, PreparedQuery)
        assert prepared.text == QUERY
        assert prepared.ast is not None
        assert prepared.diagnostics == []

    def test_rerun_with_constant_rebinding(self, repository,
                                           monkeypatch):
        session = Session(repository)
        parses = []
        import repro.query.engine as engine_module
        real_parse = engine_module.parse_query
        monkeypatch.setattr(
            engine_module, "parse_query",
            lambda text: parses.append(text) or real_parse(text))
        prepared = session.prepare(
            "for $b in /library/book where $b/title = $t "
            "return $b/price/text()")
        assert prepared.run(bindings={"t": "Dune"}).items == ["9.99"]
        assert prepared.run(bindings={"t": "Hyperion"}).items == \
            ["12.0"]
        assert len(parses) == 1

    def test_prepare_accepts_parsed_expression(self, session):
        from repro.query.parser import parse_query
        ast = parse_query("/library/book/title/text()")
        prepared = session.prepare(ast)
        assert prepared.text is None
        assert prepared.run().items == ["Dune", "Foundation",
                                        "Hyperion"]


class TestBlockCache:
    def test_warm_materialization_hits_block_cache(self, repository):
        session = Session(repository)
        session.execute("/library/book/title").to_xml()
        cold_hits = session.metrics.counters().get("cache.block.hit",
                                                   0)
        session.execute("/library/book/title").to_xml()
        warm_hits = session.metrics.counters()["cache.block.hit"]
        assert warm_hits > cold_hits

    def test_use_block_cache_false_runs_raw_engine(self, repository):
        session = Session(repository)
        options = ExecutionOptions(use_block_cache=False)
        result = session.execute("/library/book/title", options)
        assert result._engine is not session.engine
        assert result.values() == \
            session.execute("/library/book/title").values()

    def test_resolutions_are_cached(self, repository):
        session = Session(repository)
        session.execute(QUERY)
        session.execute("/library/book")
        counters = session.metrics.counters()
        assert counters["cache.block.miss"] >= 1


class TestRecording:
    def test_journal_session_reuses_one_handle(self, repository,
                                               tmp_path):
        # A zero threshold journals every run through the slow log.
        with SlowQueryLog(tmp_path / "session.jsonl",
                          threshold_ms=0.0) as slow_log:
            session = Session(repository, slow_log=slow_log)
            for _ in range(3):
                session.execute(QUERY)
            assert slow_log.journal.opens == 1
            records = slow_log.journal.records()
        assert len(records) == 3
        # The journalled query is the original text, not an AST label.
        assert {r["query"] for r in records} == {QUERY}

    def test_untraced_run_keeps_one_set_of_books(self, session,
                                                 monkeypatch):
        """A warm untraced execute builds no registry, no tracer and
        no lock: the run's books are the eight plain counters of
        ``result.stats``; the session's shared registry already
        exists."""
        import threading

        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracer import Tracer
        for _ in range(2):  # plan + miss counters, then hit counters
            session.execute(QUERY)
        built = []

        def counting(cls):
            original = cls.__init__

            def __init__(self, *args, **kwargs):
                built.append(cls.__name__)
                original(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", __init__)

        counting(MetricsRegistry)
        counting(Tracer)
        for name in ("Lock", "RLock"):
            original = getattr(threading, name)
            monkeypatch.setattr(
                threading, name,
                lambda original=original, name=name:
                built.append(name) or original())
        result = session.execute(QUERY)
        assert result.items == ["9.99"]
        assert built == []
        assert result.telemetry is None
        assert type(result.stats).__slots__ == result.stats.FIELDS
        assert not any(isinstance(value, property) for value in
                       vars(type(result.stats)).values())
        assert result.stats.decompressions >= 1


class TestExecuteMany:
    def test_serial_path_preserves_order(self, session):
        queries = ["/library/book/title/text()",
                   "/library/book/price/text()", QUERY]
        results = session.execute_many(queries, max_workers=1)
        assert [r.items for r in results] == [
            ["Dune", "Foundation", "Hyperion"],
            ["9.99", "7.5", "12.0"],
            ["9.99"],
        ]

    def test_rejects_shared_telemetry(self, session):
        from repro.obs.telemetry import Telemetry
        options = ExecutionOptions(telemetry=Telemetry())
        with pytest.raises(ValueError, match="execute_many"):
            session.execute_many([QUERY, QUERY], options=options)


class TestAnalyze:
    def test_explain_analyze_text(self, session):
        text = session.explain_analyze(QUERY)
        assert "EXPLAIN ANALYZE" in text

    def test_explain_does_not_execute(self, session):
        plan = session.explain(QUERY)
        assert "ContAccess" in plan or "Select" in plan

    def test_explain_renders_a_plan_that_failed_verification(
            self, session, monkeypatch):
        bad = PlanDiagnostic.make(
            "plan.missing-decompress", "XMLSerialize",
            "injected error for the explain test")
        monkeypatch.setattr("repro.query.engine.verify_plan",
                            lambda tree: [bad])
        assert "StructureSummaryAccess" in session.explain(
            "/library/book")
        with pytest.raises(PlanVerificationError):
            session.analyze("/library/book")

    def test_analyze_honours_use_block_cache_false(self):
        """Like ``execute``, an analysed run with the block cache
        switched off neither reads nor fills it."""
        session = Session(load_document(generate_xmark(0.005, seed=1)))
        session.execute(query_text("Q1")).to_xml()  # warm the cache

        def block_counters():
            return {name: value for name, value
                    in session.metrics.counters().items()
                    if name.startswith("cache.block.")}

        before = block_counters()
        report = session.analyze(
            query_text("Q1"), ExecutionOptions(use_block_cache=False))
        assert block_counters() == before
        assert report.result.to_xml() == \
            session.execute(query_text("Q1")).to_xml()


class TestOnePlan:
    """A query the session holds is planned once: no view of it —
    EXPLAIN, EXPLAIN ANALYZE, the slow log — plans it again."""

    @pytest.fixture
    def plans(self, monkeypatch):
        """Every ``plan_query`` call, wherever it is made from."""
        import repro.query.engine as engine_module
        import repro.query.explain as explain_module
        from repro.query.optimizer import plan_query
        calls = []

        def counting(ast):
            calls.append(ast)
            return plan_query(ast)

        for module in (engine_module, explain_module):
            monkeypatch.setattr(module, "plan_query", counting,
                                raising=False)
        return calls

    def test_execute_plans_on_a_miss_only(self, session, plans):
        session.execute(QUERY)
        assert len(plans) == 1
        session.execute(QUERY)
        assert len(plans) == 1

    def test_explain_and_analyze_reuse_the_prepared_plan(self, session,
                                                         plans):
        session.prepare(QUERY)
        session.explain(QUERY)
        session.analyze(QUERY)
        session.explain_analyze(QUERY)
        assert len(plans) == 1

    def test_slow_log_record_reuses_the_runs_plan(self, repository,
                                                  plans):
        log = SlowQueryLog(threshold_ms=0.0, exemplar_rate=1)
        session = Session(repository, slow_log=log)
        session.prepare(QUERY)
        session.execute(QUERY)
        [record] = log.recent()
        assert record["plan_fingerprint"]
        assert record["exemplar"] is not None
        assert len(plans) == 1


class TestDecompress:
    def test_roundtrips_document(self, session):
        text = session.decompress()
        assert text.startswith("<library>")
        assert "<title>Dune</title>" in text


class TestDatabase:
    def test_from_xml_and_sessions_share_caches(self):
        database = Database.from_xml(DOC)
        first = database.session()
        second = database.session()
        first.execute(QUERY)
        second.execute(QUERY)
        counters = database.metrics.counters()
        assert counters["cache.plan.hit"] == 1
        assert counters["cache.plan.miss"] == 1
        assert first.plan_cache is database.plan_cache
        assert second.block_cache is database.block_cache

    def test_open_serialized_repository(self, repository, tmp_path):
        path = tmp_path / "lib.xqc"
        save_repository(repository, path)
        database = Database.open(path)
        session = database.session()
        assert session.execute(QUERY).items == ["9.99"]

    def test_collection_joins_across_documents(self):
        other = "<catalog><entry><ref>Dune</ref></entry></catalog>"
        repositories = {"lib": load_document(DOC),
                        "cat": load_document(other)}
        session = Database(repositories["lib"], repositories).session()
        result = session.execute(
            'for $e in document("cat")/catalog/entry, '
            "$b in /library/book "
            "where $b/title = $e/ref return $b/price/text()")
        assert result.items == ["9.99"]
