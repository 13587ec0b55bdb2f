"""End-to-end CLI tests (compress -> stats/query/decompress)."""

import io
from pathlib import Path

import pytest

from repro.cli import main
from repro.xmlio.dom import parse
from repro.xmlio.writer import serialize

DOC = """
<library>
  <book isbn="1"><title>Dune</title><price>9.99</price></book>
  <book isbn="2"><title>Foundation</title><price>7.5</price></book>
</library>
"""


def run(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def repository_file(tmp_path):
    source = tmp_path / "lib.xml"
    source.write_text(DOC, encoding="utf-8")
    target = tmp_path / "lib.xqc"
    code, output = run("compress", str(source), str(target))
    assert code == 0 and "CF" in output
    return target


class TestCompress:
    def test_reports_sizes(self, tmp_path):
        source = tmp_path / "d.xml"
        source.write_text(DOC, encoding="utf-8")
        code, output = run("compress", str(source),
                           str(tmp_path / "d.xqc"))
        assert code == 0
        assert "compressed" in output and "->" in output

    def test_with_workload(self, tmp_path):
        source = tmp_path / "d.xml"
        source.write_text(DOC, encoding="utf-8")
        workload = tmp_path / "queries.txt"
        workload.write_text(
            'for $b in /library/book where $b/title/text() < "M" '
            "return $b/title/text()\n", encoding="utf-8")
        code, output = run("compress", str(source),
                           str(tmp_path / "d.xqc"),
                           "--workload", str(workload))
        assert code == 0
        assert "workload: 1 queries" in output


class TestQuery:
    def test_query_result(self, repository_file):
        code, output = run("query", str(repository_file),
                           "/library/book/title/text()")
        assert code == 0
        assert output.strip().splitlines() == ["Dune", "Foundation"]

    def test_query_with_stats(self, repository_file):
        code, output = run(
            "query", str(repository_file),
            'for $b in /library/book where $b/price/text() < 8 '
            "return $b/@isbn", "--stats")
        assert code == 0
        assert "2" in output
        assert "# decompressions" in output


class TestAnalyze:
    def test_query_analyze_flag(self, repository_file):
        code, output = run(
            "query", str(repository_file),
            'for $b in /library/book where $b/title/text() = "Dune" '
            "return $b/@isbn", "--analyze")
        assert code == 0
        assert "# EXPLAIN ANALYZE" in output
        assert "[actual container_accesses=" in output
        assert "# -- counters (== QueryResult.stats) --" in output
        assert output.strip().endswith("1")  # the query result itself


class TestTrace:
    def test_emits_parsable_telemetry(self, repository_file):
        import json
        code, output = run("trace", str(repository_file),
                           "/library/book/title/text()")
        assert code == 0
        doc = json.loads(output)
        assert sorted(doc) == ["diagnostics", "operators", "stats",
                               "trace"]
        assert doc["operators"]["Execute"]["count"] == 1
        assert doc["stats"]["summary_accesses"] >= 1
        # read after materialisation: the final Decompress is counted
        assert doc["stats"]["decompressions"] >= 1
        assert doc["trace"]["spans"][0]["name"] == "Query"

    def test_trace_and_analyze_quote_the_results_stats(self, tmp_path):
        """Q14 decodes its result in the final Decompress step: the
        trace JSON and the EXPLAIN ANALYZE counter section must both
        quote ``result.stats`` as read *after* ``result.items``."""
        import json
        import re

        from repro.service.session import Session
        from repro.storage.serialization import load_repository
        from repro.xmark.generator import generate_xmark
        from repro.xmark.queries import query_text
        source = tmp_path / "xmark.xml"
        source.write_text(generate_xmark(factor=0.005, seed=3),
                          encoding="utf-8")
        target = tmp_path / "xmark.xqc"
        assert run("compress", str(source), str(target))[0] == 0
        result = Session(load_repository(target)).execute(
            query_text("Q14"))
        before = result.stats.decompressions
        assert len(result.items) > 0
        assert result.stats.decompressions > before
        expected = result.stats.as_dict()

        code, output = run("trace", str(target), query_text("Q14"))
        assert code == 0
        assert json.loads(output)["stats"] == expected

        code, output = run("query", str(target), query_text("Q14"),
                           "--analyze")
        assert code == 0
        section = output.split(
            "-- counters (== QueryResult.stats) --\n", 1)[1]
        assert dict(re.findall(r"^# (\w+) +(\d+)$",
                               section.split("\n#\n", 1)[0], re.M)) \
            == {name: str(value) for name, value in expected.items()}

    def test_output_file(self, repository_file, tmp_path):
        import json
        target = tmp_path / "telemetry.json"
        code, output = run("trace", str(repository_file),
                           "/library/book/title/text()",
                           "--output", str(target))
        assert code == 0 and "wrote telemetry" in output
        doc = json.loads(target.read_text(encoding="utf-8"))
        assert doc["stats"]["decompressions"] >= 1


class TestStats:
    def test_breakdown(self, repository_file):
        code, output = run("stats", str(repository_file))
        assert code == 0
        for label in ("container data", "structure summary",
                      "compression factor"):
            assert label in output

    def test_container_table_names_codecs(self, repository_file):
        code, output = run("stats", str(repository_file))
        assert code == 0
        assert "-- containers --" in output
        title_row = next(line for line in output.splitlines()
                         if "/library/book/title/#text" in line)
        assert "alm" in title_row  # codec name in the row
        isbn_row = next(line for line in output.splitlines()
                        if "/library/book/@isbn" in line)
        assert "integer" in isbn_row

    def test_codec_totals_sum_the_container_rows(self, repository_file):
        code, output = run("stats", str(repository_file))
        assert code == 0
        lines = output.splitlines()
        start = lines.index("-- containers --") + 2  # past the title
        expected: dict[str, list[int]] = {}
        for line in lines[start:lines.index("", start)]:
            _, codec, *sizes, _ = line.split()
            totals = expected.setdefault(codec, [0, 0, 0])
            for i, size in enumerate(sizes):
                totals[i] += int(size)
        printed = lines[lines.index("-- codec totals --") + 1:]
        assert printed == [
            f"{codec}: {records} records, {compressed} B compressed "
            f"-> {plain} B plain"
            for codec, (records, compressed, plain)
            in sorted(expected.items())]


class TestDecompress:
    def test_roundtrip(self, repository_file, tmp_path):
        target = tmp_path / "roundtrip.xml"
        code, _ = run("decompress", str(repository_file), str(target))
        assert code == 0
        rebuilt = target.read_text(encoding="utf-8")
        assert serialize(parse(rebuilt)) == serialize(parse(DOC))

    def test_to_stdout(self, repository_file):
        code, output = run("decompress", str(repository_file))
        assert code == 0
        assert "<title>Dune</title>" in output

    def test_rare_constructs_fixture(self, tmp_path):
        # Comment, PI, CDATA, DOCTYPE with an internal subset, single
        # quotes, entity and character references, CRLF line ends: the
        # same files CI's telemetry-smoke job diffs.
        data = Path(__file__).parent / "data"
        assert b"\r\n" in (data / "rare_constructs.xml").read_bytes()
        target = tmp_path / "rare.xqc"
        assert run("compress", str(data / "rare_constructs.xml"),
                   str(target))[0] == 0
        code, _ = run("decompress", str(target), str(tmp_path / "out.xml"))
        assert code == 0
        assert (tmp_path / "out.xml").read_bytes() == \
            (data / "rare_constructs.expected.xml").read_bytes()


class TestXmlgen:
    def test_to_file(self, tmp_path):
        target = tmp_path / "auction.xml"
        code, output = run("xmlgen", "--factor", "0.002",
                           "--output", str(target))
        assert code == 0 and "wrote" in output
        assert parse(target.read_text(
            encoding="utf-8")).root.name == "site"

    def test_to_stdout(self):
        code, output = run("xmlgen", "--factor", "0.002")
        assert code == 0
        assert output.startswith("<site>")


class TestExplain:
    def test_query_explain_flag(self, repository_file):
        code, output = run(
            "query", str(repository_file),
            'for $b in /library/book where $b/title/text() = "Dune" '
            "return $b/@isbn", "--explain")
        assert code == 0
        assert "# plan:" in output
        assert "ContAccess" in output
        assert output.strip().endswith("1")


class TestErrors:
    def test_missing_input_file(self, tmp_path):
        import io
        err = io.StringIO()
        code = main(["compress", str(tmp_path / "ghost.xml"),
                     str(tmp_path / "out.xqc")], out=io.StringIO(),
                    err=err)
        assert code == 1
        assert "no such file" in err.getvalue()

    def test_malformed_xml(self, tmp_path):
        import io
        bad = tmp_path / "bad.xml"
        bad.write_text("<a><b></a>", encoding="utf-8")
        err = io.StringIO()
        code = main(["compress", str(bad), str(tmp_path / "o.xqc")],
                    out=io.StringIO(), err=err)
        assert code == 1
        assert "error:" in err.getvalue()

    def test_bad_query(self, repository_file):
        import io
        err = io.StringIO()
        code = main(["query", str(repository_file), "for $x return"],
                    out=io.StringIO(), err=err)
        assert code == 1

    def test_corrupt_repository(self, tmp_path):
        import io
        junk = tmp_path / "junk.xqc"
        junk.write_bytes(b"\x00" * 8192)
        err = io.StringIO()
        code = main(["stats", str(junk)], out=io.StringIO(), err=err)
        assert code == 1


class TestLintPlan:
    def test_clean_query(self, repository_file):
        code, output = run("lint-plan", str(repository_file),
                           'for $b in /library/book where '
                           '$b/title/text() = "Dune" '
                           "return $b/title/text()")
        assert code == 0
        assert "0 error(s)" in output

    def test_json_output(self, repository_file):
        import json
        code, output = run("lint-plan", "--json",
                           str(repository_file), "/library/book/title")
        assert code == 0
        document = json.loads(output)
        assert document["query"] == "/library/book/title"
        assert document["diagnostics"] == []

    def test_warning_does_not_fail(self, tmp_path):
        """Warnings print but exit 0; only errors gate the exit code."""
        source = tmp_path / "d.xml"
        source.write_text(DOC, encoding="utf-8")
        workload = tmp_path / "queries.txt"
        # A wildcard-heavy workload pushes the search toward huffman,
        # making the interval probe decompress pivots.
        workload.write_text(
            'for $b in /library/book where starts-with('
            '$b/title/text(), "Du") return $b\n' * 3, encoding="utf-8")
        target = tmp_path / "d.xqc"
        code, _ = run("compress", str(source), str(target),
                      "--workload", str(workload))
        assert code == 0
        code, output = run("lint-plan", str(target),
                           'for $b in /library/book where '
                           '$b/title/text() >= "A" return $b')
        assert code == 0
        assert "0 error(s)" in output.splitlines()[-1]


class TestLintSrc:
    def test_clean_on_installed_package(self):
        code, output = run("lint-src")
        assert code == 0
        assert "0 diagnostic(s)" in output

    def test_reports_violations(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):\n    try:\n        return x\n"
                       "    except:\n        return None\n",
                       encoding="utf-8")
        code, output = run("lint-src", str(tmp_path))
        assert code == 1
        assert "src.mutable-default" in output
        assert "src.bare-except" in output

    def test_json_output(self, tmp_path):
        import json
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):\n    return x\n", encoding="utf-8")
        code, output = run("lint-src", "--json", str(tmp_path))
        assert code == 1
        document = json.loads(output)
        assert [d["rule"] for d in document["diagnostics"]] == \
            ["src.mutable-default"]


class TestRetiredObservatory:
    def test_workload_verb_and_record_flags_rejected(
            self, repository_file):
        with pytest.raises(SystemExit) as exit_info:
            run("workload", "report", str(repository_file))
        assert exit_info.value.code == 2
        for flags in (["--record"], ["--journal", "j.jsonl"]):
            with pytest.raises(SystemExit) as exit_info:
                run("query", str(repository_file), "/library/book",
                    *flags)
            assert exit_info.value.code == 2


class TestAnalyzeExitCode:
    def test_verification_error_exits_nonzero(self, repository_file,
                                              monkeypatch):
        from repro.lint.diagnostics import PlanDiagnostic
        bad = PlanDiagnostic.make(
            "plan.merge-join-unordered", "MergeJoin",
            "injected error for the CLI gate test")
        monkeypatch.setattr("repro.query.engine.verify_plan",
                            lambda tree: [bad])
        code, output = run("query", str(repository_file),
                           "/library/book/title", "--analyze")
        assert code == 1
        assert "plan verification failed" in output
        assert "plan.merge-join-unordered" in output


class TestVerify:
    ARGS = ("verify", "--seed", "0", "--docs", "1", "--queries", "4",
            "--rounds", "1", "--values", "12")

    def test_clean_run_exits_zero(self):
        code, output = run(*self.ARGS)
        assert code == 0
        assert "mismatches=0" in output
        assert "match the plaintext reference" in output

    def test_json_report(self):
        import json
        code, output = run(*self.ARGS, "--json")
        assert code == 0
        doc = json.loads(output)
        assert doc["ok"] is True and doc["seed"] == 0

    def test_mismatch_exits_one_and_writes_corpus(self, tmp_path,
                                                  monkeypatch):
        from repro.verify.report import Mismatch
        from repro.verify import runner

        def rigged(seed, **kwargs):
            from repro.verify.report import VerifyReport
            report = VerifyReport(seed=seed)
            report.add(Mismatch(
                layer="codec", check="ineq", codec="alm",
                description="injected for the CLI gate test",
                reproducer={"values": ["b", "a"]}))
            return report

        monkeypatch.setattr(runner, "run_codec_oracle",
                            lambda seed, **kw: rigged(seed))
        monkeypatch.setattr(runner, "run_engine_oracle",
                            lambda seed, **kw: rigged(seed))
        corpus = tmp_path / "corpus"
        code, output = run(*self.ARGS, "--corpus-dir", str(corpus))
        assert code == 1
        assert "injected for the CLI gate test" in output
        assert (corpus / "summary.json").exists()
        assert any(p.name.startswith("counterexample-")
                   for p in corpus.iterdir())


class TestRetiredTimingVerbs:
    def test_verbs_rejected_and_analyze_has_no_hot_spans(
            self, repository_file):
        for verb in ("bench", "loadgen", "profile"):
            with pytest.raises(SystemExit) as exit_info:
                run(verb, str(repository_file))
            assert exit_info.value.code == 2
        with pytest.raises(SystemExit) as exit_info:
            run("query", str(repository_file), "/library/book",
                "--analyze", "--profile")
        assert exit_info.value.code == 2
        code, output = run(
            "query", str(repository_file),
            "for $b in /library/book where $b/price > 8.0 "
            "return $b/title/text()", "--analyze")
        assert code == 0
        assert "hot spans" not in output
        assert "# -- operators --" in output
        assert "# -- counters (== QueryResult.stats) --" in output
        assert "# -- compressed vs decompressed --" in output


class TestRetiredServingConsole:
    def test_perf_and_top_verbs_rejected(self, repository_file):
        for argv in (["perf", "report", str(repository_file),
                      "--query", "/library/book"],
                     ["top", str(repository_file), "--once"],
                     ["top", "http://127.0.0.1:9464", "--once"]):
            with pytest.raises(SystemExit) as exit_info:
                run(*argv)
            assert exit_info.value.code == 2
