"""Command-line interface: ``python -m repro <command>``.

Commands mirror how the paper's system is used:

* ``compress``   — XML file -> compressed repository (``.xqc``),
  optionally workload-driven (one query per line in a file);
* ``query``      — evaluate an XQuery over a repository;
* ``trace``      — run a query and emit its telemetry JSON;
* ``perf``       — serving SLO report (per-query-class latency
  quantiles, cache hit rates) over a batch of queries;
* ``top``        — live serving console: QPS, rolling latency
  percentiles, cache hit rates, latest slow queries — over an
  in-process repository or a scraped ``/metrics`` endpoint;
* ``serve``      — sharded multi-process serving plane: fork N
  workers partitioned by structure-summary subtree, expose the
  coordinator's ``/metrics`` endpoint, run until interrupted;
* ``stats``      — storage occupancy breakdown of a repository;
* ``decompress`` — reconstruct the XML document from a repository;
* ``lint-plan``  — statically verify the plans a query would run as;
* ``lint-src``   — check engine-wide source invariants (Tier B lint);
* ``lint-concurrency`` — check lock discipline: acquisition order,
  release guarantees, guarded fields (Tier C lint);
* ``verify``     — differential correctness oracle: compressed-domain
  evaluation vs a decompress-first reference (CI ``verify-oracle``);
* ``xmlgen``     — generate an XMark auction document.
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path

from repro.core.system import tuned_configuration
from repro.errors import XQueCError
from repro.obs import runtime
from repro.obs.telemetry import Telemetry
from repro.query.engine import QueryEngine
from repro.query.options import ExecutionOptions
from repro.service.session import Session
from repro.storage.loader import load_document
from repro.storage.serialization import load_repository, save_repository
from repro.util.text import table
from repro.xmark.generator import generate_xmark

#: set by SIGINT/SIGTERM to stop a running ``repro serve`` loop; a
#: module constant so the Tier-C inventory and watchdog can see it.
_SERVE_STOP = threading.Event()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XQueC: query evaluation over compressed XML "
                    "(EDBT 2004 reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)

    compress = commands.add_parser(
        "compress", help="compress an XML file into a repository")
    compress.add_argument("input", type=Path, help="XML file")
    compress.add_argument("output", type=Path,
                          help="repository file (.xqc)")
    compress.add_argument("--workload", type=Path, default=None,
                          help="file with one XQuery per line driving "
                               "the compression configuration")

    query = commands.add_parser(
        "query", help="evaluate an XQuery over a repository")
    query.add_argument("repository", type=Path)
    query.add_argument("xquery", help="the query text")
    query.add_argument("--stats", action="store_true",
                       help="print evaluation statistics")
    query.add_argument("--explain", action="store_true",
                       help="print the evaluation strategy first")
    query.add_argument("--analyze", action="store_true",
                       help="run with telemetry and print the plan "
                            "annotated with actual counts and timings")

    perf = commands.add_parser(
        "perf", help="serving performance reports (SLOs)")
    perf_commands = perf.add_subparsers(dest="perf_command",
                                        required=True)
    perf_report = perf_commands.add_parser(
        "report",
        help="run a query batch through a session and report "
             "per-query-class latency quantiles + cache hit rates")
    perf_report.add_argument("repository", type=Path)
    perf_report.add_argument("--query", action="append", default=None,
                             help="a query to serve (repeatable)")
    perf_report.add_argument("--queries-file", type=Path, default=None,
                             help="file with one query per line")
    perf_report.add_argument("--repeat", type=int, default=3,
                             help="how many times to serve the batch "
                                  "(default 3)")
    perf_report.add_argument("--workers", type=int, default=4,
                             help="execute_many thread-pool width "
                                  "(default 4)")
    perf_report.add_argument("--slo", action="append", default=None,
                             help="latency objective CLASS:pNN:MILLIS "
                                  "(e.g. point:p95:5; repeatable; "
                                  "exit 1 on violation)")
    perf_report.add_argument("--json", action="store_true",
                             help="emit the report as JSON")

    top = commands.add_parser(
        "top",
        help="live serving console: QPS, rolling latency "
             "percentiles, cache hit rates, latest slow queries")
    top.add_argument("target",
                     help="a repository path (drive it in-process "
                          "with --query/--queries-file) or the "
                          "http://host:port of a running process's "
                          "telemetry endpoint (scrape mode)")
    top.add_argument("--query", action="append", default=None,
                     help="a query to drive each tick in local mode "
                          "(repeatable)")
    top.add_argument("--queries-file", type=Path, default=None,
                     help="file with one query per line (local mode)")
    top.add_argument("--workers", type=int, default=4,
                     help="execute_many thread-pool width in local "
                          "mode (default 4)")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between refreshes (default 2)")
    top.add_argument("--once", action="store_true",
                     help="render one snapshot and exit (scriptable)")
    top.add_argument("--slow-ms", type=float, default=None,
                     help="local mode: slow-query threshold in ms "
                          "(default 100)")

    serve = commands.add_parser(
        "serve",
        help="sharded multi-process serving plane over a repository")
    serve.add_argument("repository", type=Path)
    serve.add_argument("--shards", type=int, default=2,
                       help="worker processes to fork (default 2)")
    serve.add_argument("--queries-file", type=Path, default=None,
                       help="file with one query per line driving "
                            "the subtree shard placement")
    serve.add_argument("--port", type=int, default=9464,
                       help="telemetry endpoint port (default 9464; "
                            "0 picks an ephemeral port)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--max-inflight", type=int, default=64,
                       help="admission control: global in-flight "
                            "query limit (default 64)")
    serve.add_argument("--per-client", type=int, default=8,
                       help="admission control: per-client in-flight "
                            "quota (default 8)")

    trace = commands.add_parser(
        "trace", help="run a query and emit its telemetry JSON")
    trace.add_argument("repository", type=Path)
    trace.add_argument("xquery", help="the query text")
    trace.add_argument("--output", type=Path, default=None,
                       help="write JSON here (stdout if omitted)")
    trace.add_argument("--indent", type=int, default=2,
                       help="JSON indentation (default 2)")

    stats = commands.add_parser(
        "stats", help="storage occupancy breakdown")
    stats.add_argument("repository", type=Path)

    decompress = commands.add_parser(
        "decompress", help="reconstruct the XML document")
    decompress.add_argument("repository", type=Path)
    decompress.add_argument("output", type=Path, nargs="?",
                            help="output file (stdout if omitted)")

    lint_plan = commands.add_parser(
        "lint-plan",
        help="statically verify the plans a query would run as")
    lint_plan.add_argument("repository", type=Path)
    lint_plan.add_argument("xquery", help="the query text")
    lint_plan.add_argument("--json", action="store_true",
                           help="emit diagnostics as JSON")

    lint_src = commands.add_parser(
        "lint-src",
        help="check engine-wide source invariants (Tier B lint)")
    lint_src.add_argument("paths", type=Path, nargs="*",
                          help="files/directories to lint (default: "
                               "the installed repro package)")
    lint_src.add_argument("--json", action="store_true",
                          help="emit diagnostics as JSON")

    lint_conc = commands.add_parser(
        "lint-concurrency",
        help="check lock discipline: acquisition order, release "
             "guarantees, guarded fields (Tier C lint)")
    lint_conc.add_argument("paths", type=Path, nargs="*",
                           help="files/directories to lint (default: "
                                "the installed repro package)")
    lint_conc.add_argument("--json", action="store_true",
                          help="emit the full report (inventory, "
                               "edges, levels, diagnostics) as JSON")

    verify = commands.add_parser(
        "verify",
        help="differential oracle: compressed-domain evaluation vs a "
             "decompress-first reference")
    verify.add_argument("--seed", type=int, default=0,
                        help="everything derives from this (default 0)")
    verify.add_argument("--docs", type=int, default=25,
                        help="generated documents for the engine "
                             "oracle (default 25)")
    verify.add_argument("--queries", type=int, default=40,
                        help="queries per document (default 40)")
    verify.add_argument("--values", type=int, default=48,
                        help="values per codec-oracle round "
                             "(default 48)")
    verify.add_argument("--rounds", type=int, default=3,
                        help="codec-oracle rounds per codec "
                             "(default 3)")
    verify.add_argument("--scale", type=int, default=10,
                        help="entities per generated document "
                             "(default 10)")
    verify.add_argument("--corpus-dir", type=Path, default=None,
                        help="write minimized counterexamples here "
                             "when mismatches are found")
    verify.add_argument("--json", action="store_true",
                        help="emit the full report as JSON")

    xmlgen = commands.add_parser(
        "xmlgen", help="generate an XMark auction document")
    xmlgen.add_argument("--factor", type=float, default=0.01,
                        help="scale factor (1.0 ~ 11 MB)")
    xmlgen.add_argument("--seed", type=int, default=42)
    xmlgen.add_argument("--output", type=Path, default=None,
                        help="output file (stdout if omitted)")
    return parser


def main(argv: list[str] | None = None,
         out=sys.stdout, err=sys.stderr) -> int:
    args = build_parser().parse_args(argv)
    commands = {
        "compress": _cmd_compress,
        "query": _cmd_query,
        "perf": _cmd_perf,
        "top": _cmd_top,
        "serve": _cmd_serve,
        "trace": _cmd_trace,
        "stats": _cmd_stats,
        "decompress": _cmd_decompress,
        "lint-plan": _cmd_lint_plan,
        "lint-src": _cmd_lint_src,
        "lint-concurrency": _cmd_lint_concurrency,
        "verify": _cmd_verify,
        "xmlgen": _cmd_xmlgen,
    }
    try:
        return commands[args.command](args, out)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=err)
        return 1
    except XQueCError as exc:
        print(f"error: {exc}", file=err)
        return 1


def _cmd_compress(args, out) -> int:
    xml_text = args.input.read_text(encoding="utf-8")
    if args.workload is not None:
        queries = [line.strip() for line in
                   args.workload.read_text(encoding="utf-8").splitlines()
                   if line.strip()]
        config = tuned_configuration(load_document(xml_text), queries)
        repository = load_document(xml_text, configuration=config)
        print(f"workload: {len(queries)} queries, "
              f"{len(config.groups)} container groups", file=out)
    else:
        repository = load_document(xml_text)
    save_repository(repository, args.output)
    report = repository.size_report()
    print(f"compressed {report.original} -> {report.total} bytes "
          f"(CF {report.compression_factor:.3f})", file=out)
    return 0


def _cmd_query(args, out) -> int:
    repository = load_repository(args.repository)
    session = Session(repository)
    if args.analyze:
        from repro.errors import PlanVerificationError
        try:
            report = session.analyze(args.xquery)
        except PlanVerificationError as exc:
            # Surface what the verifier found instead of masking the
            # failure behind a bare error line — and exit non-zero.
            print("# EXPLAIN ANALYZE aborted: plan verification "
                  "failed", file=out)
            for diagnostic in exc.diagnostics:
                print(f"# {diagnostic.format()}", file=out)
            return 1
        for line in report.text.splitlines():
            print(f"# {line}" if line else "#", file=out)
        print(report.result.to_xml(), file=out)
        return 0  # error diagnostics never get past the gate
    if args.explain:
        print("# plan:", file=out)
        for line in session.explain(args.xquery).splitlines():
            print(f"#   {line}", file=out)
    result = session.execute(args.xquery)
    print(result.to_xml(), file=out)
    if args.stats:
        stats = result.stats
        print(f"# compressed comparisons: "
              f"{stats.compressed_comparisons}", file=out)
        print(f"# decompressions:         {stats.decompressions}",
              file=out)
        print(f"# summary accesses:       {stats.summary_accesses}",
              file=out)
        print(f"# container accesses:     {stats.container_accesses}",
              file=out)
        print(f"# container scans:        {stats.container_scans}",
              file=out)
        print(f"# hash joins:             {stats.hash_joins}",
              file=out)
    return 0


def _cmd_perf(args, out) -> int:
    import json

    from repro.service.slo import LatencyObjective, render_slo_report

    queries = _read_query_mix(args)
    if not queries:
        print("error: perf report needs --query or --queries-file",
              file=out)
        return 1
    try:
        objectives = [LatencyObjective.parse(spec)
                      for spec in args.slo or []]
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 1
    repository = load_repository(args.repository)
    session = Session(repository)
    for _ in range(max(args.repeat, 1)):
        for result in session.execute_many(queries,
                                           max_workers=args.workers):
            len(result.items)
    report = session.slo_report(objectives)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True), file=out)
    else:
        print(render_slo_report(report), file=out)
    return 1 if any(not check["ok"]
                    for check in report["objectives"]) else 0


def _cmd_top(args, out) -> int:
    from repro.service.top import build_source, run_top

    queries = _read_query_mix(args)
    try:
        source = build_source(args.target, queries=queries,
                              workers=args.workers,
                              slow_threshold_ms=args.slow_ms)
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 1
    return run_top(source, out, interval=args.interval,
                   once=args.once)


def _read_query_mix(args) -> list[str]:
    """``--query`` values plus the non-blank lines of ``--queries-file``."""
    queries = list(getattr(args, "query", None) or [])
    if args.queries_file is not None:
        queries.extend(
            line.strip() for line in
            args.queries_file.read_text(encoding="utf-8").splitlines()
            if line.strip())
    return queries


def _cmd_serve(args, out) -> int:
    import signal as signal_module

    from repro.service.shards import (
        AdmissionController,
        ShardedDatabase,
    )

    repository = load_repository(args.repository)
    queries = _read_query_mix(args)
    admission = AdmissionController(max_inflight=args.max_inflight,
                                    per_client=args.per_client)
    database = ShardedDatabase(repository, shard_count=args.shards,
                               queries=queries, admission=admission)
    for shard in database.assignment.to_dict()["shards"]:
        print(f"shard {shard['shard']}: "
              f"{', '.join(shard['subtrees']) or '(hash overflow)'} "
              f"(weight {shard['weight']})", file=out)
    stop = _SERVE_STOP
    stop.clear()

    def _on_signal(signum, frame):  # noqa: ARG001
        stop.set()

    signal_module.signal(signal_module.SIGTERM, _on_signal)
    signal_module.signal(signal_module.SIGINT, _on_signal)
    with database:
        server = database.serve_telemetry(port=args.port,
                                          host=args.host)
        print(f"serving {args.shards} shards; telemetry on "
              f"http://{args.host}:{server.port}/metrics "
              f"(SIGINT/SIGTERM stops)", file=out, flush=True)
        while not stop.wait(1.0):
            database.gather_metrics()
    print("stopped", file=out)
    return 0


def _cmd_trace(args, out) -> int:
    repository = load_repository(args.repository)
    session = Session(repository)
    telemetry = Telemetry()
    with runtime.activated(telemetry):
        with telemetry.span("Query", query=args.xquery):
            result = session.execute(
                args.xquery, ExecutionOptions(telemetry=telemetry))
            result.items  # force the final Decompress step
    text = telemetry.to_json(indent=args.indent or None)
    if args.output is not None:
        args.output.write_text(text + "\n", encoding="utf-8")
        print(f"wrote telemetry to {args.output}", file=out)
    else:
        print(text, file=out)
    return 0


def _cmd_stats(args, out) -> int:
    repository = load_repository(args.repository)
    report = repository.size_report()
    rows = [
        ("name dictionary", report.name_dictionary),
        ("structure records", report.structure_records),
        ("B+ index", report.structure_index),
        ("container data", report.container_data),
        ("source models", report.source_models),
        ("structure summary", report.summary),
        ("total", report.total),
        ("original document", report.original),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name.ljust(width)}  {value:>12}", file=out)
    print(f"{'compression factor'.ljust(width)}  "
          f"{report.compression_factor:>12.3f}", file=out)
    print(f"{'containers'.ljust(width)}  "
          f"{len(repository.containers()):>12}", file=out)
    print(f"{'nodes'.ljust(width)}  "
          f"{len(repository.structure):>12}", file=out)
    _print_container_table(repository, out)
    return 0


def _print_container_table(repository, out) -> None:
    """Per-container codec/size table plus per-codec decode totals.

    Sizing a container's plain text decodes every value, so the scan
    runs under an active telemetry; the codec totals printed afterwards
    come from the registry those decodes populated.
    """
    telemetry = Telemetry()
    rows = []
    with runtime.activated(telemetry):
        for container in repository.containers():
            compressed = container.data_size_bytes()
            plain = container.uncompressed_size_bytes()
            ratio = f"{compressed / plain:.3f}" if plain else "n/a"
            rows.append((container.path, container.codec.name,
                          str(len(container)), str(compressed),
                          str(plain), ratio))
    headers = ("container", "codec", "records", "compressed_B",
               "plain_B", "ratio")
    print(file=out)
    print("-- containers --", file=out)
    for line in table(headers, rows):
        print(line, file=out)
    counters = telemetry.metrics.counters()
    codec_names = sorted({name.split(".")[1] for name in counters
                          if name.startswith("codec.")})
    if codec_names:
        print(file=out)
        print("-- codec totals (from registry) --", file=out)
        for codec in codec_names:
            calls = counters.get(f"codec.{codec}.decode.calls", 0)
            packed = counters.get(
                f"codec.{codec}.decode.compressed_bytes", 0)
            plain = counters.get(f"codec.{codec}.decode.plain_chars", 0)
            print(f"{codec}: {calls} decodes, {packed} B compressed "
                  f"-> {plain} chars", file=out)


def _cmd_decompress(args, out) -> int:
    repository = load_repository(args.repository)
    text = Session(repository).decompress()
    if args.output is not None:
        args.output.write_text(text, encoding="utf-8")
    else:
        print(text, file=out)
    return 0


def _cmd_lint_plan(args, out) -> int:
    import json

    repository = load_repository(args.repository)
    engine = QueryEngine(repository)
    diagnostics = engine.verify(args.xquery)
    if args.json:
        print(json.dumps({
            "query": args.xquery,
            "diagnostics": [d.to_dict() for d in diagnostics],
        }, indent=2, sort_keys=True), file=out)
    else:
        for diagnostic in diagnostics:
            print(diagnostic.format(), file=out)
        errors = sum(d.severity == "error" for d in diagnostics)
        print(f"{len(diagnostics)} diagnostic(s), {errors} error(s)",
              file=out)
    return 1 if any(d.severity == "error" for d in diagnostics) else 0


def _cmd_lint_src(args, out) -> int:
    import json

    from repro.lint import lint_paths

    paths = list(args.paths)
    if not paths:
        import repro
        paths = [Path(repro.__file__).parent]
    diagnostics = lint_paths(paths)
    if args.json:
        print(json.dumps({
            "paths": [str(p) for p in paths],
            "diagnostics": [d.to_dict() for d in diagnostics],
        }, indent=2, sort_keys=True), file=out)
    else:
        for diagnostic in diagnostics:
            print(diagnostic.format(), file=out)
        print(f"{len(diagnostics)} diagnostic(s) in "
              f"{len(paths)} path(s)", file=out)
    return 1 if diagnostics else 0


def _cmd_lint_concurrency(args, out) -> int:
    import json

    from repro.lint.concurrency import lint_concurrency

    paths = list(args.paths)
    if not paths:
        import repro
        paths = [Path(repro.__file__).parent]
    report = lint_concurrency(paths)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True),
              file=out)
    else:
        for diagnostic in report.diagnostics:
            print(diagnostic.format(), file=out)
        locks = sum(p.kind in ("Lock", "RLock")
                    for p in report.primitives)
        print(f"{len(report.diagnostics)} diagnostic(s); "
              f"{len(report.primitives)} primitive(s) "
              f"({locks} locks), "
              f"{len(report.edges)} acquisition edge(s)", file=out)
    return 0 if report.ok else 1


def _cmd_verify(args, out) -> int:
    from repro.verify import run_verify, write_corpus

    def progress(stage: str, done: int, total: int) -> None:
        if stage == "codec":
            print("verify: codec oracle done", file=out, flush=True)
        elif done == total or done % 5 == 0:
            print(f"verify: engine oracle {done}/{total} documents",
                  file=out, flush=True)

    report = run_verify(seed=args.seed, docs=args.docs,
                        queries=args.queries,
                        codec_rounds=args.rounds,
                        codec_values=args.values, scale=args.scale,
                        progress=None if args.json else progress)
    if args.json:
        print(report.to_json(), file=out)
    else:
        print(report.render_text(), file=out)
    if not report.ok and args.corpus_dir is not None:
        written = write_corpus(report, args.corpus_dir)
        print(f"wrote {len(written)} corpus file(s) to "
              f"{args.corpus_dir}", file=out)
    return 0 if report.ok else 1


def _cmd_xmlgen(args, out) -> int:
    text = generate_xmark(factor=args.factor, seed=args.seed)
    if args.output is not None:
        args.output.write_text(text, encoding="utf-8")
        print(f"wrote {len(text)} chars to {args.output}", file=out)
    else:
        print(text, file=out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
