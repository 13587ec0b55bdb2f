"""Command-line interface: ``python -m repro <command>``.

Commands mirror how the paper's system is used:

* ``compress``   — XML file -> compressed repository (``.xqc``),
  optionally workload-driven (one query per line in a file);
* ``query``      — evaluate an XQuery over a repository;
* ``trace``      — run a query and emit its telemetry JSON;
* ``serve``      — sharded multi-process serving plane: fork N
  workers partitioned by structure-summary subtree, expose the
  coordinator's ``/metrics`` endpoint, run until interrupted;
* ``stats``      — storage occupancy breakdown of a repository;
* ``decompress`` — reconstruct the XML document from a repository;
* ``lint-plan``  — statically verify the plans a query would run as;
* ``lint-src``   — check engine-wide source invariants (Tier B lint);
* ``lint-concurrency`` — check lock discipline: no nested
  acquisition, release guarantees, guarded fields (Tier C lint);
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
from repro.obs.telemetry import Telemetry
from repro.query.engine import QueryEngine
from repro.query.options import ExecutionOptions
from repro.service.session import Session
from repro.storage.loader import load_document
from repro.storage.serialization import load_repository, save_repository
from repro.util.text import table
from repro.xmark.generator import generate_xmark

#: set by SIGINT/SIGTERM to stop a running ``repro serve`` loop; a
#: module constant so the Tier-C inventory can see it.
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
        help="check lock discipline: no nested acquisition, release "
             "guarantees, guarded fields (Tier C lint)")
    lint_conc.add_argument("paths", type=Path, nargs="*",
                           help="files/directories to lint (default: "
                                "the installed repro package)")
    lint_conc.add_argument("--json", action="store_true",
                          help="emit the full report (inventory, "
                               "nestings, diagnostics) as JSON")

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
    # Undecoded line ends: the XML parser normalizes them (XML 1.0 §2.11).
    xml_text = args.input.read_bytes().decode("utf-8")
    if args.workload is not None:
        queries = _query_lines(args.workload)
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


def _query_lines(path: Path) -> list[str]:
    """The non-blank lines of a one-query-per-line file."""
    return [line.strip() for line in
            path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


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
    return 0


def _cmd_serve(args, out) -> int:
    import signal as signal_module

    from repro.service.shards import (
        AdmissionController,
        ShardedDatabase,
    )

    repository = load_repository(args.repository)
    queries = [] if args.queries_file is None \
        else _query_lines(args.queries_file)
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
    """Per-container codec/size table plus its per-codec totals."""
    rows = []
    totals: dict[str, list[int]] = {}
    for container in repository.containers():
        sizes = [len(container), container.data_size_bytes(),
                 container.uncompressed_size_bytes()]
        codec = container.codec.name
        totals[codec] = [total + size for total, size
                         in zip(totals.get(codec, [0, 0, 0]), sizes)]
        records, compressed, plain = sizes
        ratio = f"{compressed / plain:.3f}" if plain else "n/a"
        rows.append((container.path, codec, str(records),
                     str(compressed), str(plain), ratio))
    headers = ("container", "codec", "records", "compressed_B",
               "plain_B", "ratio")
    print(file=out)
    print("-- containers --", file=out)
    for line in table(headers, rows):
        print(line, file=out)
    if totals:
        print(file=out)
        print("-- codec totals --", file=out)
        for codec, (records, compressed, plain) in sorted(totals.items()):
            print(f"{codec}: {records} records, {compressed} B "
                  f"compressed -> {plain} B plain", file=out)


def _cmd_decompress(args, out) -> int:
    text = load_repository(args.repository).to_xml()
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
              f"{len(report.edges)} nested acquisition(s)", file=out)
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
