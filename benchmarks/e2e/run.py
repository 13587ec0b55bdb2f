"""The end-to-end, layer-by-layer benchmark: one run of one workload.

    python3 benchmarks/e2e/run.py --workload select --seed 42 \\
        --seconds 20 --trace 0

Prints every metric by name with its unit, writes the full
self-describing output (context, metrics, per-op detail) under
``benchmarks/e2e/out/``, and ends with the one-line result the driver
reads.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics (and writes the span file).  ``repeat`` runs the
repeatability protocol.  README.md documents workloads, metrics and the
noise protocol.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SOURCE = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"
BASELINE = HERE / "baseline"


def manifest() -> dict:
    with open(MANIFEST) as handle:
        return json.load(handle)


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` (no subprocess; the
    driver's checkout is not a repository)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref
    return ref


def build_context(args, workload) -> dict:
    """Everything two outputs must share to be comparable."""
    import numpy
    from repro.query.batch import DEFAULT_BATCH_SIZE

    from hostref import REF_NOMINAL_MS
    return {
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "documents": [
            {"name": d.name, "factor": d.factor, "bytes": d.size,
             "sha256": d.sha256} for d in workload.documents],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "shards": workload.shards,
        "clients": workload.clients,
        "batch_width": DEFAULT_BATCH_SIZE,
        "ref_nominal_ms": REF_NOMINAL_MS,
    }


def run_workload(args) -> int:
    if not (SOURCE / "repro").is_dir():
        print(f"run.py: no program to measure at {SOURCE}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    import ledger
    import workloads
    from hostref import HostRef
    from spans import Tracer

    spec = manifest()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}"

    workload = workloads.BY_NAME[args.workload](
        args.seed, args.smoke, out_dir, HostRef())
    tracer = Tracer() if args.trace else None
    try:
        workload.setup()
        workload.timed_verify()
        gc.collect()   # drop the oracle's DOM before timing starts
        workload.measure(args.seconds, tracer)
        metrics, detail = ledger.end_to_end(workload)
        reported = [m["name"] for m in spec["end_to_end"]]
        if tracer is not None:
            # End-to-end numbers come only from untraced runs.
            reported = [m["name"] for m in spec["per_layer"]]
            metrics, detail["layers"] = ledger.per_layer(
                workload, reported)
            tracer.dump(out_dir / f"{stem}.trace.json")
    finally:
        workload.close()

    missing = [name for name in reported if name not in metrics]
    extra = [name for name in metrics if name not in units]
    if missing or extra:
        print(f"run.py: metrics differ from BENCHMARK.json: missing "
              f"{missing}, unlisted {extra}", file=sys.stderr)
        return 2

    output = {
        "context": build_context(args, workload),
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "detail": detail,
    }
    suffix = ".trace1" if args.trace else ""
    with open(out_dir / f"{stem}{suffix}.json", "w") as handle:
        json.dump(output, handle, indent=1, sort_keys=True)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} commit={output['context']['commit'][:12]}")
    for name, entry in summary_rows(detail):
        print(f"  {name:<24} {entry}")
    for name in metrics:
        print(f"{name:<46} {metrics[name]:>14.6g} {units[name]}")
    if detail["unresolved"]:
        print("UNRESOLVED: more than half the passes were disturbed; "
              "compare.py will refuse this output")
    print(json.dumps({
        "correct": output["correct"],
        "attempted": output["attempted"],
        "failed": output["failed"],
        "metrics": {name: output["metrics"][name]
                    for name in reported},
    }))
    return 0 if output["correct"] else 1


def summary_rows(detail):
    """Per-op lines: median, tail where the sample supports one."""
    for name, entry in detail["ops"].items():
        top = entry["highest_percentile"]
        tail = (f"p90 {entry['p90']:9.3f}" if entry["p90"] is not None
                else f"p{top} {entry[f'p{top}']:9.3f}" if top > 50
                else "(no tail: fewer than 10 samples beyond it)")
        yield name, f"n={entry['n']:<5} p50 {entry['p50']:9.3f} ms  {tail}"


# -- the repeatability protocol ---------------------------------------------

def one_run(workload: str, seed: int, seconds: int, trace: int,
            out: Path) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--out", str(out)],
        check=True, stdout=subprocess.DEVNULL)
    suffix = ".trace1" if trace else ""
    with open(out / f"{workload}.seed{seed}{suffix}.json") as handle:
        return json.load(handle)


def repeat(args) -> int:
    """Two interleaved sets (A1 B1 A2 B2) per workload, plus two traced
    runs whose engine counts must be identical."""
    spec = manifest()
    engine_counts = [m["name"] for m in spec["per_layer"]
                     if m["name"].startswith("query.engine.")
                     and m["unit"] == "count"]
    out = Path(args.out)
    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    worst = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        sets = {"A": [], "B": []}
        for label in "ABAB":
            sets[label].append(
                one_run(workload, args.seed, args.seconds, 0, out))
        traced = [one_run(workload, args.seed, args.seconds, 1, out)
                  for _ in range(2)]
        rows = {}
        for metric in spec["end_to_end"]:
            name, sign = metric["name"], (
                1 if metric["better"] == "lower" else -1)
            a, b = (statistics.median(r["metrics"][name]["value"]
                                      for r in sets[label])
                    for label in "AB")
            worse = sign * (b - a) / a
            rows[name] = {"A": a, "B": b, "bound": metric["bound"],
                          "apart": abs(worse),
                          "within_bound": abs(worse) <= metric["bound"]}
            worst |= not rows[name]["within_bound"]
        counts = [{name: r["metrics"][name]["value"]
                   for name in engine_counts} for r in traced]
        worst |= counts[0] != counts[1]
        report["workloads"][workload] = {
            "context": sets["A"][0]["context"],
            "end_to_end": rows,
            "engine_counts": counts,
            "engine_counts_identical": counts[0] == counts[1],
            "unresolved": [r["detail"]["unresolved"]
                           for runs in sets.values() for r in runs],
        }
        print(workload, json.dumps(rows, indent=1))
    BASELINE.mkdir(exist_ok=True)
    with open(BASELINE / "repeatability.json", "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    print("repeatability:", "FAILED" if worst else "ok")
    return int(worst)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", nargs="?", default="run",
                        choices=("run", "repeat"))
    parser.add_argument("--workload",
                        choices=("select", "join", "serve", "ingest"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny documents, 2 s: does it run at all")
    parser.add_argument("--out", default=str(HERE / "out"))
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 2 if args.smoke else manifest()["run_seconds"]
    if args.mode == "repeat":
        return repeat(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
