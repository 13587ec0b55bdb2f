"""Compare two outputs of ``run.py``: before and after a change.

    python3 benchmarks/e2e/compare.py out/select.seed42.json \\
        other/select.seed42.json

Refuses (exit 2) when the two context blocks differ in anything but
the commit — another seed, document, duration, host shape or reference
constant means the numbers do not measure the same thing — and when
either run was unresolved.  Otherwise prints every shared metric with
its unit and, for end-to-end metrics, whether the second is worse than
the first by more than the bound ``BENCHMARK.json`` fixes (exit 1).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def context_differences(first: dict, second: dict) -> list[str]:
    """Context keys (other than the commit) on which two outputs differ."""
    keys = sorted((set(first) | set(second)) - {"commit"})
    return [f"{key}: {first.get(key)!r} != {second.get(key)!r}"
            for key in keys if first.get(key) != second.get(key)]


def worse_by(metric: dict, before: float, after: float) -> float:
    """How much worse ``after`` is, as a share of ``before`` (negative
    when it is better)."""
    change = (after - before) / before if before else 0.0
    return change if metric["better"] == "lower" else -change


def compare(first: dict, second: dict, spec: dict) -> int:
    differences = context_differences(first["context"],
                                      second["context"])
    if differences:
        print("refusing to compare: contexts differ\n  "
              + "\n  ".join(differences))
        return 2
    for label, output in (("first", first), ("second", second)):
        if output["detail"]["unresolved"]:
            print(f"refusing to compare: the {label} run is unresolved "
                  "(more than half its passes were disturbed)")
            return 2
        if not output["correct"]:
            print(f"refusing to compare: the {label} run had "
                  f"{output['failed']} failed ops")
            return 2
    print(f"{first['context']['commit'][:12]} -> "
          f"{second['context']['commit'][:12]}  "
          f"{first['context']['workload']} seed "
          f"{first['context']['seed']}")
    regressed = False
    for metric in spec["end_to_end"] + spec["per_layer"]:
        name = metric["name"]
        if name not in first["metrics"] or name not in second["metrics"]:
            continue
        before = first["metrics"][name]["value"]
        after = second["metrics"][name]["value"]
        worse = worse_by(metric, before, after)
        verdict = ""
        if "bound" in metric:
            verdict = ("REGRESSED" if worse > metric["bound"]
                       else f"within {metric['bound']:.2f}")
            regressed |= worse > metric["bound"]
        print(f"{name:<46} {before:>12.6g} -> {after:>12.6g} "
              f"{metric['unit']:<6} {worse:+8.1%} worse  {verdict}")
    return int(regressed)


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__)
        return 2
    outputs = []
    for path in paths:
        with open(path) as handle:
            outputs.append(json.load(handle))
    with open(MANIFEST) as handle:
        spec = json.load(handle)
    return compare(*outputs, spec)


if __name__ == "__main__":
    sys.exit(main())
