"""Self-tests of the benchmark harness (not part of tier-1).

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_harness.py

They pin the ledger's arithmetic on synthetic inputs — so a number in a
baseline means what the README says it means — and run every workload
end to end at smoke size.
"""

from __future__ import annotations

import json
import math
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import queries
import timing
from hostref import HostRef
from spans import Tracer, self_times

HERE = Path(__file__).resolve().parent
MANIFEST = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]


# -- percentiles --------------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (5, 0), (19, 0), (20, 50), (40, 75), (99, 89), (100, 90),
    (999, 98), (1000, 99), (10**6, 99)])
def test_ten_samples_beyond_rule(n, expected):
    assert timing.highest_supported_percentile(n) == expected


def test_summarize_reports_p90_only_with_100_samples():
    few = timing.summarize([float(i) for i in range(99)])
    many = timing.summarize([float(i) for i in range(100)])
    assert few["p90"] is None and few["highest_percentile"] == 89
    assert "p89" in few and few["n"] == 99
    assert many["p90"] == pytest.approx(89.1)
    assert many["p50"] == pytest.approx(49.5)


def test_percentile_interpolates():
    assert timing.percentile([1, 2, 3, 4], 50) == 2.5
    assert timing.percentile([4, 1], 0) == 1 and \
        timing.percentile([4, 1], 100) == 4
    with pytest.raises(ValueError):
        timing.percentile([], 50)


def test_mix_is_a_sum_and_geo_a_geometric_mean():
    p50s = [0.4, 10.0, 1000.0]
    assert timing.mix_ms(p50s) == pytest.approx(1010.4)
    assert timing.geo_ms(p50s) == pytest.approx(4000 ** (1 / 3))
    # Halving the short op moves geo by 2**(1/3), mix by almost nothing.
    halved = [0.2, 10.0, 1000.0]
    assert timing.geo_ms(p50s) / timing.geo_ms(halved) == \
        pytest.approx(2 ** (1 / 3))
    assert timing.mix_ms(halved) / timing.mix_ms(p50s) > 0.999


def test_tail_ratio_uses_the_highest_supported_percentile():
    samples = {"a": [1.0] * 90 + [3.0] * 10 + [1.0] * 10,
               "b": [2.0] * 15}      # too few for any tail: left out
    assert timing.tail_ratio(samples) == pytest.approx(
        timing.percentile(samples["a"], 90))
    assert timing.tail_ratio({"b": [2.0] * 15}) == 1.0


# -- spans ----------------------------------------------------------------------

def test_self_time_is_span_minus_what_children_cover():
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],        # overlaps a: counted once
        ["c", 9.0, 12.0, 0, 0],       # clipped to the parent
        ["a.inner", 1.5, 2.0, 1, 0],
    ]
    assert self_times(spans) == pytest.approx(
        [10 - (3 + 2 + 1), 2.5, 3.0, 3.0, 0.5])


def test_tracer_records_parent_and_op_on_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("op", op=7) as root:
        with tracer.span("layer", root, 7):
            pass
    assert tracer.spans == [["op", 0.0, 3.0, -1, 7],
                            ["layer", 1.0, 2.0, 0, 7]]
    assert self_times(tracer.spans) == [2.0, 1.0]


# -- host scaling -----------------------------------------------------------------

def test_host_factor_scales_a_slow_host_back_to_nominal():
    # A host running 1.5x slow: the kernel takes 12 ms instead of 8,
    # an op 150 ms instead of 100.
    factor = timing.host_factor(12.0, 12.0, nominal=8.0)
    assert factor == 1.5 and 150.0 / factor == 100.0
    assert timing.host_factor(8.0, 12.0, nominal=8.0) == 1.25


def test_disturbed_gate_is_relative_to_the_runs_quiet_level():
    factors = [1.0] * 8 + [1.29, 1.31]
    assert timing.disturbed(factors) == [False] * 9 + [True]
    # A uniformly slow run is not disturbed: scaling handles it.
    assert not any(timing.disturbed([1.6] * 10))
    assert timing.disturbed([]) == []


def test_reference_kernel_is_timed_on_the_given_clock():
    ticks = iter([10.0, 10.012])
    ref = HostRef(clock=lambda: next(ticks))
    assert ref.ms() == pytest.approx(12.0)
    assert isinstance(ref.kernel(), int)


# -- names and contexts -------------------------------------------------------------

def test_metric_and_workload_names_are_well_formed():
    names = [m["name"] for m in MANIFEST["end_to_end"]
             + MANIFEST["per_layer"] + MANIFEST["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
    for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert {m["name"] for m in MANIFEST["end_to_end"]} == {
        "setup_s", "mix_ms", "geo_ms", "ops_s", "stored_ratio",
        "wire_ratio", "mem_mb"}
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])


def test_compare_refuses_a_context_that_differs_beyond_the_commit():
    context = {"commit": "a", "seed": 42, "documents": [{"sha256": "x"}]}
    assert compare.context_differences(
        context, dict(context, commit="b")) == []
    assert compare.context_differences(
        context, dict(context, seed=43)) == ["seed: 42 != 43"]
    lower = {"better": "lower"}
    assert compare.worse_by(lower, 100.0, 110.0) == pytest.approx(0.10)
    assert compare.worse_by({"better": "higher"}, 100.0, 110.0) == \
        pytest.approx(-0.10)


# -- traffic ---------------------------------------------------------------------------

def test_templates_are_the_repos_queries_with_slots():
    from repro.xmark.queries import XMARK_QUERIES
    original = {"person": "person0", "bidder": "person18", "price": "40",
                "word": "gold", "region": "australia",
                "region2": "europe", "income_factor": "50",
                "income_high": "100000", "income_low": "30000"}
    texts = queries.query_texts(original)
    assert texts == {name: text
                     for name, (_, text) in XMARK_QUERIES.items()}


@pytest.mark.parametrize("seed", range(8))
def test_every_seed_draws_constants_that_find_something(seed):
    from repro.baselines.galax import GalaxEngine
    from repro.xmark import generate_xmark
    xml = generate_xmark(0.005, seed=seed)
    constants = queries.draw_constants(xml, random.Random(seed))
    assert constants == queries.draw_constants(xml, random.Random(seed))
    texts = queries.query_texts(constants)
    galax = GalaxEngine(xml)
    for name in ("Q1", "Q4", "Q14"):
        assert galax.execute_to_xml(texts[name]) != "", name


# -- end to end --------------------------------------------------------------------------

@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_the_contracted_result(workload, trace,
                                                tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--smoke", "--trace", str(trace),
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = MANIFEST["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert math.isfinite(entry["value"])
        assert trace or entry["value"] > 0
    suffix = ".trace1" if trace else ""
    output = json.loads(
        (tmp_path / f"{workload}.seed7{suffix}.json").read_text())
    assert output["context"]["workload"] == workload
    assert all(len(d["sha256"]) == 64
               for d in output["context"]["documents"])
    if trace:
        assert output["detail"]["layers"]["counts_repeat"]
        assert output["metrics"]["trace.coverage"]["value"] >= 0.9
        assert (tmp_path / f"{workload}.seed7.trace.json").is_file()
