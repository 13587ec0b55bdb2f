"""From recorded passes to named metrics.

``end_to_end`` is what a user of the system sees and comes only from
untraced passes; ``per_layer`` is where the time and the work went and
comes from a traced run's spans, counters and probes.  Metric names
are the ones ``BENCHMARK.json`` lists; ``run.py`` refuses to print a
result whose names differ from that file.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import replace

import layers
import timing
from hostref import REF_NOMINAL_MS
from spans import self_times

#: span name -> the per-pass time metric it feeds.
SPAN_METRICS = {
    "query.parser.parse": "query.parser.parse_ms",
    "lint.compile.verify": "lint.compile.verify_ms",
    "service.session.prepare_hit": "service.session.prepare_hit_ms",
    "query.engine.evaluate": "query.engine.evaluate_ms",
    "query.engine.materialize": "query.engine.materialize_ms",
    "xmlio.writer.serialize": "xmlio.writer.serialize_ms",
    "query.shipping.ship": "query.shipping.ship_ms",
    "query.shipping.receive": "query.shipping.receive_ms",
    "service.shards.route": "service.shards.route_ms",
}
ENGINE_COUNTS = ("decompressions", "compressed_comparisons",
                 "decompressed_comparisons", "container_scans",
                 "container_accesses", "summary_accesses", "hash_joins",
                 "nodes_visited", "result_items", "result_bytes")
_REPLAY = "replay:"


def good_passes(passes) -> tuple[list, float]:
    """Undisturbed passes, and the share that was disturbed."""
    flags = timing.disturbed([p.factor for p in passes])
    good = [p for p, bad in zip(passes, flags) if not bad]
    return good, (sum(flags) / len(flags) if flags else 0.0)


def op_samples(passes) -> dict[str, list[float]]:
    """Host-normalised latencies (ms) per op."""
    samples = defaultdict(list)
    for record in passes:
        for name, elapsed, factor in record.samples:
            samples[name].append(elapsed * 1e3 / factor)
    return samples


def read_status_kb(path: str, key: str) -> float:
    with open(path) as handle:
        for line in handle:
            if line.startswith(key):
                return float(line.split()[1])
    raise KeyError(f"{key} not in {path}")


def memory_mb(worker_pids) -> float:
    """Peak resident set of every process of the system, summed.

    Pages a forked worker still shares with the coordinator count
    once per process.  The workers' ``Pss`` would not double-count,
    but it is bimodal: a full collection in a worker touches every
    GC header and un-shares the whole heap (+21 MB in 4 of 10 runs).
    """
    return sum(read_status_kb(f"/proc/{pid}/status", "VmHWM:")
               for pid in ["self", *worker_pids]) / 1024.0


def end_to_end(workload) -> tuple[dict, dict]:
    """The seven end-to-end metrics, and the detail block."""
    pids = workload.worker_pids()
    memory = memory_mb(pids)   # before anything below allocates
    untraced = [p for p in workload.passes if not p.traced]
    good, disturbed_share = good_passes(untraced)
    samples = op_samples(good)
    summary = {name: timing.summarize(values)
               for name, values in sorted(samples.items())}
    p50s = [entry["p50"] for entry in summary.values()]
    # Over the median pass, not the mean: one stalled pass in a noisy
    # window would otherwise move the whole run.
    ops_per_pass = statistics.median(len(p.samples) for p in good)
    pass_s = statistics.median(p.wall / p.factor for p in good)
    wire, plain = workload.wire_and_plain_bytes()
    source = sum(document.size for document in workload.documents)
    metrics = {
        "setup_s": workload.setup_s(),
        "mix_ms": timing.mix_ms(p50s),
        "geo_ms": timing.geo_ms(p50s),
        "ops_s": ops_per_pass / pass_s,
        "stored_ratio": workload.stored_bytes() / source,
        "wire_ratio": wire / plain,
        "mem_mb": memory,
    }
    raw = op_samples([
        replace(p, samples=[(name, elapsed, 1.0)
                            for name, elapsed, _ in p.samples])
        for p in untraced])
    detail = {
        "ops": summary,
        "passes": len(untraced),
        "disturbed_share": disturbed_share,
        "unresolved": disturbed_share > 0.5,
        "verify_s": workload.verify_s,
        "setup_stages_s": {name: workload.stages.median_s(name)
                           for name in workload.setup_stages},
        "raw": {
            "mix_ms": timing.mix_ms(
                [timing.percentile(v, 50) for v in raw.values()]),
            "ops_s": (statistics.median(len(p.samples) for p in untraced)
                      / statistics.median(p.wall for p in untraced)),
            "setup_stages_s": {
                name: statistics.median(workload.stages.raw[name])
                for name in workload.setup_stages},
            "host_factor_p50": timing.percentile(
                [p.factor for p in untraced], 50),
        },
        "tail_ratio": timing.tail_ratio(samples),
        "workers_pss_mb": [
            read_status_kb(f"/proc/{pid}/smaps_rollup", "Pss:") / 1024.0
            for pid in pids],
    }
    return metrics, detail


def span_times_per_pass(workload, passes) -> dict[str, list[float]]:
    """Per span name: its summed self time (host-normalised ms) over
    one pass through the mix, for each traced pass.  Op spans are
    pooled: ``op.wall`` their durations, ``op.children`` the self time
    of the layer spans under them (local replays excluded)."""
    spans = workload.tracer.spans
    selfs = self_times(spans)
    per_pass: dict[str, list[float]] = defaultdict(list)
    for record in passes:
        totals: dict[str, float] = defaultdict(float)
        for index in range(record.first_span, record.last_span):
            name, start, end, parent, _ = spans[index]
            replay = (name if parent < 0
                      else spans[parent][0]).startswith(_REPLAY)
            share = 1.0 if replay else 1.0 / workload.mix_repeats
            if parent >= 0:
                totals[name] += selfs[index] * share
                if not replay:
                    totals["op.children"] += selfs[index] * share
            elif not replay:
                totals["op.wall"] += (end - start) * share
        for name, seconds in totals.items():
            per_pass[name].append(seconds * 1e3 / record.factor)
    return per_pass


def traced_op_samples(workload, passes) -> dict[str, list[float]]:
    """Host-normalised op-span durations (ms) per op name."""
    spans = workload.tracer.spans
    samples = defaultdict(list)
    for record in passes:
        for index in range(record.first_span, record.last_span):
            name, start, end, parent, _ = spans[index]
            if parent < 0:
                samples[name].append((end - start) * 1e3 / record.factor)
    return samples


def per_layer(workload, names) -> tuple[dict, dict]:
    """Every per-layer metric in ``names`` (0.0 where the workload
    does not cross the layer), and the detail block."""
    stages = workload.stages
    traced, disturbed_share = good_passes(
        [p for p in workload.passes if p.traced])
    untraced, _ = good_passes(
        [p for p in workload.passes if not p.traced])
    metrics = dict.fromkeys(names, 0.0)

    # -- time per layer, from spans ---------------------------------------
    per_pass = span_times_per_pass(workload, traced)
    p50 = {name: timing.percentile(values, 50)
           for name, values in per_pass.items()}
    for span_name, metric in SPAN_METRICS.items():
        metrics[metric] = p50.get(span_name, 0.0)
    metrics["trace.coverage"] = (sum(per_pass["op.children"])
                                 / sum(per_pass["op.wall"]))
    traced_ops = traced_op_samples(workload, traced)
    plain_ops = op_samples(untraced)
    traced_mix = timing.mix_ms(
        [timing.percentile(v, 50) for name, v in traced_ops.items()
         if not name.startswith(_REPLAY)])
    plain_mix = timing.mix_ms(
        [timing.percentile(v, 50) for v in plain_ops.values()])
    metrics["trace.overhead_share"] = traced_mix / plain_mix - 1.0
    metrics["service.session.p90_over_p50"] = timing.tail_ratio(plain_ops)
    factors = [p.factor for p in workload.passes]
    metrics["host.ref_ms_p50"] = (timing.percentile(factors, 50)
                                  * REF_NOMINAL_MS)
    _, metrics["host.disturbed_share"] = good_passes(workload.passes)

    # -- work per pass, from result statistics ----------------------------
    counts = [p.counts for p in workload.passes if p.traced]
    first = counts[0]
    for name in ENGINE_COUNTS:
        metrics["query.engine." + name] = float(first.get(name, 0))
    compared = (first.get("compressed_comparisons", 0)
                + first.get("decompressed_comparisons", 0))
    if compared:
        metrics["query.engine.compressed_share"] = (
            first["compressed_comparisons"] / compared)
    items = first.get("result_items", 0)
    if items:
        metrics["query.engine.decompressions_per_item"] = (
            first.get("decompressions", 0) / items)
        metrics["query.engine.nodes_per_item"] = (
            first.get("nodes_visited", 0) / items)

    # -- caches, shards, storage, codecs ----------------------------------
    counters, resident = workload.cache_counters()
    metrics.update(cache_metrics(counters, resident))
    if workload.shards:
        metrics.update(shard_metrics(workload, p50, counters))
    document_bytes = sum(d.size for d in workload.documents)
    metrics.update(layers.probe_events(stages, workload.documents))
    repositories = workload.probe_repositories()
    metrics.update(layers.probe_repository(repositories))
    metrics.update(layers.probe_codecs(stages, repositories))
    load_s, save_s, open_s = workload.storage_seconds(p50)
    parse_s = stages.median_s("xmlio.events.parse")
    metrics["storage.loader.load_mb_s"] = document_bytes / 1e6 / load_s
    metrics["storage.loader.shred_seal_ms"] = (load_s - parse_s) * 1e3
    metrics["storage.serialization.save_ms"] = save_s * 1e3
    metrics["storage.serialization.open_ms"] = open_s * 1e3
    xmark = repositories[0]
    metrics.update(layers.probe_containers(stages, xmark, workload.seed))
    metrics.update(layers.probe_partitioning(stages, xmark,
                                             workload.xmark_texts()))

    detail = {
        "traced_passes": len(counts),
        "counts_repeat": all(c == first for c in counts),
        "disturbed_share": disturbed_share,
        "span_ms_per_pass_p50": dict(sorted(p50.items())),
        "traced_ops": {name: timing.summarize(values)
                       for name, values in sorted(traced_ops.items())},
        "probe_stage_s": {name: stages.median_s(name)
                          for name in sorted(stages.samples)},
        "spans": len(workload.tracer.spans),
    }
    return metrics, detail


def cache_metrics(counters: dict, resident: int) -> dict:
    out = {"service.cache.block_resident_mb": resident / 1e6}
    for kind in ("plan", "block"):
        hits = counters.get(f"cache.{kind}.hit", 0)
        total = hits + counters.get(f"cache.{kind}.miss", 0)
        out[f"service.cache.{kind}_hit_rate"] = (hits / total
                                                 if total else 0.0)
    return out


def shard_metrics(workload, p50, shipping: dict) -> dict:
    """The shard plane's metrics (``serve`` only); ``shipping`` holds
    the coordinator's counters over the measured phase."""
    stages = workload.stages
    counters = workload.plane.metrics.counters()
    queries = counters.get("coordinator.queries", 0)
    routed = [counters.get(f"shard.{i}.routed", 0)
              for i in range(workload.shards)]
    # What the coordinator waited for, minus what the same ops cost
    # replayed in this process: pipe, queueing behind the other
    # client, worker scheduling.
    replayed = sum(p50.get(name, 0.0) for name in (
        "service.session.prepare_hit", "query.engine.evaluate",
        "query.shipping.ship", "query.shipping.receive"))
    out = {
        "service.shards.transport_ms":
            p50["service.shards.execute"] - replayed,
        "service.shards.routed_share_max": max(routed) / queries,
        "service.shards.cross_shard_share":
            counters.get("coordinator.cross_shard_queries", 0) / queries,
        "service.shards.admission_rejects":
            float(workload.admission_rejects),
        "service.shards.start_ms":
            stages.median_s("ShardedDatabase.start") * 1e3,
        "query.shipping.wire_bytes":
            float(shipping["shipping.wire_bytes"]),
        "query.shipping.plain_bytes":
            float(shipping["shipping.plain_bytes"]),
        "query.shipping.compressed_value_bytes":
            float(shipping["shipping.compressed_value_bytes"]),
    }
    out.update(layers.probe_sharding(
        stages, workload.repository,
        [op.text for op in workload.ops], workload.shards))
    return out
