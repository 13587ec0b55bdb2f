"""One-shot layer probes of a traced run.

Layers the ops cross without a public call boundary of their own (the
XML tokenizer inside ``load_document``, a codec inside a container, the
container access path inside a predicate) are timed here from the
outside, on the workload's own documents, after the measured phase.
Each probe is repeated, bracketed by the host reference, and its
host-normalised median reported — the same protocol as set-up stages.
"""

from __future__ import annotations

import random

from repro.compression import train_codec
from repro.core.system import extract_workload
from repro.partitioning.search import greedy_search
from repro.partitioning.sharding import (
    assign_shards,
    profiles_from_repository,
)
from repro.xmlio.events import iter_events

#: codec -> the elementary type of the container it is probed on.
CODECS = {"alm": "string", "huffman": "string", "integer": "int"}
#: probe at most this much plain text per container.
_CODEC_SAMPLE_BYTES = 64 * 1024
_REPEATS = 3
_PROBE_KEYS = 1000
_PERSON_IDS = "/site/people/person/@id"


def repeat(stages, name: str, fn):
    for _ in range(_REPEATS):
        result = stages.time(name, fn)
    return result


def probe_events(stages, documents) -> dict:
    """``xmlio.events``: tokenize + well-formedness, no shredding."""
    repeat(stages, "xmlio.events.parse", lambda: [
        sum(1 for _ in iter_events(document.xml))
        for document in documents])
    size = sum(document.size for document in documents)
    return {"xmlio.events.parse_mb_s":
            size / 1e6 / stages.median_s("xmlio.events.parse")}


def container_values(container) -> list[str]:
    """A deterministic prefix of a container's plain values."""
    values, size = [], 0
    for _, value in container.scan_decoded():
        values.append(value)
        size += len(value)
        if size >= _CODEC_SAMPLE_BYTES:
            break
    return values


def largest_container(repository, value_type: str):
    matching = [c for c in repository.containers()
                if c.value_type == value_type and not c.is_blob]
    return max(matching, key=lambda c: c.uncompressed_size_bytes(),
               default=None)


def probe_codecs(stages, repositories) -> dict:
    """Train / encode / decode each codec on the largest container of
    its type in every document; times summed, ratio pooled."""
    out = {}
    for codec_name, value_type in CODECS.items():
        samples = [container_values(container)
                   for container in (largest_container(r, value_type)
                                     for r in repositories)
                   if container is not None]
        samples = [values for values in samples if values]
        prefix = f"compression.{codec_name}."
        if not samples:
            continue   # no container of that type: the metrics stay 0
        codecs = repeat(stages, prefix + "train", lambda: [
            train_codec(codec_name, values) for values in samples])
        encoded = repeat(stages, prefix + "encode", lambda: [
            [codec.encode(value) for value in values]
            for codec, values in zip(codecs, samples)])
        repeat(stages, prefix + "decode", lambda: [
            [codec.decode(item) for item in items]
            for codec, items in zip(codecs, encoded)])
        count = sum(len(values) for values in samples)
        plain = sum(len(value.encode("utf-8"))
                    for values in samples for value in values)
        packed = sum(len(item.data) for items in encoded
                     for item in items)
        out[prefix + "train_ms"] = stages.median_s(prefix + "train") * 1e3
        out[prefix + "encode_us"] = (
            stages.median_s(prefix + "encode") * 1e6 / count)
        out[prefix + "decode_us"] = (
            stages.median_s(prefix + "decode") * 1e6 / count)
        out[prefix + "ratio"] = packed / plain
    return out


def probe_repository(repositories) -> dict:
    """``size_report()`` shares, pooled over the documents."""
    reports = [r.size_report() for r in repositories]
    total = sum(report.total for report in reports)
    nodes = sum(len(r.structure) for r in repositories)
    structure = sum(report.structure_records + report.structure_index
                    for report in reports)
    containers = sum(report.container_data + report.source_models
                     for report in reports)
    return {"storage.repository.bytes_per_node": total / nodes,
            "storage.repository.structure_share": structure / total,
            "storage.repository.container_share": containers / total}


def probe_containers(stages, repository, seed: int) -> dict:
    """The access paths a point predicate should cost, on an XMark
    repository: one ``eq`` interval probe on person ids, one scan of
    the largest string container."""
    ids = repository.container(_PERSON_IDS)
    rng = random.Random(seed)
    keys = [f"person{rng.randrange(len(ids))}" for _ in range(_PROBE_KEYS)]
    found = repeat(stages, "storage.containers.probe", lambda: sum(
        sum(1 for _ in ids.interval_search(key, key)) for key in keys))
    if found != _PROBE_KEYS:
        raise AssertionError(
            f"eq probes found {found} of {_PROBE_KEYS} person ids")
    strings = largest_container(repository, "string")
    size = repeat(stages, "storage.containers.scan", lambda: sum(
        len(value) for _, value in strings.scan_decoded()))
    return {
        "storage.containers.probe_us":
            stages.median_s("storage.containers.probe") * 1e6
            / _PROBE_KEYS,
        "storage.containers.scan_mb_s":
            size / 1e6 / stages.median_s("storage.containers.scan"),
    }


def probe_partitioning(stages, repository, texts) -> dict:
    """The section-3 greedy search for the whole XMark query set."""
    profiles = profiles_from_repository(repository)
    workload = extract_workload(list(texts), repository)
    configuration, _ = repeat(
        stages, "partitioning.search.greedy",
        lambda: greedy_search(profiles, workload))
    return {"partitioning.search.greedy_ms":
            stages.median_s("partitioning.search.greedy") * 1e3,
            "partitioning.search.groups":
            float(len(configuration.groups))}


def probe_sharding(stages, repository, texts, shards: int) -> dict:
    repeat(stages, "partitioning.sharding.assign",
           lambda: assign_shards(repository, shards, queries=texts))
    return {"partitioning.sharding.assign_ms":
            stages.median_s("partitioning.sharding.assign") * 1e3}
