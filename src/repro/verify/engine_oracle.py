"""Engine-layer differential oracle.

Runs generated documents × generated queries through two evaluation
paths and diffs the outcomes:

* **compressed-domain** — :class:`~repro.query.engine.QueryEngine`
  over :func:`~repro.storage.loader.load_document`, once with the
  default (ALM) string codec and once forcing Huffman, so both the
  order-preserving and the prefix-code fast paths are exercised;
* **decompress-first reference** — the repository is fully
  reconstructed to XML (``materialize_node`` + serialize) and the
  query is evaluated by the naive plaintext
  :class:`~repro.baselines.galax.GalaxEngine`.

Agreement means byte-equal serialized results, or the same
:class:`~repro.errors.XQueCError` subclass when both sides raise.  A
mismatch is delta-debugged to a minimal entity list and blamed on the
containers the compressed run touched (with their codecs) and the
access-path operator involved.
"""

from __future__ import annotations

import random

from repro.baselines.galax import GalaxEngine
from repro.errors import XQueCError
from repro.query.context import EvaluationStats
from repro.query.engine import QueryEngine
from repro.storage.loader import load_document
from repro.verify.documents import (
    entity_list,
    from_entity_list,
    generate_entities,
    render_xml,
)
from repro.verify.minimize import ddmin
from repro.verify.queries import generate_queries
from repro.verify.report import Mismatch, VerifyReport
from repro.xmlio.writer import serialize

#: string-codec variants the compressed path runs under.
VARIANTS = ("alm", "huffman")


#: container reads the blame watches, by the access they stand for.
_READS = {"scan": "scans", "as_arrays": "scans",
          "record_at": "record_reads", "value_at": "record_reads"}

#: container interval probes (a ``ContAccess``).
_PROBES = ("interval_bounds", "interval_search")


class _BlameRecorder:
    """Collects the container activity of one compressed run.

    Wraps the read methods of every container of ``repository`` (a
    throwaway load, so nothing else sees the wrappers): reads land in
    ``accesses`` as ``(path, kind)``, interval probes in
    ``predicates`` as ``(path, "eq" | "ineq")``.
    """

    def __init__(self, repository=None):
        self.accesses: list[tuple[str, str]] = []
        self.predicates: list[tuple[str, str]] = []
        if repository is not None:
            for path in repository.container_paths():
                self._watch(repository.container(path))

    def _watch(self, container) -> None:
        path = container.path
        for name, kind in _READS.items():
            _log_calls(container, name, self.accesses,
                       lambda *_, kind=kind, **__: (path, kind))
        for name in _PROBES:
            _log_calls(container, name, self.predicates,
                       lambda low, high, low_inclusive=True,
                       high_inclusive=True: (path, "eq" if (
                           low is not None and low == high
                           and low_inclusive and high_inclusive)
                           else "ineq"))


def _log_calls(container, name: str, log: list, entry) -> None:
    """Shadow ``container.name`` with a wrapper appending
    ``entry(*args)`` to ``log`` before each call."""
    method = getattr(container, name)

    def logged(*args, **kwargs):
        log.append(entry(*args, **kwargs))
        return method(*args, **kwargs)

    setattr(container, name, logged)


def _outcome(run) -> tuple[str, str]:
    """Categorized result: ("ok", xml) / ("error", ExcName) / crash."""
    try:
        return ("ok", run())
    except XQueCError as exc:
        return ("error", type(exc).__name__)
    except Exception as exc:  # noqa: BLE001 — crash parity is the point
        return ("crash", f"{type(exc).__name__}: {exc}")


def _reference_xml(repository) -> str:
    """The forced decompress-first document text."""
    engine = QueryEngine(repository)
    return serialize(engine.materialize_node(0, EvaluationStats()))


def _run_pair(xml: str, query: str, codec_variant: str
              ) -> tuple[tuple[str, str], tuple[str, str]]:
    repository = load_document(xml, default_string_codec=codec_variant)
    engine = QueryEngine(repository)
    compressed_outcome = _outcome(
        lambda: engine.execute(query).to_xml())
    reference = GalaxEngine(_reference_xml(repository))
    reference_outcome = _outcome(lambda: reference.execute_to_xml(query))
    return compressed_outcome, reference_outcome


def _blame(xml: str, query: str, codec_variant: str
           ) -> tuple[str, str | None, str | None]:
    """(codec, container, plan node) the mismatching run touched."""
    try:
        repository = load_document(xml,
                                   default_string_codec=codec_variant)
    except Exception:  # noqa: BLE001 — blame is best-effort
        return (codec_variant, None, None)
    recorder = _BlameRecorder(repository)
    _outcome(lambda: QueryEngine(repository).execute(query).to_xml())
    paths = {path for path, _ in recorder.accesses}
    paths |= {path for path, _ in recorder.predicates}
    codecs = sorted({repository.container(path).codec.name
                     for path in paths})
    container = ",".join(sorted(paths)) if paths else None
    return (",".join(codecs) or codec_variant, container,
            _plan_node(recorder))


def _plan_node(recorder: _BlameRecorder) -> str | None:
    """The physical operator behind the run's container activity:
    interval probes are ``ContAccess``, whole scans ``ContScan``,
    record reads the ``Decompress`` of a bound value."""
    kinds = {kind for _, kind in recorder.accesses}
    if recorder.predicates:
        return "ContAccess"
    if "scans" in kinds:
        return "ContScan"
    if "record_reads" in kinds:
        return "Decompress"
    return None


def check_document(entities: dict, queries: list[str],
                   report: VerifyReport) -> None:
    """Diff every query over one document, under every codec variant."""
    xml = render_xml(entities)
    for codec_variant in VARIANTS:
        for query in queries:
            report.checks_run += 1
            compressed, reference = _run_pair(xml, query, codec_variant)
            if compressed == reference:
                continue
            minimal = _minimize(entities, query, codec_variant)
            minimal_xml = render_xml(minimal)
            codec, container, plan_node = _blame(
                minimal_xml, query, codec_variant)
            final_c, final_r = _run_pair(minimal_xml, query,
                                         codec_variant)
            report.add(Mismatch(
                layer="engine", check="query", codec=codec,
                container=container, plan_node=plan_node,
                description=(
                    f"compressed {final_c} != reference {final_r} "
                    f"(variant={codec_variant})"),
                reproducer={"query": query, "xml": minimal_xml,
                            "variant": codec_variant,
                            "compressed": list(final_c),
                            "reference": list(final_r)}))


def _minimize(entities: dict, query: str, codec_variant: str) -> dict:
    """Delta-debug the entity list for one mismatching query."""
    def fails(pairs: list) -> bool:
        subset_xml = render_xml(from_entity_list(pairs))
        compressed, reference = _run_pair(subset_xml, query,
                                          codec_variant)
        return compressed != reference

    full = entity_list(entities)
    if not fails(full):   # non-reproducible (should not happen)
        return entities
    return from_entity_list(ddmin(full, fails, max_attempts=400))


def run_engine_oracle(seed: int, docs: int = 25, queries: int = 40,
                      scale: int = 10, progress=None) -> VerifyReport:
    """Engine oracle over ``docs`` generated documents."""
    report = VerifyReport(seed=seed)
    for doc_index in range(docs):
        rng = random.Random(f"{seed}/doc/{doc_index}")
        entities = generate_entities(rng, scale=scale)
        doc_queries = generate_queries(entities, rng, queries)
        check_document(entities, doc_queries, report)
        if progress is not None:
            progress(doc_index + 1, docs, report)
    return report
