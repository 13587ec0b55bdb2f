"""Shared benchmark fixtures.

Documents and loaded databases are expensive; they are generated once
per session and shared by all benches.  ``BENCH_FACTOR`` scales the XMark
document (0.05 ~= 600 KB here vs the paper's 11.3 MB XMark11 — the
*shape* of every comparison is scale-free, see EXPERIMENTS.md).
"""

from __future__ import annotations

import pytest

from repro.baselines.galax import GalaxEngine
from repro.core.system import tuned_configuration
from repro.service.session import Database, Session
from repro.storage.loader import load_document
from repro.xmark.generator import generate_xmark
from repro.xmark.queries import XMARK_QUERIES

BENCH_FACTOR = 0.05
BENCH_SEED = 42


@pytest.fixture(scope="session")
def xmark_text() -> str:
    return generate_xmark(factor=BENCH_FACTOR, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def xquec_system(xmark_text) -> Session:
    """XQueC loaded the way the paper benchmarks it: with the XMark
    query workload driving the compression configuration."""
    queries = [text for _, text in XMARK_QUERIES.values()]
    configuration = tuned_configuration(load_document(xmark_text),
                                        queries)
    return Database.from_xml(xmark_text,
                             configuration=configuration).session()


@pytest.fixture(scope="session")
def xquec_default(xmark_text) -> Session:
    """XQueC under the no-workload defaults (§2.1)."""
    return Database.from_xml(xmark_text).session()


@pytest.fixture(scope="session")
def galax_engine(xmark_text) -> GalaxEngine:
    return GalaxEngine(xmark_text)


@pytest.fixture
def telemetry_sink(request):
    """A per-bench telemetry collector that persists what it is fed.

    A bench calls ``telemetry_sink(telemetry)`` (optionally with an
    explicit ``experiment=`` name) for each instrumented run it wants
    attached to its result files; every document is written to
    ``benchmarks/results/<experiment>.telemetry.json`` at teardown.
    """
    from repro.bench.reporting import record_telemetry

    collected: list[tuple[str, object]] = []
    default_name = request.node.name.replace("[", ".").rstrip("]")

    def sink(telemetry, experiment: str | None = None):
        collected.append((experiment or default_name, telemetry))
        return telemetry

    yield sink
    for name, telemetry in collected:
        record_telemetry(name, telemetry)
