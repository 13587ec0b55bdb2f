"""Top-level oracle runs: codec layer + engine layer, one report.

``repro verify --seed 0 --docs 25 --queries 40`` (the CI
``verify-oracle`` job) lands here.  Everything is deterministic in the
seed: value sets, documents and query templates derive their
:class:`random.Random` streams from ``(seed, …)`` tuples, so a CI
failure reproduces locally with the same command line.
"""

from __future__ import annotations

from repro.verify.codec_oracle import run_codec_oracle
from repro.verify.engine_oracle import run_engine_oracle
from repro.verify.report import VerifyReport


def run_verify(seed: int = 0, docs: int = 25, queries: int = 40,
               codec_rounds: int = 3, codec_values: int = 48,
               scale: int = 10, progress=None) -> VerifyReport:
    """Run both oracle layers and merge their reports.

    ``progress`` (optional) is called as ``progress(stage, done,
    total)`` with ``stage`` in ``{"codec", "engine"}`` — the CLI uses
    it to keep CI logs alive during the fuzz budget.
    """
    report = VerifyReport(seed=seed)
    codec_report = run_codec_oracle(seed, rounds=codec_rounds,
                                    values_per_round=codec_values)
    report.merge(codec_report)
    if progress is not None:
        progress("codec", 1, 1)

    def engine_progress(done: int, total: int, _partial) -> None:
        if progress is not None:
            progress("engine", done, total)

    engine_report = run_engine_oracle(seed, docs=docs, queries=queries,
                                      scale=scale,
                                      progress=engine_progress)
    report.merge(engine_report)
    return report
