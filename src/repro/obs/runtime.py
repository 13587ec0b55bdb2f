"""Process-wide telemetry activation for layers without a handle.

Codecs and storage structures sit below the query engine and would need
a telemetry parameter on every signature to report activity.  Instead,
the engine *activates* its telemetry here for the duration of a run;
the deep layers check ``runtime.ACTIVE`` (one module-global load plus
an ``is None`` test — the entire disabled-mode cost) and report through
the helpers below only when someone is listening.

Activation is reentrant and restores the previous telemetry on exit,
so nested engine calls (e.g. ``explain_analyze`` materializing results)
keep a single registry.
"""

from __future__ import annotations

from contextlib import contextmanager

#: the currently active Telemetry, or None when observability is off.
#: Deep layers read this directly: ``if runtime.ACTIVE is not None:``.
ACTIVE = None

#: the currently active WorkloadCapture, or None when workload
#: recording is off.  Same contract as ``ACTIVE``: deep layers guard
#: with ``if runtime.RECORDER is not None:`` — one module-global load
#: plus an ``is None`` test is the entire disabled-mode cost.
RECORDER = None


@contextmanager
def activated(telemetry):
    """Make ``telemetry`` the active sink while the block runs.

    ``None`` deactivates for the block — the deep layers then skip
    all reporting.
    """
    global ACTIVE
    previous = ACTIVE
    ACTIVE = telemetry
    try:
        yield telemetry
    finally:
        ACTIVE = previous


@contextmanager
def recording(capture):
    """Make ``capture`` the active workload sink while the block runs.

    Reentrant like :func:`activated`: the previous capture is restored
    on exit, so nested engine calls each observe their own run.
    """
    global RECORDER
    previous = RECORDER
    RECORDER = capture
    try:
        yield capture
    finally:
        RECORDER = previous


# -- reporting helpers (call only after checking ACTIVE is not None) ----------

def add(counter: str, n: int = 1) -> None:
    """Increment a counter on the active registry (guarded)."""
    if ACTIVE is not None:
        ACTIVE.metrics.add(counter, n)


def record_codec(operation: str, codec_name: str,
                 compressed_bytes: int, plain_chars: int) -> None:
    """Report one codec encode/decode: call count and byte totals.

    ``operation`` is ``"encode"`` or ``"decode"``; ``compressed_bytes``
    is the packed payload size, ``plain_chars`` the plaintext length —
    together they give the compressed-vs-decompressed ratios
    ``explain_analyze`` renders.
    """
    metrics = ACTIVE.metrics
    prefix = f"codec.{codec_name}.{operation}"
    metrics.add(prefix + ".calls")
    metrics.add(prefix + ".compressed_bytes", compressed_bytes)
    metrics.add(prefix + ".plain_chars", plain_chars)


def record_page_reads(n: int) -> None:
    """Report B+-tree node visits (the paper's page reads)."""
    ACTIVE.metrics.add("btree.page_reads", n)
