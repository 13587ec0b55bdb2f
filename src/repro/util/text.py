"""Small text helpers shared by the codecs, the data generators and
the report renderers."""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence


def char_frequencies(values: Iterable[str]) -> Counter:
    """Count character occurrences over a collection of strings."""
    counts: Counter = Counter()
    for value in values:
        counts.update(value)
    return counts


def char_distribution(values: Iterable[str]) -> dict[str, float]:
    """Normalised character distribution over a collection of strings."""
    counts = char_frequencies(values)
    total = sum(counts.values())
    if total == 0:
        return {}
    return {ch: n / total for ch, n in counts.items()}


def common_prefix(a: str, b: str) -> str:
    """Longest common prefix of two strings."""
    limit = min(len(a), len(b))
    i = 0
    while i < limit and a[i] == b[i]:
        i += 1
    return a[:i]


def successor_string(s: str, alphabet_max: str = "￿") -> str:
    """Smallest string strictly greater than every string prefixed by ``s``.

    Used to turn a prefix-match predicate into a half-open interval
    ``[s, successor_string(s))`` for range scans over sorted containers.
    """
    for i in range(len(s) - 1, -1, -1):
        if s[i] < alphabet_max:
            return s[:i] + chr(ord(s[i]) + 1)
    return s + alphabet_max


def is_numeric_string(value: str) -> bool:
    """True when ``value`` parses as an int or float (container typing)."""
    text = value.strip()
    if not text:
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


def table(headers: Sequence[str],
          rows: Sequence[Sequence[str]]) -> list[str]:
    """Header line + one line per row, columns left-aligned to the
    widest cell (the aligned monospace tables of the reports)."""
    widths = [max(len(cells[i]) for cells in (headers, *rows))
              for i in range(len(headers))]
    return ["  ".join(cell.ljust(width)
                      for cell, width in zip(cells, widths))
            for cells in (headers, *rows)]
