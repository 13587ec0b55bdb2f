"""Built-in functions of the supported XQuery subset.

Each function receives already-evaluated argument sequences plus the
engine's :class:`~repro.query.context.EvaluationStats`.  ``contains``
and ``starts-with`` get compressed-domain fast paths: ``starts-with``
is exactly the paper's prefix-``wild`` predicate, answerable on
Huffman-compressed values without decompression.
"""

from __future__ import annotations

import re

from repro.errors import QueryTypeError
from repro.query.context import (
    CompressedItem,
    EvaluationStats,
    effective_boolean,
    number_value,
    string_value,
)

_WORD = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens of a text value."""
    return [match.group(0).lower() for match in _WORD.finditer(text)]


def fn_contains(args: list[list], stats: EvaluationStats) -> list:
    haystack, needle = _two_string_args("contains", args, stats)
    return [needle in haystack]


def fn_starts_with(args: list[list], stats: EvaluationStats) -> list:
    _require_arity("starts-with", args, 2)
    sequence, prefix_seq = args
    prefix_item = prefix_seq[0] if prefix_seq else ""
    if not sequence:
        # Empty sequence has string value "": only the empty prefix
        # matches (mirrors the decompress-first reference).
        prefix = (prefix_item if isinstance(prefix_item, str)
                  else string_value(prefix_item, stats))
        return [prefix == ""]
    item = sequence[0]
    # Compressed-domain prefix match (the ``wild`` property): the code
    # of a string prefix is a bit-prefix of the full string's code.
    if isinstance(item, CompressedItem) and isinstance(prefix_item, str) \
            and item.codec.properties.wild:
        encoded = item.codec.try_encode(prefix_item)
        stats.compressed_comparisons += 1
        if encoded is None:
            return [False]
        return [item.compressed.starts_with(encoded)]
    haystack = string_value(item, stats)
    prefix = (string_value(prefix_item, stats)
              if not isinstance(prefix_item, str) else prefix_item)
    return [haystack.startswith(prefix)]


def fn_word_contains(args: list[list], stats: EvaluationStats) -> list:
    """Whole-word containment — the §6 full-text extension.

    ``word-contains($x, "gold")`` is true when some tokenized word of
    the value equals the needle (case-insensitive); a multi-word
    needle requires all its words.
    """
    _require_arity("word-contains", args, 2)
    needle = (string_value(args[1][0], stats) if args[1] else "")
    wanted = tokenize(needle)
    if not wanted:
        return [False]
    # Existential over the sequence: some value holds all the words.
    for item in args[0]:
        words = set(tokenize(string_value(item, stats)))
        if all(w in words for w in wanted):
            return [True]
    return [False]


def fn_count(args: list[list], stats: EvaluationStats) -> list:
    _require_arity("count", args, 1)
    return [float(len(args[0]))]


def fn_empty(args: list[list], stats: EvaluationStats) -> list:
    _require_arity("empty", args, 1)
    return [not args[0]]


def fn_not(args: list[list], stats: EvaluationStats) -> list:
    _require_arity("not", args, 1)
    return [not effective_boolean(args[0])]


def fn_sum(args: list[list], stats: EvaluationStats) -> list:
    _require_arity("sum", args, 1)
    return [sum(number_value(item, stats) for item in args[0])]


def fn_avg(args: list[list], stats: EvaluationStats) -> list:
    _require_arity("avg", args, 1)
    if not args[0]:
        return []
    values = [number_value(item, stats) for item in args[0]]
    return [sum(values) / len(values)]


def fn_min(args: list[list], stats: EvaluationStats) -> list:
    _require_arity("min", args, 1)
    if not args[0]:
        return []
    return [min(number_value(item, stats) for item in args[0])]


def fn_max(args: list[list], stats: EvaluationStats) -> list:
    _require_arity("max", args, 1)
    if not args[0]:
        return []
    return [max(number_value(item, stats) for item in args[0])]


def fn_number(args: list[list], stats: EvaluationStats) -> list:
    _require_arity("number", args, 1)
    if not args[0]:
        return []
    return [number_value(args[0][0], stats)]


def fn_string(args: list[list], stats: EvaluationStats) -> list:
    _require_arity("string", args, 1)
    if not args[0]:
        return [""]
    return [string_value(args[0][0], stats)]


def fn_string_length(args: list[list], stats: EvaluationStats) -> list:
    _require_arity("string-length", args, 1)
    if not args[0]:
        return [0.0]
    return [float(len(string_value(args[0][0], stats)))]


def fn_zero_or_one(args: list[list], stats: EvaluationStats) -> list:
    _require_arity("zero-or-one", args, 1)
    if len(args[0]) > 1:
        raise QueryTypeError("zero-or-one() got more than one item")
    return list(args[0])


def fn_data(args: list[list], stats: EvaluationStats) -> list:
    _require_arity("data", args, 1)
    return list(args[0])


def fn_distinct_values(args: list[list], stats: EvaluationStats) -> list:
    _require_arity("distinct-values", args, 1)
    items = args[0]
    # Compressed fast path: when every item comes from one source
    # model, bit-equality is value-equality and nothing decodes.  A
    # sequence mixing codecs — or mixing compressed and plain items —
    # must dedupe on the decoded value: the same string reached through
    # two containers (or as a literal) is one distinct value.
    shared_codec = None
    all_compressed = True
    for item in items:
        if isinstance(item, CompressedItem):
            if shared_codec is None:
                shared_codec = item.codec
            elif item.codec is not shared_codec:
                all_compressed = False
                break
        else:
            all_compressed = False
            break
    seen: set = set()
    result: list = []
    for item in items:
        if isinstance(item, CompressedItem):
            key = (item.compressed if all_compressed
                   else item.decode(stats))
        else:
            key = item
        if key not in seen:
            seen.add(key)
            result.append(item)
    return result


FUNCTIONS = {
    "contains": fn_contains,
    "starts-with": fn_starts_with,
    "word-contains": fn_word_contains,
    "count": fn_count,
    "empty": fn_empty,
    "not": fn_not,
    "sum": fn_sum,
    "avg": fn_avg,
    "min": fn_min,
    "max": fn_max,
    "number": fn_number,
    "string": fn_string,
    "string-length": fn_string_length,
    "zero-or-one": fn_zero_or_one,
    "data": fn_data,
    "distinct-values": fn_distinct_values,
}


def _two_string_args(name: str, args: list[list],
                     stats: EvaluationStats) -> tuple[str, str]:
    _require_arity(name, args, 2)
    first = string_value(args[0][0], stats) if args[0] else ""
    second = string_value(args[1][0], stats) if args[1] else ""
    return first, second


def _require_arity(name: str, args: list[list], arity: int) -> None:
    if len(args) != arity:
        raise QueryTypeError(
            f"{name}() expects {arity} argument(s), got {len(args)}")
