"""Plan explanations for the whole XMark query set.

Prints, for each benchmark query, the strategy the engine will apply —
where the summary is used, where predicates become container interval
searches, and where joins become merge joins run once per execution.

Run:  python examples/explain_plans.py
"""

from repro.query.explain import explain
from repro.xmark.queries import XMARK_QUERIES


def main() -> None:
    for query_id in sorted(XMARK_QUERIES,
                           key=lambda q: int(q.lstrip("Q"))):
        description, text = XMARK_QUERIES[query_id]
        print(f"=== {query_id}: {description}")
        print(explain(text))
        print()


if __name__ == "__main__":
    main()
