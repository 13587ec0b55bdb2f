"""Plan explanations for the whole XMark query set.

Prints, for each benchmark query, the operators a run executes over a
small generated XMark document — where the summary is used, where
predicates became container interval searches, where joins became
merge joins run once per execution, and what is left to per-binding
checks.

Run:  python examples/explain_plans.py
"""

from repro.query.engine import QueryEngine
from repro.storage.loader import load_document
from repro.xmark.generator import generate_xmark
from repro.xmark.queries import XMARK_QUERIES


def main() -> None:
    engine = QueryEngine(load_document(generate_xmark(factor=0.005,
                                                      seed=1)))
    for query_id in sorted(XMARK_QUERIES,
                           key=lambda q: int(q.lstrip("Q"))):
        description, text = XMARK_QUERIES[query_id]
        print(f"=== {query_id}: {description}")
        print(engine.explain(text))
        print()


if __name__ == "__main__":
    main()
