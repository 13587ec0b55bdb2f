"""Sharded-serving smoke run (the CI ``shard-serving-smoke`` job).

Boots the sharded serving plane the way an operator would and walks
the whole chain:

1. load a small XMark document, compute the subtree shard placement
   and fork 2 worker processes;
2. replay every XMark query for a few rounds from concurrent
   threads through the coordinator (``execute_many``);
3. assert the run completed cleanly: every query answered with zero
   errors, **each answer's XML byte for byte what an in-process
   ``Database(repository).session()`` returns** (frames a row plan
   wrote from its templates cross real pipes), **nonzero cross-shard
   queries** (the XMark joins must span the placement) and **fewer
   bytes on the wire than the plain XML** the same results would have
   cost;
4. scrape the folded per-shard counters off the coordinator's
   registry and assert every worker reported executions;
5. SIGKILL worker 0 and assert one more round still answers with zero
   errors (the survivors take its queries) while ``ready()`` turns
   false;
6. shut down the survivors via SIGTERM and assert they exited
   (exitcode ``0`` or ``-SIGTERM``) with **no orphan processes** left.

Any broken link fails the job with a named FAIL line.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys


def main(argv: list[str] | None = None, out=sys.stdout) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.service.shard_smoke",
        description="end-to-end smoke of the sharded serving plane: "
                    "placement, workers, queries, shutdown")
    parser.add_argument("--factor", type=float, default=0.002,
                        help="XMark scale factor (default 0.002)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--clients", type=int, default=4)
    args = parser.parse_args(argv)

    from repro.errors import XQueCError
    from repro.service.session import Database
    from repro.service.shards import ShardedDatabase
    from repro.storage.loader import load_document
    from repro.xmark.generator import generate_xmark
    from repro.xmark.queries import XMARK_QUERIES, query_text

    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok' if ok else 'FAIL'}: {what}", file=out)
        if not ok:
            failures.append(what)

    texts = [query_text(qid) for qid in XMARK_QUERIES]
    repository = load_document(generate_xmark(factor=args.factor,
                                              seed=args.seed))
    database = ShardedDatabase(repository, shard_count=args.shards,
                               queries=texts)
    check(database.assignment.shard_count == args.shards,
          f"placement chose {args.shards} shards")
    check(all(database.assignment.subtrees_by_shard),
          "every shard owns at least one subtree")

    database.start()
    pids = [worker.process.pid for worker in database._workers]
    check(len(pids) == args.shards and all(pids),
          f"{args.shards} worker processes forked: {pids}")
    check(database.ready(), "coordinator is ready (all workers ping)")

    answers: list = []

    def answer(batch: list[str]) -> str:
        try:
            answers[:] = database.execute_many(batch,
                                               max_workers=args.clients)
            return ""
        except XQueCError as exc:
            return f": {exc}"

    batch = texts * max(args.rounds, 1)
    failure = answer(batch)
    check(not failure,
          f"all {len(batch)} queries answered with 0 errors{failure}")
    session = Database(repository).session()
    local = {text: session.execute(text).to_xml() for text in texts}
    differ = sorted({qid for qid, text, received in zip(
        list(XMARK_QUERIES) * max(args.rounds, 1), batch, answers)
        if received.to_xml() != local[text]})
    check(len(answers) == len(batch) and not differ,
          f"every answer equals the in-process session's XML, byte for "
          f"byte{f': {differ} differ' if differ else ''}")
    database.gather_metrics()
    counters = database.metrics.counters()
    cross_shard = counters.get("coordinator.cross_shard_queries", 0)
    check(cross_shard > 0,
          f"cross-shard queries observed ({cross_shard})")
    wire_bytes = counters.get("shipping.wire_bytes", 0)
    plain_bytes = counters.get("shipping.plain_bytes", 0)
    code_bytes = counters.get("shipping.compressed_value_bytes", 0)
    check(0 < wire_bytes < plain_bytes,
          f"results shipped compressed ({wire_bytes}B wire < "
          f"{plain_bytes}B plain; {code_bytes}B of code bits)")
    per_shard = [counters.get(f"shard.{i}.session.executions", 0)
                 for i in range(args.shards)]
    check(all(count > 0 for count in per_shard),
          f"every worker executed queries {per_shard}")

    victim, *survivors = database._workers
    os.kill(victim.process.pid, signal.SIGKILL)
    victim.process.join(15.0)
    failure = answer(texts)
    check(not failure,
          f"worker 0 killed: {len(texts)} more queries answered with "
          f"0 errors{failure}")
    check(not database.ready(), "coordinator reports not ready")

    # SIGTERM-path shutdown: skip the polite pipe op and signal the
    # workers directly, the way a process supervisor stops the plane.
    for worker in survivors:
        worker.process.terminate()
    for worker in survivors:
        worker.process.join(15.0)
    exit_codes = [worker.process.exitcode for worker in survivors]
    check(all(code in (0, -signal.SIGTERM) for code in exit_codes),
          f"workers exited cleanly on SIGTERM {exit_codes}")
    orphans = [worker.process.pid for worker in database._workers
               if worker.process.is_alive()]
    check(not orphans, f"no orphan workers remain {orphans or ''}")
    database._workers = []
    database.close()

    if failures:
        print(f"{len(failures)} shard smoke failure(s)", file=out)
        return 1
    print("shard serving smoke OK", file=out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
