#!/usr/bin/env bash
# Harness self-tests plus a --smoke run of all four workloads (the
# self-tests include one, traced and untraced).  Not wired into
# .github/workflows/ci.yml yet: a later PR adds a job that runs this.
set -euo pipefail
cd "$(dirname "$0")/../.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
python3 -m pytest -q -p no:cacheprovider benchmarks/e2e/test_harness.py
for workload in select join serve ingest; do
    python3 benchmarks/e2e/run.py --workload "$workload" --smoke | tail -n 1
done
