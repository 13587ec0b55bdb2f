# Read only by benchmarks/e2e/run.py, as each output's batch_width.
DEFAULT_BATCH_SIZE = 1024
