"""The §3 workload-driven loader (the paper's primary contribution)."""

from repro.core.system import tuned_configuration

__all__ = ["tuned_configuration"]
