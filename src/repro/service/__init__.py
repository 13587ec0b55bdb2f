"""The serving layer: ``Database``/``Session`` over a resident
compressed repository, with a prepared-plan LRU, a byte-budgeted
decoded-block cache, and a telemetry plane (``/metrics`` endpoint,
slow-query log) behind one unified execution API."""

from repro.query.options import ExecutionOptions
from repro.service.blocks import (
    CachedContainerView,
    CachedRepositoryView,
)
from repro.service.cache import (
    DEFAULT_BLOCK_BUDGET,
    DEFAULT_PLAN_CAPACITY,
    BlockCache,
    PlanCache,
    normalize_query_text,
)
from repro.service.session import (
    Database,
    PreparedPlan,
    PreparedQuery,
    Session,
)
from repro.service.slowlog import SlowQueryLog, default_slowlog_path
from repro.service.telemetry_http import TelemetryServer

__all__ = [
    "BlockCache",
    "CachedContainerView",
    "CachedRepositoryView",
    "Database",
    "DEFAULT_BLOCK_BUDGET",
    "DEFAULT_PLAN_CAPACITY",
    "ExecutionOptions",
    "normalize_query_text",
    "PlanCache",
    "PreparedPlan",
    "PreparedQuery",
    "Session",
    "SlowQueryLog",
    "TelemetryServer",
    "default_slowlog_path",
]
