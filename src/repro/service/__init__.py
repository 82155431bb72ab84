"""ILT-as-a-service: async job API over the tiled full-chip engine.

The serving layer the ROADMAP's production north star calls for:
submit a workload spec + recipe over HTTP, track it through
``PENDING → RUNNING → DONE/FAILED/CANCELLED``, stream fused progress,
fetch artifacts, and let identical resubmits dedup through the
content-addressed result cache — all on the durable queue/executor
substrate, all stdlib-only.

* :mod:`repro.service.jobs` — the server-agnostic core
  (:class:`IltService`): validation, admission, run dirs, runner
  threads, cancellation, the progress feed.
* :mod:`repro.service.payload` — payload validation and each job's
  :class:`~repro.fullchip.FullChipConfig`.
* :mod:`repro.service.cache` — content-addressed result cache.
* :mod:`repro.service.ratelimit` — per-tenant token buckets +
  concurrency caps.
* :mod:`repro.service.server` — the ``ThreadingHTTPServer`` REST front.
* :mod:`repro.service.client` — the stdlib client (tests, CLI verbs).
"""

from .cache import CACHE_DIRNAME, ResultCache, cache_key_for
from .client import ServiceClient
from .jobs import (
    JOB_STATES,
    TERMINAL_JOB_STATES,
    IltService,
    JobRecord,
    JobStore,
    ServiceConfig,
)
from .payload import normalize_payload
from .ratelimit import RateLimitConfig, TenantLimiter, TokenBucket
from .server import SERVICE_FILENAME, ServiceServer, serve

__all__ = [
    "IltService",
    "ServiceConfig",
    "JobRecord",
    "JobStore",
    "JOB_STATES",
    "TERMINAL_JOB_STATES",
    "normalize_payload",
    "ResultCache",
    "cache_key_for",
    "CACHE_DIRNAME",
    "RateLimitConfig",
    "TenantLimiter",
    "TokenBucket",
    "ServiceServer",
    "serve",
    "SERVICE_FILENAME",
    "ServiceClient",
]
