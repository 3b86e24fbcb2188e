"""The long-lived spatial-join service (DESIGN.md section 15).

A batch join reads cold data, joins, and exits.  The service keeps the
S3J index *resident*: partitioned + Hilbert-sorted level files stay
open across queries, incremental inserts/deletes are absorbed into an
in-memory per-level delta merged at query time (a level file is just a
sorted run — the LSM idiom), and a background compactor folds the delta
back into the level files once it grows past a threshold.

Layers:

- :mod:`repro.service.index` — :class:`PersistentIndex`: the resident
  level files, the delta, tombstones, the epoch counter, compaction.
- :mod:`repro.service.scan` — the self-join of the *live* (base +
  delta) records: memory-mode S3J's join phase over their columns.
- :mod:`repro.service.api` — :class:`JoinService`: the asyncio query
  front-end with token-bucket rate limiting, a
  circuit breaker serving declared-partial results while open, and an
  LRU result cache keyed on (query, index epoch).
- :mod:`repro.service.server` — the JSON-lines TCP server behind
  ``repro serve``.
"""

from repro.service.api import (
    BreakerState,
    CircuitBreaker,
    JoinService,
    QueryOutcome,
    ResultCache,
    ServiceConfig,
    TokenBucket,
)
from repro.service.index import IndexExistsError, PersistentIndex
from repro.service.scan import live_self_scan
from repro.service.server import ServiceServer

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "IndexExistsError",
    "JoinService",
    "PersistentIndex",
    "QueryOutcome",
    "ResultCache",
    "ServiceConfig",
    "ServiceServer",
    "TokenBucket",
    "live_self_scan",
]
