"""repro.parallel — Hilbert-range sharded parallel join execution.

A join is decomposed into independent tile shards over the level-``k``
Filter-Tree grid (``4^k`` Hilbert-contiguous tiles) by the two-layer
class-based partitioning of Tsitsigkos et al. (arXiv 2307.09256):
every entity is present in each tile its expanded MBR overlaps, classed
A/B/C/D by where the MBR starts, and each tile runs a fixed set of
disjoint class-pair mini-joins — every result pair is found exactly
once in its reference tile and no shard ever joins "everything"
(DESIGN.md section 14).

- :mod:`repro.parallel.planner` — routes entities and plans the
  mini-joins (:class:`ShardPlan` / :class:`ShardTask` /
  :class:`MiniJoin`).
- :mod:`repro.parallel.executor` — runs the shards in worker
  processes (or serially in-process) and deterministically merges pair
  sets, ledgers, and observability output.
"""

from __future__ import annotations

from repro.parallel.planner import (
    MiniJoin,
    ShardPlan,
    ShardTask,
    default_shard_level,
    plan_join,
)
from repro.parallel.executor import parallel_spatial_join

__all__ = [
    "MiniJoin",
    "ShardPlan",
    "ShardTask",
    "default_shard_level",
    "parallel_spatial_join",
    "plan_join",
]
