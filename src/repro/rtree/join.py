"""R-tree spatial join (Brinkhoff, Kriegel & Seeger, SIGMOD 1993).

Section 2 of the paper surveys the indexed alternatives to S3J; the
canonical one is the synchronized depth-first traversal of two R-trees.
This module provides it, completing the library's indexed-join story
(Filter Tree join for size-separated indexes, R-tree join for
R-tree-indexed data).

The traversal visits a pair of nodes only if their MBRs intersect, and
restricts entry pairing to the intersection of the two node MBRs — the
BKS93 space-restriction optimization.

:class:`RTreeSpatialJoin` wraps it in the
:class:`~repro.join.base.SpatialJoinAlgorithm` interface so it can run
against descriptor files, report per-phase metrics, and serve as a
differential reference for the partition-based algorithms (it shares
no partitioning, sorting, or sweeping code with them):

1. **build** — scan both descriptor files (paged reads through the
   buffer pool) and STR-bulk-load one R-tree per input.
2. **join** — synchronized depth-first traversal; node visits and MBR
   tests are charged as CPU operations.

The trees live in memory; like SHJ's per-partition trees they are not
paged, so the join phase performs no I/O beyond writing the result.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.geometry.rect import Rect
from repro.join.base import SpatialJoinAlgorithm
from repro.join.metrics import JoinMetrics
from repro.rtree.rtree import RTree, _Node
from repro.storage.backend import Page
from repro.storage.iostats import IOStats
from repro.storage.manager import StorageManager
from repro.storage.pagedfile import PagedFile
from repro.storage.records import EID, XHI, XLO, YHI, YLO, CandidatePairCodec


def rtree_join(
    tree_a: RTree, tree_b: RTree, stats: IOStats | None = None
) -> Iterator[tuple[Any, Any]]:
    """Yield every payload pair whose MBRs intersect, by synchronized
    traversal of the two trees."""
    root_a = tree_a._root
    root_b = tree_b._root
    if not root_a.entries or not root_b.entries:
        return
    yield from _match(
        root_a, tree_a.height, root_b, tree_b.height, stats
    )


def _charge(stats: IOStats | None, op: str = "rtree") -> None:
    if stats is not None:
        stats.charge_cpu(op)


def _match(
    node_a: _Node,
    height_a: int,
    node_b: _Node,
    height_b: int,
    stats: IOStats | None,
) -> Iterator[tuple[Any, Any]]:
    """Synchronized traversal of two subtrees of possibly different
    heights (the taller side descends first)."""
    _charge(stats)
    if height_a > height_b:
        for rect, child in node_a.entries:
            _charge(stats, "mbr_test")
            if rect.intersects(node_b.mbr()):
                yield from _match(child, height_a - 1, node_b, height_b, stats)
        return
    if height_b > height_a:
        for rect, child in node_b.entries:
            _charge(stats, "mbr_test")
            if node_a.mbr().intersects(rect):
                yield from _match(node_a, height_a, child, height_b - 1, stats)
        return

    # Equal heights: pair up entries, restricted to the common region.
    common = node_a.mbr().intersection(node_b.mbr())
    if common is None:
        return
    entries_a = _restricted(node_a, common, stats)
    entries_b = _restricted(node_b, common, stats)
    if node_a.leaf:
        for rect_a, payload_a in entries_a:
            for rect_b, payload_b in entries_b:
                _charge(stats, "mbr_test")
                if rect_a.intersects(rect_b):
                    yield payload_a, payload_b
    else:
        for rect_a, child_a in entries_a:
            for rect_b, child_b in entries_b:
                _charge(stats, "mbr_test")
                if rect_a.intersects(rect_b):
                    yield from _match(
                        child_a, height_a - 1, child_b, height_b - 1, stats
                    )


def _restricted(
    node: _Node, region: Rect, stats: IOStats | None
) -> list[tuple[Rect, Any]]:
    """BKS93 space restriction: only entries intersecting the common
    region of the two node MBRs can contribute pairs."""
    kept = []
    for rect, child in node.entries:
        _charge(stats, "mbr_test")
        if rect.intersects(region):
            kept.append((rect, child))
    return kept


class RTreeSpatialJoin(SpatialJoinAlgorithm):
    """Synchronized R-tree traversal over two bulk-loaded trees.

    Parameters
    ----------
    storage:
        The storage manager to run against.
    fanout:
        Node capacity of the bulk-loaded trees.
    """

    name = "rtree"
    phase_names = ("build", "join")

    def __init__(self, storage: StorageManager, fanout: int = 32) -> None:
        super().__init__(storage)
        if fanout < 4:
            raise ValueError("fanout must be at least 4")
        self.fanout = fanout

    def run_filter_step(
        self, input_a: PagedFile, input_b: PagedFile
    ) -> tuple[Page, JoinMetrics]:
        stats = self.storage.stats
        tracer = self.obs.tracer

        with self._phase("build"):
            with tracer.span("bulk-load:A", side="A"):
                tree_a = self._load(input_a)
            with tracer.span("bulk-load:B", side="B"):
                tree_b = self._load(input_b)
            self.storage.phase_boundary()

        result = self.storage.create_file(
            self._file_name("result"), CandidatePairCodec()
        )
        with self._phase("join"):
            with tracer.span("traverse") as span:
                pairs = result.codec.page(rtree_join(tree_a, tree_b, stats=stats))
                result.extend(pairs)
                span.set(pairs=len(pairs))
            self.storage.phase_boundary()

        metrics = self._build_metrics(
            tree_heights=(tree_a.height, tree_b.height),
            result_pages=result.num_pages,
        )
        # The traversal never replicates an input entity.
        metrics.replication_a = 1.0
        metrics.replication_b = 1.0
        return pairs, metrics

    def _load(self, source: PagedFile) -> RTree:
        stats = self.storage.stats
        items: list[tuple[Rect, int]] = []
        for record in source.scan():
            stats.charge_cpu("rtree")
            items.append(
                (
                    Rect(record[XLO], record[YLO], record[XHI], record[YHI]),
                    record[EID],
                )
            )
        return RTree.bulk_load(items, max_entries=self.fanout, stats=stats)
