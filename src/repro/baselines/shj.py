"""Spatial Hash Join (Lo & Ravishankar, SIGMOD 1996).

The algorithm of the paper's figure 3:

1. Compute the number of partitions (the authors' slot count — larger
   than PBSM's, section 4.1.3).
2. Sample data set A; the sampled objects' centers seed the partitions.
3. Scan A, assigning each entity to the partition with the nearest
   center (the nearest-center heuristic of [LR95]); the partition's MBR
   expands to contain the entity, moving its center.  **No replication
   in A.**
4. Scan B, recording each entity in every partition whose (final) MBR
   it overlaps — replication happens here; entities overlapping no
   partition are filtered out.
5. Join each partition pair by building an in-memory R-tree on the A
   partition and probing it with the B partition's entities; partitions
   too big for memory fall back to blockwise processing.

No duplicate elimination is needed (a given A entity lives in exactly
one partition, so a pair can only be found once) — Table 2's "Sort:
none" row.
"""

from __future__ import annotations

import math
import random

from repro.core.partition import partition_nearest_center, partition_overlaps
from repro.geometry.rect import Rect
from repro.join.base import SpatialJoinAlgorithm
from repro.join.metrics import JoinMetrics
from repro.rtree.rtree import RTree
from repro.storage.backend import Page
from repro.storage.manager import StorageManager
from repro.storage.pagedfile import PagedFile
from repro.storage.records import EID, XHI, XLO, YHI, YLO, CandidatePairCodec


# Slots per memory-load of A: DESIGN.md's stand-in for the [LR95] formula.
PARTITION_MULTIPLIER = 10.0
# Candidate objects sampled per slot: equation 16's integer ``c``.
SAMPLE_FACTOR = 3


def suggested_partitions(pages_a: int, memory_pages: int) -> int:
    """The slot-count heuristic standing in for the [LR95] formula.

    Lo & Ravishankar size slots so each partition pair fits comfortably
    in memory; the paper notes their count is "much larger than the
    number used for PBSM" (section 4.1.3).  We model it as
    ``PARTITION_MULTIPLIER * S_A / M`` (see DESIGN.md substitutions),
    capped at ``M - 4`` because a one-pass partitioning step needs an
    input buffer (plus slack) besides one output buffer per partition,
    or the buffer pool thrashes.
    """
    target = math.ceil(PARTITION_MULTIPLIER * pages_a / memory_pages)
    return max(2, min(target, memory_pages - 4))


class _Partition:
    """One SHJ partition: its seed-derived center and its growing MBR."""

    __slots__ = ("mbr", "count")

    def __init__(self, cx: float, cy: float) -> None:
        self.mbr = Rect(cx, cy, cx, cy)
        self.count = 0


class SpatialHashJoin(SpatialJoinAlgorithm):
    """SHJ.

    Parameters
    ----------
    storage:
        The storage manager to run against.
    num_partitions:
        Override for the slot count (:func:`suggested_partitions` by
        default).
    seed:
        RNG seed for the sampling step (deterministic experiments).
    """

    name = "shj"
    phase_names = ("partition", "join")

    def __init__(
        self,
        storage: StorageManager,
        num_partitions: int | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(storage)
        self.num_partitions = num_partitions
        self.seed = seed

    def run_filter_step(
        self, input_a: PagedFile, input_b: PagedFile
    ) -> tuple[Page, JoinMetrics]:
        target = self.num_partitions or suggested_partitions(
            input_a.num_pages, self.storage.memory_pages
        )

        with self._phase("partition"):
            partitions = self._sample_seeds(input_a, target)
            files_a = self._partition_a(input_a, partitions)
            # The A tails are complete: push them out now (one
            # sequential write each — they'd be written at the phase
            # boundary anyway) instead of leaving dirty pages whose
            # eviction during the B scan would depend on LRU recency
            # order (see repro.core.partition's parity invariant).
            for handle in files_a.values():
                handle.flush()
            files_b, written_b, filtered_b = self._partition_b(input_b, partitions)
            self.storage.phase_boundary()

        pairs: list[tuple[int, int]] = []
        result = self.storage.create_file(
            self._file_name("result"), CandidatePairCodec()
        )
        overflowed = 0
        events = self.obs.events
        with self._phase("join"):
            for index in range(len(partitions)):
                overflowed += self._join_pair(
                    files_a.get(index), files_b.get(index), result, pairs
                )
                if events.enabled:
                    events.emit(
                        "shard_progress", phase="join", done=index + 1,
                        total=len(partitions), detail=f"P{index}",
                        pairs=len(pairs),
                    )
            self.storage.phase_boundary()

        metrics = self._build_metrics(
            num_partitions=len(partitions),
            filtered_b=filtered_b,
            overflowed_pairs=overflowed,
            result_pages=result.num_pages,
        )
        metrics.replication_a = 1.0  # SHJ never replicates the first input
        if input_b.num_records:
            metrics.replication_b = written_b / input_b.num_records
        return result.codec.page(pairs), metrics

    # -- sampling -------------------------------------------------------------

    def _sample_seeds(self, source: PagedFile, target: int) -> list[_Partition]:
        """Random page reads of A; sampled objects' centers seed the
        partitions (the ``cD`` random I/O term of equation 16).

        Following [LR95], several candidate objects are sampled per
        slot (:data:`SAMPLE_FACTOR`, the equation's integer ``c``); the
        seeds are then drawn from the candidate pool, which spreads
        them better than one draw per slot.
        """
        if source.num_pages == 0:
            return []
        rng = random.Random(self.seed)
        count = min(SAMPLE_FACTOR * target, source.num_pages)
        page_numbers = rng.sample(range(source.num_pages), count)
        candidates = []
        for page_no in page_numbers:
            records = source.read_page(page_no)  # a random, counted read
            # Drop the frame: whether a sampled page happens to survive
            # in the pool until the sequential scan reaches it depends
            # on eviction churn, and the ledger must not (see
            # repro.core.partition's parity invariant).
            source.pool.release(source.name, page_no)
            record = records[rng.randrange(len(records))].item()
            cx = (record[XLO] + record[XHI]) / 2
            cy = (record[YLO] + record[YHI]) / 2
            candidates.append((cx, cy))
        chosen = rng.sample(candidates, min(target, len(candidates)))
        return [_Partition(cx, cy) for cx, cy in chosen]

    # -- partitioning -----------------------------------------------------------

    def _partition_a(
        self, source: PagedFile, partitions: list[_Partition]
    ) -> dict[int, PagedFile]:
        """Assign every A entity to the partition with the nearest
        center, expanding that partition's MBR (no replication)."""
        return partition_nearest_center(
            source,
            storage=self.storage,
            partitions=partitions,
            namer=lambda index: self._file_name(f"A-P{index}"),
        )

    def _partition_b(
        self, source: PagedFile, partitions: list[_Partition]
    ) -> tuple[dict[int, PagedFile], int, int]:
        """Record every B entity in each partition whose MBR it
        overlaps (replication); filter entities overlapping none."""
        return partition_overlaps(
            source,
            storage=self.storage,
            partitions=partitions,
            namer=lambda index: self._file_name(f"B-P{index}"),
        )

    # -- joining -------------------------------------------------------------------

    def _join_pair(
        self,
        file_a: PagedFile | None,
        file_b: PagedFile | None,
        result: PagedFile,
        pairs: list[tuple[int, int]],
    ) -> int:
        """Join one partition pair: R-tree on A's side, probe with B's.

        When the A partition exceeds memory, it is processed in memory-
        sized blocks, rescanning B for each block (the analysis's
        nested-loops fallback, equation 19).  Returns 1 when the pair
        overflowed memory.
        """
        if file_a is None or file_b is None:
            return 0
        if file_a.num_records == 0 or file_b.num_records == 0:
            return 0
        stats = self.storage.stats
        memory = self.storage.memory_pages
        block_pages = max(1, memory - 1)
        overflowed = int(file_a.num_pages > block_pages)

        for block_start in range(0, file_a.num_pages, block_pages):
            tree = RTree(stats=stats)
            block_end = min(block_start + block_pages, file_a.num_pages)
            for page_no in range(block_start, block_end):
                for record in file_a.read_page(page_no).tolist():
                    tree.insert(
                        Rect(record[XLO], record[YLO], record[XHI], record[YHI]),
                        record,
                    )
            # A B page's pairs go out before the next B page is read,
            # where per-pair appends would have put them.
            for page_b in file_b.scan_pages():
                found = []
                for record_b in page_b.tolist():
                    window = Rect(
                        record_b[XLO], record_b[YLO], record_b[XHI], record_b[YHI]
                    )
                    for record_a in tree.search(window):
                        stats.charge_cpu("mbr_test")
                        found.append((record_a[EID], record_b[EID]))
                result.extend(found)
                pairs += found
        self.storage.drop_file(file_a.name)
        self.storage.drop_file(file_b.name)
        return overflowed
