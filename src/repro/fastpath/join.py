"""The in-memory S3J: size separation over columnar arrays.

Same structure as the ledger-mode algorithm (partition by Filter-Tree
level, order by Hilbert key, join nested cells) but executed as NumPy
array passes with no storage simulation:

- **partition** — vectorized level classification and Hilbert-cell
  assignment (the PR 1 batched kernels via
  :class:`~repro.fastpath.columnar.ColumnarDataset`);
- **sort** — one ``np.lexsort`` per input grouping entities by
  ``(effective level, cell prefix)`` and ordering each group by ``xlo``;
- **join** — a forward-sweep kernel (:mod:`repro.fastpath.sweep`) per
  pair of *nested* cells.

Cell nesting replaces the synchronized scan: levels are capped at a
*cell level* ``K`` (so the grid stays coarse enough for groups to have
work in them), and two entities can only intersect when one's
``(level, prefix)`` cell is an ancestor of — or equal to — the other's.
That holds because ``level()`` places every box strictly inside a
half-open grid cell (PR 4's closed-interval semantics: boxes touching a
grid line get a coarser level), and half-open cells of any two levels
are either nested or disjoint.  Group pairs are therefore enumerated by
*ancestor lookups only* — at most ``K+1`` dictionary probes per group,
never a descendant enumeration.

The returned :class:`~repro.join.result.JoinResult` carries Table-2
compatible metrics: the same three phases as ledger S3J with honest CPU
operation counts (level/hilbert/compare/mbr_test) priced by the default
cost model, zero simulated I/O, and ``details["mode"] == "memory"``.
"""

from __future__ import annotations

import math

from repro.curves.base import SpaceFillingCurve
from repro.fastpath.columnar import ColumnarDataset
from repro.fastpath.sweep import forward_sweep_pairs
from repro.join.dataset import SpatialDataset
from repro.join.metrics import JoinMetrics
from repro.join.predicates import Intersects, JoinPredicate
from repro.join.result import JoinResult, canonical_pairs
from repro.obs import NULL_OBS, Observability
from repro.obs.events import progress_emitter
from repro.storage.costs import CostModel, sort_comparison_count
from repro.storage.iostats import PhaseStats

import numpy as np

DEFAULT_CELL_OCCUPANCY = 128
"""Target entities per occupied cell when auto-picking the cell level."""

PHASE_NAMES = ("partition", "sort", "join")
"""Memory mode reports the same Table 2 phases as ledger-mode S3J."""


def default_cell_level(
    count: int, max_level: int, occupancy: int = DEFAULT_CELL_OCCUPANCY
) -> int:
    """Cell level ``K`` targeting ``occupancy`` entities per cell: a
    ``2^K`` grid has ``4^K`` cells, so ``K = floor(log4(n/occupancy))``,
    clamped to ``[0, max_level]``."""
    if count <= occupancy:
        return 0
    return max(0, min(max_level, int(math.log(count / occupancy, 4))))


class _Groups:
    """One input's entities bucketed by ``(effective level, cell prefix)``.

    ``order`` sorts the input by ``(eff, prefix, xlo)``; groups are the
    contiguous runs of equal ``(eff, prefix)``, so each group's slice is
    already in ``xlo`` order — exactly what the sweep kernel needs.
    """

    def __init__(self, col: ColumnarDataset, cell_level: int) -> None:
        eff = np.minimum(col.level, cell_level)
        prefix = col.key >> (2 * (col.order - eff))
        order = np.lexsort((col.xlo, prefix, eff))
        self.eid = col.eid[order]
        self.xlo = col.xlo[order]
        self.ylo = col.ylo[order]
        self.xhi = col.xhi[order]
        self.yhi = col.yhi[order]
        eff_s = eff[order]
        pre_s = prefix[order]
        if len(eff_s):
            change = np.flatnonzero(
                (eff_s[1:] != eff_s[:-1]) | (pre_s[1:] != pre_s[:-1])
            )
            self.starts = np.concatenate(([0], change + 1))
            self.stops = np.concatenate((self.starts[1:], [len(eff_s)]))
        else:
            self.starts = np.empty(0, dtype=np.int64)
            self.stops = np.empty(0, dtype=np.int64)
        self.eff = eff_s[self.starts]
        self.prefix = pre_s[self.starts]
        self.lookup = {
            (int(level), int(pre)): idx
            for idx, (level, pre) in enumerate(zip(self.eff, self.prefix))
        }
        self.levels = sorted({int(level) for level in self.eff})

    def __len__(self) -> int:
        return len(self.starts)

    def slice(self, idx: int) -> tuple[np.ndarray, ...]:
        lo, hi = int(self.starts[idx]), int(self.stops[idx])
        return (
            self.eid[lo:hi],
            self.xlo[lo:hi],
            self.ylo[lo:hi],
            self.xhi[lo:hi],
            self.yhi[lo:hi],
        )


def _nested_group_pairs(
    groups_a: _Groups, groups_b: _Groups, self_join: bool
) -> list[tuple[int, int]]:
    """All ``(a_group, b_group)`` index pairs whose cells nest.

    Loop 1 finds, for each A group, every B group at an equal-or-
    coarser level whose cell contains it; loop 2 finds, for each B
    group, every *strictly* coarser A group — together covering each
    nested pair exactly once.  A self join keeps loop 1 only (the pair
    set is symmetric and canonicalization folds the mirror images).
    """
    pairs: list[tuple[int, int]] = []
    for ga in range(len(groups_a)):
        la, pa = int(groups_a.eff[ga]), int(groups_a.prefix[ga])
        for lb in groups_b.levels:
            if lb > la:
                break
            gb = groups_b.lookup.get((lb, pa >> (2 * (la - lb))))
            if gb is not None:
                pairs.append((ga, gb))
    if self_join:
        return pairs
    for gb in range(len(groups_b)):
        lb, pb = int(groups_b.eff[gb]), int(groups_b.prefix[gb])
        for la in groups_a.levels:
            if la >= lb:
                break
            ga = groups_a.lookup.get((la, pb >> (2 * (lb - la))))
            if ga is not None:
                pairs.append((ga, gb))
    return pairs


def memory_spatial_join(
    dataset_a: SpatialDataset,
    dataset_b: SpatialDataset,
    predicate: JoinPredicate | None = None,
    refine: bool = False,
    obs: Observability | None = None,
    curve: SpaceFillingCurve | None = None,
    max_level: int = 16,
    cell_level: int | None = None,
) -> JoinResult:
    """Run S3J entirely in memory and return a standard ``JoinResult``.

    Produces the exact candidate pair set of the ledger mode (the
    cross-mode parity gate :func:`repro.verify.run_cross_mode` holds this
    to the oracle suite): both modes expand MBRs by the predicate's
    margin with the same expressions before filtering.

    ``cell_level`` caps how deep cells go (default: auto from input
    size); ``curve``/``max_level`` mirror the ledger algorithm's
    parameters so metamorphic transforms apply to both modes.
    """
    from repro.curves.hilbert import HilbertCurve
    from repro.filtertree.levels import LevelAssigner

    predicate = predicate or Intersects()
    obs = obs or NULL_OBS
    tracer = obs.tracer
    self_join = dataset_a is dataset_b
    curve = curve or HilbertCurve()
    assigner = LevelAssigner(
        order=curve.order, max_level=min(max_level, curve.order)
    )
    margin = predicate.mbr_margin

    phases = {name: PhaseStats() for name in PHASE_NAMES}
    with tracer.span(
        "memory_join", algorithm="s3j", mode="memory", self_join=self_join
    ) as root:
        with tracer.span("partition", kind="phase"):
            col_a = ColumnarDataset.from_dataset(
                dataset_a, margin=margin, curve=curve, assigner=assigner
            )
            col_b = (
                col_a
                if self_join
                else ColumnarDataset.from_dataset(
                    dataset_b, margin=margin, curve=curve, assigner=assigner
                )
            )
            classified = len(col_a) + (0 if self_join else len(col_b))
            phases["partition"].charge_cpu("level", classified)
            phases["partition"].charge_cpu("hilbert", classified)

        if cell_level is None:
            cell_level = default_cell_level(
                max(len(col_a), len(col_b)), assigner.max_level
            )
        elif not 0 <= cell_level <= assigner.max_level:
            raise ValueError(
                f"cell_level {cell_level} outside [0, {assigner.max_level}]"
            )

        with tracer.span("sort", kind="phase"):
            groups_a = _Groups(col_a, cell_level)
            groups_b = groups_a if self_join else _Groups(col_b, cell_level)
            comparisons = sort_comparison_count(len(col_a))
            if not self_join:
                comparisons += sort_comparison_count(len(col_b))
            phases["sort"].charge_cpu("compare", comparisons)

        with tracer.span("join", kind="phase") as span:
            eids_a: list[np.ndarray] = []
            eids_b: list[np.ndarray] = []
            candidates = 0
            group_pairs = _nested_group_pairs(groups_a, groups_b, self_join)
            on_progress = progress_emitter(
                obs.events, "join", len(group_pairs),
                every=max(1, len(group_pairs) // 8),
            )
            for done, (ga, gb) in enumerate(group_pairs, start=1):
                aeid, axlo, aylo, axhi, ayhi = groups_a.slice(ga)
                beid, bxlo, bylo, bxhi, byhi = groups_b.slice(gb)
                ia, ib = forward_sweep_pairs(axlo, axhi, bxlo, bxhi)
                candidates += len(ia)
                keep = (aylo[ia] <= byhi[ib]) & (bylo[ib] <= ayhi[ia])
                eids_a.append(aeid[ia[keep]])
                eids_b.append(beid[ib[keep]])
                if on_progress is not None:
                    on_progress(done, f"cells:{ga}x{gb}")
            phases["join"].charge_cpu("mbr_test", candidates)
            if eids_a:
                raw = list(
                    zip(
                        np.concatenate(eids_a).tolist(),
                        np.concatenate(eids_b).tolist(),
                    )
                )
            else:
                raw = []
            pairs = canonical_pairs(raw, self_join)
            span.set(candidates=candidates, pairs=len(pairs))

        metrics = JoinMetrics(
            algorithm="s3j",
            phase_names=PHASE_NAMES,
            phases=phases,
            cost_model=CostModel(),
            details={
                "mode": "memory",
                "cell_level": cell_level,
                "candidates": candidates,
                "groups_a": len(groups_a),
                "groups_b": len(groups_b),
                "levels_a": _level_histogram(col_a),
                "levels_b": _level_histogram(col_b),
            },
        )
        result = JoinResult(pairs=pairs, metrics=metrics, self_join=self_join)
        if refine:
            with tracer.span("refine", kind="refine"):
                entities_a = dataset_a.entity_by_id()
                entities_b = (
                    entities_a if self_join else dataset_b.entity_by_id()
                )
                result.refine(predicate, entities_a, entities_b)
        root.set(candidate_pairs=len(result.pairs))
    return result


def _level_histogram(col: ColumnarDataset) -> dict[int, int]:
    """Entity count per Filter-Tree level (ledger ``levels_*`` detail)."""
    levels, counts = np.unique(col.level, return_counts=True)
    return {int(level): int(count) for level, count in zip(levels, counts)}
