"""The in-memory S3J: size separation over columnar arrays.

Same structure as the ledger-mode algorithm (partition by Filter-Tree
level, order by curve key, join nested cells) but executed as NumPy
array passes with no storage simulation, and a Python trip count that
depends on the cell level ``K`` only — not on the number of entities or
occupied cells:

- **partition** — vectorized level classification and depth-``K`` cell
  assignment (:class:`~repro.fastpath.columnar.ColumnarDataset`);
- **sort** — one ``argsort`` of both inputs' ``xlo`` together replaces
  every x coordinate by an integer *rank*: ``rlo`` is a row's position
  in that order (a permutation, so nothing ties) and ``rhi`` that of the
  last ``xlo`` not above its ``xhi``.  Two boxes x-overlap exactly when
  ``rlo(a) <= rhi(b)`` and ``rlo(b) <= rhi(a)``;
- **join** — per cell level ``lc <= K`` and role, **one** call of the
  forward-sweep kernel (:mod:`repro.fastpath.sweep`) on the int64 keys
  ``ancestor_cell(lc) * R + rank``, ``R`` the number of ranks: a key
  range ``[klo, khi]`` cannot leave its cell, so the one sweep is the
  sweep of every cell of the level side by side.  The kernel yields
  candidates a chunk at a time and the y-mask runs per chunk, so peak
  memory is the columns plus one chunk whatever the candidate count.

Cell nesting replaces the synchronized scan: levels are capped at a
*cell level* ``K`` (so cells stay coarse enough to have work in them),
and two entities can only intersect when one's ``(level, cell)`` is an
ancestor of — or equal to — the other's: ``level()`` places every box
strictly inside a half-open grid cell (boxes touching a grid line get a
coarser level), and half-open cells of two levels are nested or
disjoint.  So level ``lc`` joins one input's entities *at* ``lc`` with
the other's at ``lc`` or finer, matched on the level-``lc`` ancestor
cell: the top ``2*lc`` bits of the depth-``K`` cell key.  Role 1 (A
fine, B at ``lc``) takes equal levels too, role 2 (B fine, A at ``lc``)
strictly finer ones only — each nested pair exactly once; a self join
keeps role 1 (its ``PAIR`` array's canonicalization folds the mirror images).

The returned :class:`~repro.join.result.JoinResult` carries Table-2
compatible metrics: the three phases of ledger S3J with counted CPU
operations (level/hilbert/compare/mbr_test) priced by the default cost
model, zero simulated I/O, and ``details["mode"] == "memory"``.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from repro.curves.base import SpaceFillingCurve
from repro.curves.hilbert import HilbertCurve
from repro.fastpath.columnar import ColumnarDataset
from repro.fastpath.sweep import forward_sweep_pairs
from repro.filtertree.levels import LevelAssigner
from repro.join.dataset import SpatialDataset
from repro.join.metrics import JoinMetrics
from repro.join.predicates import Intersects, JoinPredicate
from repro.join.result import JoinResult, canonical_pairs
from repro.obs import NULL_OBS, Observability
from repro.obs.events import progress_emitter
from repro.storage.costs import CostModel, sort_comparison_count
from repro.storage.iostats import PhaseStats
from repro.storage.records import PAIR

import numpy as np

DEFAULT_CELL_OCCUPANCY = 128
"""Target entities per occupied cell when auto-picking the cell level."""

PHASE_NAMES = ("partition", "sort", "join")
"""Memory mode reports the same Table 2 phases as ledger-mode S3J."""


def default_cell_level(count: int, max_level: int) -> int:
    """Cell level ``K`` targeting :data:`DEFAULT_CELL_OCCUPANCY`
    entities per cell: a ``2^K`` grid has ``4^K`` cells, so ``K =
    floor(log4(n/occupancy))``, clamped to ``[0, max_level]``."""
    if count <= DEFAULT_CELL_OCCUPANCY:
        return 0
    return max(0, min(max_level, int(math.log(count / DEFAULT_CELL_OCCUPANCY, 4))))


class _Rows(NamedTuple):
    """Every row of the join — both inputs — as parallel columns in
    ``xlo`` order, so a row's index is the rank ``rlo`` of its ``xlo``."""

    rhi: np.ndarray  # rank of the last xlo <= this row's xhi
    ylo: np.ndarray
    yhi: np.ndarray
    eid: np.ndarray
    eff: np.ndarray  # effective level: min(level, K)
    cell: np.ndarray  # depth-K cell key


def _rank_x(
    columns: Sequence[ColumnarDataset], cell_level: int
) -> tuple[_Rows, list[np.ndarray]]:
    """The sort phase: one argsort puts every row of the join in
    ``xlo`` order.  Returns the rows and each input's own row indices."""

    def joined(name: str) -> np.ndarray:
        return np.concatenate([getattr(col, name) for col in columns])

    xlo = joined("xlo")
    order = np.argsort(xlo)
    rows = _Rows(
        rhi=np.searchsorted(xlo[order], joined("xhi")[order], side="right") - 1,
        ylo=joined("ylo")[order],
        yhi=joined("yhi")[order],
        eid=joined("eid")[order],
        eff=np.minimum(joined("level")[order], cell_level),
        cell=joined("cell")[order],
    )
    in_a = order < len(columns[0])
    return rows, [np.flatnonzero(in_a), np.flatnonzero(~in_a)][: len(columns)]


def _level_order(rows: _Rows, side: np.ndarray, level: int, shift: int) -> np.ndarray:
    """One input's rows at ``level`` or finer, ordered by (ancestor cell
    ``cell >> shift``, rank).  ``side`` is in rank order already, so a
    stable sort on the cell id alone does it — a radix sort while the id
    fits 16 bits (``level <= 8``)."""
    index = side[rows.eff[side] >= level]
    cell = (rows.cell[index] >> shift).astype(np.min_scalar_type((1 << 2 * level) - 1))
    return index[np.argsort(cell, kind="stable")]


def _sweep_level(
    rows: _Rows,
    shift: int,
    fine: np.ndarray,
    coarse: np.ndarray,
    eids_fine: list[np.ndarray],
    eids_coarse: list[np.ndarray],
) -> tuple[int, int]:
    """One kernel call: every x-overlapping (fine, coarse) pair of one
    level, y-masked chunk by chunk.  ``fine`` and ``coarse`` index
    ``rows`` in :func:`_level_order`.  Appends the surviving eid columns;
    returns the candidate count (the ``mbr_test`` charge) and how many
    cells the coarse rows occupy."""

    def keyed(index: np.ndarray) -> tuple[np.ndarray, ...]:
        base = (rows.cell[index] >> shift) * len(rows.rhi)
        return base + index, base + rows.rhi[index], rows.ylo[index], rows.yhi[index], base

    fklo, fkhi, fylo, fyhi, _ = keyed(fine)
    cklo, ckhi, cylo, cyhi, cbase = keyed(coarse)
    candidates = 0
    for i, j in forward_sweep_pairs(fklo, fkhi, cklo, ckhi):
        candidates += len(i)
        keep = (fylo[i] <= cyhi[j]) & (cylo[j] <= fyhi[i])
        eids_fine.append(rows.eid[fine[i[keep]]])
        eids_coarse.append(rows.eid[coarse[j[keep]]])
    cells = len(coarse) and 1 + np.count_nonzero(cbase[1:] != cbase[:-1])
    return candidates, int(cells)


def join_columns(
    columns: list[ColumnarDataset], cell_level: int, obs: Observability = NULL_OBS
) -> tuple[np.ndarray, int, list[int]]:
    """The sort and join phases of :func:`memory_spatial_join` and of the
    service's live self-join (:mod:`repro.service.scan`), over one input
    (a self join, role 1 only) or two.  Returns the canonical ``PAIR``
    array, the candidates the y-mask tested (the ``mbr_test`` charge)
    and, per role, how many cells its coarse rows occupy.  ``columns``
    is emptied once ranked, freeing each input's level and cell columns."""
    self_join = len(columns) == 1
    with obs.tracer.span("sort", kind="phase"):
        rows, sides = _rank_x(columns, cell_level)
        columns.clear()

    with obs.tracer.span("join", kind="phase") as span:
        eids_a = [np.empty(0, dtype=np.int64)]
        eids_b = [np.empty(0, dtype=np.int64)]
        groups = [0] * len(sides)
        candidates = 0
        calls = (cell_level + 1) * len(sides)
        on_progress = progress_emitter(obs.events, "join", calls)
        for level in range(cell_level + 1):
            shift = 2 * (cell_level - level)
            fine = [_level_order(rows, side, level, shift) for side in sides]
            at_level = [rows.eff[index] == level for index in fine]
            # Role 1: A at `level` or finer x B at `level`; role 2,
            # its mirror image, takes strictly finer B only.
            sweeps = [(fine[0], fine[-1][at_level[-1]], eids_a, eids_b)]
            if not self_join:
                sweeps.append((fine[1][~at_level[1]], fine[0][at_level[0]], eids_b, eids_a))
            for role, sweep in enumerate(sweeps):
                tested, cells = _sweep_level(rows, shift, *sweep)
                candidates += tested
                groups[role] += cells
                if on_progress is not None:
                    on_progress(level * len(sides) + role + 1, f"level:{level}")
        raw = np.rec.fromarrays([np.concatenate(eids_a), np.concatenate(eids_b)], dtype=PAIR)
        pairs = canonical_pairs(raw, self_join)
        span.set(candidates=candidates, pairs=len(pairs))
    return pairs, candidates, groups


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

    Produces the exact candidate pair set of the ledger mode (every
    :func:`repro.verify.run_verify` sweep holds this to the oracle, and
    the refined set to the ledger mode's): both modes expand MBRs by the
    predicate's margin with the same expressions before filtering.

    ``cell_level`` caps how deep cells go (default: auto from input
    size); ``curve``/``max_level`` mirror the ledger algorithm's
    parameters so metamorphic transforms apply to both modes.
    """
    predicate = predicate or Intersects()
    obs = obs or NULL_OBS
    tracer = obs.tracer
    self_join = dataset_a is dataset_b
    curve = curve or HilbertCurve()
    assigner = LevelAssigner(curve.order, min(max_level, curve.order))
    if cell_level is None:
        count = max(len(dataset_a), len(dataset_b))
        cell_level = default_cell_level(count, assigner.max_level)
    elif not 0 <= cell_level <= assigner.max_level:
        raise ValueError(f"cell_level {cell_level} outside [0, {assigner.max_level}]")

    phases = {name: PhaseStats() for name in PHASE_NAMES}
    with tracer.span("memory_join", algorithm="s3j", mode="memory", self_join=self_join) as root:
        with tracer.span("partition", kind="phase"):
            margin = predicate.mbr_margin
            columns = [
                ColumnarDataset.from_dataset(dataset, margin, curve, assigner, cell_level)
                for dataset in ((dataset_a,) if self_join else (dataset_a, dataset_b))
            ]
            levels = [_level_histogram(col) for col in columns]
            classified = sum(map(len, columns))
            phases["partition"].charge_cpu("level", classified)
            phases["partition"].charge_cpu("hilbert", classified)

        compares = sum(sort_comparison_count(len(col)) for col in columns)
        phases["sort"].charge_cpu("compare", compares)
        # Empties `columns`: frees level and cell only, ids and corners are the data sets' own.
        pairs, candidates, groups = join_columns(columns, cell_level, obs)
        phases["join"].charge_cpu("mbr_test", candidates)

        metrics = JoinMetrics(
            algorithm="s3j",
            phase_names=PHASE_NAMES,
            phases=phases,
            cost_model=CostModel(),
            details={
                "mode": "memory",
                "cell_level": cell_level,
                "candidates": candidates,
                "groups_a": groups[-1],
                "groups_b": groups[0],
                "levels_a": levels[0],
                "levels_b": levels[-1],
            },
        )
        result = JoinResult(pair_array=pairs, metrics=metrics, self_join=self_join)
        if refine:
            with tracer.span("refine", kind="refine"):
                result.refine(predicate, dataset_a, dataset_b)
        root.set(candidate_pairs=len(result))
    return result


def _level_histogram(col: ColumnarDataset) -> dict[int, int]:
    """Entity count per Filter-Tree level (ledger ``levels_*`` detail)."""
    counts = np.bincount(col.level)
    return {int(level): int(counts[level]) for level in np.flatnonzero(counts)}
