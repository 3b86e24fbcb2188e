"""The shard planner: decompose one join into independent sub-joins.

:func:`plan_join` produces a :class:`ShardPlan` by the two-layer
space-oriented partitioning of Tsitsigkos et al. (PAPERS.md, arXiv
2307.09256).  The space is the ``4^k`` tiles of the level-``k``
Filter-Tree grid; every entity is *present* in each tile its
(margin-expanded) MBR overlaps, and within a tile it belongs to exactly
one class by where its MBR *starts* relative to the tile:

- **A** — both the low-x and low-y corner start in this tile;
- **B** — the MBR spills in from the west (starts in a tile with a
  smaller x, same y row);
- **C** — the MBR spills in from the south (same x column, smaller y);
- **D** — it spills in from both directions (the MBR's start tile is
  strictly south-west).

Each tile shard then runs a fixed set of class-pair *mini-joins*
instead of one monolithic join.  For a non-self join R ⋈ S the combos

    AA, AB, BA, AC, CA, AD, DA, BC, CB

find every intersecting pair **exactly once** across all tiles: with
closed-interval quantization the *reference tile* of a pair — the tile
of ``(max(xlo_r, xlo_s), max(ylo_r, ylo_s))`` — is the unique tile
where both MBRs are present and the class combo avoids both-spill-x
(``{B,D} x {B,D}``) and both-spill-y (``{C,D} x {C,D}``); see
DESIGN.md section 14 for the proof.  A self join collapses the ordered
combos to ``{AA(self), AB, AC, AD, BC}`` and the executor
canonicalizes mirrored pairs at merge time.  No tile ever joins
"everything", so no shard is a straggler by construction; the price is
replicated *references* (an entity is shipped to every tile it
overlaps), which the plan accounts for explicitly.

The planner routes on the *margin-expanded* MBR — the same box the
join algorithms partition on — so a distance predicate's expansion can
never move an entity across a shard boundary unseen.  The plan is a
pure function of the inputs and ``shard_level`` (never of the worker
count), so results are reproducible across worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.curves.base import SpaceFillingCurve
from repro.curves.hilbert import HilbertCurve
from repro.geometry.entity import Entity
from repro.join.dataset import SpatialDataset

TWO_LAYER_COMBOS = (
    ("A", "A"),
    ("A", "B"),
    ("B", "A"),
    ("A", "C"),
    ("C", "A"),
    ("A", "D"),
    ("D", "A"),
    ("B", "C"),
    ("C", "B"),
)
"""Ordered class combos of one tile's mini-joins (non-self join).

Exactly the combos where the two MBRs do not *both* spill into the
tile along the same axis — the pair's reference tile is then this
tile, so every result pair is found exactly once (DESIGN.md §14).
"""

TWO_LAYER_SELF_COMBOS = (
    ("A", "A"),
    ("A", "B"),
    ("A", "C"),
    ("A", "D"),
    ("B", "C"),
)
"""The self-join collapse of :data:`TWO_LAYER_COMBOS`: one unordered
combo per mirrored ordered pair (``AA`` runs as a self join and the
executor canonicalizes at merge)."""


def default_shard_level(workers: int) -> int:
    """The smallest level whose ``4^k`` cells cover ``workers`` shards
    (at least 1, so sharding is exercised even with one worker).

    Computed with integer bit arithmetic — ``ceil(log4(workers))`` via
    floats can come out one too high on libms where ``log(64, 4)``
    returns ``3.0000000000000004``.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    # ceil(log4(w)) == ceil(bit_length(w - 1) / 2) for w >= 2.
    return max(1, ((workers - 1).bit_length() + 1) // 2)


@dataclass(frozen=True)
class MiniJoin:
    """One class-pair sub-join inside a two-layer tile shard.

    ``self_join`` marks the ``AA`` mini-join of a self join, where both
    sides are the same dataset object; the cross-class mini-joins of a
    self join are *not* marked (their sides differ) and the executor
    canonicalizes their mirrored pairs at merge time.
    """

    label: str  # e.g. "AxB"
    dataset_a: SpatialDataset
    dataset_b: SpatialDataset
    self_join: bool = False

    @property
    def input_records(self) -> int:
        return len(self.dataset_a) + len(self.dataset_b)


@dataclass(frozen=True)
class ShardTask:
    """One tile shard: the tile's class-pair mini-joins, in plan order.

    ``dataset_a``/``dataset_b`` are the tile's full per-side presence
    sets (each entity once; the same object for a self join) — what
    ``input_records`` weighs and the plan accounting counts.  The
    executor ships only ``mini_joins``: the class subsets partition the
    presence sets, so shipping both would pickle every entity twice.
    """

    shard_id: str
    kind: str  # "tile"
    dataset_a: SpatialDataset
    dataset_b: SpatialDataset
    mini_joins: tuple[MiniJoin, ...]

    @property
    def input_records(self) -> int:
        return len(self.dataset_a) + len(self.dataset_b)


@dataclass
class ShardPlan:
    """The deterministic decomposition of one join into sub-joins.

    Accounting separates three ideas:

    - ``routed_*`` — entities the router assigned to at least one tile;
    - ``scheduled_*`` — distinct entities that appear in at least one
      planned task (an entity whose tiles host only one dataset is
      routed but *not* scheduled — it provably joins nothing);
    - ``replicated_*`` — extra per-task references beyond the distinct
      scheduled entities (presence replication).
    """

    shard_level: int
    tasks: list[ShardTask]
    routed_a: int = 0
    routed_b: int = 0
    scheduled_a: int = 0  # distinct entities appearing in >= 1 task
    scheduled_b: int = 0
    replicated_a: int = 0  # task references beyond the distinct entities
    replicated_b: int = 0

    def describe(self) -> dict[str, int]:
        return {
            "shard_level": self.shard_level,
            "tasks": len(self.tasks),
            "cells": len(self.tasks),
            "mini_joins": sum(len(task.mini_joins) for task in self.tasks),
            "routed_a": self.routed_a,
            "routed_b": self.routed_b,
            "scheduled_a": self.scheduled_a,
            "scheduled_b": self.scheduled_b,
            "replicated_a": self.replicated_a,
            "replicated_b": self.replicated_b,
        }

    def account_tasks(self) -> None:
        """Fill ``scheduled_*``/``replicated_*`` from the task list."""
        scheduled_a: set[int] = set()
        scheduled_b: set[int] = set()
        references_a = references_b = 0
        for task in self.tasks:
            references_a += len(task.dataset_a)
            references_b += len(task.dataset_b)
            scheduled_a.update(entity.eid for entity in task.dataset_a)
            scheduled_b.update(entity.eid for entity in task.dataset_b)
        self.scheduled_a = len(scheduled_a)
        self.scheduled_b = len(scheduled_b)
        self.replicated_a = references_a - self.scheduled_a
        self.replicated_b = references_b - self.scheduled_b


def _expanded(entity: Entity, margin: float):
    """The box the planner routes on — the same margin-expanded MBR
    the join algorithms partition on."""
    if margin == 0.0:
        return entity.mbr
    return entity.mbr.expanded(margin).clamped()


def _two_layer_classes(
    dataset: SpatialDataset,
    shard_level: int,
    curve: SpaceFillingCurve,
    margin: float,
) -> dict[tuple[int, int], dict[str, list[Entity]]]:
    """Tile -> class -> entities, for one side of a two-layer plan.

    Presence uses plain :meth:`~SpaceFillingCurve.quantize` for *both*
    corners (never the closed-interval ``quantize_hi``): an MBR whose
    high edge lies exactly on a grid line must also be present in the
    tile above the line, because a boundary-touching partner starting
    there makes that tile the pair's reference tile.  Over-generous
    presence can never create duplicate pairs — a pair is emitted only
    in its unique reference tile (DESIGN.md §14) — while under-presence
    would lose boundary-touch pairs.
    """
    shift = curve.order - shard_level
    tiles: dict[tuple[int, int], dict[str, list[Entity]]] = {}
    for entity in dataset:
        box = _expanded(entity, margin)
        start_x = curve.quantize(box.xlo) >> shift
        start_y = curve.quantize(box.ylo) >> shift
        end_x = curve.quantize(box.xhi) >> shift
        end_y = curve.quantize(box.yhi) >> shift
        for tile_x in range(start_x, end_x + 1):
            west = tile_x > start_x
            for tile_y in range(start_y, end_y + 1):
                south = tile_y > start_y
                cls = ("D" if west else "C") if south else ("B" if west else "A")
                tiles.setdefault((tile_x, tile_y), {}).setdefault(cls, []).append(
                    entity
                )
    return tiles


def plan_join(
    dataset_a: SpatialDataset,
    dataset_b: SpatialDataset,
    shard_level: int,
    curve: SpaceFillingCurve | None = None,
    margin: float = 0.0,
) -> ShardPlan:
    """Plan a sharded join (see the module docstring).

    One :class:`ShardTask` per occupied tile, carrying that tile's
    class-pair mini-joins; tiles are emitted in Hilbert-prefix order
    and named ``cell-<prefix>``, which is how fault-injection
    directives address shards.  Tiles whose mini-joins would all be
    empty (e.g. only one side present) are not scheduled.  Passing the
    same object for both datasets plans a self join.
    """
    curve = curve or HilbertCurve()
    _check_level(shard_level, curve)
    self_join = dataset_a is dataset_b

    tiles_a = _two_layer_classes(dataset_a, shard_level, curve, margin)
    tiles_b = (
        tiles_a
        if self_join
        else _two_layer_classes(dataset_b, shard_level, curve, margin)
    )

    width = _prefix_width(shard_level)
    by_prefix: dict[int, tuple[int, int]] = {
        curve.cell_key(tile_x, tile_y, shard_level): (tile_x, tile_y)
        for tile_x, tile_y in set(tiles_a) | set(tiles_b)
    }

    combos = TWO_LAYER_SELF_COMBOS if self_join else TWO_LAYER_COMBOS
    tasks: list[ShardTask] = []
    for prefix in sorted(by_prefix):
        tile = by_prefix[prefix]
        classes_a = tiles_a.get(tile, {})
        classes_b = classes_a if self_join else tiles_b.get(tile, {})
        shard_id = f"cell-{prefix:0{width}x}"
        subsets_a = {
            cls: SpatialDataset(f"{dataset_a.name}/{shard_id}/{cls}", entities)
            for cls, entities in classes_a.items()
        }
        subsets_b = (
            subsets_a
            if self_join
            else {
                cls: SpatialDataset(f"{dataset_b.name}/{shard_id}/{cls}", entities)
                for cls, entities in classes_b.items()
            }
        )
        minis: list[MiniJoin] = []
        for class_a, class_b in combos:
            sub_a = subsets_a.get(class_a)
            sub_b = subsets_b.get(class_b)
            if sub_a is None or sub_b is None:
                continue
            mini_self = self_join and class_a == "A" and class_b == "A"
            minis.append(
                MiniJoin(
                    label=f"{class_a}x{class_b}",
                    dataset_a=sub_a,
                    dataset_b=sub_a if mini_self else sub_b,
                    self_join=mini_self,
                )
            )
        if not minis:
            continue
        union_a = SpatialDataset(
            f"{dataset_a.name}/{shard_id}",
            [entity for cls in "ABCD" for entity in classes_a.get(cls, ())],
        )
        union_b = (
            union_a
            if self_join
            else SpatialDataset(
                f"{dataset_b.name}/{shard_id}",
                [entity for cls in "ABCD" for entity in classes_b.get(cls, ())],
            )
        )
        tasks.append(
            ShardTask(
                shard_id=shard_id,
                kind="tile",
                dataset_a=union_a,
                dataset_b=union_b,
                mini_joins=tuple(minis),
            )
        )

    plan = ShardPlan(
        shard_level=shard_level,
        tasks=tasks,
        routed_a=len(dataset_a),
        routed_b=len(dataset_b),
    )
    plan.account_tasks()
    return plan


def _check_level(shard_level: int, curve: SpaceFillingCurve) -> None:
    if not 1 <= shard_level <= curve.order:
        raise ValueError(
            f"shard_level {shard_level} outside [1, {curve.order}]"
        )


def _prefix_width(shard_level: int) -> int:
    """Hex digits covering a ``2k``-bit Hilbert prefix."""
    return -(-shard_level // 2)
