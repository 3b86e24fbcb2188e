"""Tests for the in-memory vectorized fast path (``repro.fastpath``).

Three layers of evidence:

- **kernel vs oracle** — the forward-sweep interval kernel against a
  brute-force all-pairs oracle, including a hypothesis suite biased
  toward the hard inputs (duplicate coordinates, zero-area rectangles,
  boundary-touching intervals);
- **join vs oracle** — ``memory_spatial_join`` against the brute-force
  MBR join on generated workloads, self and non-self, with and without
  predicate margins;
- **cross-mode parity** — ``spatial_join(mode="memory")`` against the
  default ledger mode: identical pair sets, both equal to the oracle on
  grid-aligned, boundary-touching and degenerate inputs.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fastpath import (
    ColumnarDataset,
    default_cell_level,
    forward_sweep_pairs,
    memory_spatial_join,
    sweep_intersecting_pairs,
)
from repro.fastpath import sweep as sweep_module
from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.join.api import available_algorithms, spatial_join
from repro.join.dataset import SpatialDataset
from repro.join.predicates import WithinDistance
from repro.obs import Observability
from repro.obs.events import EventLog

from .conftest import brute_force_pairs, brute_force_self_pairs, make_squares

# ---------------------------------------------------------------------------
# Strategies: small discrete coordinate grids force duplicate coords and
# boundary-touching rectangles far more often than uniform floats would.

GRID = 8


def _boxes(draw, max_count: int) -> tuple[np.ndarray, ...]:
    count = draw(st.integers(min_value=0, max_value=max_count))
    coord = st.integers(min_value=0, max_value=GRID)
    xlo, ylo, xhi, yhi = [], [], [], []
    for _ in range(count):
        x1, x2 = sorted((draw(coord), draw(coord)))  # zero width allowed
        y1, y2 = sorted((draw(coord), draw(coord)))
        xlo.append(x1 / GRID)
        ylo.append(y1 / GRID)
        xhi.append(x2 / GRID)
        yhi.append(y2 / GRID)
    return tuple(np.asarray(arr, dtype=np.float64) for arr in (xlo, ylo, xhi, yhi))


@st.composite
def box_arrays(draw, max_count: int = 12):
    return _boxes(draw, max_count)


def _oracle_x_pairs(axlo, axhi, bxlo, bxhi) -> set[tuple[int, int]]:
    return {
        (i, j)
        for i in range(len(axlo))
        for j in range(len(bxlo))
        if axlo[i] <= bxhi[j] and bxlo[j] <= axhi[i]
    }


_EMPTY_SIDE = (np.empty(0, dtype=np.int64),) * 2
_FULL_SIDE = (np.arange(5, dtype=np.int64),) * 2


@st.composite
def level_keys(draw):
    """Two sides keyed like memory mode's: int64 ``cell * R + rank``
    composites, each sorted by its low key — a fine side of many rows and
    a coarse side of a few (so most class-1 ranges are empty), ranks
    drawn with repeats (duplicate keys), either side possibly empty, and
    either side first."""
    ranks = draw(st.integers(1, 16))
    cells = draw(st.integers(1, 4))

    def side(max_size):
        rows = draw(
            st.lists(
                st.tuples(st.integers(0, cells - 1), st.integers(0, ranks - 1), st.integers(0, 5)),
                max_size=max_size,
            )
        )
        base = np.array([cell * ranks for cell, _, _ in rows], dtype=np.int64)
        klo = base + np.array([rank for _, rank, _ in rows], dtype=np.int64)
        khi = base + np.array([min(rank + width, ranks - 1) for _, rank, width in rows], dtype=np.int64)
        order = np.argsort(klo, kind="stable")
        return klo[order], khi[order]

    fine, coarse = side(40), side(4)
    return (coarse, fine) if draw(st.booleans()) else (fine, coarse)


def _oracle_box_pairs(a, b) -> set[tuple[int, int]]:
    axlo, aylo, axhi, ayhi = a
    bxlo, bylo, bxhi, byhi = b
    return {
        (i, j)
        for i in range(len(axlo))
        for j in range(len(bxlo))
        if axlo[i] <= bxhi[j]
        and bxlo[j] <= axhi[i]
        and aylo[i] <= byhi[j]
        and bylo[j] <= ayhi[i]
    }


class TestForwardSweepKernel:
    @settings(max_examples=200, deadline=None)
    @given(a=box_arrays(), b=box_arrays())
    def test_x_candidates_match_oracle(self, a, b):
        axlo, _, axhi, _ = a
        bxlo, _, bxhi, _ = b
        oa = np.argsort(axlo, kind="stable")
        ob = np.argsort(bxlo, kind="stable")
        chunks = list(forward_sweep_pairs(axlo[oa], axhi[oa], bxlo[ob], bxhi[ob]))
        emitted = sum(len(ia) for ia, _ in chunks)
        got = {
            pair
            for ia, ib in chunks
            for pair in zip(oa[ia].tolist(), ob[ib].tolist())
        }
        assert emitted == len(got), "kernel produced a duplicate pair"
        assert got == _oracle_x_pairs(axlo, axhi, bxlo, bxhi)

    @settings(max_examples=300, deadline=None)
    @given(keys=level_keys())
    @example(keys=(_EMPTY_SIDE, _FULL_SIDE))
    @example(keys=(_FULL_SIDE, _EMPTY_SIDE))
    def test_sparse_ranges_on_memory_mode_keys(self, keys):
        """Only rows with a candidate get a range, and the chunks still
        hold every pair once, as many as the dense ranges count, within
        the budget unless a chunk is one row."""
        (axlo, axhi), (bxlo, bxhi) = keys
        budget = 4
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sweep_module, "CHUNK_CANDIDATES", budget)
            chunks = list(forward_sweep_pairs(axlo, axhi, bxlo, bxhi))
        pairs = [pair for ia, ib in chunks for pair in zip(ia.tolist(), ib.tolist())]
        assert len(pairs) == len(set(pairs)), "kernel produced a duplicate pair"
        assert set(pairs) == _oracle_x_pairs(axlo, axhi, bxlo, bxhi)
        lo1, hi1, lo2, hi2 = sweep_module._overlap_ranges(axlo, axhi, bxlo, bxhi)
        assert len(pairs) == int((hi1 - lo1).sum() + (hi2 - lo2).sum())
        for ia, ib in chunks:
            class_1 = bxlo[ib[0]] >= axlo[ia[0]]  # b starts inside a
            rows = ia if class_1 else ib
            assert len(ia) <= budget or len(np.unique(rows)) == 1

    @settings(max_examples=200, deadline=None)
    @given(a=box_arrays(), b=box_arrays())
    def test_intersecting_pairs_match_oracle(self, a, b):
        a = tuple(column[np.argsort(a[0], kind="stable")] for column in a)
        b = tuple(column[np.argsort(b[0], kind="stable")] for column in b)
        ia, ib, candidates = sweep_intersecting_pairs(a, b)
        got = set(zip(ia.tolist(), ib.tolist()))
        assert len(ia) == len(got), "kernel produced a duplicate pair"
        assert got == _oracle_box_pairs(a, b)
        assert candidates >= len(got)

    def test_boundary_touching_counts(self):
        # a.xhi == b.xlo and a.yhi == b.ylo: closed intervals intersect.
        a = tuple(np.array([v]) for v in (0.0, 0.0, 0.25, 0.25))
        b = tuple(np.array([v]) for v in (0.25, 0.25, 0.5, 0.5))
        ia, ib, _ = sweep_intersecting_pairs(a, b)
        assert set(zip(ia.tolist(), ib.tolist())) == {(0, 0)}

    def test_duplicate_identical_boxes(self):
        coords = (
            np.array([0.1, 0.1, 0.1]),
            np.array([0.2, 0.2, 0.2]),
            np.array([0.3, 0.3, 0.3]),
            np.array([0.4, 0.4, 0.4]),
        )
        ia, ib, _ = sweep_intersecting_pairs(coords, coords)
        assert len(ia) == 9  # full 3x3 cross product, each pair once

    def test_zero_area_point_on_edge(self):
        point = tuple(np.array([v]) for v in (0.5, 0.5, 0.5, 0.5))
        box = tuple(np.array([v]) for v in (0.25, 0.25, 0.5, 0.5))
        ia, ib, _ = sweep_intersecting_pairs(point, box)
        assert len(ia) == 1

    def test_empty_inputs(self):
        empty = tuple(np.empty(0) for _ in range(4))
        box = tuple(np.array([v]) for v in (0.0, 0.0, 1.0, 1.0))
        for a, b in [(empty, box), (box, empty), (empty, empty)]:
            ia, ib, candidates = sweep_intersecting_pairs(a, b)
            assert len(ia) == len(ib) == candidates == 0


class TestColumnarDataset:
    def test_margin_matches_entity_expansion(self):
        dataset = make_squares(40, 0.02, seed=7)
        margin = 0.015625  # 2**-6, exactly representable
        col = ColumnarDataset.from_dataset(dataset, margin=margin)
        for idx, entity in enumerate(dataset):
            box = entity.mbr.expanded(margin).clamped()
            assert col.xlo[idx] == box.xlo and col.xhi[idx] == box.xhi
            assert col.ylo[idx] == box.ylo and col.yhi[idx] == box.yhi

    def test_empty_dataset(self):
        col = ColumnarDataset.from_dataset(SpatialDataset("empty", []))
        assert len(col) == 0
        assert col.level.dtype == np.int64 and col.cell.dtype == np.int64

    def test_columns_are_built_once_and_read_only(self):
        dataset = make_squares(40, 0.02, seed=7)
        columns = dataset.columns()
        assert dataset.columns() is columns
        eid, *corners = columns
        assert eid.dtype == np.int64 and eid.tolist() == [e.eid for e in dataset]
        assert all(corner.dtype == np.float64 for corner in corners)
        for column in columns:
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
        # A join without margin hands the very same arrays on.
        col = ColumnarDataset.from_dataset(dataset)
        assert col.eid is eid and col.xlo is corners[0]
        assert ColumnarDataset.from_dataset(dataset, margin=0.1).xlo is not corners[0]

    def test_an_edit_cannot_leave_stale_columns(self):
        # The contents are fixed at construction, so there is no edit:
        # the caller's list is copied, the copy is a tuple, the instance
        # is frozen.  mbr() reads the same columns and agrees.
        entities = list(make_squares(10, 0.02, seed=3))
        dataset = SpatialDataset("fixed", entities)
        columns, box = dataset.columns(), dataset.mbr()
        entities.append(Entity.from_geometry(99, Rect(0.0, 0.0, 1.0, 1.0)))
        assert len(dataset) == 10 and dataset.columns() is columns and dataset.mbr() == box
        with pytest.raises(AttributeError):
            dataset.entities.append(entities[-1])
        with pytest.raises(AttributeError):  # the instance is immutable
            dataset.entities = entities
        grown = SpatialDataset("grown", entities)
        assert grown.mbr() == Rect(0.0, 0.0, 1.0, 1.0) and len(grown.columns()[0]) == 11

    @pytest.mark.parametrize(
        "ids, offender",
        [
            ([1.5, 2.5], "1.5"),
            ([7, 2**63], str(2**63)),
            ([7, -(2**63) - 1], str(-(2**63) - 1)),
            ([False, True], "False"),
        ],
    )
    def test_ids_outside_int64_are_refused_by_name(self, ids, offender):
        # One id rule for every engine: the constructor refuses, from
        # entities or from columns, so no join can be reached with them.
        box = Rect(0.25, 0.25, 0.75, 0.75)
        corners = [[0.25] * len(ids), [0.25] * len(ids), [0.75] * len(ids), [0.75] * len(ids)]
        for build in (
            lambda: SpatialDataset("odd-ids", [Entity.from_geometry(eid, box) for eid in ids]),
            lambda: SpatialDataset.from_columns("odd-ids", ids, *corners),
        ):
            with pytest.raises(ValueError) as raised:
                build()
            assert "'odd-ids'" in str(raised.value) and offender in str(raised.value)

    def test_int64_extremes_are_ids(self):
        box = Rect(0.25, 0.25, 0.75, 0.75)
        ids = [-(2**63), 2**63 - 1]
        dataset = SpatialDataset("wide", [Entity.from_geometry(eid, box) for eid in ids])
        assert memory_spatial_join(dataset, dataset).pairs == {tuple(ids)}

    def test_default_cell_level_bounds(self):
        assert default_cell_level(0, max_level=8) == 0
        assert default_cell_level(100, max_level=8) == 0
        assert default_cell_level(128 * 4**3, max_level=8) == 3
        assert default_cell_level(10**9, max_level=8) == 8


class TestMemoryJoinOracle:
    @pytest.mark.parametrize("count", [0, 1, 2, 50, 300])
    def test_self_join_matches_brute_force(self, count):
        dataset = make_squares(count, 0.02, seed=count)
        result = memory_spatial_join(dataset, dataset)
        assert result.pairs == brute_force_self_pairs(dataset)

    @pytest.mark.parametrize("count", [0, 1, 50, 300])
    def test_non_self_join_matches_brute_force(self, count):
        a = make_squares(count, 0.02, seed=count, name="A")
        b = make_squares(max(count, 1), 0.03, seed=count + 1, name="B")
        result = memory_spatial_join(a, b)
        assert result.pairs == brute_force_pairs(a, b)

    def test_within_distance_margin_applied(self):
        a = make_squares(80, 0.01, seed=3, name="A")
        b = make_squares(80, 0.01, seed=4, name="B")
        predicate = WithinDistance(0.01)
        result = memory_spatial_join(a, b, predicate=predicate)
        assert result.pairs == brute_force_pairs(a, b, predicate.mbr_margin)

    @pytest.mark.parametrize("cell_level", [0, 1, 3, 5])
    def test_forced_cell_level_parity(self, cell_level):
        a = make_squares(120, 0.015, seed=9, name="A")
        b = make_squares(130, 0.02, seed=10, name="B")
        expected = brute_force_pairs(a, b)
        result = memory_spatial_join(a, b, cell_level=cell_level)
        assert result.pairs == expected

    def test_all_residual_skew(self):
        # Every box straddles the center point: all land at level 0, so
        # the join degenerates to one group pair (the worst-case skew).
        entities = [
            Entity.from_geometry(
                eid, Rect(0.5 - d, 0.5 - d, 0.5 + d, 0.5 + d)
            )
            for eid, d in enumerate(np.linspace(0.01, 0.3, 30))
        ]
        dataset = SpatialDataset("skew", entities)
        result = memory_spatial_join(dataset, dataset)
        assert result.pairs == brute_force_self_pairs(dataset)
        assert len(result.pairs) == 30 * 29 // 2

    def test_metrics_shape(self):
        a = make_squares(60, 0.02, seed=1, name="A")
        b = make_squares(60, 0.02, seed=2, name="B")
        result = memory_spatial_join(a, b)
        metrics = result.metrics
        assert metrics.details["mode"] == "memory"
        assert metrics.total_ios == 0
        assert set(metrics.breakdown()) == {"partition", "sort", "join"}
        json.dumps(metrics.to_dict())  # must be serializable

    @pytest.mark.parametrize("self_join", [False, True])
    def test_progress_event_per_kernel_call(self, self_join):
        a = make_squares(700, 0.02, seed=1, name="A")
        b = a if self_join else make_squares(600, 0.02, seed=2, name="B")
        log = EventLog()
        result = memory_spatial_join(a, b, obs=Observability(events=log))
        progress = [e for e in log.to_dicts() if e["type"] == "shard_progress"]
        calls = (result.metrics.details["cell_level"] + 1) * (1 if self_join else 2)
        assert calls > 1
        assert [e["done"] for e in progress] == list(range(1, calls + 1))
        assert all(e["phase"] == "join" and e["total"] == calls for e in progress)

    def test_refine(self):
        a = make_squares(60, 0.02, seed=5, name="A")
        predicate = WithinDistance(0.01)
        result = memory_spatial_join(a, a, predicate=predicate, refine=True)
        assert result.refined is not None
        assert result.refined <= result.pairs


class TestCrossModeParity:
    def test_non_self_parity(self):
        a = make_squares(150, 0.015, seed=11, name="A")
        b = make_squares(170, 0.02, seed=12, name="B")
        ledger = spatial_join(a, b, mode="ledger")
        memory = spatial_join(a, b, mode="memory")
        assert ledger.pairs == memory.pairs == brute_force_pairs(a, b)

    def test_self_join_within_distance_parity(self):
        a = make_squares(140, 0.01, seed=13)
        predicate = WithinDistance(0.004)
        ledger = spatial_join(a, a, predicate=predicate, mode="ledger")
        memory = spatial_join(a, a, predicate=predicate, mode="memory")
        expected = brute_force_self_pairs(a, predicate.mbr_margin)
        assert ledger.pairs == memory.pairs == expected


def _dataset(name: str, boxes: list[Rect], start_eid: int = 0) -> SpatialDataset:
    return SpatialDataset(
        name, [Entity.from_geometry(start_eid + i, box) for i, box in enumerate(boxes)]
    )


def _tricky_boxes() -> list[Rect]:
    """Duplicate keys, zero-area points on grid lines, and boundary-
    touching boxes."""
    return [
        Rect(0.25, 0.25, 0.5, 0.5),        # high edge on the level-1 line
        Rect(0.25, 0.25, 0.5, 0.5),        # duplicate key, duplicate box
        Rect(0.25, 0.25, 0.5, 0.5),
        Rect(0.5, 0.5, 0.5, 0.5),          # zero-area point on a cell corner
        Rect(0.5, 0.25, 0.5, 0.75),        # zero-width segment on the line
        Rect(0.0, 0.5, 1.0, 0.5625),       # wide strip crossing every column
        Rect(0.5, 0.5, 0.75, 0.75),        # starts exactly on the corner
        Rect(0.4375, 0.4375, 0.5, 0.5),    # touches the corner from below
        Rect(0.0, 0.0, 0.0625, 0.0625),
        Rect(0.9375, 0.9375, 1.0, 1.0),
    ]


class TestSerialOracle:
    """Both execution modes against the brute-force oracle on inputs
    whose edges sit on Filter-Tree grid lines."""

    @given(
        a=box_arrays(max_count=25),
        b=box_arrays(max_count=25),
        margin=st.sampled_from((0.0, 1 / 32, 1 / 16)),
    )
    @settings(max_examples=10, deadline=None)
    def test_matches_oracle_in_both_modes(self, a, b, margin):
        dataset_a = _dataset("A", [Rect(*box) for box in zip(*a)])
        dataset_b = _dataset("B", [Rect(*box) for box in zip(*b)], start_eid=1000)
        predicate = WithinDistance(2 * margin) if margin else None
        oracle = brute_force_pairs(dataset_a, dataset_b, margin=margin)
        for mode in ("ledger", "memory"):
            result = spatial_join(dataset_a, dataset_b, predicate=predicate, mode=mode)
            assert result.pairs == oracle, (mode, margin)

    @pytest.mark.parametrize("mode", ["ledger", "memory"])
    def test_tricky_workload(self, mode):
        boxes_a = _tricky_boxes() + [e.mbr for e in make_squares(40, 0.03, seed=5)]
        boxes_b = _tricky_boxes() + [e.mbr for e in make_squares(40, 0.05, seed=6)]
        dataset_a = _dataset("A", boxes_a)
        dataset_b = _dataset("B", boxes_b, start_eid=1000)
        result = spatial_join(dataset_a, dataset_b, mode=mode)
        assert result.pairs == brute_force_pairs(dataset_a, dataset_b)

    @pytest.mark.parametrize("mode", ["ledger", "memory"])
    def test_self_join_matches_oracle(self, mode):
        dataset = _dataset(
            "S", _tricky_boxes() + [e.mbr for e in make_squares(50, 0.04, seed=7)]
        )
        result = spatial_join(dataset, dataset, mode=mode)
        assert result.self_join
        assert result.pairs == brute_force_self_pairs(dataset)

    @pytest.mark.parametrize("mode", ["ledger", "memory"])
    def test_within_distance(self, mode):
        dataset_a = make_squares(80, side=0.01, seed=8, name="A")
        dataset_b = make_squares(80, side=0.01, seed=9, name="B")
        eps = 0.04
        result = spatial_join(
            dataset_a, dataset_b, predicate=WithinDistance(eps), mode=mode
        )
        assert result.pairs == brute_force_pairs(dataset_a, dataset_b, margin=eps / 2)


class TestModeValidation:
    def test_unknown_mode_rejected(self):
        a = make_squares(5, 0.1, seed=0)
        with pytest.raises(ValueError, match="unknown mode"):
            spatial_join(a, a, mode="turbo")

    def test_memory_mode_requires_s3j(self):
        a = make_squares(5, 0.1, seed=0)
        with pytest.raises(ValueError, match="memory"):
            spatial_join(a, a, algorithm="pbsm", mode="memory")

    def test_memory_mode_rejects_storage(self):
        from repro.join.api import default_storage_config

        a = make_squares(5, 0.1, seed=0)
        with pytest.raises(ValueError, match="storage"):
            spatial_join(
                a, a, mode="memory", storage=default_storage_config(a, a)
            )

    def test_memory_mode_rejects_ledger_params(self):
        a = make_squares(5, 0.1, seed=0)
        with pytest.raises(ValueError, match="dsb_level"):
            spatial_join(a, a, mode="memory", dsb_level=2)


# Both execution modes, one process each.  The ids keep the "-1"
# suffix these cases had when multi-process legs ran beside them, so a
# case id names the same check across the project's history.
ONE_PROCESS_MODES = pytest.mark.parametrize(
    "mode", ["ledger", "memory"], ids=["ledger-1", "memory-1"]
)

EXACT_EPS = 0.0625  # 2**-4: the distance below is exactly representable


def _exact_margin_points() -> tuple[SpatialDataset, SpatialDataset]:
    """Two points whose x-distance is *exactly* the predicate distance.

    With ``WithinDistance(0.0625)`` each box expands by ``eps/2`` per
    side, so the expanded boxes touch at x = 0.5 exactly — a pair that
    only closed-interval semantics keeps, sitting precisely on a
    Hilbert cell boundary at every level.
    """
    left = Entity.from_geometry(0, Rect(0.46875, 0.5, 0.46875, 0.5))
    right = Entity.from_geometry(1, Rect(0.53125, 0.5, 0.53125, 0.5))
    return (
        SpatialDataset("left", [left]),
        SpatialDataset("right", [right]),
    )


class TestWithinDistanceExactMargin:
    """Regression: distance exactly equal to the predicate margin.

    The pair's expanded MBRs share a single boundary point on the
    center meridian; both execution modes must report it.
    """

    @ONE_PROCESS_MODES
    def test_non_self(self, mode):
        a, b = _exact_margin_points()
        result = spatial_join(
            a,
            b,
            predicate=WithinDistance(EXACT_EPS),
            mode=mode,
        )
        assert result.pairs == {(0, 1)}

    @ONE_PROCESS_MODES
    def test_self(self, mode):
        a, b = _exact_margin_points()
        dataset = SpatialDataset("both", list(a) + list(b))
        result = spatial_join(
            dataset,
            dataset,
            predicate=WithinDistance(EXACT_EPS),
            mode=mode,
        )
        assert result.pairs == {(0, 1)}

    @ONE_PROCESS_MODES
    def test_exact_grid_chain(self, mode):
        # Points spaced exactly eps apart along y = 0.5: every adjacent
        # pair sits exactly at the margin, non-adjacent pairs beyond it.
        xs = [0.25 + k * EXACT_EPS for k in range(8)]
        dataset = SpatialDataset(
            "chain",
            [
                Entity.from_geometry(eid, Rect(x, 0.5, x, 0.5))
                for eid, x in enumerate(xs)
            ],
        )
        result = spatial_join(
            dataset,
            dataset,
            predicate=WithinDistance(EXACT_EPS),
            mode=mode,
        )
        expected = {(eid, eid + 1) for eid in range(7)}
        assert result.pairs == expected


def _degenerate_datasets() -> dict[str, SpatialDataset]:
    skew = SpatialDataset(
        "skew",
        [
            Entity.from_geometry(
                eid, Rect(0.5 - d, 0.5 - d, 0.5 + d, 0.5 + d)
            )
            for eid, d in enumerate([0.01, 0.05, 0.1, 0.2, 0.3])
        ],
    )
    return {
        "empty": SpatialDataset("empty", []),
        "single": SpatialDataset(
            "single", [Entity.from_geometry(0, Rect(0.4, 0.4, 0.6, 0.6))]
        ),
        "skew": skew,
    }


class TestDegenerateMatrix:
    """0-entity, 1-entity, and all-residual inputs through every
    algorithm and execution mode that accepts them."""

    @pytest.mark.parametrize("shape", ["empty", "single", "skew"])
    @pytest.mark.parametrize("algorithm", sorted(available_algorithms()))
    def test_serial_ledger(self, shape, algorithm):
        dataset = _degenerate_datasets()[shape]
        result = spatial_join(dataset, dataset, algorithm=algorithm)
        assert result.pairs == brute_force_self_pairs(dataset)

    @pytest.mark.parametrize("shape", ["empty", "single", "skew"])
    @ONE_PROCESS_MODES
    def test_s3j_worker_mode_matrix(self, shape, mode):
        dataset = _degenerate_datasets()[shape]
        result = spatial_join(dataset, dataset, mode=mode)
        assert result.pairs == brute_force_self_pairs(dataset)

    @pytest.mark.parametrize("mode", ["ledger", "memory"])
    def test_empty_against_populated(self, mode):
        empty = _degenerate_datasets()["empty"]
        populated = make_squares(30, 0.05, seed=21, name="pop")
        for a, b in [(empty, populated), (populated, empty)]:
            result = spatial_join(a, b, mode=mode)
            assert result.pairs == frozenset()
