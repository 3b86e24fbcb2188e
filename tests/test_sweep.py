"""Tests for the shared plane-sweep module.

Every case of :class:`SweepCases` runs through both entry points — the
paged engines' bulk one (x-sorted columns in, eid pairs out, the ledger
priced once per call) and the record-at-a-time reference — and
:class:`TestEquivalence` holds the two to the same pair sequence and
the same charges on the inputs where they could differ.
"""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.iostats import IOStats
from repro.storage.costs import sort_comparison_count
from repro.storage.records import XLO, EntityDescriptorCodec, concat_pages
from repro.sweep.plane_sweep import (
    _scan,
    sweep_intersections,
    sweep_self_intersections,
    x_sorted,
)


def scalar_sweep_intersections(a, b, stats=None):
    """Yield every pair of records with intersecting MBRs, one from
    each ``xlo``-ordered list — the record-at-a-time reference of
    :func:`sweep_intersections`, with the same charges."""
    ai = bi = 0
    len_a, len_b = len(a), len(b)
    while ai < len_a and bi < len_b:
        if a[ai][XLO] <= b[bi][XLO]:
            yield from _scan(a[ai], b, bi, stats, flip=False)
            ai += 1
        else:
            yield from _scan(b[bi], a, ai, stats, flip=True)
            bi += 1


def rec(eid, xlo, ylo, xhi, yhi):
    return (eid, xlo, ylo, xhi, yhi, 0)


def by_xlo(records):
    return sorted(records, key=lambda r: r[1])


def sorted_rows(records, stats=None):
    """Records as a descriptor page ordered by xlo."""
    return x_sorted(EntityDescriptorCodec().page(records), stats)


def bulk_sweep(left, right, stats=None):
    """The bulk entry point over record lists."""
    return sweep_intersections(
        sorted_rows(left, stats), sorted_rows(right, stats), stats=stats
    ).tolist()


def scalar_sweep(left, right, stats=None):
    """The reference over record lists; it takes x-sorted lists, so the
    sort and its price are the adapter's."""
    if stats is not None:
        stats.charge_cpu(
            "compare", sort_comparison_count(len(left)) + sort_comparison_count(len(right))
        )
    return [
        (a[0], b[0])
        for a, b in scalar_sweep_intersections(by_xlo(left), by_xlo(right), stats=stats)
    ]


def brute(left, right):
    found = set()
    for a in left:
        for b in right:
            if (
                a[1] <= b[3]
                and b[1] <= a[3]
                and a[2] <= b[4]
                and b[2] <= a[4]
            ):
                found.add((a[0], b[0]))
    return found


def random_records(rng, count, start_eid=0, max_side=0.3):
    records = []
    for i in range(count):
        x = rng.uniform(0, 1)
        y = rng.uniform(0, 1)
        w = rng.uniform(0, max_side)
        h = rng.uniform(0, max_side)
        records.append(rec(start_eid + i, x, y, min(1, x + w), min(1, y + h)))
    return records


class SweepCases:
    """The cases both entry points must pass; ``sweep`` is the adapter."""

    def test_empty_inputs(self):
        assert self.sweep([], []) == []
        assert self.sweep([rec(1, 0, 0, 1, 1)], []) == []
        assert self.sweep([], [rec(1, 0, 0, 1, 1)]) == []

    def test_single_pair(self):
        a = [rec(1, 0.0, 0.0, 0.5, 0.5)]
        b = [rec(2, 0.4, 0.4, 1.0, 1.0)]
        assert self.sweep(a, b) == [(1, 2)]

    def test_orientation_preserved(self):
        """First element of each reported pair comes from ``left``."""
        a = [rec(1, 0.5, 0.5, 0.6, 0.6)]
        b = [rec(2, 0.0, 0.0, 1.0, 1.0)]  # b starts before a
        assert self.sweep(a, b) == [(1, 2)]

    def test_touching_edges_match(self):
        a = [rec(1, 0.0, 0.0, 0.5, 1.0)]
        b = [rec(2, 0.5, 0.0, 1.0, 1.0)]
        assert len(self.sweep(a, b)) == 1

    def test_y_disjoint_filtered(self):
        a = [rec(1, 0.0, 0.0, 1.0, 0.2)]
        b = [rec(2, 0.0, 0.5, 1.0, 1.0)]
        assert self.sweep(a, b) == []

    def test_matches_brute_force_random(self):
        rng = random.Random(1)
        a = random_records(rng, 120)
        b = random_records(rng, 150, start_eid=1000)
        assert set(self.sweep(a, b)) == brute(a, b)

    def test_no_duplicate_reports(self):
        rng = random.Random(2)
        a = random_records(rng, 100)
        b = random_records(rng, 100, start_eid=1000)
        reported = self.sweep(a, b)
        assert len(reported) == len(set(reported))

    def test_identical_rectangles_both_sides(self):
        a = [rec(i, 0.2, 0.2, 0.4, 0.4) for i in range(5)]
        b = [rec(100 + i, 0.2, 0.2, 0.4, 0.4) for i in range(5)]
        assert len(self.sweep(a, b)) == 25

    def test_presorted_inputs(self):
        rng = random.Random(3)
        a = by_xlo(random_records(rng, 80))
        b = by_xlo(random_records(rng, 80, start_eid=500))
        assert set(self.sweep(a, b)) == brute(a, b)

    def test_charges_cpu(self):
        stats = IOStats()
        rng = random.Random(4)
        a = random_records(rng, 50)
        b = random_records(rng, 50, start_eid=500)
        self.sweep(a, b, stats=stats)
        assert stats.total.cpu_ops.get("mbr_test", 0) > 0
        assert stats.total.cpu_ops.get("compare", 0) > 0


class TestSweep(SweepCases):
    sweep = staticmethod(bulk_sweep)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_property_matches_brute(self, seed):
        rng = random.Random(seed)
        a = random_records(rng, rng.randrange(0, 60))
        b = random_records(rng, rng.randrange(0, 60), start_eid=1000)
        assert set(self.sweep(a, b)) == brute(a, b)


class TestScalarReference(SweepCases):
    sweep = staticmethod(scalar_sweep)


# -- bulk entry == scalar reference ---------------------------------------
#
# Coordinates are multiples of 1/16, so equal ``xlo`` across (and within)
# sides, touching edges, zero-width and zero-height rectangles and exact
# duplicates are all common: the cases where the two-class decomposition
# and the merge's ``<=`` must break ties the same way.

GRID = 16

record_on_grid = st.tuples(
    st.integers(0, GRID), st.integers(0, GRID), st.integers(0, 5), st.integers(0, 5)
).map(
    lambda t: (
        t[0] / GRID,
        t[1] / GRID,
        min(t[0] + t[2], GRID) / GRID,
        min(t[1] + t[3], GRID) / GRID,
    )
)


def record_lists(start_eid, max_size=24):
    return st.lists(record_on_grid, max_size=max_size).map(
        lambda boxes: [rec(start_eid + i, *box) for i, box in enumerate(boxes)]
    )


class TestEquivalence:
    @given(left=record_lists(0), right=record_lists(1000), presorted=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_same_pairs_in_the_same_order_for_the_same_price(self, left, right, presorted):
        if presorted:
            left, right = by_xlo(left), by_xlo(right)
        bulk_stats, scalar_stats = IOStats(), IOStats()
        bulk = bulk_sweep(left, right, stats=bulk_stats)
        scalar = scalar_sweep(left, right, stats=scalar_stats)
        assert bulk == scalar
        assert set(bulk) == brute(left, right) and len(bulk) == len(set(bulk))
        assert bulk_stats.total.cpu_ops == scalar_stats.total.cpu_ops

    @given(
        page=record_lists(0),
        open_pages=st.lists(record_lists(0, max_size=8), min_size=1, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_one_call_against_the_concatenated_open_pages(self, page, open_pages):
        """The candidate count is a sum over pairs, so the synchronized
        scan may sweep an arriving page against all open pages at once."""
        open_pages = [
            [rec(1000 * (n + 1) + r[0], *r[1:5]) for r in records]
            for n, records in enumerate(open_pages)
        ]
        scalar_stats, bulk_stats = IOStats(), IOStats()
        one_by_one = Counter()
        for records in open_pages:
            found = scalar_sweep_intersections(by_xlo(page), by_xlo(records), scalar_stats)
            one_by_one.update((a[0], b[0]) for a, b in found)
        at_once = sweep_intersections(
            sorted_rows(page),
            x_sorted(concat_pages([sorted_rows(records) for records in open_pages])),
            stats=bulk_stats,
        )
        assert Counter(at_once.tolist()) == one_by_one
        assert bulk_stats.total.cpu_ops == scalar_stats.total.cpu_ops

    def test_entity_ids_never_pass_through_a_float(self):
        big = 2**62 + 1  # not representable in float64
        found = sweep_intersections(
            sorted_rows([rec(big, 0.0, 0.0, 0.5, 0.5)]),
            sorted_rows([rec(-big, 0.5, 0.5, 1.0, 1.0)]),
        )
        assert found.tolist() == [(big, -big)]


class TestSelfSweep:
    def test_excludes_self_pairs(self):
        records = [rec(1, 0, 0, 1, 1)]
        assert list(sweep_self_intersections(records)) == []

    def test_each_pair_once(self):
        records = [rec(i, 0.2, 0.2, 0.4, 0.4) for i in range(4)]
        pairs = [
            frozenset((a[0], b[0]))
            for a, b in sweep_self_intersections(records)
        ]
        assert len(pairs) == 6
        assert len(set(pairs)) == 6

    def test_matches_brute_force(self):
        rng = random.Random(9)
        records = random_records(rng, 150)
        expected = {
            frozenset((a[0], b[0]))
            for i, a in enumerate(records)
            for b in records[i + 1 :]
            if a[1] <= b[3] and b[1] <= a[3] and a[2] <= b[4] and b[2] <= a[4]
        }
        found = {
            frozenset((a[0], b[0]))
            for a, b in sweep_self_intersections(by_xlo(records))
        }
        assert found == expected
