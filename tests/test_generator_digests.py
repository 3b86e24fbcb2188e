"""The generators' output, pinned bit for bit.

Each digest is a sha1 over the bytes of a data set's ``columns()`` (or
of its entities' exact geometry, which refinement reads), recorded
before the generators emitted columns directly.  A generator rewrite
that moves one coordinate by one ulp, draws one number more or fewer
before the last walk, or reorders a row fails here.

Regenerate (only when a generator is meant to change, and say so):
``PYTHONPATH=src python tests/test_generator_digests.py``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.datagen import (
    cfd_points,
    paper_datasets,
    road_segments,
    shifted_copy,
    table3_rows,
    triangular_squares,
    uniform_squares,
)
from repro.geometry.shapes import Point, Segment

CASES = {
    "uniform-0": lambda: uniform_squares(300, 0.03, seed=0),
    "uniform-1": lambda: uniform_squares(257, 0.05, seed=1),
    "triangular-0": lambda: triangular_squares(300, seed=0),
    "triangular-1": lambda: triangular_squares(211, seed=1, target_coverage=2.0),
    "roads12-0": lambda: road_segments(500, towns=12, seed=0),
    "roads12-1": lambda: road_segments(333, towns=12, segment_length=0.02, seed=1),
    "roads9-0": lambda: road_segments(400, towns=9, seed=0),
    "roads9-1": lambda: road_segments(617, towns=9, segment_length=0.05, seed=1),
    "cfd-0": lambda: cfd_points(500, seed=0),
    "cfd-1": lambda: cfd_points(431, far_fraction=0.1, seed=1),
    "shifted-roads-0": lambda: shifted_copy(road_segments(500, seed=0)),
    "shifted-roads-1": lambda: shifted_copy(road_segments(333, segment_length=0.02, seed=1)),
}

COLUMN_SHA1 = {
    "cfd-0": "c6de978557aa09ea3c9dbe73c76e9c015787b64a",
    "cfd-1": "a84bc491732feae4cab10b154f889e45a4a665b9",
    "roads12-0": "8c7b73ad606f7b39a4f7fe3c93fec5d30a595887",
    "roads12-1": "10400162dfa7842a59287052e74f37b8a7fc480e",
    "roads9-0": "454a653804ca08083ecbbbff4b8cbb7627281957",
    "roads9-1": "ad174ee6570a533f909b67c6a61655e82e2b5e58",
    "shifted-roads-0": "60810a2d7bca518195e1525d538ad55e5350c475",
    "shifted-roads-1": "f3832a9e7d2dd441e399d5234ffc33e478b36b81",
    "triangular-0": "d8185ddfd55bc8dd38d54fa04c65bad16b8bb673",
    "triangular-1": "aacd9ae0747cc7a9579ac9635f32ea2f5e1ecd78",
    "uniform-0": "d5a96633b59e46714122f9476453e8e49d37d28d",
    "uniform-1": "077a2b6d874b71bf6b3e346bb2c75fdf395f72aa",
}

GEOMETRY_SHA1 = {
    "cfd-0": "b52ec4106aed9fc17604207115d1e4521aa288ca",
    "cfd-1": "269392b3330fefb43565d403ddca2ae45cf6158f",
    "roads12-0": "33339290521b6e0de8da2d275c7c6b13cee9d545",
    "roads12-1": "54baf287dbcf924add5fdc3e9f0dc153081ab069",
    "roads9-0": "52bae1163b2761edb8dfd5898bbff24a1a69c6e4",
    "roads9-1": "d0bb8d5793b0edb4d26d381a38777ddc1764c315",
    "shifted-roads-0": "8fcaf4fb4f97c4c98156bf4e9dc5d470a8b6a312",
    "shifted-roads-1": "6f74278620217f7c2983b74ef99340bd2c2a2c43",
}

PAPER_SHA1 = "01e64cde6d8d87763b732007bb424413fb43d445"

TABLE3 = [
    {'name': 'UN1', 'type': '2000 uniformly distributed 0.01414-side squares', 'size': 2000, 'coverage': 0.401, 'paper_coverage': 0.4},
    {'name': 'UN2', 'type': '2000 uniformly distributed 0.02121-side squares', 'size': 2000, 'coverage': 0.903, 'paper_coverage': 0.9},
    {'name': 'UN3', 'type': '2000 uniformly distributed 0.02828-side squares', 'size': 2000, 'coverage': 1.602, 'paper_coverage': 1.6},
    {'name': 'LB', 'type': '1062 road-like segments (14 towns, step 0.0210648)', 'size': 1062, 'coverage': 0.152, 'paper_coverage': 0.15},
    {'name': 'MG', 'type': '780 road-like segments (10 towns, step 0.0219846)', 'size': 780, 'coverage': 0.121, 'paper_coverage': 0.12},
    {'name': 'TR', 'type': '1000 squares, side 2^-l, l ~ Triangular(4, 18, 19)', 'size': 1000, 'coverage': 14.014, 'paper_coverage': 13.96},
    {'name': 'CFD', 'type': '4173 mesh-node-like points around an airfoil-with-flap cross section', 'size': 4173, 'coverage': 0.0, 'paper_coverage': 0.0},
]

COVERAGE = [
    0.4009780975640821, 0.9033724283432034, 1.6020903485513291,
    0.15243048531970127, 0.12115276585250428, 14.013764044917133, 0.0,
]


def columns_sha1(*datasets) -> str:
    digest = hashlib.sha1()
    for dataset in datasets:
        for column in dataset.columns():
            digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


def geometry_sha1(dataset) -> str:
    """Over each entity's exact geometry: a segment's endpoints or a
    point's coordinates, in row order."""
    fields = {Segment: ("x1", "y1", "x2", "y2"), Point: ("x", "y")}
    values = [
        getattr(entity.geometry, field)
        for entity in dataset
        for field in fields[type(entity.geometry)]
    ]
    return hashlib.sha1(np.array(values, dtype=np.float64).tobytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_columns_are_pinned(case):
    assert columns_sha1(CASES[case]()) == COLUMN_SHA1[case]


@pytest.mark.parametrize("case", sorted(GEOMETRY_SHA1))
def test_geometry_is_pinned(case):
    assert geometry_sha1(CASES[case]()) == GEOMETRY_SHA1[case]


def test_paper_catalog_is_pinned():
    assert columns_sha1(*paper_datasets(0.02).values()) == PAPER_SHA1


def test_table3_is_unchanged():
    assert table3_rows(0.02) == TABLE3
    # Unrounded too: Table 3 rounds its coverage column to three places.
    assert [dataset.coverage() for dataset in paper_datasets(0.02).values()] == COVERAGE


if __name__ == "__main__":
    print("COLUMN_SHA1 = {")
    for case in sorted(CASES):
        print(f'    "{case}": "{columns_sha1(CASES[case]())}",')
    print("}\n\nGEOMETRY_SHA1 = {")
    for case in sorted(CASES):
        if case.startswith(("roads", "cfd", "shifted")):
            print(f'    "{case}": "{geometry_sha1(CASES[case]())}",')
    print(f'}}\n\nPAPER_SHA1 = "{columns_sha1(*paper_datasets(0.02).values())}"')
    print(f"\nTABLE3 = {table3_rows(0.02)!r}")
    print(f"\nCOVERAGE = {[d.coverage() for d in paper_datasets(0.02).values()]!r}")
