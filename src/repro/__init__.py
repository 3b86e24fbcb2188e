"""repro — Size Separation Spatial Join (S3J).

A complete, self-contained reproduction of:

    Nick Koudas and Kenneth C. Sevcik.
    "Size Separation Spatial Join". SIGMOD 1997.

The package implements the paper's contribution (S3J with Dynamic
Spatial Bitmaps), both evaluated baselines (PBSM and SHJ), and every
substrate they run on: a paged storage manager with an LRU buffer pool
and I/O accounting, external merge sort, plane sweep, an R-tree,
space-filling curves, the Filter-Tree level decomposition, and the data
generators of Table 3.  The analytic cost models of section 4 live
outside the package, beside the benchmark that checks them.

Quick start::

    from repro import spatial_join
    from repro.datagen import uniform_squares_by_coverage

    a = uniform_squares_by_coverage(20_000, 0.4, seed=1, name="A")
    b = uniform_squares_by_coverage(20_000, 0.9, seed=2, name="B")
    result = spatial_join(a, b, algorithm="s3j")
    print(len(result), "candidate pairs")
    print(result.metrics.describe())
"""

from repro.baselines import PartitionBasedSpatialMergeJoin, SpatialHashJoin
from repro.core import DynamicSpatialBitmap, SizeSeparationSpatialJoin
from repro.curves import GrayCurve, HilbertCurve, SpaceFillingCurve, ZOrderCurve
from repro.geometry import Entity, Point, Polygon, Rect, Segment
from repro.join import (
    Intersects,
    JoinMetrics,
    JoinResult,
    SpatialDataset,
    WithinDistance,
    available_algorithms,
    make_algorithm,
    spatial_join,
)
from repro.join.multiway import spatial_multiway_join
from repro.rtree import RTree
from repro.storage import StorageConfig, StorageManager

__version__ = "1.0.0"

__all__ = [
    "DynamicSpatialBitmap",
    "Entity",
    "GrayCurve",
    "HilbertCurve",
    "Intersects",
    "JoinMetrics",
    "JoinResult",
    "PartitionBasedSpatialMergeJoin",
    "Point",
    "Polygon",
    "RTree",
    "Rect",
    "Segment",
    "SizeSeparationSpatialJoin",
    "SpaceFillingCurve",
    "SpatialDataset",
    "SpatialHashJoin",
    "StorageConfig",
    "StorageManager",
    "WithinDistance",
    "ZOrderCurve",
    "available_algorithms",
    "make_algorithm",
    "spatial_join",
    "spatial_multiway_join",
    "__version__",
]
