"""The paper's Table 3 data set catalog, scale-parameterized.

``paper_datasets(scale)`` regenerates all seven data sets.  At
``scale=1.0`` entity counts match the paper exactly (100,000 uniform
squares, 53,145 LB segments, ...); smaller scales shrink counts
proportionally while holding *coverage* constant, so every shape result
(who wins, phase proportions, replication factors) is preserved at
laptop-friendly sizes.  Benchmarks read the scale from the
``REPRO_SCALE`` environment variable (default 0.2).
"""

from __future__ import annotations

import math
import os

from repro.datagen.cfd import cfd_points
from repro.datagen.tiger import road_segments
from repro.datagen.triangular import triangular_squares
from repro.datagen.uniform import uniform_squares_by_coverage
from repro.join.dataset import SpatialDataset

PAPER_SIZES = {
    "UN1": 100_000,
    "UN2": 100_000,
    "UN3": 100_000,
    "LB": 53_145,
    "MG": 39_000,
    "TR": 50_000,
    "CFD": 208_688,
}

PAPER_COVERAGE = {
    "UN1": 0.4,
    "UN2": 0.9,
    "UN3": 1.6,
    "LB": 0.15,
    "MG": 0.12,
    "TR": 13.96,
    "CFD": 0.0,
}


def default_scale() -> float:
    """Scale factor from ``REPRO_SCALE`` (default 0.2); a value that is
    not a finite number above 0 raises ``ValueError``."""
    text = os.environ.get("REPRO_SCALE", "0.2")
    try:
        scale = float(text)
    except ValueError:
        scale = math.nan
    if not 0 < scale < math.inf:
        raise ValueError(f"REPRO_SCALE must be a finite number above 0 (got {text!r})")
    return scale


def scaled_count(name: str, scale: float) -> int:
    """Entity count of one data set at the given scale (min 100)."""
    return max(100, int(PAPER_SIZES[name] * scale))


def paper_datasets(
    scale: float | None = None, only: tuple[str, ...] | None = None
) -> dict[str, SpatialDataset]:
    """Regenerate the Table 3 data sets (optionally a subset)."""
    if scale is None:
        scale = default_scale()
    if scale <= 0:
        raise ValueError("scale must be positive")
    names = only or tuple(PAPER_SIZES)
    datasets: dict[str, SpatialDataset] = {}
    for name in names:
        datasets[name] = _make(name, scale)
    return datasets


def _make(name: str, scale: float) -> SpatialDataset:
    count = scaled_count(name, scale)
    if name in ("UN1", "UN2", "UN3"):
        seed = {"UN1": 11, "UN2": 22, "UN3": 33}[name]
        return uniform_squares_by_coverage(
            count, PAPER_COVERAGE[name], seed=seed, name=name
        )
    if name in ("LB", "MG"):
        # A random-direction segment of length s has mean MBR area
        # s^2 E|sin t cos t| = s^2 / pi; pick s so n segments hit the
        # Table 3 coverage at any scale.
        length = math.sqrt(math.pi * PAPER_COVERAGE[name] / count)
        towns = 14 if name == "LB" else 10
        seed = 44 if name == "LB" else 55
        return road_segments(
            count, towns=towns, segment_length=length, seed=seed, name=name
        )
    if name == "TR":
        return triangular_squares(
            count, 4.0, 18.0, 19.0, seed=66, name="TR",
            target_coverage=PAPER_COVERAGE["TR"],
        )
    if name == "CFD":
        return cfd_points(count, seed=77, name="CFD")
    raise ValueError(f"unknown paper data set {name!r}")


def table3_rows(scale: float | None = None) -> list[dict[str, object]]:
    """Regenerate Table 3: name, type, size, measured coverage."""
    datasets = paper_datasets(scale)
    rows = []
    for name, dataset in datasets.items():
        rows.append(
            {
                "name": name,
                "type": dataset.description,
                "size": len(dataset),
                "coverage": round(dataset.coverage(), 3),
                "paper_coverage": PAPER_COVERAGE[name],
            }
        )
    return rows
