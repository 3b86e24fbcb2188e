"""The verification workload catalog.

Generated workloads target the semantics the algorithms must agree on
— uniform overlap, grid-aligned boundary contact, size mixes spanning
many Filter-Tree levels, and degenerate (zero-area) geometry — while
the paper workloads re-use the Table 3 catalog at a tiny scale so the
harness also covers the exact inputs the experiments run.
"""

from __future__ import annotations

from repro.datagen.triangular import triangular_squares
from repro.datagen.uniform import uniform_squares
from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.join.dataset import SpatialDataset
from repro.join.predicates import WithinDistance
from repro.verify.cases import VerifyCase

PAPER_SCALE = 0.005
"""Scale for the paper workloads: Table 3 sizes collapse to their
100-entity floor, small enough for quadratic oracles and shrinking."""


def grid_aligned_dataset(
    grid: int, count: int, seed: int, name: str
) -> SpatialDataset:
    """Rectangles whose corners all lie on the ``1/grid`` lattice.

    Every MBR touches grid lines by construction, many share edges or
    corners with their neighbors, and a fraction are degenerate
    (zero-width, zero-height, or single points) — the closed-interval
    boundary cases that separate correct quantization from off-by-one
    quantization.
    """
    import random

    rng = random.Random(seed)
    entities = []
    for eid in range(count):
        xlo = rng.randrange(grid) / grid
        ylo = rng.randrange(grid) / grid
        xhi = min(1.0, xlo + rng.randrange(0, 3) / grid)
        yhi = min(1.0, ylo + rng.randrange(0, 3) / grid)
        entities.append(Entity(eid, Rect(xlo, ylo, xhi, yhi)))
    return SpatialDataset(
        name, entities, description=f"{count} rects on the 1/{grid} lattice"
    )


def degenerate_dataset(grid: int, count: int, seed: int, name: str) -> SpatialDataset:
    """Points and axis-parallel segments lying *on* grid lines."""
    import random

    rng = random.Random(seed)
    entities = []
    for eid in range(count):
        x = rng.randrange(grid + 1) / grid
        y = rng.randrange(grid + 1) / grid
        kind = eid % 3
        if kind == 0:  # point
            box = Rect(x, y, x, y)
        elif kind == 1:  # horizontal segment along a grid line
            xhi = min(1.0, x + rng.randrange(1, 3) / grid)
            box = Rect(x, y, xhi, y)
        else:  # vertical segment along a grid line
            yhi = min(1.0, y + rng.randrange(1, 3) / grid)
            box = Rect(x, y, x, yhi)
        entities.append(Entity(eid, box))
    return SpatialDataset(
        name, entities, description=f"{count} degenerate shapes on the 1/{grid} grid"
    )


def generated_cases(seed: int = 0) -> list[VerifyCase]:
    """The generated workloads, deterministic in ``seed``."""
    uniform_a = uniform_squares(140, 0.02, seed=seed + 1, name="UNI-A")
    uniform_b = uniform_squares(170, 0.03, seed=seed + 2, name="UNI-B")
    aligned_a = grid_aligned_dataset(8, 110, seed=seed + 3, name="GRID-A")
    aligned_b = grid_aligned_dataset(16, 130, seed=seed + 4, name="GRID-B")
    mixed = triangular_squares(
        160, l_min=1.0, l_mode=5.0, l_max=9.0, seed=seed + 5, name="MIX"
    )
    degenerate = degenerate_dataset(8, 120, seed=seed + 6, name="DEGEN")
    return [
        VerifyCase("uniform", uniform_a, uniform_b),
        VerifyCase("grid-aligned", aligned_a, aligned_b),
        VerifyCase("mixed-self", mixed, mixed),
        VerifyCase(
            "degenerate-self",
            degenerate,
            degenerate,
            predicate=WithinDistance(1e-3),
        ),
    ]


def paper_cases(scale: float = PAPER_SCALE) -> list[VerifyCase]:
    """Two paper workloads (Table 4 rows) at verification scale: a
    non-self uniform join and the CFD within-distance self join."""
    from repro.experiments.workloads import workload_by_name

    cases = []
    for name in ("UN1-UN2", "CFD"):
        workload = workload_by_name(name)
        dataset_a, dataset_b = workload.datasets(scale)
        cases.append(
            VerifyCase(
                f"paper:{name}",
                dataset_a,
                dataset_b,
                predicate=workload.predicate(),
            )
        )
    return cases


def default_cases(quick: bool = True, seed: int = 0) -> list[VerifyCase]:
    """The harness's workload roster.

    Quick mode keeps the three fastest generated workloads; full mode
    adds the degenerate self join and the paper workloads.
    """
    generated = generated_cases(seed)
    if quick:
        return generated[:3]
    return generated + paper_cases()


def cases_by_name(names: tuple[str, ...], seed: int = 0) -> list[VerifyCase]:
    """Select workloads by name from the full catalog."""
    catalog = {case.name: case for case in generated_cases(seed) + paper_cases()}
    unknown = set(names) - set(catalog)
    if unknown:
        raise ValueError(
            f"unknown workloads {sorted(unknown)}; choose from {sorted(catalog)}"
        )
    return [catalog[name] for name in names]
