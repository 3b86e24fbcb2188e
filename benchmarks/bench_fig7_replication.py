"""E-F7 — figure 7: fraction of replicated objects as a function of
``d * 2^j`` (object side times tiles per dimension).

The analytic curve is ``2x - x^2`` (equation 11); the measured series
partitions real uniform-square data sets with PBSM over an increasingly
fine tile grid and counts entities recorded in more than one tile.
"""

import pytest

from benchmarks.costmodel import replicated_fraction
from repro.datagen.uniform import uniform_squares
from repro.filtertree.grid import cells_overlapping

SIDE = 0.01
COUNT = 5_000
TILE_COUNTS = (8, 16, 32, 64)  # d * 2^j = 0.08 .. 0.64


def measure_replicated_fraction(tiles_per_dim: int) -> float:
    dataset = uniform_squares(COUNT, SIDE, seed=7)
    replicated = 0
    for entity in dataset:
        level = tiles_per_dim.bit_length() - 1
        tiles = list(cells_overlapping(entity.mbr, level))
        if len(tiles) > 1:
            replicated += 1
    return replicated / COUNT


def test_fig7_replication_curve(benchmark):
    def sweep():
        return [
            (tiles, measure_replicated_fraction(tiles)) for tiles in TILE_COUNTS
        ]

    series = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print("\n--- Figure 7: fraction of replicated objects vs d*2^j ---")
    print(f"{'d*2^j':>8}{'measured':>10}{'analytic':>10}")
    for tiles, measured in series:
        x = SIDE * tiles
        predicted = replicated_fraction(x)
        print(f"{x:>8.2f}{measured:>10.3f}{predicted:>10.3f}")
        assert measured == pytest.approx(predicted, abs=0.03)

    # Monotone increase toward 1, as in the figure.
    fractions = [measured for _, measured in series]
    assert fractions == sorted(fractions)
    benchmark.extra_info["series"] = series
