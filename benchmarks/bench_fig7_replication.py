"""E-F7 — figure 7: fraction of replicated objects as a function of
``d * 2^j`` (object side times tiles per dimension).

The analytic curve is ``2x - x^2`` (equation 11); the measured series
lays an increasingly fine regular tile grid over a real uniform-square
data set and counts the squares that fall in more than one tile: those
whose corners, quantized to the grid, differ on either axis.
"""

import pytest

from benchmarks.costmodel import replicated_fraction
from repro.datagen.uniform import uniform_squares
from repro.filtertree.levels import quantize_array

SIDE = 0.01
COUNT = 5_000
TILE_COUNTS = (8, 16, 32, 64)  # d * 2^j = 0.08 .. 0.64


def measure_replicated_fraction(tiles_per_dim: int) -> float:
    _, xlo, ylo, xhi, yhi = uniform_squares(COUNT, SIDE, seed=7).columns()
    spans = [
        quantize_array(low, tiles_per_dim, "low") != quantize_array(high, tiles_per_dim, "high")
        for low, high in ((xlo, xhi), (ylo, yhi))
    ]
    return int((spans[0] | spans[1]).sum()) / COUNT


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
