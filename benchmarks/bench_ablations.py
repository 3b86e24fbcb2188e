"""Ablations over the design choices DESIGN.md calls out.

- space-filling curve choice (section 3.1: "any curve that recursively
  subdivides the space will work");
- precomputed vs on-the-fly Hilbert values (section 3.1);
- PBSM tile count (section 2.1: too few vs too many);
- memory budget sweep (equations 5/6: best vs worst case);
- the join phase's share of a one-shot S3J run (what prebuilt
  Filter-Tree indexes could amortize at best).
"""

import pytest

from repro.curves import GrayCurve, HilbertCurve, ZOrderCurve
from repro.datagen.uniform import uniform_squares
from repro.experiments.runner import run_algorithm

COUNT = 6_000
SIDE = 0.006


@pytest.fixture(scope="module")
def inputs():
    a = uniform_squares(COUNT, SIDE, seed=1, name="A")
    b = uniform_squares(COUNT, SIDE, seed=2, name="B")
    return a, b


class TestCurveAblation:
    @pytest.mark.parametrize("curve_cls", [HilbertCurve, ZOrderCurve, GrayCurve])
    def test_curve_choice(self, benchmark, inputs, repro_scale, curve_cls):
        a, b = inputs
        run = benchmark.pedantic(
            lambda: run_algorithm(
                a, b, "s3j", scale=repro_scale, curve=curve_cls()
            ),
            rounds=1,
            iterations=1,
        )
        print(
            f"\n{curve_cls.name}: {run.response_time:.2f}s, "
            f"{run.result.metrics.total_ios:,} I/Os, {len(run.result.pairs):,} pairs"
        )
        benchmark.extra_info["curve"] = curve_cls.name
        benchmark.extra_info["ios"] = run.result.metrics.total_ios
        assert len(run.result.pairs) > 0


class TestHilbertPrecomputation:
    def test_precomputed_saves_cpu(self, benchmark, inputs, repro_scale):
        """Section 3.1: storing Hilbert values in the descriptors saves
        the H-per-entity partition-phase CPU."""
        a, b = inputs

        def both():
            on_the_fly = run_algorithm(a, b, "s3j", scale=repro_scale)
            precomputed = run_algorithm(
                a, b, "s3j", scale=repro_scale, hilbert_precomputed=True
            )
            return on_the_fly, precomputed

        on_the_fly, precomputed = benchmark.pedantic(both, rounds=1, iterations=1)
        assert precomputed.result.pairs == on_the_fly.result.pairs
        plain_partition = on_the_fly.result.metrics.phases["partition"]
        pre_partition = precomputed.result.metrics.phases["partition"]
        assert plain_partition.cpu_ops.get("hilbert", 0) == 2 * COUNT
        assert pre_partition.cpu_ops.get("hilbert", 0) == 0
        assert precomputed.response_time < on_the_fly.response_time
        saved = on_the_fly.response_time - precomputed.response_time
        print(
            f"\nprecomputing Hilbert values saves {saved:.2f}s "
            f"({plain_partition.cpu_ops['hilbert']:,} computations at ~10us)"
        )
        benchmark.extra_info["saved_seconds"] = saved


class TestTileCountAblation:
    @pytest.mark.parametrize("tiles", [4, 16, 64, 128])
    def test_pbsm_tiles(self, benchmark, inputs, repro_scale, tiles):
        a, b = inputs
        run = benchmark.pedantic(
            lambda: run_algorithm(
                a, b, "pbsm", scale=repro_scale, tiles_per_dim=tiles
            ),
            rounds=1,
            iterations=1,
        )
        metrics = run.result.metrics
        print(
            f"\nPBSM {tiles}x{tiles}: {run.response_time:.2f}s, "
            f"r_A+r_B={metrics.replication_total:.2f}, "
            f"repartitions={metrics.details['repartitioned_pairs']}"
        )
        benchmark.extra_info["tiles"] = tiles
        benchmark.extra_info["replication"] = metrics.replication_total

    def test_replication_monotone_in_tiles(self, inputs, repro_scale):
        a, b = inputs
        factors = []
        for tiles in (4, 32, 128):
            run = run_algorithm(a, b, "pbsm", scale=repro_scale, tiles_per_dim=tiles)
            factors.append(run.result.metrics.replication_total)
        assert factors == sorted(factors)


class TestMemoryAblation:
    @pytest.mark.parametrize("fraction", [0.02, 0.10, 0.50])
    def test_s3j_memory_sweep(self, benchmark, inputs, fraction, repro_scale):
        """Less memory -> deeper merge sorts -> more I/O (eq. 3);
        ample memory approaches the best case (eq. 5)."""
        from repro.experiments.runner import make_storage_config
        from repro.join.api import spatial_join

        a, b = inputs
        config = make_storage_config(a, b, scale=repro_scale, memory_fraction=fraction)
        result = benchmark.pedantic(
            lambda: spatial_join(a, b, algorithm="s3j", storage=config),
            rounds=1,
            iterations=1,
        )
        print(
            f"\nM = {config.buffer_pages} pages ({fraction:.0%}): "
            f"{result.metrics.total_ios:,} I/Os"
        )
        benchmark.extra_info["memory_fraction"] = fraction
        benchmark.extra_info["ios"] = result.metrics.total_ios

    def test_more_memory_never_more_io(self, inputs, repro_scale):
        from repro.experiments.runner import make_storage_config
        from repro.join.api import spatial_join

        a, b = inputs
        ios = []
        for fraction in (0.02, 0.10, 0.50):
            config = make_storage_config(
                a, b, scale=repro_scale, memory_fraction=fraction
            )
            result = spatial_join(a, b, algorithm="s3j", storage=config)
            ios.append(result.metrics.total_ios)
        assert ios[0] >= ios[1] >= ios[2]


class TestJoinPhaseShare:
    def test_join_phase_share_of_one_shot_s3j(self, benchmark, inputs, repro_scale):
        """S3J = Filter Tree join with the index built on the fly
        (section 3): over prebuilt sorted level files only the
        synchronized scan — S3J's join phase — would remain, so that
        phase's share of a one-shot run is what prebuilt indexes could
        amortize at best."""
        from repro.experiments.runner import make_storage_config
        from repro.join.api import spatial_join

        a, b = inputs
        config = make_storage_config(a, b, scale=repro_scale)
        one_shot = benchmark.pedantic(
            lambda: spatial_join(a, b, algorithm="s3j", storage=config),
            rounds=1,
            iterations=1,
        )
        total = one_shot.metrics.response_time
        scan = one_shot.metrics.breakdown()["join"]
        print(f"\none-shot S3J: {total:.2f}s; join phase (scan only): {scan:.2f}s")
        # The scan is far below the full run: partition and sort dominate.
        assert scan < total * 0.6
        benchmark.extra_info["one_shot_s"] = total
        benchmark.extra_info["join_phase_s"] = scan
