"""Unit tests for repro.gpu.matmul — tiled multiplication on the DMM."""

import numpy as np
import pytest

from repro.core.mappings import RAPMapping, RASMapping, RAWMapping
from repro.core.padded import PaddedMapping
from repro.gpu.matmul import MATMUL_VARIANTS, run_matmul


class TestCorrectness:
    @pytest.mark.parametrize("variant", MATMUL_VARIANTS)
    def test_raw(self, variant, rng):
        o = run_matmul(variant, RAWMapping(8), seed=rng)
        assert o.correct

    @pytest.mark.parametrize("variant", MATMUL_VARIANTS)
    def test_rap(self, variant, rng):
        o = run_matmul(variant, RAPMapping.random(8, rng), seed=rng)
        assert o.correct

    @pytest.mark.parametrize("variant", MATMUL_VARIANTS)
    def test_ras(self, variant, rng):
        o = run_matmul(variant, RASMapping.random(8, rng), seed=rng)
        assert o.correct

    @pytest.mark.parametrize("variant", MATMUL_VARIANTS)
    def test_padded(self, variant, rng):
        o = run_matmul(variant, PaddedMapping(8), seed=rng)
        assert o.correct

    def test_explicit_tiles(self):
        a = np.eye(4)
        b = np.arange(16.0).reshape(4, 4)
        o = run_matmul("AB", RAWMapping(4), a=a, b=b)
        assert o.correct  # identity @ b == b

    def test_explicit_abt(self, rng):
        a = rng.random((4, 4))
        b = rng.random((4, 4))
        o = run_matmul("ABt", RAPMapping.random(4, rng), a=a, b=b)
        assert o.correct

    def test_tile_shape_checked(self):
        with pytest.raises(ValueError):
            run_matmul("AB", RAWMapping(4), a=np.zeros((3, 4)))

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            run_matmul("AtB", RAWMapping(4))


class TestCongestionProfile:
    def test_ab_conflict_free_everywhere(self, rng):
        """The textbook kernel: broadcast + contiguous reads."""
        for mapping in (RAWMapping(16), RAPMapping.random(16, rng)):
            o = run_matmul("AB", mapping, seed=rng)
            assert o.max_read_congestion == 1

    def test_abt_raw_fully_serialized(self):
        w = 16
        o = run_matmul("ABt", RAWMapping(w))
        assert o.max_read_congestion == w

    def test_abt_rap_conflict_free(self, rng):
        o = run_matmul("ABt", RAPMapping.random(16, rng))
        assert o.max_read_congestion == 1

    def test_abt_ras_in_between(self, rng):
        w = 32
        worst = 0
        for _ in range(5):
            o = run_matmul("ABt", RASMapping.random(w, rng), seed=rng)
            worst = max(worst, o.max_read_congestion)
        assert 1 < worst < w


class TestTiming:
    def test_ab_time_independent_of_mapping(self, rng):
        """Conflict-free under every layout -> identical stage counts."""
        raw = run_matmul("AB", RAWMapping(8), seed=0)
        rap = run_matmul("AB", RAPMapping.random(8, rng), seed=0)
        assert raw.total_stages == rap.total_stages

    def test_abt_rap_much_faster_than_raw(self, rng):
        w = 16
        raw = run_matmul("ABt", RAWMapping(w), seed=0)
        rap = run_matmul("ABt", RAPMapping.random(w, rng), seed=0)
        assert raw.time_units > 5 * rap.time_units

    def test_layout_scorecard(self):
        """AB costs the same under all four layouts; on ABt, padding and
        RAP are conflict-free and RAW pays over 5x RAP's stages."""
        w = 16
        layouts = {
            "RAW": RAWMapping(w),
            "RAS": RASMapping.random(w, 2014),
            "RAP": RAPMapping.random(w, 2014),
            "PAD": PaddedMapping(w),
        }
        runs = {
            (variant, name): run_matmul(variant, mapping, seed=2014)
            for variant in ("AB", "ABt")
            for name, mapping in layouts.items()
        }
        assert all(o.correct for o in runs.values())
        assert len({runs[("AB", name)].total_stages for name in layouts}) == 1
        assert runs[("ABt", "PAD")].max_read_congestion == 1
        assert runs[("ABt", "RAW")].total_stages > 5 * runs[("ABt", "RAP")].total_stages

    def test_stage_accounting(self):
        """AB at w=4: per k-step 2 instructions x 4 warps x 1 stage,
        plus the final write (4 stages): 4*8 + 4 = 36."""
        w = 4
        o = run_matmul("AB", RAWMapping(w), seed=0)
        assert o.total_stages == w * 2 * w + w

    def test_latency_scales_time(self):
        fast = run_matmul("AB", RAWMapping(4), latency=1, seed=0)
        slow = run_matmul("AB", RAWMapping(4), latency=10, seed=0)
        assert slow.time_units > fast.time_units
