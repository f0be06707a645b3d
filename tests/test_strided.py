"""Unit tests for repro.access.strided — reduction/scan/butterfly patterns."""

import numpy as np
import pytest

from repro.access.strided import (
    butterfly_positions,
    raw_stride_congestion,
    reduction_positions,
    scan_positions,
    strided_addresses,
)
from repro.core.congestion import warp_congestion
from repro.core.mappings import RAPMapping, RAWMapping
from repro.core.padded import PaddedMapping


class TestReductionPositions:
    def test_level_zero_is_identity(self):
        assert list(reduction_positions(8, 0)) == list(range(8))

    def test_level_doubles_stride(self):
        pos = reduction_positions(8, 2)
        assert list(pos) == [0, 4, 8, 12, 16, 20, 24, 28]

    def test_level_too_deep(self):
        with pytest.raises(ValueError):
            reduction_positions(8, 6)  # 7 << 6 = 448 >= 64

    def test_raw_congestion_doubles_per_level(self):
        """The doubling law: min(2^k, w)."""
        w = 16
        mapping = RAWMapping(w)
        for level in range(5):
            addrs = strided_addresses(mapping, reduction_positions(w, level))
            measured = warp_congestion(addrs, w)
            assert measured == raw_stride_congestion(w, level)

    def test_rap_flattens_the_doubling(self, rng):
        """At the worst level (2^k = w) RAW pays w; RAP stays low."""
        w = 16
        level = 4  # stride 16 = w: every position in bank 0 under RAW
        raw_c = warp_congestion(
            strided_addresses(RAWMapping(w), reduction_positions(w, level)), w
        )
        assert raw_c == w
        worst_rap = max(
            warp_congestion(
                strided_addresses(
                    RAPMapping.random(w, seed), reduction_positions(w, level)
                ),
                w,
            )
            for seed in range(20)
        )
        assert worst_rap <= w // 2

    def test_rap_caps_every_reduction_level(self):
        """RAW doubles 1 -> w over the levels; RAP's mean over 30 draws
        stays near balls-in-bins at every level, and is exactly 1 at
        stride w."""
        w = 32
        for level in range(6):
            pos = reduction_positions(w, level)
            raw = warp_congestion(strided_addresses(RAWMapping(w), pos), w)
            assert raw == 1 << level
            rap = np.mean([
                warp_congestion(strided_addresses(RAPMapping.random(w, s), pos), w)
                for s in range(30)
            ])
            assert rap < 6
        assert rap == 1.0

    def test_rap_stride_w_is_column_access(self, rng):
        """Stride exactly w is a matrix column -> RAP congestion 1."""
        w = 16
        mapping = RAPMapping.random(w, rng)
        addrs = strided_addresses(mapping, reduction_positions(w, 4))
        assert warp_congestion(addrs, w) == 1


class TestScanPositions:
    def test_level_zero(self):
        # (2j+2)*1 - 1 = 1, 3, 5, ...
        assert list(scan_positions(4, 0)) == [1, 3, 5, 7]

    def test_raw_congestion_matches_reduction_structure(self):
        """The -1 offset rotates banks but keeps the conflict count."""
        w = 16
        mapping = RAWMapping(w)
        for level in range(1, 4):
            scan_c = warp_congestion(
                strided_addresses(mapping, scan_positions(w, level)), w
            )
            assert scan_c == min(1 << (level + 1), w)

    def test_too_deep(self):
        with pytest.raises(ValueError):
            scan_positions(8, 5)


class TestButterflyPositions:
    def test_partner_is_xor(self):
        pos = butterfly_positions(8, 1)
        assert list(pos) == [2, 3, 0, 1, 6, 7, 4, 5]

    def test_within_warp_stage_conflict_free_raw(self):
        """Partners below w permute lanes: still one per bank."""
        w = 16
        mapping = RAWMapping(w)
        for stage in range(4):  # 2^stage < w
            addrs = strided_addresses(mapping, butterfly_positions(w, stage))
            assert warp_congestion(addrs, w) == 1

    def test_cross_row_stage_keeps_banks_raw(self):
        """Partner w positions away: same bank, different row — still
        congestion 1 because each lane keeps a distinct bank."""
        w = 16
        addrs = strided_addresses(RAWMapping(w), butterfly_positions(w, 4))
        assert warp_congestion(addrs, w) == 1

    def test_too_deep(self):
        with pytest.raises(ValueError):
            butterfly_positions(8, 7)


class TestStridedAddresses:
    def test_row_major_overlay(self):
        mapping = RAWMapping(4)
        assert list(strided_addresses(mapping, np.array([0, 5, 15]))) == [0, 5, 15]

    def test_mapping_applied(self):
        mapping = PaddedMapping(4)
        # position 5 = cell (1, 1) -> padded address 1*5+1 = 6
        assert strided_addresses(mapping, np.array([5]))[0] == 6

    def test_bounds(self):
        with pytest.raises(IndexError):
            strided_addresses(RAWMapping(4), np.array([16]))


class TestClosedForm:
    def test_values(self):
        assert raw_stride_congestion(32, 0) == 1
        assert raw_stride_congestion(32, 3) == 8
        assert raw_stride_congestion(32, 5) == 32
        assert raw_stride_congestion(32, 7) == 32  # saturates at w

    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            raw_stride_congestion(12, 1)
