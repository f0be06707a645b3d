"""Unit tests for repro.core.padded — the CUDA padding baseline."""

import numpy as np
import pytest

from repro.access.patterns import pattern_addresses
from repro.access.transpose import run_transpose
from repro.core.congestion import congestion_batch
from repro.core.mappings import RAPMapping
from repro.core.padded import PaddedMapping, antidiagonal_logical


class TestAddressing:
    def test_row_stride(self):
        m = PaddedMapping(4)
        assert m.row_stride == 5
        assert m.address(1, 0) == 5
        assert m.address(2, 3) == 13

    def test_bank_is_i_plus_j(self):
        m = PaddedMapping(8)
        ii, jj = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        assert np.array_equal(m.bank(ii, jj), (ii + jj) % 8)

    def test_storage_words(self):
        assert PaddedMapping(32).storage_words == 32 * 33

    def test_custom_pad(self):
        m = PaddedMapping(4, pad=2)
        assert m.row_stride == 6
        assert m.storage_words == 24
        for pad in (1, 3, 5):  # an odd pad spreads every column over all banks
            addrs = pattern_addresses(PaddedMapping(32, pad=pad), "stride")
            assert congestion_batch(addrs, 32).max() == 1

    def test_rejects_zero_pad(self):
        with pytest.raises(ValueError):
            PaddedMapping(4, pad=0)

    def test_logical_roundtrip(self):
        m = PaddedMapping(8)
        ii, jj = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        addrs = m.address(ii, jj)
        ri, rj = m.logical(addrs)
        assert np.array_equal(ri, ii) and np.array_equal(rj, jj)

    def test_logical_rejects_padding_addresses(self):
        m = PaddedMapping(4)
        with pytest.raises(IndexError):
            m.logical(4)  # the first padding word

    def test_index_bounds(self):
        m = PaddedMapping(4)
        with pytest.raises(IndexError):
            m.address(0, 4)


class TestLayout:
    def test_roundtrip(self, rng):
        m = PaddedMapping(8)
        matrix = rng.random((8, 8))
        assert np.array_equal(m.read_layout(m.apply_layout(matrix)), matrix)

    def test_padding_words_zeroed(self):
        m = PaddedMapping(4)
        flat = m.apply_layout(np.ones((4, 4)))
        assert flat.shape == (20,)
        assert flat[4] == 0 and flat[9] == 0  # padding positions

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            PaddedMapping(4).apply_layout(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            PaddedMapping(4).read_layout(np.zeros(16))


class TestCongestionProfile:
    def test_contiguous_and_stride_conflict_free(self, width):
        m = PaddedMapping(width)
        for pattern in ("contiguous", "stride"):
            addrs = pattern_addresses(m, pattern)
            assert congestion_batch(addrs, width).max() == 1

    def test_diagonal_congestion_two_for_even_w(self):
        """Diagonal lanes hit banks (i + 2j): two-way collisions when
        w is even."""
        m = PaddedMapping(8)
        addrs = pattern_addresses(m, "diagonal")
        assert congestion_batch(addrs, 8).max() == 2

    def test_antidiagonal_kills_padding(self, width):
        """The pattern padding cannot fix: congestion w."""
        m = PaddedMapping(width)
        ii, jj = antidiagonal_logical(width)
        addrs = m.address(ii, jj)
        assert congestion_batch(addrs, width).max() == width

    def test_rap_survives_antidiagonal(self, rng):
        w = 32
        ii, jj = antidiagonal_logical(w)
        for _ in range(20):
            addrs = RAPMapping.random(w, rng).address(ii, jj)
            assert congestion_batch(addrs, w).max() < w // 2


class TestPaddedTranspose:
    """Padding plugs into the whole pipeline via storage_words."""

    @pytest.mark.parametrize("kind", ["CRSW", "SRCW", "DRDW"])
    def test_transpose_correct(self, kind, rng):
        o = run_transpose(kind, PaddedMapping(8), seed=rng)
        assert o.correct

    def test_crsw_conflict_free(self):
        o = run_transpose("CRSW", PaddedMapping(16))
        assert o.read_congestion == 1
        assert o.write_congestion == 1

    def test_memory_cost_vs_rap(self):
        """Padding's price: w extra words per matrix; RAP's: none."""
        w = 32
        assert PaddedMapping(w).storage_words == w * w + w
        assert RAPMapping.random(w, 0).storage_words == w * w
