"""Unit tests for repro.core.congestion — the DMM's figure of merit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.congestion import (
    _BLOCK_ADDRESSES,
    bank_loads,
    bank_loads_batch,
    congestion_batch,
    max_run_lengths,
    merge_requests,
    warp_congestion,
)
from repro.dmm.trace import INACTIVE
from repro.util.rng import as_generator


class TestMergeRequests:
    def test_dedup(self):
        out = merge_requests(np.array([3, 1, 3, 1, 2]))
        assert list(out) == [1, 2, 3]

    def test_all_same(self):
        assert list(merge_requests(np.array([5, 5, 5]))) == [5]

    def test_all_distinct(self):
        assert list(merge_requests(np.array([2, 0, 1]))) == [0, 1, 2]

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            merge_requests(np.zeros((2, 2), dtype=int))


class TestBankLoads:
    def test_paper_fig2_case1(self):
        """m[0], m[5], m[10], m[15] -> one request per bank."""
        loads = bank_loads(np.array([0, 5, 10, 15]), 4)
        assert list(loads) == [1, 1, 1, 1]

    def test_paper_fig2_case2(self):
        """m[1], m[5], m[9], m[13] -> all four in bank 1."""
        loads = bank_loads(np.array([1, 5, 9, 13]), 4)
        assert list(loads) == [0, 4, 0, 0]

    def test_paper_fig2_case3_merged(self):
        """Four requests to m[3] merge into one."""
        loads = bank_loads(np.array([3, 3, 3, 3]), 4)
        assert list(loads) == [0, 0, 0, 1]

    def test_shape(self):
        assert bank_loads(np.array([0]), 8).shape == (8,)


class TestWarpCongestion:
    def test_paper_fig2_values(self):
        assert warp_congestion(np.array([0, 5, 10, 15]), 4) == 1
        assert warp_congestion(np.array([1, 5, 9, 13]), 4) == 4
        assert warp_congestion(np.array([3, 3, 3, 3]), 4) == 1

    def test_empty_is_zero(self):
        assert warp_congestion(np.array([], dtype=int), 4) == 0

    def test_none_raises(self):
        with pytest.raises(ValueError, match="expected a 1-D address vector"):
            warp_congestion(None, 4)

    def test_single_request(self):
        assert warp_congestion(np.array([7]), 4) == 1

    def test_mixed_merge_and_conflict(self):
        # Addresses 1 and 5 in bank 1 (2 distinct), 1 repeated (merged).
        assert warp_congestion(np.array([1, 1, 5, 2]), 4) == 2

    def test_bounds(self, rng):
        w = 16
        for _ in range(50):
            addrs = rng.integers(0, w * w, size=w)
            c = warp_congestion(addrs, w)
            assert 1 <= c <= w


class TestBankLoadsBatch:
    def test_matches_scalar(self, rng):
        w = 8
        batch = rng.integers(0, w * w, size=(20, w))
        expected = np.stack([bank_loads(row, w) for row in batch])
        assert np.array_equal(bank_loads_batch(batch, w), expected)

    def test_empty_batch_rows(self):
        out = bank_loads_batch(np.zeros((3, 0), dtype=int), 4)
        assert out.shape == (3, 4)
        assert out.sum() == 0

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            bank_loads_batch(np.arange(4), 4)

    def test_merging_within_rows_only(self):
        # Same address appears in two rows: each row counts it once.
        batch = np.array([[0, 0], [0, 1]])
        loads = bank_loads_batch(batch, 2)
        assert list(loads[0]) == [1, 0]
        assert list(loads[1]) == [1, 1]


class TestCongestionBatch:
    def test_matches_scalar(self, rng):
        w = 16
        batch = rng.integers(0, w * w, size=(50, w))
        expected = np.array([warp_congestion(row, w) for row in batch])
        assert np.array_equal(congestion_batch(batch, w), expected)

    def test_contiguous_rows_are_one(self):
        w = 8
        batch = np.arange(w * 4).reshape(4, w)  # each row spans all banks
        assert np.array_equal(congestion_batch(batch, w), np.ones(4, dtype=int))

    def test_stride_rows_are_w(self):
        w = 8
        batch = (np.arange(4)[:, None] + w * np.arange(w)[None, :])
        assert np.array_equal(congestion_batch(batch, w), np.full(4, w))

    def test_merging_lowers_random_access(self):
        """CRCW merging collapses duplicate addresses: random access is
        ~3.44 merged, against the balls-in-bins ~3.53 when every request
        counts (w=32)."""
        w, trials = 32, 6000
        addrs = as_generator(2014).integers(0, w * w, size=(trials, w))
        merged = congestion_batch(addrs, w).mean()
        keys = (np.arange(trials)[:, None] * w + addrs % w).ravel()
        unmerged = np.bincount(keys, minlength=trials * w).reshape(trials, w)
        unmerged = unmerged.max(axis=1).mean()
        assert merged < unmerged
        assert merged == pytest.approx(3.44, abs=0.08)
        assert unmerged == pytest.approx(3.53, abs=0.08)

    def test_zero_width_rows(self):
        out = congestion_batch(np.zeros((2, 0), dtype=int), 4)
        assert list(out) == [0, 0]

    def test_rejects_non_integer_addresses(self):
        with pytest.raises(TypeError, match="expected integer addresses"):
            congestion_batch(np.zeros((2, 4)), 4)

    def test_large_addresses(self):
        # Addresses far beyond w^2 still bank correctly.
        w = 4
        batch = np.array([[1000, 1004, 1008, 1012]])
        assert congestion_batch(batch, w)[0] == 4


#: Address ranges of the differential test: merging-heavy, negative
#: (the sentinel is a real address when ``inactive`` is None), beyond
#: int32, and spanning both signs far beyond int32.
ADDRESS_RANGES = [
    (0, 3), (0, 4096), (-5000, 5000), (2**31 - 100, 2**33), (-(2**40), 2**41)
]


@st.composite
def address_batches(draw):
    """``(addresses, w, inactive)`` over several kernel blocks."""
    w = draw(st.integers(min_value=1, max_value=300))
    k = draw(st.integers(min_value=1, max_value=300))
    block = _BLOCK_ADDRESSES // max(k, w)
    n = draw(st.integers(min_value=1, max_value=min(3 * block + 1, 1200)))
    lo, hi = draw(st.sampled_from(ADDRESS_RANGES))
    rng = as_generator(draw(st.integers(0, 2**32 - 1)))
    addresses = rng.integers(lo, hi, size=(n, k), dtype=np.int64)
    inactive = draw(st.sampled_from([None, INACTIVE]))
    if inactive is not None:
        addresses[rng.random((n, k)) < draw(st.sampled_from([0.0, 0.3]))] = INACTIVE
        addresses[rng.random(n) < 0.1] = INACTIVE
    return addresses, w, inactive


class TestBatchKernelsDifferential:
    """The blocked batch kernels equal the scalar definitions row by row."""

    @settings(max_examples=40, deadline=None)
    @given(address_batches())
    def test_match_scalar_per_row(self, batch):
        addresses, w, inactive = batch
        rows = [row if inactive is None else row[row != inactive] for row in addresses]
        cong = congestion_batch(addresses, w, inactive=inactive)
        loads = bank_loads_batch(addresses, w, inactive=inactive)
        assert cong.dtype == np.int64 and loads.dtype == np.int64
        assert cong.tolist() == [warp_congestion(row, w) for row in rows]
        assert np.array_equal(loads, np.stack([bank_loads(row, w) for row in rows]))

    @pytest.mark.parametrize("dtype", [np.uint16, np.int64])
    @pytest.mark.parametrize("w", [16, 24, 256])
    def test_uint16_batch_matches_int64(self, w, dtype):
        """A uint16 batch stays in 16 bits inside the kernel; it must
        count exactly what the same addresses count as int64 and as the
        scalar definition, across several blocks, with duplicate lanes
        and with addresses up to 2**16 - 1."""
        rng = as_generator(w)
        n = 3 * (_BLOCK_ADDRESSES // w) + 1
        addresses = rng.integers(0, 1 << 16, size=(n, w), dtype=np.int64)
        addresses[::2, 1::2] = addresses[::2, ::2]  # every even row: lanes in pairs
        addresses[::5] = rng.integers(0, 4 * w, size=(len(addresses[::5]), w))
        batch = addresses.astype(dtype)
        cong = congestion_batch(batch, w)
        loads = bank_loads_batch(batch, w)
        assert np.array_equal(cong, congestion_batch(addresses, w))
        assert np.array_equal(loads, bank_loads_batch(addresses, w))
        sample = range(0, n, 97)
        assert [cong[i] for i in sample] == [warp_congestion(addresses[i], w) for i in sample]


class TestMaxRunLengths:
    @staticmethod
    def _longest_runs(rows):
        out = []
        for row in rows.tolist():
            best = run = 1
            for prev, cur in zip(row, row[1:]):
                run = run + 1 if cur == prev else 1
                best = max(best, run)
            out.append(best)
        return out

    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    @pytest.mark.parametrize(
        "n,k,values", [(1, 1, 3), (7, 1, 3), (1, 8, 2), (40, 8, 4), (33, 32, 64)]
    )
    def test_matches_a_row_by_row_count(self, n, k, values, dtype):
        rows = np.sort(as_generator(n * k).integers(0, values, size=(n, k)), axis=1)
        got = max_run_lengths(rows.astype(dtype))
        assert got.dtype == np.int64
        assert got.tolist() == self._longest_runs(rows)

    def test_runs_never_span_rows(self):
        # Row 0 ends and row 1 starts with the same value.
        rows = np.array([[0, 1, 2, 2], [2, 2, 2, 3], [3, 3, 3, 3]])
        assert max_run_lengths(rows).tolist() == [2, 3, 4]

    def test_non_contiguous_rows(self):
        rows = np.sort(as_generator(9).integers(0, 5, size=(12, 16)), axis=1)
        every_other = rows[::2, :]
        assert max_run_lengths(every_other).tolist() == self._longest_runs(every_other)
