"""Property-based tests (hypothesis) for the extension modules.

Covers the invariants introduced after the core reproduction:
padded/XOR layout bijectivity, the exact balls-in-bins law, routing
colorability, and the strided closed forms — each quantified over
random inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.congestion import warp_congestion
from repro.core.exact import exact_expected_max_load, exact_max_load_cdf
from repro.core.mappings import RAPMapping
from repro.core.padded import PaddedMapping
from repro.core.swizzle import XORSwizzleMapping
from repro.dmm.machine import DiscreteMemoryMachine
from repro.util.rng import as_generator

widths = st.integers(min_value=2, max_value=24)
pow2_widths = st.sampled_from([2, 4, 8, 16, 32])
seeds = st.integers(min_value=0, max_value=2**31 - 1)


# -- padded / swizzle layout invariants ---------------------------------------


@given(widths, st.integers(1, 4))
def test_padded_bijection_any_pad(w, pad):
    m = PaddedMapping(w, pad=pad)
    ii, jj = np.meshgrid(np.arange(w), np.arange(w), indexing="ij")
    addrs = m.address(ii, jj).ravel()
    assert len(np.unique(addrs)) == w * w
    assert addrs.max() < m.storage_words


@given(widths, st.integers(1, 4), seeds)
def test_padded_layout_roundtrip(w, pad, seed):
    m = PaddedMapping(w, pad=pad)
    matrix = as_generator(seed).random((w, w))
    assert np.array_equal(m.read_layout(m.apply_layout(matrix)), matrix)


@given(pow2_widths, st.data())
def test_swizzle_bijection_any_mask(w, data):
    mask = data.draw(st.integers(0, w - 1))
    m = XORSwizzleMapping(w, mask=mask)
    ii, jj = np.meshgrid(np.arange(w), np.arange(w), indexing="ij")
    assert len(np.unique(m.address(ii, jj))) == w * w


@given(pow2_widths)
def test_swizzle_stride_conflict_free_full_mask(w):
    m = XORSwizzleMapping(w)
    for col in (0, w - 1):
        banks = m.bank(np.arange(w), np.full(w, col))
        assert len(np.unique(banks)) == w


# -- exact balls-in-bins law ---------------------------------------------------


@given(st.integers(1, 24), st.integers(1, 24))
def test_exact_cdf_is_distribution(m, n):
    cdf = exact_max_load_cdf(m, n)
    assert cdf[-1] == pytest.approx(1.0)
    assert (np.diff(cdf) >= -1e-9).all()
    assert (cdf >= -1e-12).all() and (cdf <= 1.0 + 1e-12).all()


@given(st.integers(1, 16), st.integers(1, 16))
def test_exact_expectation_bounds(m, n):
    e = exact_expected_max_load(m, n)
    # Max load is at least the mean load and at most all balls in one bin.
    assert e >= m / n - 1e-9
    assert e <= m + 1e-9


@given(st.integers(2, 16))
def test_exact_expectation_shrinks_with_more_bins(m):
    assert exact_expected_max_load(m, 2 * m) <= exact_expected_max_load(m, m) + 1e-9


# -- routing: every permutation is w-colorable -----------------------------------


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, 4, 6, 8]), seeds)
def test_every_permutation_schedules_conflict_free(w, seed):
    from repro.routing.offline import (
        random_data_permutation,
        scheduled_permutation_program,
    )

    perm = random_data_permutation(w, seed)
    machine = DiscreteMemoryMachine(w, 1, 2 * w * w)
    result = machine.run(scheduled_permutation_program(perm, w))
    assert result.max_congestion == 1


# -- strided closed form -----------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([4, 8, 16, 32]), st.integers(0, 4))
def test_reduction_congestion_closed_form(w, level):
    from repro.access.strided import (
        raw_stride_congestion,
        reduction_positions,
        strided_addresses,
    )
    from repro.core.mappings import RAWMapping

    if (w - 1) << level >= w * w:
        return  # level too deep for this width
    addrs = strided_addresses(RAWMapping(w), reduction_positions(w, level))
    assert warp_congestion(addrs, w) == raw_stride_congestion(w, level)


# -- RAP under arbitrary single-warp requests --------------------------------------


@settings(max_examples=40, deadline=None)
@given(widths, seeds, seeds)
def test_rap_congestion_never_exceeds_distinct_rows(w, seed1, seed2):
    """Within one row the rotation is injective, so a bank receives at
    most one distinct address per row: congestion <= #distinct rows.
    (This is the structural fact behind the Theorem 2 proof's row-wise
    accounting.)"""
    rng = as_generator(seed2)
    rows = rng.integers(0, w, size=w)
    cols = rng.integers(0, w, size=w)
    mapping = RAPMapping.random(w, seed1)
    addrs = mapping.address(rows, cols)
    congestion = warp_congestion(addrs, w)
    assert congestion <= len(np.unique(rows))
