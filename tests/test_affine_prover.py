"""Property tests for the symbolic congestion prover.

The central contract: whenever the prover answers *symbolically*, the
value must be bit-for-bit what brute-force enumeration counts — worst
AND mean, warp for warp.  The tests therefore run the prover against
:func:`repro.core.congestion.warp_congestion` over randomized affine
coefficients and over the paper's canonical patterns.
"""

import numpy as np
import pytest

from repro.analysis.affine import AFFINE_PATTERNS, AffineAccess, affine_pattern
from repro.analysis.prover import (
    METHOD_ENUMERATE,
    METHOD_SYMBOLIC,
    CongestionProof,
    prove_access,
    prove_pattern,
    symbolic_step,
)
from repro.core.congestion import warp_congestion
from repro.core.mappings import RAPMapping, RASMapping, RAWMapping, ShiftedRowMapping
from repro.core.padded import PaddedMapping
from repro.core.swizzle import XORSwizzleMapping
from repro.util.rng import as_generator

WIDTHS = (4, 8, 16, 32)


def brute_force(access: AffineAccess, mapping) -> tuple[int, float]:
    """Worst/mean per-warp congestion via direct enumeration."""
    ii, jj = access.grids()
    addrs = mapping.address(ii, jj)
    per_warp = [warp_congestion(row, mapping.w) for row in addrs]
    return max(per_warp), float(np.mean(per_warp))


def candidate_mappings(w: int, seed: int = 0):
    return [
        RAWMapping(w),
        RASMapping.random(w, seed + 1),
        RAPMapping.random(w, seed + 2),
        PaddedMapping(w),
        PaddedMapping(w, pad=3),
        XORSwizzleMapping(w),
        XORSwizzleMapping(w, mask=min(3, w - 1)),
        XORSwizzleMapping(w, mask=0),
    ]


class TestAffineAccess:
    @pytest.mark.parametrize("name", sorted(AFFINE_PATTERNS))
    @pytest.mark.parametrize("w", WIDTHS)
    def test_pattern_grids_match_reference(self, name, w):
        """The affine templates reproduce the access modules' grids."""
        if name == "antidiagonal":
            from repro.core.padded import antidiagonal_logical

            ref_ii, ref_jj = antidiagonal_logical(w)
        else:
            from repro.access.patterns import pattern_logical

            ref_ii, ref_jj = pattern_logical(name, w)
        access = affine_pattern(name, w)
        ii, jj = access.grids()
        assert np.array_equal(ii, ref_ii)
        assert np.array_equal(jj, ref_jj)

    def test_non_affine_patterns_have_no_form(self):
        assert affine_pattern("random", 8) is None
        assert affine_pattern("pairwise", 8) is None

    @pytest.mark.parametrize("w", WIDTHS)
    def test_from_grids_roundtrip(self, w):
        rng = as_generator(123)
        for _ in range(20):
            coeffs = rng.integers(0, w, size=6)
            access = AffineAccess(w, *map(int, coeffs))
            recovered = AffineAccess.from_grids(*access.grids(), w)
            assert recovered == access

    def test_from_grids_rejects_non_affine(self):
        from repro.access.patterns import pairwise_logical

        ii, jj = pairwise_logical(8)
        assert AffineAccess.from_grids(ii, jj, 8) is None

    def test_from_grids_rejects_wrong_shape(self):
        ii, jj = affine_pattern("stride", 8).grids()
        assert AffineAccess.from_grids(ii, jj, 16) is None

    def test_coefficients_reduced_mod_w(self):
        access = AffineAccess(8, 9, -1, 8, 17, 0, -3)
        assert (access.ri, access.rj, access.rc) == (1, 7, 0)
        assert (access.ci, access.cj, access.cc) == (1, 0, 5)

    def test_describe_mentions_forms(self):
        text = affine_pattern("diagonal", 8).describe()
        assert "row=" in text and "col=" in text


class TestProverMatchesEnumeration:
    """The ISSUE's core property: symbolic == brute force, exactly."""

    @pytest.mark.parametrize("w", WIDTHS)
    def test_randomized_affine_coefficients(self, w):
        rng = as_generator(2014 + w)
        mappings = candidate_mappings(w)
        for _ in range(40):
            coeffs = rng.integers(0, w, size=6)
            access = AffineAccess(w, *map(int, coeffs))
            for mapping in mappings:
                proof = prove_access(access, mapping)
                worst, mean = brute_force(access, mapping)
                assert proof.congestion == worst, (w, tuple(coeffs), mapping.name)
                assert proof.mean == pytest.approx(mean, abs=1e-12)

    @pytest.mark.parametrize("w", WIDTHS)
    @pytest.mark.parametrize(
        "pattern", ("contiguous", "stride", "diagonal", "random", "malicious")
    )
    @pytest.mark.parametrize("layout", ("RAW", "RAS", "RAP"))
    def test_canonical_patterns_agree(self, w, pattern, layout):
        """All five canonical patterns x the paper's three mappings."""
        proof = prove_pattern(pattern, layout, w=w, seed=99)
        access = affine_pattern(pattern, w)
        if access is None:
            assert proof.method == METHOD_ENUMERATE
            return
        from repro.analysis.prover import _mapping_instance

        mapping = _mapping_instance(layout, w, 99)
        worst, mean = brute_force(access, mapping)
        assert proof.congestion == worst
        assert proof.mean == pytest.approx(mean, abs=1e-12)


class TestTheorems:
    """The paper's facts, now proofs rather than measurements."""

    @pytest.mark.parametrize("w", WIDTHS + (12, 100))
    def test_rap_stride_congestion_one(self, w):
        proof = prove_pattern("stride", "RAP", w=w, seed=3)
        assert proof.congestion == 1
        assert proof.method == METHOD_SYMBOLIC
        assert "Theorem 1" in proof.argument

    @pytest.mark.parametrize("w", WIDTHS + (12, 100))
    @pytest.mark.parametrize("layout", ("RAW", "RAS", "RAP", "PAD"))
    def test_contiguous_always_one(self, w, layout):
        proof = prove_pattern("contiguous", layout, w=w, seed=3)
        assert proof.congestion == 1
        assert proof.method == METHOD_SYMBOLIC

    @pytest.mark.parametrize("w", WIDTHS)
    def test_raw_stride_full_serialization(self, w):
        proof = prove_pattern("stride", "RAW", w=w)
        assert proof.congestion == w
        assert proof.method == METHOD_SYMBOLIC

    @pytest.mark.parametrize("w", [32, 64, 128, 256])
    def test_paper_patterns_at_paper_widths(self, w):
        """RAW's four affine paper patterns and RAP's stride close in
        symbols up to w=256, and every answer equals enumeration."""
        names = ("contiguous", "stride", "diagonal", "malicious")
        raw, rap = RAWMapping(w), RAPMapping.random(w, 2014)
        worst = [symbolic_step(affine_pattern(n, w), raw).worst for n in names]
        assert worst == [1, w, 1, w]
        proof = prove_access(affine_pattern("stride", w), rap)
        assert (proof.method, proof.congestion) == (METHOD_SYMBOLIC, 1)
        for name in names:
            access = affine_pattern(name, w)
            for mapping in (raw, rap):
                assert prove_access(access, mapping).congestion == brute_force(
                    access, mapping
                )[0]

    def test_raw_strided_gcd_bound(self):
        """The gcd(s, w) serialization of an s-strided column walk."""
        w = 32
        for s in (1, 2, 3, 4, 6, 8, 16):
            # warp walks rows s*j of one column: congestion w/ord = gcd? —
            # lanes hit w/gcd(s,w) distinct rows of one bank-column.
            access = AffineAccess(w, 0, s, 0, 1, 0, 0)
            proof = prove_access(access, RAWMapping(w))
            assert proof.congestion == w // np.gcd(s, w)
            assert proof.method == METHOD_SYMBOLIC

    @pytest.mark.parametrize("w", WIDTHS)
    def test_broadcast_merges_everywhere(self, w):
        for layout in ("RAW", "RAS", "RAP", "PAD", "XOR"):
            proof = prove_pattern("broadcast", layout, w=w, seed=1)
            assert proof.congestion == 1

    def test_padding_killer_antidiagonal(self):
        """PAD's blind spot is a one-line gcd fact for the prover."""
        w = 32
        proof = prove_pattern("antidiagonal", "PAD", w=w)
        assert proof.congestion == w
        assert proof.method == METHOD_SYMBOLIC

    def test_xor_stride_symbolic(self):
        proof = prove_pattern("stride", "XOR", w=32)
        assert proof.congestion == 1
        assert proof.method == METHOD_SYMBOLIC

    def test_partial_xor_mask_spread(self):
        """A 2-bit mask spreads a stride access over only 4 banks."""
        w = 32
        mapping = XORSwizzleMapping(w, mask=0b11)
        proof = prove_pattern("stride", mapping)
        assert proof.congestion == w // 4
        assert proof.method == METHOD_SYMBOLIC

    def test_ras_duplicate_shifts_detected(self):
        """A hand-built all-equal-shift RAS serializes stride fully."""
        w = 16
        mapping = RASMapping(w, np.full(w, 3))
        proof = prove_pattern("stride", mapping)
        assert proof.congestion == w
        assert proof.method == METHOD_SYMBOLIC

    def test_ras_histogram_is_instance_exact(self):
        w = 8
        shifts = np.array([0, 0, 1, 2, 3, 4, 5, 6])  # one duplicate
        mapping = RASMapping(w, shifts)
        proof = prove_pattern("stride", mapping)
        assert proof.congestion == 2
        assert proof.method == METHOD_SYMBOLIC


class TestFallback:
    def test_non_affine_pattern_enumerates(self):
        proof = prove_pattern("pairwise", "RAP", w=16, seed=0)
        assert proof.method == METHOD_ENUMERATE
        assert proof.congestion == 1  # merging halves the requests

    def test_diagonal_under_rap_enumerates(self):
        """Both lane slopes nonzero + concrete sigma: no closed form."""
        w = 16
        mapping = RAPMapping.random(w, 5)
        access = affine_pattern("diagonal", w)
        assert symbolic_step(access, mapping) is None
        proof = prove_access(access, mapping, pattern="diagonal")
        assert proof.method == METHOD_ENUMERATE
        worst, mean = brute_force(access, mapping)
        assert proof.congestion == worst
        assert proof.mean == pytest.approx(mean)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            symbolic_step(affine_pattern("stride", 8), RAWMapping(16))

    def test_name_requires_width(self):
        with pytest.raises(ValueError):
            prove_pattern("stride", "RAP")


class TestBankAffineMetadata:
    def test_raw_is_affine(self):
        assert RAWMapping(8).bank_affine() == (0, 1, 0)

    def test_uniform_shift_is_affine(self):
        assert RASMapping(8, np.full(8, 5)).bank_affine() == (0, 1, 5)

    def test_true_random_shift_is_not(self):
        assert RAPMapping.random(8, 0).bank_affine() is None

    def test_padded(self):
        assert PaddedMapping(8).bank_affine() == (1, 1, 0)
        assert PaddedMapping(8, pad=3).bank_affine() == (3, 1, 0)

    def test_xor_only_degenerate(self):
        assert XORSwizzleMapping(8).bank_affine() is None
        assert XORSwizzleMapping(8, mask=0).bank_affine() == (0, 1, 0)

    def test_metadata_predicts_banks(self):
        """bank_affine, when present, must equal the real bank function."""
        for mapping in (
            RAWMapping(8),
            PaddedMapping(8),
            PaddedMapping(8, pad=2),
            RASMapping(8, np.full(8, 5)),
            XORSwizzleMapping(8, mask=0),
        ):
            u, v, c = mapping.bank_affine()
            ii, jj = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
            predicted = (u * ii + v * jj + c) % 8
            assert np.array_equal(predicted, mapping.bank(ii, jj))


class TestProofObject:
    def test_to_dict_round_trips_json(self):
        import json

        proof = prove_pattern("stride", "RAP", w=32, seed=0)
        payload = json.loads(json.dumps(proof.to_dict()))
        assert payload["congestion"] == 1
        assert payload["method"] == METHOD_SYMBOLIC

    def test_render_mentions_method(self):
        proof = prove_pattern("stride", "RAP", w=32, seed=0)
        assert "method=symbolic" in proof.render()
        assert isinstance(proof, CongestionProof)
