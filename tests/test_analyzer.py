"""Unit tests for repro.gpu.analyzer — the kernel congestion linter."""

import numpy as np
import pytest

from repro.access.transpose import transpose_indices
from repro.core.mappings import RAPMapping, RAWMapping, mapping_by_name
from repro.gpu.analyzer import analyze_kernel, default_candidates
from repro.gpu.kernel import KernelStep


def crsw_steps(w):
    (ri, rj), (wi, wj) = transpose_indices("CRSW", w)
    return [
        KernelStep("read", "a", ri, rj, register="c"),
        KernelStep("write", "b", wi, wj, register="c"),
    ]


class TestDefaultCandidates:
    def test_pow2_includes_xor(self):
        names = [m.name for m in default_candidates(16)]
        assert names == ["RAW", "RAP", "XOR"]

    def test_non_pow2_drops_xor(self):
        names = [m.name for m in default_candidates(12)]
        assert names == ["RAW", "RAP"]


class TestAnalyzeKernel:
    @pytest.fixture(scope="class")
    def diagnosis(self):
        return analyze_kernel(16, crsw_steps(16), seed=1)

    def test_all_cells_present(self, diagnosis):
        assert len(diagnosis.steps) == 2 * 3  # 2 steps x 3 layouts

    def test_raw_write_flagged(self, diagnosis):
        bad = diagnosis.worst_step("RAW")
        assert bad.op == "write"
        assert bad.worst == 16

    def test_totals(self, diagnosis):
        # RAW: 16 warps x (1 + 16); RAP/XOR: 16 x 2.
        assert diagnosis.totals["RAW"] == 16 * 17
        assert diagnosis.totals["RAP"] == 32
        assert diagnosis.totals["XOR"] == 32

    def test_best_layout_not_raw(self, diagnosis):
        assert diagnosis.best_layout() in ("RAP", "XOR")

    def test_recommendation_mentions_speedup(self, diagnosis):
        text = diagnosis.recommendation()
        assert "serializes up to 16x" in text
        assert "8.5x" in text

    def test_render(self, diagnosis):
        out = diagnosis.render()
        assert "Kernel congestion analysis" in out
        assert "RAW" in out and "RAP" in out

    def test_conflict_free_kernel_advises_no_change(self):
        ii, jj = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        steps = [KernelStep("read", "a", ii, jj)]
        d = analyze_kernel(8, steps, candidates=[RAWMapping(8)])
        assert "no layout change needed" in d.recommendation()

    def test_explicit_candidates(self):
        d = analyze_kernel(
            8, crsw_steps(8), candidates=[RAWMapping(8), RAPMapping.random(8, 0)]
        )
        assert set(d.totals) == {"RAW", "RAP"}

    def test_candidate_width_checked(self):
        with pytest.raises(ValueError):
            analyze_kernel(8, crsw_steps(8), candidates=[RAWMapping(4)])

    def test_step_grid_shape_checked(self):
        with pytest.raises(ValueError):
            analyze_kernel(8, crsw_steps(16))

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError, match="at least one layout"):
            analyze_kernel(8, crsw_steps(8), candidates=[])


class TestSymbolicMethod:
    """analyze_kernel closes affine steps symbolically, and says so."""

    def test_crsw_steps_are_symbolic(self):
        d = analyze_kernel(16, crsw_steps(16), seed=1)
        assert all(s.method == "symbolic" for s in d.steps)

    def test_symbolic_matches_pinned_totals(self):
        """The symbolic path must reproduce the historical enumerated
        numbers exactly (same assertions as TestAnalyzeKernel)."""
        d = analyze_kernel(16, crsw_steps(16), seed=1)
        assert d.totals["RAW"] == 16 * 17
        assert d.totals["RAP"] == 32

    def test_non_affine_step_closes_by_absint(self):
        """The pairwise grid has no affine form, but every warp is
        row-local or coset-structured: the abstract interpreter closes
        it under the shifted-row layouts, with the enumerated numbers.
        XOR is not a shifted-row layout, so it still enumerates."""
        from repro.access.patterns import pairwise_logical
        from repro.core.swizzle import XORSwizzleMapping

        ii, jj = pairwise_logical(16)
        candidates = [mapping_by_name(n, 16, 1) for n in ("RAW", "RAS", "RAP")]
        candidates.append(XORSwizzleMapping(16))
        d = analyze_kernel(16, [KernelStep("read", "a", ii, jj)], candidates=candidates)
        assert [(s.layout, s.worst, s.mean, s.method) for s in d.steps] == [
            ("RAW", 1, 1.0, "absint"),
            ("RAS", 1, 1.0, "absint"),
            ("RAP", 1, 1.0, "absint"),
            ("XOR", 1, 1.0, "enumerate"),
        ]
        assert d.totals == {"RAW": 16.0, "RAS": 16.0, "RAP": 16.0, "XOR": 16.0}

    def test_render_shows_method_column(self):
        d = analyze_kernel(16, crsw_steps(16), seed=1)
        assert "method" in d.render()
        assert "symbolic" in d.render()

    def test_program_diagnosis_stays_enumerated(self):
        """Compiled programs carry physical addresses — no symbolic
        structure to recover, so every step's method says enumerate."""
        from repro.analysis.certificates import certify_program
        from repro.dmm.trace import MemoryProgram, read

        prog = MemoryProgram(p=16)
        prog.append(read(np.arange(16)))
        cert = certify_program(prog, 16)
        assert [s.method for s in cert.steps] == ["enumerate"]
