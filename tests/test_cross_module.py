"""Cross-module consistency: independent subsystems must agree.

Each test computes the same quantity through two code paths that share
no implementation (static analyzer vs executor, heatmap vs congestion
kernel, figures vs mappings) and asserts equality.
Disagreement anywhere means one of the paths drifted.
"""

import numpy as np
import pytest

from repro.access.patterns import pattern_addresses
from repro.access.transpose import TRANSPOSE_NAMES, run_transpose, transpose_indices
from repro.analysis.certificates import certify_program
from repro.apps import BUILTIN_PROGRAMS, build_app_program
from repro.core.congestion import bank_loads_batch, congestion_batch
from repro.core.mappings import MAPPING_NAMES, RAPMapping, mapping_by_name
from repro.gpu.analyzer import analyze_kernel
from repro.gpu.kernel import KernelStep, transpose_kernel
from repro.report.heatmap import bank_heatmap
from repro.util.rng import as_generator


class TestAnalyzerVsExecutor:
    @pytest.mark.parametrize("kind", TRANSPOSE_NAMES)
    @pytest.mark.parametrize("mapping_name", MAPPING_NAMES)
    def test_static_totals_equal_dynamic_stages(self, kind, mapping_name, rng):
        w = 8
        mapping = mapping_by_name(mapping_name, w, rng)
        # Static: analyzer over logical steps.
        (ri, rj), (wi, wj) = transpose_indices(kind, w)
        steps = [
            KernelStep("read", "a", ri, rj, register="c"),
            KernelStep("write", "b", wi, wj, register="c"),
        ]
        static = analyze_kernel(w, steps, candidates=[mapping])
        # Dynamic: actual execution.
        outcome = run_transpose(kind, mapping, seed=rng)
        dynamic = sum(
            t.schedule.total_stages for t in outcome.execution.traces
        )
        assert static.totals[mapping.name] == dynamic

    @pytest.mark.parametrize("mapping_name", ["RAW", "RAS", "RAP"])
    @pytest.mark.parametrize("app", sorted(BUILTIN_PROGRAMS))
    def test_app_totals_equal_machine_stages(self, app, mapping_name):
        """Masked steps included: the analyzer counts only active lanes,
        as the machine does at dispatch."""
        w, seed = 16, 3
        mapping = mapping_by_name(mapping_name, w, seed)
        kernel = build_app_program(app, mapping, seed=seed)
        static = analyze_kernel(kernel.w, kernel.steps, candidates=[kernel.mapping])
        machine = kernel.make_machine()
        data = as_generator(seed)
        for name in kernel.inputs:
            kernel.load_array(machine, name, data.random((w, w)))
        result = machine.run(kernel.program())
        dynamic = sum(t.schedule.total_stages for t in result.traces)
        assert static.totals[mapping.name] == dynamic

    def test_program_analyzer_equals_kernel_analyzer(self, rng):
        """The compiled program and its logical steps, one answer."""
        w = 8
        mapping = RAPMapping.random(w, rng)
        kernel = transpose_kernel("CRSW", mapping)
        via_kernel = analyze_kernel(w, kernel.steps, candidates=[mapping])
        via_program = certify_program(kernel.program(), w)
        assert via_program.total_stages == via_kernel.totals["RAP"]


class TestHeatmapVsCongestion:
    @pytest.mark.parametrize("pattern", ["contiguous", "stride", "diagonal"])
    def test_heatmap_max_equals_congestion(self, pattern, rng):
        w = 16
        mapping = RAPMapping.random(w, rng)
        addrs = pattern_addresses(mapping, pattern)
        loads = bank_heatmap(addrs, w)
        cong = congestion_batch(addrs, w)
        assert np.array_equal(loads.max(axis=1), cong)

    def test_heatmap_is_bank_loads(self, rng):
        w = 8
        addrs = rng.integers(0, w * w, size=(5, w))
        assert np.array_equal(bank_heatmap(addrs, w), bank_loads_batch(addrs, w))


class TestKernelVsTransposePath:
    @pytest.mark.parametrize("kind", TRANSPOSE_NAMES)
    def test_same_program_same_time(self, kind, rng):
        mapping = RAPMapping.random(8, rng)
        outcome = run_transpose(kind, mapping, latency=4)
        report = transpose_kernel(kind, mapping).run(latency=4)
        assert outcome.time_units == report.time_units

    @pytest.mark.parametrize("kind", TRANSPOSE_NAMES)
    def test_same_data(self, kind, rng):
        mapping = RAPMapping.random(8, rng)
        matrix = rng.random((8, 8))
        kernel = transpose_kernel(kind, mapping)
        machine = kernel.make_machine()
        kernel.load_array(machine, "a", matrix)
        machine.run(kernel.program())
        assert np.array_equal(kernel.read_array(machine, "b"), matrix.T)


class TestFigureVsMapping:
    def test_fig6_layout_equals_mapping_layout(self):
        """The rendered Fig. 6 grid IS apply_layout of its sigma."""
        from repro.report.figures import figure6

        fig = figure6()
        mapping = RAPMapping(4, fig.data["sigma"])
        logical = np.arange(16).reshape(4, 4)
        assert np.array_equal(
            fig.data["physical"], mapping.apply_layout(logical).reshape(4, 4)
        )

    def test_fig2_congestions_equal_kernel(self):
        from repro.core.congestion import warp_congestion
        from repro.report.figures import figure2

        fig = figure2()
        for name, addrs in fig.data["cases"].items():
            assert fig.data["congestion"][name] == warp_congestion(addrs, 4)
