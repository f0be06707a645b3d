"""Unit tests for analyze_program — linting compiled programs."""

import numpy as np
import pytest

from repro.core.mappings import RAPMapping, RAWMapping
from repro.dmm.machine import DiscreteMemoryMachine
from repro.dmm.trace import INACTIVE, MemoryProgram, read
from repro.gpu.analyzer import analyze_program
from repro.gpu.kernel import transpose_kernel
from repro.routing.offline import scheduled_permutation_program


class TestAnalyzeProgram:
    def test_crsw_raw_profile(self):
        prog = transpose_kernel("CRSW", RAWMapping(16)).program()
        d = analyze_program(prog, 16)
        assert d.per_instruction[0][:2] == ("read", 1)
        assert d.per_instruction[1][:2] == ("write", 16)
        assert d.worst == 16
        assert d.total_stages == 16 + 16 * 16

    def test_crsw_rap_clean(self, rng):
        prog = transpose_kernel("CRSW", RAPMapping.random(16, rng)).program()
        d = analyze_program(prog, 16)
        assert d.worst == 1
        assert d.hotspots() == []

    def test_hotspots_identify_the_bad_instruction(self):
        prog = transpose_kernel("SRCW", RAWMapping(8)).program()
        d = analyze_program(prog, 8)
        assert d.hotspots() == [0]  # the stride read

    def test_hotspot_threshold(self):
        prog = transpose_kernel("CRSW", RAWMapping(8)).program()
        d = analyze_program(prog, 8)
        assert d.hotspots(threshold=9) == []
        assert d.hotspots(threshold=2) == [1]

    def test_matches_machine_stage_accounting(self, rng):
        """Static analysis must agree with the executor's stages."""
        mapping = RAPMapping.random(8, rng)
        prog = transpose_kernel("DRDW", mapping).program()
        d = analyze_program(prog, 8)
        machine = DiscreteMemoryMachine(8, 1, 2 * 64)
        machine.load(0, mapping.apply_layout(np.zeros((8, 8))))
        result = machine.run(prog)
        stages = sum(t.schedule.total_stages for t in result.traces)
        assert d.total_stages == stages
        assert d.worst == result.max_congestion

    def test_inactive_lanes_ignored(self):
        addrs = np.array([0, INACTIVE, INACTIVE, INACTIVE])
        prog = MemoryProgram(p=4, instructions=[read(addrs)])
        d = analyze_program(prog, 4)
        assert d.per_instruction[0][1] == 1

    def test_fully_inactive_instruction(self):
        prog = MemoryProgram(p=4, instructions=[read(np.full(4, INACTIVE))])
        d = analyze_program(prog, 4)
        assert d.per_instruction[0][1] == 0
        assert d.total_stages == 0

    def test_scheduled_permutation_is_certified_clean(self, rng):
        """The offline-permutation schedule lints as all-1."""
        w = 8
        perm = rng.permutation(w * w)
        prog = scheduled_permutation_program(perm, w, method="euler")
        d = analyze_program(prog, w)
        assert d.worst == 1
