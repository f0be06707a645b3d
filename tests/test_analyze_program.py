"""Unit tests for certify_program — linting compiled programs."""

import numpy as np

from repro.analysis.certificates import certify_program
from repro.core.mappings import RAPMapping, RAWMapping
from repro.dmm.machine import DiscreteMemoryMachine
from repro.dmm.trace import INACTIVE, MemoryProgram, read
from repro.gpu.kernel import transpose_kernel
from repro.routing.offline import scheduled_permutation_program


class TestAnalyzeProgram:
    def test_crsw_raw_profile(self):
        prog = transpose_kernel("CRSW", RAWMapping(16)).program()
        cert = certify_program(prog, 16)
        assert (cert.steps[0].op, cert.steps[0].worst) == ("read", 1)
        assert (cert.steps[1].op, cert.steps[1].worst) == ("write", 16)
        assert cert.worst == 16
        assert cert.total_stages == 16 + 16 * 16

    def test_crsw_rap_clean(self, rng):
        prog = transpose_kernel("CRSW", RAPMapping.random(16, rng)).program()
        cert = certify_program(prog, 16)
        assert cert.worst == 1

    def test_matches_machine_stage_accounting(self, rng):
        """Static analysis must agree with the executor's stages."""
        mapping = RAPMapping.random(8, rng)
        prog = transpose_kernel("DRDW", mapping).program()
        cert = certify_program(prog, 8)
        machine = DiscreteMemoryMachine(8, 1, 2 * 64)
        machine.load(0, mapping.apply_layout(np.zeros((8, 8))))
        result = machine.run(prog)
        stages = sum(t.schedule.total_stages for t in result.traces)
        assert cert.total_stages == stages
        assert cert.worst == result.max_congestion

    def test_inactive_lanes_ignored(self):
        addrs = np.array([0, INACTIVE, INACTIVE, INACTIVE])
        prog = MemoryProgram(p=4, instructions=[read(addrs)])
        cert = certify_program(prog, 4)
        assert cert.steps[0].worst == 1

    def test_fully_inactive_instruction(self):
        prog = MemoryProgram(p=4, instructions=[read(np.full(4, INACTIVE))])
        cert = certify_program(prog, 4)
        assert cert.steps[0].worst == 0
        assert cert.total_stages == 0

    def test_scheduled_permutation_is_certified_clean(self, rng):
        """The offline-permutation schedule lints as all-1."""
        w = 8
        perm = rng.permutation(w * w)
        prog = scheduled_permutation_program(perm, w)
        cert = certify_program(prog, w)
        assert cert.worst == 1
