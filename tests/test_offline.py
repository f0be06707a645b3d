"""Unit tests for repro.routing.offline — offline permutation on the DMM."""

import numpy as np
import pytest

from repro.core.mappings import RAPMapping, RASMapping, RAWMapping
from repro.routing.offline import (
    hostile_permutation,
    naive_permutation_program,
    random_data_permutation,
    run_offline_permutation,
    scheduled_permutation_program,
)


class TestPermutationBuilders:
    def test_random_is_permutation(self):
        perm = random_data_permutation(8, seed=0)
        assert sorted(perm.tolist()) == list(range(64))

    def test_hostile_is_transpose(self):
        perm = hostile_permutation(4)
        # position (i, j) = i*4+j goes to (j, i) = j*4+i
        assert perm[1] == 4  # (0,1) -> (1,0)
        assert perm[7] == 13  # (1,3) -> (3,1)
        assert sorted(perm.tolist()) == list(range(16))

    def test_hostile_self_inverse(self):
        perm = hostile_permutation(8)
        assert np.array_equal(perm[perm], np.arange(64))


class TestNaiveProgram:
    def test_two_instructions(self):
        prog = naive_permutation_program(np.arange(16), RAWMapping(4))
        assert len(prog) == 2
        assert prog.p == 16

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            naive_permutation_program(np.zeros(16, dtype=int), RAWMapping(4))

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            naive_permutation_program(np.arange(15), RAWMapping(4))


class TestScheduledProgram:
    def test_w_rounds_of_two_instructions(self):
        prog = scheduled_permutation_program(np.arange(16), 4)
        assert len(prog) == 2 * 4
        assert prog.p == 4

    def test_every_round_congestion_one(self, rng):
        """The König guarantee: every instruction of the schedule is
        conflict-free, for any permutation."""
        w = 8
        perm = rng.permutation(w * w)
        from repro.dmm.machine import DiscreteMemoryMachine

        machine = DiscreteMemoryMachine(w, 1, 2 * w * w)
        result = machine.run(scheduled_permutation_program(perm, w))
        assert result.max_congestion == 1


class TestRunOfflinePermutation:
    @pytest.mark.parametrize("algorithm", ["naive", "scheduled"])
    def test_correctness_random_perm(self, algorithm, rng):
        w = 8
        perm = random_data_permutation(w, rng)
        o = run_offline_permutation(perm, algorithm, w=w, seed=rng)
        assert o.correct

    def test_naive_correct_under_all_mappings(self, rng):
        w = 8
        perm = random_data_permutation(w, rng)
        for mapping in (RAWMapping(w), RASMapping.random(w, rng),
                        RAPMapping.random(w, rng)):
            o = run_offline_permutation(perm, "naive", mapping=mapping, seed=rng)
            assert o.correct, mapping.name

    def test_hostile_perm_congestion_w_under_raw(self):
        w = 16
        o = run_offline_permutation(hostile_permutation(w), "naive", w=w)
        assert o.max_congestion == w
        assert o.correct

    def test_hostile_perm_congestion_one_under_rap(self, rng):
        w = 16
        o = run_offline_permutation(
            hostile_permutation(w), "naive", mapping=RAPMapping.random(w, rng)
        )
        assert o.max_congestion == 1
        assert o.correct

    def test_scheduled_always_congestion_one(self, rng):
        w = 8
        for perm in (hostile_permutation(w), random_data_permutation(w, rng)):
            o = run_offline_permutation(perm, "scheduled", w=w)
            assert o.max_congestion == 1
            assert o.correct

    def test_scheduled_stage_count(self):
        """w rounds x (1 read + 1 write) stages."""
        w = 8
        o = run_offline_permutation(hostile_permutation(w), "scheduled", w=w)
        assert o.total_stages == 2 * w

    def test_scheduled_beats_naive_raw_on_hostile(self):
        w = 16
        naive = run_offline_permutation(hostile_permutation(w), "naive", w=w)
        sched = run_offline_permutation(hostile_permutation(w), "scheduled", w=w)
        assert sched.total_stages < naive.total_stages

    def test_stage_counts_on_random_permutations(self):
        """Scheduled is the stage optimum (2w); naive/RAP lands between
        it and naive/RAW, with no scheduling work."""
        w = 16
        stages = {"naive/RAW": 0, "naive/RAP": 0, "scheduled": 0}
        for trial in range(5):
            perm = random_data_permutation(w, seed=2014 + trial)
            for key, o in (
                ("naive/RAW", run_offline_permutation(perm, "naive", w=w)),
                ("naive/RAP", run_offline_permutation(
                    perm, "naive", mapping=RAPMapping.random(w, trial))),
                ("scheduled", run_offline_permutation(perm, "scheduled", w=w)),
            ):
                assert o.correct, key
                stages[key] += o.total_stages
        assert stages["scheduled"] == 5 * 2 * w
        assert stages["scheduled"] <= stages["naive/RAP"] <= stages["naive/RAW"]

    def test_latency_tradeoff(self):
        """Scheduled pays l per round; at high latency the one-step
        naive/RAP algorithm wins — the paper's argument for RAP."""
        w = 8
        latency = 32
        rap = run_offline_permutation(
            random_data_permutation(w, 0), "naive",
            mapping=RAPMapping.random(w, 1), latency=latency,
        )
        sched = run_offline_permutation(
            random_data_permutation(w, 0), "scheduled", w=w, latency=latency
        )
        assert rap.time_units < sched.time_units

    def test_requires_w_or_mapping(self):
        with pytest.raises(ValueError):
            run_offline_permutation(np.arange(16), "naive")

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            run_offline_permutation(np.arange(16), "magic", w=4)
