"""Tests for the plan compiler and the plan-executed fast path.

The load-bearing contract mirrors the batched engine's: the plan path
is a pure performance transform, so for every builtin app under every
mapping family, per-step congestion tuples, dispatch sets, timing,
final registers, and final memory must equal the scalar machine's,
bit for bit, per trial — even though statically resolved steps never
replay their addresses for congestion counting.
"""

import json

import numpy as np
import pytest

from repro.analysis.plan import (
    PLAN_FAMILIES,
    check_family_shifts,
    compile_plan,
)
from repro.apps import BUILTIN_PROGRAMS, build_app_program
from repro.core.mappings import (
    MAPPING_NAMES,
    RAWMapping,
    mapping_from_shifts,
    sample_shift_batch,
)
from repro.util.rng import as_generator

W = 8
TRIALS = 4
SEED = 123


def _assert_trial_matches(res, t, scalar_result, scalar_machine):
    assert int(res.time_units[t]) == scalar_result.time_units
    for bt, st in zip(res.traces, scalar_result.traces):
        assert bt.trial_congestions(t) == st.congestions
        assert bt.trial_dispatched(t) == st.dispatched_warps
        assert int(bt.time_units[t]) == st.time_units
    bregs = res.trial_registers(t)
    assert set(bregs) == set(scalar_result.registers)
    for reg, values in scalar_result.registers.items():
        assert np.array_equal(values, bregs[reg])
    assert np.array_equal(res.memory.trial(t), scalar_machine.memory.store)


# ---------------------------------------------------------------------------
# the exactness contract: plan-executed == scalar for all apps x families
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mapping_name", MAPPING_NAMES)
@pytest.mark.parametrize("app", sorted(BUILTIN_PROGRAMS))
def test_plan_matches_scalar_exactly(app, mapping_name):
    """Per trial: congestion tuples, dispatch, timing, registers, memory."""
    rng = as_generator(SEED)
    shifts = sample_shift_batch(mapping_name, W, TRIALS, rng)
    kernel = build_app_program(app, RAWMapping(W), seed=SEED)
    plan = compile_plan(kernel, mapping_name, app)
    res = kernel.run_plan(shifts, plan, latency=4)
    for t in range(TRIALS):
        mapping = mapping_from_shifts(mapping_name, shifts[t])
        scalar_kernel = build_app_program(app, mapping, seed=SEED)
        machine = scalar_kernel.make_machine(latency=4)
        scalar_result = machine.run(scalar_kernel.program())
        _assert_trial_matches(res, t, scalar_result, machine)


# ---------------------------------------------------------------------------
# compiler verdicts
# ---------------------------------------------------------------------------


class TestCompileVerdicts:
    def _plan(self, app, family, w=W):
        kernel = build_app_program(app, RAWMapping(w), seed=2014)
        return compile_plan(kernel, family, app)

    def test_raw_resolves_everything(self):
        # RAW is a singleton family: every step enumerates once.
        for app in sorted(BUILTIN_PROGRAMS):
            plan = self._plan(app, "RAW")
            assert plan.step_coverage == 1.0, app
            assert plan.stage_coverage == 1.0, app
            assert all(s.method == "deterministic" for s in plan.steps)

    def test_zoo_fully_resolved_under_rap(self):
        # The acceptance floor: >= 90% of shearsort/cf_permute stages
        # statically resolved under RAP.  They actually hit 100%.
        for app in ("shearsort", "cf_permute"):
            plan = self._plan(app, "RAP")
            assert plan.step_coverage == 1.0, app
            assert plan.stage_coverage == 1.0, app
            assert all(s.method == "symbolic" for s in plan.steps)

    def test_diagonal_transpose_resolves_via_coset_recipe(self):
        # transpose_drdw is diagonal on both sides: no affine
        # certificate closes it, but every warp's merged columns form
        # a full coset (k = w), so the abstract interpreter resolves
        # it with an exact per-draw closed form under both families.
        for family in ("RAS", "RAP"):
            plan = self._plan("transpose_drdw", family)
            assert plan.step_coverage == 1.0, family
            assert all(s.method == "absint" for s in plan.steps)
            assert all(s.recipe is not None for s in plan.steps)
            # absint steps carry no per-draw congestion table: the
            # recipe is evaluated against the shifts at staging time.
            assert all(s.congestions is None for s in plan.steps)
            assert all(s.total_stages == -1 for s in plan.steps)

    def test_column_local_rule_needs_permutation(self):
        # gather's data-dependent read is column-local: congestion 1
        # for every RAP draw (injective sigma) — the affine rule.
        # Under RAS shifts may repeat, so no constant bound exists,
        # but each touched row holds a single column (a k = w coset):
        # the absint recipe closes the step with the exact
        # residue-multiset form of the draw.
        rap = self._plan("gather", "RAP")
        ras = self._plan("gather", "RAS")
        assert rap.step_coverage == 1.0
        assert all(s.method != "absint" for s in rap.steps)
        assert ras.step_coverage == 1.0
        assert any(s.method == "absint" for s in ras.steps)

    def test_resolved_congestions_are_per_warp_int64(self):
        plan = self._plan("stencil_row", "RAS")
        for step in plan.steps:
            assert step.resolved
            assert step.congestions.dtype == np.int64
            assert step.congestions.shape == (W,)

    def test_address_tables_pooled(self):
        # shearsort's rounds reuse two grids (row and column passes):
        # 112 steps at w=8, 2 distinct address tables.
        plan = self._plan("shearsort", "RAP")
        assert len(plan.steps) == 112
        assert plan.tables == 2

    @pytest.mark.parametrize("family", PLAN_FAMILIES)
    def test_each_table_is_classified_once(self, family, monkeypatch):
        import repro.analysis.plan as plan_module

        calls = []
        classify = plan_module.warp_classes

        def counted(*args):
            calls.append(args)
            return classify(*args)

        monkeypatch.setattr(plan_module, "warp_classes", counted)
        plan = self._plan("shearsort", family)
        assert len(calls) == plan.tables == 2
        first = {}
        for sp in plan.steps:
            lead = first.setdefault(sp.table, sp)
            assert (sp.method, sp.argument, sp.static_warps) == (
                lead.method,
                lead.argument,
                lead.static_warps,
            )

    def test_unknown_family_rejected(self):
        kernel = build_app_program("gather", RAWMapping(W), seed=2014)
        with pytest.raises(ValueError, match="unknown mapping family"):
            compile_plan(kernel, "XOR", "gather")

    def test_to_dict_round_trips_through_json(self):
        plan = self._plan("fft", "RAP")
        payload = json.loads(json.dumps(plan.to_dict()))
        assert payload["steps"] == len(plan.steps)
        assert payload["resolved_steps"] == plan.resolved_steps
        assert 0.0 <= payload["stage_coverage"] <= 1.0
        assert len(payload["plan"]) == len(plan.steps)

    def test_render_mentions_coverage(self):
        text = self._plan("shearsort", "RAP").render()
        assert "112/112 steps resolved" in text
        assert "stage coverage 100%" in text


# ---------------------------------------------------------------------------
# absint coverage uplift: the coset tier must strictly raise coverage
# on the non-affine apps and leave the already-closed ones untouched
# ---------------------------------------------------------------------------


class TestAbsintUplift:
    #: non-zoo apps whose RAP step coverage the coset tier must raise.
    UPLIFT_APPS = ("fft", "scan", "sort", "transpose_drdw")
    #: apps the affine tier already closes fully: no change expected.
    CLOSED_APPS = ("gather", "stencil_row", "transpose_crsw")

    def _coverages(self, app, family, monkeypatch):
        """(affine-only, with-absint) step coverage of one app plan."""
        import repro.analysis.plan as plan_mod

        kernel = build_app_program(app, RAWMapping(W), seed=2014)
        after = compile_plan(kernel, family, app)
        with monkeypatch.context() as m:
            m.setattr(plan_mod, "step_recipe", lambda abstract: None)
            before = compile_plan(kernel, family, app)
        return before, after

    @pytest.mark.parametrize("app", UPLIFT_APPS)
    def test_rap_step_coverage_strictly_increases(self, app, monkeypatch):
        before, after = self._coverages(app, "RAP", monkeypatch)
        assert after.step_coverage > before.step_coverage, app
        assert after.stage_coverage > before.stage_coverage, app
        assert any(s.method == "absint" for s in after.steps)

    @pytest.mark.parametrize("app", CLOSED_APPS)
    def test_closed_apps_unaffected_under_rap(self, app, monkeypatch):
        before, after = self._coverages(app, "RAP", monkeypatch)
        assert before.step_coverage == after.step_coverage == 1.0, app

    def test_uplifted_plans_still_execute_exactly(self, monkeypatch):
        # The uplift is only admissible because staging evaluates the
        # recipe to the same per-draw congestion the simulator counts;
        # spot-check one uplifted app end to end per family.
        for family in ("RAS", "RAP"):
            rng = as_generator(SEED)
            shifts = sample_shift_batch(family, W, TRIALS, rng)
            kernel = build_app_program("transpose_drdw", RAWMapping(W), seed=SEED)
            plan = compile_plan(kernel, family, "transpose_drdw")
            assert any(s.method == "absint" for s in plan.steps)
            res = kernel.run_plan(shifts, plan, latency=4)
            for t in range(TRIALS):
                mapping = mapping_from_shifts(family, shifts[t])
                scalar_kernel = build_app_program(
                    "transpose_drdw", mapping, seed=SEED
                )
                machine = scalar_kernel.make_machine(latency=4)
                scalar_result = machine.run(scalar_kernel.program())
                _assert_trial_matches(res, t, scalar_result, machine)


# ---------------------------------------------------------------------------
# family membership checks
# ---------------------------------------------------------------------------


class TestFamilyChecks:
    def test_families_match_mapping_names(self):
        assert PLAN_FAMILIES == MAPPING_NAMES

    def test_raw_rejects_nonzero_shifts(self):
        shifts = np.zeros((2, W), dtype=np.int64)
        check_family_shifts("RAW", shifts, W)
        shifts[1, 3] = 1
        with pytest.raises(ValueError, match="RAW"):
            check_family_shifts("RAW", shifts, W)

    def test_rap_rejects_non_permutation(self):
        rng = as_generator(5)
        shifts = sample_shift_batch("RAP", W, 3, rng)
        check_family_shifts("RAP", shifts, W)
        shifts[2, 0] = shifts[2, 1]  # repeated value: not a permutation
        with pytest.raises(ValueError, match="permutation"):
            check_family_shifts("RAP", shifts, W)

    def test_ras_accepts_any_in_range_draw(self):
        rng = as_generator(6)
        check_family_shifts("RAS", sample_shift_batch("RAS", W, 3, rng), W)

    def test_run_plan_rejects_wrong_family_draw(self):
        kernel = build_app_program("gather", RAWMapping(W), seed=SEED)
        plan = compile_plan(kernel, "RAP", "gather")
        ras = sample_shift_batch("RAS", W, TRIALS, as_generator(SEED))
        # A RAS draw is almost surely not all-permutations; regenerate
        # until it is not (seed 123 already is not).
        assert not all(sorted(row) == list(range(W)) for row in ras.tolist())
        with pytest.raises(ValueError, match="permutation"):
            kernel.run_plan(ras, plan)

    def test_run_plan_rejects_width_mismatch(self):
        kernel = build_app_program("gather", RAWMapping(W), seed=SEED)
        plan = compile_plan(
            build_app_program("gather", RAWMapping(2 * W), seed=SEED),
            "RAP",
            "gather",
        )
        shifts = sample_shift_batch("RAP", W, TRIALS, as_generator(SEED))
        with pytest.raises(ValueError, match="w="):
            kernel.run_plan(shifts, plan)

    def test_program_batch_rejects_foreign_plan(self):
        kernel = build_app_program("gather", RAWMapping(W), seed=SEED)
        other = build_app_program("transpose_crsw", RAWMapping(W), seed=SEED)
        plan = compile_plan(other, "RAP", "transpose_crsw")
        shifts = sample_shift_batch("RAP", W, TRIALS, as_generator(SEED))
        with pytest.raises(ValueError, match="different kernel"):
            kernel.program_batch(shifts, plan=plan)


# ---------------------------------------------------------------------------
# CLI: repro plan
# ---------------------------------------------------------------------------


class TestPlanCLI:
    def main(self, argv):
        from repro.analysis.cli import main

        return main(argv)

    def test_single_app_text(self, capsys):
        assert self.main(["plan", "--app", "shearsort", "--w", "8"]) == 0
        out = capsys.readouterr().out
        assert "shearsort under RAP" in out
        assert "steps statically resolved" in out

    def test_json_structure(self, capsys):
        code = self.main(
            ["plan", "--app", "cf_permute", "--w", "8", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        (entry,) = payload["programs"]
        assert entry["program"] == "cf_permute"
        assert entry["family"] == "RAP"
        assert entry["stage_coverage"] == 1.0
        assert len(entry["plan"]) == entry["steps"]

    def test_ir_included_on_request(self, capsys):
        code = self.main(
            ["plan", "--app", "gather", "--w", "8", "--ir", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        (entry,) = payload["programs"]
        assert entry["ir"]["steps"] == entry["steps"]
        assert entry["ir"]["nodes"][0]["defines"] == "v"

    def test_min_coverage_gate_passes_on_zoo(self, capsys):
        code = self.main(
            ["plan", "--app", "shearsort", "--min-coverage", "0.9"]
        )
        assert code == 0
        capsys.readouterr()

    def test_min_coverage_gate_trips(self, capsys):
        # histogram's data-dependent scatter stays residual (no coset
        # structure), so its stage coverage sits at 0.5 under RAP.
        code = self.main(
            ["plan", "--app", "histogram", "--min-coverage", "0.9"]
        )
        assert code == 1
        assert "COVERAGE" in capsys.readouterr().err

    def test_unknown_app_exits_2(self, capsys):
        assert self.main(["plan", "--app", "nonesuch"]) == 2
        assert "unknown --app" in capsys.readouterr().err

    def test_bad_coverage_bound_exits_2(self, capsys):
        code = self.main(["plan", "--app", "gather", "--min-coverage", "1.5"])
        assert code == 2
        assert "min-coverage" in capsys.readouterr().err

    def test_routed_from_top_level_cli(self, capsys):
        from repro.cli import main as top_main

        assert top_main(["plan", "--app", "gather", "--w", "8"]) == 0
        assert "gather under RAP" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# bench-dmm --plan
# ---------------------------------------------------------------------------


class TestBenchPlanCLI:
    def test_smoke_and_gate(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "bench_plan.json"
        code = main(
            [
                "bench-dmm", "--plan", "--apps", "cf_permute", "--w", "8",
                "--trials", "4", "--repeats", "1",
                "--json", str(out), "--min-speedup", "0.0001",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["mode"] == "plan"
        (entry,) = payload["rows"]
        assert entry["app"] == "cf_permute"
        assert (entry["baseline"], entry["candidate"]) == ("batched", "plan:numpy")
        assert entry["stage_coverage"] == 1.0
        assert entry["speedup"] == pytest.approx(
            entry["baseline_s"] / entry["candidate_s"], rel=0.01
        )
        assert "plan:numpy" in capsys.readouterr().out

    def test_floor_failure_exits_nonzero(self, capsys):
        from repro.cli import main

        code = main(
            [
                "bench-dmm", "--plan", "--apps", "cf_permute", "--w", "8",
                "--trials", "4", "--repeats", "1", "--min-speedup", "1e9",
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().err
