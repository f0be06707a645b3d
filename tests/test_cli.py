"""Unit tests for repro.cli — the experiment runner."""

import pytest

from repro.cli import (
    EXPERIMENT_NAMES,
    FIGURE_NAMES,
    build_parser,
    main,
    run_experiment,
)
from repro.report.figures import ALL_FIGURES
from repro.resilience.faults import BUILTIN_WORKER_FAULT_PLANS
from repro.sim.engine import MonteCarloEngine


class TestParser:
    def test_experiment_choices(self):
        parser = build_parser()
        args = parser.parse_args(["table1"])
        assert args.experiment == "table1"

    def test_defaults(self):
        args = build_parser().parse_args(["fig2"])
        assert args.trials == 1000
        assert args.seed == 2014
        assert args.widths == [16, 32, 64, 128, 256]

    def test_custom_options(self):
        args = build_parser().parse_args(
            ["table2", "--trials", "50", "--seed", "1", "--widths", "8", "16"]
        )
        assert args.trials == 50 and args.seed == 1 and args.widths == [8, 16]

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table9"])

    def test_all_is_a_choice(self):
        assert "all" in EXPERIMENT_NAMES

    def test_figure_names_are_the_figures(self):
        """The parser names the figures without importing their code."""
        assert FIGURE_NAMES == tuple(ALL_FIGURES)

    def test_chaos_help_lists_every_worker_fault_plan(self):
        (chaos,) = [a for a in build_parser()._actions if a.dest == "chaos"]
        for name in BUILTIN_WORKER_FAULT_PLANS:
            assert name in chaos.help


class TestRunExperiment:
    def test_table1(self):
        args = build_parser().parse_args(["table1"])
        assert "Table I" in run_experiment("table1", args)

    def test_figures(self):
        args = build_parser().parse_args(["fig3"])
        out = run_experiment("fig3", args)
        assert "7 time units" in out

    def test_table2_respects_widths(self):
        args = build_parser().parse_args(
            ["table2", "--trials", "20", "--widths", "8"]
        )
        out = run_experiment("table2", args)
        assert "w=8" in out and "w=16" not in out

    def test_unknown_raises(self):
        args = build_parser().parse_args(["table1"])
        with pytest.raises(ValueError):
            run_experiment("table9", args)


class TestExtensionExperiments:
    def test_exact(self):
        args = build_parser().parse_args(["exact", "--widths", "16", "32"])
        out = run_experiment("exact", args)
        assert "3.0782" in out and "3.5329" in out

    def test_offline(self):
        args = build_parser().parse_args(["offline"])
        out = run_experiment("offline", args)
        assert "scheduled" in out and "naive/RAP" in out
        assert "NO" not in out  # every run verified

    def test_matmul(self):
        args = build_parser().parse_args(["matmul"])
        out = run_experiment("matmul", args)
        assert "ABt" in out and "PAD" in out
        assert "NO" not in out

    def test_growth(self):
        args = build_parser().parse_args(
            ["growth", "--trials", "200", "--widths", "16", "32"]
        )
        out = run_experiment("growth", args)
        assert "bound=" in out and "RAP=" in out

    def test_occupancy(self):
        args = build_parser().parse_args(["occupancy"])
        out = run_experiment("occupancy", args)
        assert "tiles in SM" in out
        assert "PAD" in out and "XOR" in out

    def test_apps(self):
        args = build_parser().parse_args(["apps"])
        out = run_experiment("apps", args)
        assert "FFT" in out and "scan" in out and "stencil" in out


class TestMain:
    def test_single_experiment(self, capsys):
        assert main(["fig2", "--trials", "10"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out

    def test_table_run(self, capsys):
        assert main(["table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_exit_code_zero(self):
        assert main(["fig6"]) == 0

    @pytest.mark.parametrize("trials", ["0", "-1"])
    @pytest.mark.parametrize(
        "command", ["table2", "table3", "table4", "sweep-all", "bench-dmm"]
    )
    def test_bad_trials_is_a_usage_error(self, command, trials, capsys):
        """``--trials`` below 1 exits 2 with one argparse error line
        before any work runs, not a traceback (or a silent clamp)."""
        _assert_usage_error([command, "--trials", trials], "--trials", capsys)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["table2", "--widths", "0"], "--widths"),
            (["table2", "--widths", "16", "-4"], "--widths"),
            (["table4", "--w4", "0"], "--w4"),
            (["table4", "--w4", "-3"], "--w4"),
            (["sweep-all", "--widths", "0"], "--widths"),
            (["sweep-all", "--w4", "0"], "--w4"),
        ],
    )
    def test_bad_width_is_a_usage_error(self, argv, flag, capsys):
        """A width below 1 exits 2 the same way, not with a
        ``ValueError`` traceback from inside the sweep."""
        _assert_usage_error(argv, flag, capsys)


    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["adversary", "--workers", "-1"], "--workers"),
            (["adversary", "--w", "0"], "--w"),
            (["adversary", "--restarts", "0"], "--restarts"),
            (["adversary", "--train-trials", "-3"], "--train-trials"),
        ],
    )
    def test_bad_adversary_count_is_a_usage_error(self, argv, flag, capsys):
        """An out-of-range adversary count exits 2 at the parser, not
        with a ``ValueError`` traceback from the engine or the budget."""
        _assert_usage_error(argv, flag, capsys)

    @pytest.mark.parametrize(
        "command",
        [
            "table2", "table3", "table4", "apps", "sweep-all", "adversary",
            "prove", "analyze", "certify", "plan", "bench-dmm",
        ],
    )
    def test_bad_seed_is_a_usage_error(self, command, capsys):
        """A negative ``--seed`` exits 2 at the parser, not with numpy's
        "expected non-negative integer" traceback from inside the run."""
        _assert_usage_error([command, "--seed", "-1"], "--seed", capsys)


def _assert_usage_error(argv, flag, capsys):
    """``argv`` exits 2 with one argparse error line naming ``flag``."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = [ln for ln in err.splitlines() if "error:" in ln]
    assert f"argument {flag}:" in line


class TestCacheRootNotADirectory:
    """A cache root that exists but is not a directory exits 2 with one
    error line when the cache is built, before any cell runs -- not
    with a traceback from the first cache write."""

    @pytest.fixture(params=["file", "under-a-file"])
    def file_root(self, request, tmp_path, monkeypatch):
        root = tmp_path / "cache-file"
        root.write_text("")
        if request.param == "under-a-file":
            root = root / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))

        def no_cells(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(MonteCarloEngine, "_run", no_cells)
        return root

    @pytest.mark.parametrize(
        "argv",
        [
            ["table2", "--trials", "3", "--widths", "16"],
            ["sweep-all", "--trials", "3", "--widths", "16"],
            ["cache", "stats"],
            ["cache", "verify"],
        ],
    )
    def test_exits_2_with_one_line(self, file_root, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: cache root {file_root} is not a directory\n"
        )

    def test_cache_dir_flag_is_checked_too(self, tmp_path, capsys):
        root = tmp_path / "cache-file"
        root.write_text("")
        assert main(["cache", "stats", "--cache-dir", str(root)]) == 2
        assert "is not a directory" in capsys.readouterr().err

    def test_no_cache_builds_no_cache(self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "cache-file"
        root.write_text("")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        assert main(["table2", "--trials", "3", "--widths", "16", "--no-cache"]) == 0
        assert "Table II" in capsys.readouterr().out


class TestMarkdownFormat:
    def test_table1_md(self):
        args = build_parser().parse_args(["table1", "--format", "md"])
        out = run_experiment("table1", args)
        assert out.startswith("### Table I")
        assert "|---|" in out

    def test_default_is_ascii(self):
        args = build_parser().parse_args(["table1"])
        out = run_experiment("table1", args)
        assert "-+-" in out

    def test_bad_format_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--format", "html"])


class TestReportCommand:
    def test_full_report(self):
        args = build_parser().parse_args(
            ["report", "--trials", "100", "--widths", "16"]
        )
        out = run_experiment("report", args)
        assert out.startswith("# RAP reproduction report")
        for heading in ("Table I", "Table II", "Table III", "Table IV",
                        "Figures", "Experiment index"):
            assert heading in out
        assert "fig6" in out
