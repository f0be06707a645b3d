"""End-to-end tests for the prove / lint / analyze CLI subcommands.

Everything goes through ``repro.cli.main`` — the same dispatch
``python -m repro`` uses — so these are true CLI contract tests,
including the exit codes CI relies on.
"""

import json

import pytest

from repro.cli import main


class TestDispatch:
    def test_experiments_still_work(self, capsys):
        assert main(["table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_unknown_subcommand_still_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestProveCommand:
    def test_acceptance_criterion(self, capsys):
        """`repro prove --pattern stride --mapping rap --w 32`:
        congestion 1, method=symbolic, no enumeration."""
        assert main(
            ["prove", "--pattern", "stride", "--mapping", "rap", "--w", "32"]
        ) == 0
        out = capsys.readouterr().out
        assert "congestion 1" in out
        assert "method=symbolic" in out
        assert "enumerat" not in out  # truly no enumeration fallback

    def test_json_payload(self, capsys):
        assert main(
            ["prove", "--pattern", "stride", "--mapping", "rap",
             "--w", "32", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["congestion"] == 1
        assert payload["method"] == "symbolic"
        assert payload["w"] == 32

    def test_expect_gate_passes(self):
        assert main(
            ["prove", "--pattern", "stride", "--mapping", "rap",
             "--w", "32", "--expect", "1"]
        ) == 0

    def test_expect_gate_fails_on_mismatch(self, capsys):
        assert main(
            ["prove", "--pattern", "stride", "--mapping", "raw",
             "--w", "32", "--expect", "1"]
        ) == 1
        assert "EXPECTATION FAILED" in capsys.readouterr().err

    def test_full_matrix(self, capsys):
        assert main(["prove", "--all", "--w", "8"]) == 0
        out = capsys.readouterr().out
        assert "closed symbolically" in out
        assert "pairwise under RAW" in out

    def test_case_insensitive_mapping(self, capsys):
        assert main(["prove", "--mapping", "pad", "--pattern",
                     "antidiagonal", "--w", "16"]) == 0
        assert "congestion 16" in capsys.readouterr().out


class TestLintCommand:
    def test_shipped_tree_clean_exit_zero(self, capsys):
        """Acceptance: --fail-on-warn exits 0 on the shipped tree."""
        assert main(["lint", "--fail-on-warn"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_module_level_np_random_fails(self, tmp_path, capsys):
        """Acceptance: a module-level np.random.rand fixture exits 1."""
        fixture = tmp_path / "seeded.py"
        fixture.write_text("import numpy as np\nX = np.random.rand(4)\n")
        assert main(["lint", str(tmp_path), "--fail-on-warn"]) == 1
        assert "RNG001" in capsys.readouterr().out

    def test_findings_without_flag_exit_zero(self, tmp_path):
        fixture = tmp_path / "seeded.py"
        fixture.write_text("import random\n")
        assert main(["lint", str(tmp_path)]) == 0

    def test_json_format(self, tmp_path, capsys):
        fixture = tmp_path / "seeded.py"
        fixture.write_text("def f(a=[]):\n    return a\n")
        assert main(["lint", str(tmp_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "DEF001"


class TestAnalyzeCommand:
    def test_text_report(self, capsys):
        assert main(["analyze", "--kernel", "crsw", "--w", "8"]) == 0
        out = capsys.readouterr().out
        assert "Kernel congestion analysis" in out
        assert "symbolic" in out

    def test_json_report(self, capsys):
        assert main(["analyze", "--kernel", "crsw", "--w", "8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["best_layout"] in ("RAP", "XOR")
        assert payload["best_layout_worst"] == 1
        assert len(payload["steps"]) == 2 * 3
        assert all(s["method"] == "symbolic" for s in payload["steps"])

    def test_regression_gate_passes(self):
        assert main(
            ["analyze", "--kernel", "crsw", "--w", "32", "--max-worst", "1"]
        ) == 0

    def test_regression_gate_fails(self, capsys):
        assert main(
            ["analyze", "--kernel", "crsw", "--w", "32", "--max-worst", "0"]
        ) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_other_kernels(self):
        for kind in ("srcw", "drdw"):
            assert main(["analyze", "--kernel", kind, "--w", "8"]) == 0


class TestWidthArgument:
    @pytest.mark.parametrize("command", ["certify", "plan", "prove", "analyze"])
    @pytest.mark.parametrize("w", ["0", "-2"])
    def test_width_below_one_is_a_usage_error(self, command, w, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--w", w])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = [ln for ln in err.splitlines() if "error:" in ln]
        assert "argument --w:" in line

    @pytest.mark.parametrize("command", ["certify", "plan"])
    def test_width_an_app_cannot_take_names_the_app(self, command, capsys):
        """fft needs a power-of-two width: one stderr line, exit 2."""
        assert main([command, "--app", "fft", "--w", "12"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert "'fft'" in line and "--w 12" in line

    def test_apps_that_take_the_width_still_run(self, capsys):
        assert main(["certify", "--app", "stencil_row", "--w", "12"]) == 0
        assert "1/1 program certificates clean" in capsys.readouterr().out
