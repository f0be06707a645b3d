"""Documentation tests: the README's claims and code must stay true."""

from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


class TestReadmeQuickstart:
    def test_quickstart_snippet_runs_and_claims_hold(self):
        """Execute the README's quickstart exactly as written."""
        import repro

        mapping = repro.RAPMapping.random(32, seed=7)
        outcome = repro.run_transpose("CRSW", mapping)
        assert outcome.correct is True
        assert outcome.read_congestion == 1
        assert outcome.write_congestion == 1

        addresses = repro.pattern_addresses(mapping, "stride")
        assert repro.congestion_batch(addresses, 32).max() == 1

    def test_raw_write_congestion_claim(self):
        """'would be 32 under plain row-major'."""
        import repro

        outcome = repro.run_transpose("CRSW", repro.RAWMapping(32))
        assert outcome.write_congestion == 32


class TestReadmeStructure:
    @pytest.fixture(scope="class")
    def text(self):
        return README.read_text()

    def test_mentions_all_cli_tables(self, text):
        for cmd in ("table2", "table3", "table4"):
            assert f"python -m repro {cmd}" in text

    def test_mentions_install(self, text):
        assert "pip install -e ." in text

    def test_mentions_benchmark_command(self, text):
        assert "python -m pytest -x -q" in text
        assert "python3 perfbench/run.py" in text

    def test_example_scripts_exist(self, text):
        examples = Path(__file__).resolve().parent.parent / "examples"
        for line in text.splitlines():
            if line.startswith("| `examples/"):
                name = line.split("`")[1]
                assert (examples.parent / name).exists(), name

    def test_documented_cli_experiments_exist(self, text):
        from repro.cli import EXPERIMENT_NAMES

        for cmd in ("table2", "table3", "table4", "fig6", "all"):
            assert cmd in EXPERIMENT_NAMES
