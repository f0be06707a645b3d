"""The experiment index must agree with the code and the CLI."""

import importlib

import pytest

from repro.cli import main
from repro.sim.registry import EXPERIMENT_INDEX


class TestIndexIntegrity:
    def test_ids_unique(self):
        ids = [e.id for e in EXPERIMENT_INDEX]
        assert len(ids) == len(set(ids))

    @pytest.mark.parametrize("exp", EXPERIMENT_INDEX, ids=lambda e: e.id)
    def test_modules_import(self, exp):
        for mod in exp.modules:
            importlib.import_module(mod)

    @pytest.mark.parametrize("exp", EXPERIMENT_INDEX, ids=lambda e: e.id)
    def test_cli_commands_exist(self, exp, capsys):
        """The named command is a real subcommand: its --help exits 0
        (an unknown name is an argparse error, exit 2)."""
        if exp.cli is not None:
            with pytest.raises(SystemExit) as exc:
                main([exp.cli, "--help"])
            assert exc.value.code == 0, exp.cli

    def test_unknown_command_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command", "--help"])
        assert exc.value.code == 2

    def test_every_paper_table_indexed(self):
        refs = {e.paper_ref for e in EXPERIMENT_INDEX if e.source == "paper"}
        for required in ("Table I", "Table II", "Table III", "Table IV",
                         "Figs. 1-7", "Lemma 1"):
            assert required in refs
