"""The checked-in analysis baselines match their regeneration script.

``tests/data/regen_baselines.py`` is the single source of truth for
``certify_baseline.json`` (the CI certify diff artifact),
``ir_baseline.json`` (golden IR dumps), ``apps_baseline.json``
(golden ``run_*`` app outcomes), ``app_sweep_baseline.json`` (golden
``app_time_sweep`` and ``run_plan`` per-trial times) and ``tables_baseline.json`` (golden
Table II/III/IV output, congestion pmfs and kernel digests): these tests assert the
committed files are byte-identical to a fresh regeneration, so a
baseline can never be hand-edited out of sync with the analysis code.
"""

import importlib.util
import json
from pathlib import Path

import pytest

DATA_DIR = Path(__file__).parent / "data"


def _regen_module():
    spec = importlib.util.spec_from_file_location(
        "regen_baselines", DATA_DIR / "regen_baselines.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def regen():
    return _regen_module()


def test_every_baseline_has_a_regenerator(regen):
    committed = {p.name for p in DATA_DIR.glob("*.json")}
    assert committed == set(regen.BASELINES)


@pytest.mark.parametrize(
    "name",
    [
        "app_sweep_baseline.json",
        "apps_baseline.json",
        "certify_baseline.json",
        "ir_baseline.json",
        "tables_baseline.json",
    ],
)
def test_checked_in_baseline_is_byte_identical_to_regen(regen, name):
    fresh = regen.BASELINES[name]()
    committed = (DATA_DIR / name).read_text()
    assert committed == fresh, (
        f"{name} is stale; regenerate with "
        "`PYTHONPATH=src python tests/data/regen_baselines.py` and commit"
    )


class TestIrBaselineShape:
    """Sanity on the golden IR artifact itself (not just byte-equality)."""

    @pytest.fixture(scope="class")
    def payload(self):
        return json.loads((DATA_DIR / "ir_baseline.json").read_text())

    def test_covers_every_builtin_app(self, payload):
        from repro.apps import BUILTIN_PROGRAMS

        assert sorted(payload["programs"]) == sorted(BUILTIN_PROGRAMS)

    def test_zoo_apps_present_with_dead_reads(self, payload):
        shearsort = payload["programs"]["shearsort"]
        assert shearsort["steps"] == len(shearsort["nodes"])
        assert len(shearsort["dead_reads"]) > 0

    def test_node_records_are_complete(self, payload):
        for app, dump in payload["programs"].items():
            for node in dump["nodes"]:
                assert set(node) == {
                    "step", "op", "array", "register", "active", "warps",
                    "merged", "defines", "consumes", "uses", "live_out",
                    "dead",
                }, app
