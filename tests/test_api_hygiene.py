"""API hygiene: exports resolve, docstrings exist, versions agree.

Release-quality checks: every name a package advertises in ``__all__``
must import, every public callable must carry a docstring, and the
version constants must agree across files.
"""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.dmm",
    "repro.access",
    "repro.gpu",
    "repro.routing",
    "repro.apps",
    "repro.adversary",
    "repro.sim",
    "repro.report",
    "repro.util",
    "repro.analysis",
    "repro.resilience",
    "repro.fabric",
]

MODULES = [
    "repro.cli",
    "repro.core.permutation",
    "repro.core.mappings",
    "repro.core.congestion",
    "repro.core.theory",
    "repro.core.exact",
    "repro.core.higher_dim",
    "repro.core.padded",
    "repro.core.swizzle",
    "repro.core.serialize",
    "repro.core.register_pack",
    "repro.dmm.memory",
    "repro.dmm.warp",
    "repro.dmm.mmu",
    "repro.dmm.trace",
    "repro.dmm.machine",
    "repro.dmm.umm",
    "repro.dmm.validation",
    "repro.access.patterns",
    "repro.access.patterns_nd",
    "repro.access.strided",
    "repro.access.transpose",
    "repro.gpu.timing",
    "repro.gpu.kernel",
    "repro.gpu.matmul",
    "repro.gpu.occupancy",
    "repro.gpu.analyzer",
    "repro.analysis.affine",
    "repro.analysis.prover",
    "repro.analysis.lint",
    "repro.analysis.cli",
    "repro.routing.coloring",
    "repro.routing.offline",
    "repro.apps.fft",
    "repro.apps.scan",
    "repro.apps.stencil",
    "repro.apps.sort",
    "repro.apps.spmv",
    "repro.apps.gather",
    "repro.apps.histogram",
    "repro.apps.global_transpose",
    "repro.apps.zoo",
    "repro.adversary.search",
    "repro.adversary.cli",
    "repro.sim.congestion_sim",
    "repro.sim.distributions",
    "repro.sim.sweep",
    "repro.sim.experiments",
    "repro.sim.registry",
    "repro.sim.engine",
    "repro.sim.cache",
    "repro.report.run_stats",
    "repro.report.tables",
    "repro.report.figures",
    "repro.report.heatmap",
    "repro.report.ascii_plot",
    "repro.util.rng",
    "repro.util.validation",
]


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_module_imports_and_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol!r}"


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_documented(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        obj = getattr(module, symbol)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            # Only enforce for objects defined in this module (not
            # re-exports or constants).
            if getattr(obj, "__module__", name) == name:
                assert obj.__doc__, f"{name}.{symbol} lacks a docstring"


def test_version_consistency():
    import repro

    from pathlib import Path

    pyproject = Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
    text = pyproject.read_text()
    assert f'version = "{repro.__version__}"' in text


def test_top_level_all_resolves_completely():
    import repro

    for symbol in repro.__all__:
        assert hasattr(repro, symbol), symbol
