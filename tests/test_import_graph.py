"""The import graph, checked in fresh interpreters and in the source.

Package exports are lazy (PEP 562, :mod:`repro._lazy`): importing a
package loads none of its submodules, and a command pays only for the
modules it uses.  These checks run in subprocesses, because this test
process has long since imported everything.  Where a check needs many
"first touches", the subprocess drops every ``repro`` module from
``sys.modules`` before each one, so each lookup starts from nothing.
The last check reads the source instead: every module must be the
target of some ``import`` statement in the package.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in (SRC / "repro").rglob("__init__.py")
)
MODULES = sorted(
    ".".join(path.with_suffix("").relative_to(SRC).parts)
    for path in (SRC / "repro").rglob("*.py")
    if path.stem not in ("__init__", "__main__")
)

_PRELUDE = """
import importlib, json, sys

def forget_repro():
    for name in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]
"""


def _run(body: str, *args: str):
    """Run ``body`` after the prelude in a fresh interpreter; the JSON
    it prints last is the result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PRELUDE + body, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_after(statement: str) -> list[str]:
    return _run(f"{statement}\nprint(json.dumps(sorted(sys.modules)))")


def test_import_repro_loads_no_submodule():
    loaded = _loaded_after("import repro")
    assert [m for m in loaded if m.startswith("repro.")] == ["repro._lazy"]
    assert "networkx" not in loaded


def test_import_cli_leaves_out_what_the_tables_do_not_use():
    loaded = set(_loaded_after("import repro.cli"))
    heavy = ("networkx", "repro.analysis", "repro.adversary",
             "repro.fabric.workers", "repro.report.figures")
    assert loaded.isdisjoint(heavy), sorted(loaded.intersection(heavy))


def test_importing_never_loads_ctypes():
    """The heap policy imports ctypes only when a command sets it.
    numpy loads ctypes itself (and gets by without it), so the check on
    ``repro.cli`` blocks ctypes: any ``repro`` module that imported it
    at module level would fail to import."""
    assert "ctypes" not in _loaded_after("import repro")
    loaded = _loaded_after("sys.modules['ctypes'] = None\nimport repro.cli")
    assert "repro.cli" in loaded


def test_every_export_resolves_when_touched_first():
    exports = _run(
        "print(json.dumps({p: importlib.import_module(p).__all__ "
        "for p in sys.argv[1:]}))",
        *PACKAGES,
    )
    failures = _run(
        """
failures = []
for package, names in json.loads(sys.argv[1]).items():
    for name in names:
        forget_repro()
        module = importlib.import_module(package)
        try:
            getattr(module, name)
        except Exception as exc:
            failures.append(f"{package}.{name}: {type(exc).__name__}: {exc}")
            continue
        if name not in dir(module):
            failures.append(f"{package}.{name}: missing from dir()")
print(json.dumps(failures))
""",
        json.dumps(exports),
    )
    assert failures == []


def test_subpackages_are_attributes_of_their_parent():
    assert _run(
        "import repro\n"
        "print(json.dumps([repro.sim.table2.__name__, repro.dmm.backends.__name__]))"
    ) == ["table2", "repro.dmm.backends"]


#: Registries filled at import time: ``(package, expression of its keys)``.
REGISTRIES = [
    ("repro.dmm.backends", "list(module.backend_names())"),
    ("repro.fabric", "list(module.WORKER_BACKENDS)"),
    ("repro.resilience", "list(module.BUILTIN_FAULT_PLANS)"),
    ("repro.resilience", "list(module.BUILTIN_WORKER_FAULT_PLANS)"),
    ("repro.apps", "list(module.BUILTIN_PROGRAMS)"),
    ("repro.sim", "[e.id for e in module.EXPERIMENT_INDEX]"),
]


def test_registries_are_complete_when_looked_up_first():
    first, full = _run(
        """
registries = json.loads(sys.argv[1])
first = []
for package, keys in registries:
    forget_repro()
    module = importlib.import_module(package)
    first.append(eval(keys))
for name in json.loads(sys.argv[2]):
    importlib.import_module(name)
full = [eval(keys, {"module": importlib.import_module(p)}) for p, keys in registries]
print(json.dumps([first, full]))
""",
        json.dumps(REGISTRIES),
        json.dumps(MODULES),
    )
    assert first == full
    assert all(full)


#: Modules no ``import`` in ``src/repro`` names, and what keeps each one.
UNIMPORTED_ALLOWED = {
    "repro.__main__": "`python -m repro`",
    "repro.access.strided": "used by examples/reduction_conflicts.py",
    "repro.core.serialize": "used by examples/sigma_lifecycle.py",
    "repro.dmm.validation": "the trace-invariant checker tests use as a reference",
    "repro.report.heatmap": "used by examples/padding_vs_rap.py and reduction_conflicts.py",
    "repro.sim.distributions": "its pmfs are pinned by tables_baseline.json",
}


def test_every_module_is_imported():
    """A module that no ``import`` statement names (function-local
    imports count; ``lazy_exports`` tables and ``sim/registry.py``'s
    module tuples are strings and do not) is reached by nothing in the
    program.  Delete it, or allowlist it with the user that keeps it."""
    imported = set()
    for path in (SRC / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
                imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    unimported = sorted(
        set(MODULES + ["repro.__main__"]) - imported - set(UNIMPORTED_ALLOWED)
    )
    assert not unimported, f"imported by nothing: {unimported}"
    stale = sorted(set(UNIMPORTED_ALLOWED) & imported)
    assert not stale, f"allowlisted but imported: {stale}"
