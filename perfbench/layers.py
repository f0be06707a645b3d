"""Per-layer tracing by wrapping each layer's public functions.

The program has no spans of its own yet, so the benchmark wraps the
functions that enter each layer, from the outside, in a process that
runs one traced repetition and exits.  A wrapper records a span; a
layer's self time is its span time minus the spans of *other* layers
it calls.  A call into a layer from inside the same layer (for example
``congestion_batch`` calling ``max_run_lengths``) is part of the outer
span and is not counted again.

Consumers import functions by name (``from repro.core.congestion
import congestion_batch``), so patching the defining module alone
would miss them.  :meth:`Tracer.install` also replaces every reference
to an original function held in a loaded ``repro`` module's globals,
including values of module-level dicts such as the engine's table of
shard bodies.  Modules imported later bind the wrapper, because they
read the patched attribute.  The wrappers keep the original
``__module__`` and ``__qualname__``, so functions still pickle by name.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable


def _count_rows(key: str) -> Callable:
    def count(args, kwargs, result) -> dict:
        return {"rows": len(args[0]) if args else len(kwargs[key])}
    return count


def _count_draws(args, kwargs, result) -> dict:
    # sample_shift_batch(name, w, trials, rng) draws ``trials`` mappings.
    trials = args[2] if len(args) > 2 else kwargs.get("trials", 1)
    return {"draws": int(trials)}


def _count_one(key: str) -> Callable:
    return lambda args, kwargs, result: {key: 1}


def _count_instructions(args, kwargs, result) -> dict:
    return {"instructions": len(args[1] if len(args) > 1 else kwargs["program"])}


def _count_shards(args, kwargs, result) -> dict:
    return {"shards": len(args[2] if len(args) > 2 else kwargs["payloads"])}


def _count_cache(args, kwargs, result) -> dict:
    return {"hits": 1} if result is not None else {"misses": 1}


def _count_fallbacks(args, kwargs, result) -> dict:
    return {"fallbacks": int(result.fell_back)}


@dataclass(frozen=True)
class Layer:
    """The functions that enter one layer and the counts it reports.

    Each target is ``(module, qualname, counter or None)``.  A counter
    maps ``(args, kwargs, result)`` to counts added to the layer; it may
    add only to the names in ``counts``, which every traced run reports,
    zero or not.
    """

    targets: tuple[tuple[str, str, Callable | None], ...]
    counts: tuple[str, ...] = ()


LAYERS: dict[str, Layer] = {
    "core.congestion": Layer(
        (
            ("repro.core.congestion", "congestion_batch", _count_rows("addresses")),
            ("repro.core.congestion", "bank_loads_batch", _count_rows("addresses")),
            ("repro.core.congestion", "max_run_lengths", _count_rows("keys")),
        ),
        counts=("rows",),
    ),
    "sim.congestion_sim": Layer((
        ("repro.sim.congestion_sim", "_accumulate_matrix", None),
        ("repro.sim.congestion_sim", "_accumulate_nd", None),
        ("repro.sim.congestion_sim", "_accumulate_nd_fast", None),
    )),
    # The experiments' own shard bodies (Table III's per-trial transpose
    # loop, the app sweep's draw-and-run).  Without this layer their time
    # would count as supervisor overhead.
    "sim.experiments": Layer((
        ("repro.sim.experiments", "_table3_combo", None),
        ("repro.sim.experiments", "_app_time_shard", None),
    )),
    "sim.congestion_sim.RunningStats": Layer((
        ("repro.sim.congestion_sim", "RunningStats.add", None),
        ("repro.sim.congestion_sim", "RunningStats.merge", None),
        ("repro.sim.congestion_sim", "RunningStats.finish", None),
    )),
    "core.mappings": Layer(
        (
            ("repro.core.mappings", "sample_shift_batch", _count_draws),
            ("repro.core.mappings", "mapping_by_name", _count_one("draws")),
            ("repro.core.mappings", "mapping_from_shifts", None),
        ),
        counts=("draws",),
    ),
    "core.higher_dim": Layer((
        ("repro.core.higher_dim", "nd_mapping_by_name", None),
    )),
    "gpu.kernel": Layer((
        ("repro.gpu.kernel", "SharedMemoryKernel.program_batch", None),
        ("repro.apps", "build_app_program", None),
    )),
    "dmm.batched": Layer(
        (
            ("repro.dmm.batched", "BatchedDMM.run", _count_instructions),
            ("repro.dmm.batched", "BatchedDMM.execute_plan", _count_instructions),
        ),
        counts=("instructions",),
    ),
    "dmm.machine": Layer(
        (("repro.dmm.machine", "DiscreteMemoryMachine.run", _count_one("runs")),),
        counts=("runs",),
    ),
    "sim.cache": Layer(
        (
            ("repro.sim.cache", "ResultCache.get", _count_cache),
            ("repro.sim.cache", "ResultCache.put", _count_one("puts")),
        ),
        counts=("hits", "misses", "puts"),
    ),
    # ``retries`` and ``steals`` are read off the engines afterwards.
    "resilience.supervisor": Layer(
        (("repro.resilience.supervisor", "ShardSupervisor.run", _count_shards),),
        counts=("shards", "retries"),
    ),
    "fabric.supervisor": Layer(
        (("repro.fabric.supervisor", "FabricSupervisor.run", _count_shards),),
        counts=("shards", "steals"),
    ),
    "resilience.journal": Layer(
        (
            ("repro.resilience.journal", "SweepJournal.record", _count_one("records")),
            ("repro.resilience.journal", "SweepJournal.get", None),
        ),
        counts=("records",),
    ),
    "analysis.plan": Layer((
        ("repro.analysis.plan", "compile_plan", None),
    )),
    "dmm.backends": Layer(
        (("repro.dmm.backends", "resolve_backend", _count_fallbacks),),
        counts=("fallbacks",),
    ),
    "report.tables": Layer((
        ("repro.report.tables", "render_table2", None),
        ("repro.report.tables", "render_table3", None),
        ("repro.report.tables", "render_table4", None),
    )),
}


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


@dataclass
class _Frame:
    layer: str
    child_s: float = 0.0


class Tracer:
    """Records calls, self time and counts per layer in one process."""

    def __init__(self) -> None:
        self.stats = {
            name: LayerStats(counts=dict.fromkeys(layer.counts, 0))
            for name, layer in LAYERS.items()
        }
        #: Calls and counts per wrapped function, keyed by qualname, for
        #: checks that need to know which entry point the work came in by.
        self.entries: dict[str, dict[str, int]] = {}
        self._stack: list[_Frame] = []

    def _wrap(self, layer: str, func: Callable, counter: Callable | None) -> Callable:
        stack = self._stack
        stats = self.stats[layer]
        entry = self.entries.setdefault(func.__qualname__, {"calls": 0})

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if stack and stack[-1].layer == layer:
                return func(*args, **kwargs)
            frame = _Frame(layer)
            stack.append(frame)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span = perf_counter() - start
                stack.pop()
                stats.calls += 1
                entry["calls"] += 1
                stats.self_s += span - frame.child_s
                if stack:
                    stack[-1].child_s += span
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    stats.counts[key] += n
                    entry[key] = entry.get(key, 0) + n
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer function and rebind every reference to it."""
        replaced: dict[int, Callable] = {}
        for name, layer in LAYERS.items():
            for module_name, qualname, counter in layer.targets:
                owner: Any = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapper = self._wrap(name, original, counter)
                setattr(owner, attr, wrapper)
                if not path:
                    replaced[id(original)] = wrapper
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "repro" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replaced:
                            value[key] = replaced[id(item)]

    def metrics(self, engines: list) -> dict[str, float]:
        """Flat ``<layer>.<metric>`` values, plus counts read off the engines."""
        retries = sum(len(e.collector.retries) for e in engines if e.fabric is None)
        steals = sum(
            s.steals
            for e in engines
            if e.fabric is not None
            for s in e.collector.fabric_workers.values()
        )
        self.stats["resilience.supervisor"].counts["retries"] = retries
        self.stats["fabric.supervisor"].counts["steals"] = steals
        out: dict[str, float] = {}
        for layer, s in self.stats.items():
            out[f"{layer}.calls"] = s.calls
            out[f"{layer}.self_s"] = s.self_s
            for key, n in s.counts.items():
                out[f"{layer}.{key}"] = n
        cong = self.stats["core.congestion"]
        rows = cong.counts["rows"]
        out["core.congestion.rows_per_call"] = rows / cong.calls if cong.calls else 0.0
        out["core.congestion.ns_per_row"] = cong.self_s * 1e9 / rows if rows else 0.0
        return out
