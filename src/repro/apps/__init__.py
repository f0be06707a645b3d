"""Application workloads built on the DMM: FFT, scan, sort, stencil,
gather, SpMV, histogram, the conflict-free zoo, and the hierarchical
(global + shared) large-matrix transpose.

Every workload exposes its access skeleton as an uncompiled
:class:`~repro.gpu.kernel.SharedMemoryKernel` via a ``build_program``
factory, collected here in :data:`BUILTIN_PROGRAMS` so the static
verifier (``python -m repro certify``) can reach all of them by name.

Except for the histogram (whose skeleton covers only the vote reads),
that skeleton is the app's only definition: ``run_*`` builds it, loads
its data, and executes it with
:meth:`~repro.gpu.kernel.SharedMemoryKernel.run`, doing the arithmetic
host-side between steps — so the certified program is the one that
runs.  The global transpose runs its skeleton once per tile, between
its global-memory phases.
"""

from repro._lazy import lazy_exports
from repro.apps import fft as _fft
from repro.apps import gather as _gather
from repro.apps import global_transpose as _global_transpose
from repro.apps import histogram as _histogram
from repro.apps import scan as _scan
from repro.apps import sort as _sort
from repro.apps import spmv as _spmv
from repro.apps import stencil as _stencil
from repro.apps import zoo as _zoo


def _transpose_factory(kind):
    from repro.gpu.kernel import transpose_kernel

    def build(mapping, seed=None):
        return transpose_kernel(kind, mapping, seed=seed)

    return build


def _stencil_factory(assignment):
    def build(mapping, seed=None):
        return _stencil.build_program(mapping, assignment=assignment, seed=seed)

    return build


#: name -> ``factory(mapping, seed=None)`` returning an uncompiled
#: :class:`~repro.gpu.kernel.SharedMemoryKernel` — every builtin app's
#: access skeleton, reachable by the static certifier.
BUILTIN_PROGRAMS = {
    "transpose_crsw": _transpose_factory("CRSW"),
    "transpose_srcw": _transpose_factory("SRCW"),
    "transpose_drdw": _transpose_factory("DRDW"),
    "stencil_row": _stencil_factory("row"),
    "stencil_column": _stencil_factory("column"),
    "scan": _scan.build_program,
    "histogram": _histogram.build_program,
    "gather": _gather.build_program,
    "fft": _fft.build_program,
    "sort": _sort.build_program,
    "spmv": _spmv.build_program,
    "global_tiled": _global_transpose.build_program,
    "shearsort": _zoo.build_shearsort_program,
    "cf_permute": _zoo.build_cf_permute_program,
}


def app_factory(name):
    """The skeleton builder of builtin app ``name``; an unknown name
    raises a one-line ``ValueError`` listing the registry."""
    try:
        return BUILTIN_PROGRAMS[name]
    except KeyError:
        raise ValueError(
            f"unknown program {name!r}; expected one of "
            f"{tuple(sorted(BUILTIN_PROGRAMS))}"
        ) from None


def build_app_program(name, mapping, seed=None):
    """Build a builtin app's access skeleton by registry name.

    ``mapping`` is an :class:`~repro.core.mappings.AddressMapping`
    instance; ``seed`` feeds the data-dependent skeletons (histogram
    votes, random gather/spmv indices) and is ignored by the
    deterministic ones.
    """
    return app_factory(name)(mapping, seed=seed)


def app_width_error(apps, w):
    """A one-line message naming the first of ``apps`` that cannot be
    built at width ``w``, or ``None`` when every app can."""
    from repro.core.mappings import RAWMapping

    for app in apps:
        try:
            build_app_program(app, RAWMapping(w), seed=0)
        except ValueError as exc:
            return f"--w {w}: app {app!r} cannot run at this width: {exc}"
    return None


__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        __name__: [
            "BUILTIN_PROGRAMS",
            "app_factory",
            "app_width_error",
            "build_app_program",
        ],
        "repro.apps.fft": ["FFTOutcome", "bit_reverse_indices", "run_fft"],
        "repro.apps.gather": [
            "GATHER_DISTRIBUTIONS",
            "GatherOutcome",
            "make_indices",
            "run_gather",
        ],
        "repro.apps.global_transpose": [
            "GLOBAL_STRATEGIES",
            "GlobalTransposeOutcome",
            "run_global_transpose",
        ],
        "repro.apps.histogram": [
            "HISTOGRAM_STRATEGIES",
            "HistogramOutcome",
            "make_votes",
            "run_histogram",
        ],
        "repro.apps.scan": ["ScanOutcome", "run_scan"],
        "repro.apps.sort": ["SortOutcome", "bitonic_pairs", "run_bitonic_sort"],
        "repro.apps.spmv": [
            "SPMV_STRUCTURES",
            "EllMatrix",
            "SpmvOutcome",
            "make_ell",
            "run_spmv",
        ],
        "repro.apps.stencil": ["STENCIL_ASSIGNMENTS", "StencilOutcome", "run_stencil"],
        "repro.apps.zoo": [
            "CfPermuteOutcome",
            "ShearsortOutcome",
            "route_permutation",
            "run_cf_permute",
            "run_shearsort",
            "shearsort_schedule",
        ],
    },
)
