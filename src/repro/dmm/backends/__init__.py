"""Pluggable execution backends for staged/compiled batched programs.

The batched DMM compiles a program skeleton once and executes ``T``
mapping draws at a time; *where* those residual instructions execute
is a backend decision.  Two backends exist:

``numpy``
    The reference: the host instruction loop that
    :meth:`~repro.dmm.batched.BatchedDMM.run` and
    :meth:`~repro.dmm.batched.BatchedDMM.execute_plan` execute
    through.  Always available; defines the semantics the other
    backend is pinned to.
``numba``
    The same loop with ``@njit``-compiled hot primitives (histogram
    congestion counting over pre-staged bank keys, fused flat
    gather/scatter with INACTIVE passthrough, CRCW last-lane-wins
    stores).  Available when numba is importable; otherwise the
    registry falls back to numpy.

Selection is by name (``resolve_backend("numba")``) or automatic
(``resolve_backend("auto")`` picks the fastest available in the order
numba > numpy).  Resolution never fails for a *registered* name: an
unavailable backend resolves to numpy with an explanatory note, so
scripted runs degrade gracefully instead of crashing in bare
environments.  Both backends' output is **bit-identical** to the
scalar machine — congestions, dispatch, timing, registers, memory —
property-tested in ``tests/test_backends.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.dmm.backends.base import (
    BackendUnavailable,
    NumpyBackend,
    PlanBackend,
    StagedPlan,
)
from repro.dmm.backends.numba_backend import NumbaBackend

__all__ = [
    "AUTO_ORDER",
    "BACKEND_CHOICES",
    "BackendUnavailable",
    "PlanBackend",
    "StagedPlan",
    "NumpyBackend",
    "NumbaBackend",
    "Resolution",
    "register_backend",
    "backend_names",
    "get_backend",
    "available_backends",
    "resolve_backend",
]

#: preference order of ``auto`` selection: fastest first, numpy as the
#: always-available floor.
AUTO_ORDER = ("numba", "numpy")

_REGISTRY: Dict[str, PlanBackend] = {}


def register_backend(backend: PlanBackend, replace: bool = False) -> PlanBackend:
    """Add a backend to the registry (name taken from ``backend.name``)."""
    name = backend.name
    if not replace and name in _REGISTRY:
        raise ValueError(f"backend {name!r} is already registered")
    _REGISTRY[name] = backend
    return backend


def backend_names() -> tuple[str, ...]:
    """All registered backend names, registration order."""
    return tuple(_REGISTRY)


def get_backend(name: str) -> PlanBackend:
    """The registered backend called ``name`` (KeyError if unknown)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def available_backends() -> tuple[str, ...]:
    """Names of the backends that can execute here, registration order."""
    return tuple(n for n, b in _REGISTRY.items() if b.available())


@dataclass(frozen=True)
class Resolution:
    """Outcome of a backend selection.

    Attributes
    ----------
    backend:
        The backend that will execute.
    requested:
        What the caller asked for (``"auto"`` or a name).
    note:
        Human-readable explanation when the resolution is not the
        literal request — an ``auto`` pick, or a fallback to numpy
        because the requested backend is unavailable.  ``None`` when
        the request resolved to itself.
    """

    backend: PlanBackend
    requested: str
    note: Optional[str] = None

    @property
    def fell_back(self) -> bool:
        """True when an explicitly requested backend was unavailable."""
        return (
            self.requested not in ("auto", self.backend.name)
        )


def resolve_backend(choice: Union[str, PlanBackend, None] = "auto") -> Resolution:
    """Resolve a backend choice to something that can execute here.

    ``choice`` may be a :class:`PlanBackend` instance (used as-is), a
    registered name, ``"auto"`` (first available of
    :data:`AUTO_ORDER`), or ``None`` (alias for ``"auto"``).  A named
    backend that is unavailable resolves to numpy with a ``note``
    explaining why — graceful degradation, never a crash; an unknown
    name raises ``KeyError``.
    """
    if choice is None:
        choice = "auto"
    if not isinstance(choice, str):
        return Resolution(backend=choice, requested=choice.name)
    if choice == "auto":
        for name in AUTO_ORDER:
            backend = _REGISTRY.get(name)
            if backend is not None and backend.available():
                note = None if name == "numpy" else f"auto selected {name}"
                return Resolution(backend=backend, requested="auto", note=note)
        return Resolution(backend=get_backend("numpy"), requested="auto")
    backend = get_backend(choice)
    if backend.available():
        return Resolution(backend=backend, requested=choice)
    fallback = get_backend("numpy")
    return Resolution(
        backend=fallback,
        requested=choice,
        note=(
            f"backend {choice!r} unavailable "
            f"({backend.unavailable_reason()}); falling back to numpy"
        ),
    )


register_backend(NumpyBackend())
register_backend(NumbaBackend())

#: the CLI's ``--backend`` vocabulary.
BACKEND_CHOICES = ("auto",) + tuple(_REGISTRY)
