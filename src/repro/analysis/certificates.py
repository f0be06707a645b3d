"""Per-step congestion certificates for whole memory programs.

PR 2's prover closes one hand-written affine access at a time; this
module lifts it to *programs*: every step of a
:class:`~repro.gpu.kernel.SharedMemoryKernel` (or every instruction of
a compiled :class:`~repro.dmm.trace.MemoryProgram`) gets an exact
worst/mean/total congestion figure, and the program gets the
aggregate.  Each step is labelled with how its number was obtained:

``method="symbolic"``
    The step's ``(ii, jj)`` grids fit an affine form
    (:meth:`~repro.analysis.affine.AffineAccess.from_grids`) and the
    mapping admits a closed form
    (:func:`~repro.analysis.prover.symbolic_step`) — the congestion is
    *proved* by gcd/coset arithmetic, no address is ever enumerated.
    This is how stride and contiguous steps under RAP certify worst
    congestion 1 for any width and any permutation draw (Theorem 1).

``method="absint"``
    The grids are not affine (masked lanes, data-dependent indices)
    but the abstract interpreter (:mod:`repro.analysis.absint`) closes
    every warp — row-local, or per-row full cosets of one subgroup
    ``k*Z_w`` — so the congestion is the residue-multiset closed form
    evaluated on the mapping's own shift vector: still exact, derived
    from structure rather than counted from addresses.  This is the
    tier between ``symbolic`` and ``enumerate``, and the same closed
    form the plan compiler executes per draw.

``method="enumerate"``
    No closed form applies (unstructured grids, non-shifted-row
    mappings, array bases that break the bank arithmetic) — the step's
    concrete warp accesses are counted exactly, the same arithmetic
    the cycle-accurate machine performs at dispatch time.

In every tier the numbers are exact, never bounds: a certificate's worst
congestion equals what :class:`~repro.dmm.machine.DiscreteMemoryMachine`
observes when the program actually runs (a property test pins this for
every builtin app program).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.absint import METHOD_ABSINT, abstract_step, step_recipe
from repro.analysis.affine import AffineAccess
from repro.analysis.prover import METHOD_ENUMERATE, METHOD_SYMBOLIC, symbolic_step
from repro.core.congestion import congestion_batch
from repro.core.mappings import AddressMapping, ShiftedRowMapping
from repro.dmm.trace import INACTIVE, MemoryProgram

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.kernel import KernelStep, SharedMemoryKernel

__all__ = [
    "StepCertificate",
    "ProgramCertificate",
    "certify_kernel",
    "certify_program",
    "step_congestions",
]


@dataclass(frozen=True)
class StepCertificate:
    """Exact congestion of one program step under one mapping.

    Attributes
    ----------
    step:
        Step index in program order.
    op, array:
        What the step does (``array`` is ``"-"`` for raw programs,
        whose instructions carry no array name).
    worst, mean:
        Worst and mean per-warp congestion over the dispatched warps.
    total:
        Sum of per-warp congestion — the pipeline stages this step
        occupies.
    method:
        ``"symbolic"`` (affine closed form), ``"absint"`` (coset
        closed form evaluated on the mapping's draw), or
        ``"enumerate"`` (exact count).
    argument:
        The proof sketch, or a note on what was enumerated.
    """

    step: int
    op: str
    array: str
    worst: int
    mean: float
    total: int
    method: str
    argument: str

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "op": self.op,
            "array": self.array,
            "worst": self.worst,
            "mean": round(self.mean, 6),
            "total": self.total,
            "method": self.method,
            "argument": self.argument,
        }


@dataclass(frozen=True)
class ProgramCertificate:
    """Whole-program congestion certificate under one mapping.

    Attributes
    ----------
    program:
        Name of the certified program (for reports).
    mapping:
        Mapping name the certificate holds for.
    w:
        Warp width / bank count.
    steps:
        One :class:`StepCertificate` per step, in program order.
    """

    program: str
    mapping: str
    w: int
    steps: tuple[StepCertificate, ...]

    @property
    def worst(self) -> int:
        """Worst per-warp congestion anywhere in the program."""
        return max((s.worst for s in self.steps), default=0)

    @property
    def total_stages(self) -> int:
        """Pipeline stages the whole program occupies."""
        return sum(s.total for s in self.steps)

    @property
    def symbolic_steps(self) -> int:
        """How many steps were closed symbolically."""
        return sum(s.method == METHOD_SYMBOLIC for s in self.steps)

    @property
    def absint_steps(self) -> int:
        """How many steps were closed by the abstract interpreter."""
        return sum(s.method == METHOD_ABSINT for s in self.steps)

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "mapping": self.mapping,
            "w": self.w,
            "worst": self.worst,
            "total_stages": self.total_stages,
            "symbolic_steps": self.symbolic_steps,
            "absint_steps": self.absint_steps,
            "steps": [s.to_dict() for s in self.steps],
        }

    def render(self) -> str:
        lines = [
            f"{self.program} under {self.mapping} (w={self.w}): "
            f"worst congestion {self.worst}, {self.total_stages} stages, "
            f"{self.symbolic_steps}/{len(self.steps)} steps symbolic, "
            f"{self.absint_steps} absint"
        ]
        for s in self.steps:
            lines.append(
                f"  step {s.step}: {s.op} {s.array} worst={s.worst} "
                f"mean={s.mean:g} total={s.total} [{s.method}]"
            )
        return "\n".join(lines)


def step_congestions(
    step: "KernelStep", base: int, mapping: AddressMapping
) -> np.ndarray:
    """Exact per-warp congestion of one kernel step under one mapping.

    The step's addresses are ``base + mapping.address(ii, jj)`` with
    masked-out lanes set to :data:`~repro.dmm.trace.INACTIVE`; one
    inactive-aware :func:`congestion_batch` call — the same batched
    kernel the DMM executors run on — counts every warp (0 for a warp
    that dispatches no lane).
    """
    w = mapping.w
    addr = base + mapping.address(step.ii, step.jj)
    if step.mask is not None:
        addr = np.where(step.mask, addr, INACTIVE)
    return congestion_batch(addr.reshape(-1, w), w, inactive=INACTIVE)


def _summary(cong: np.ndarray, note: str) -> tuple[int, float, int, str]:
    """``(worst, mean, total, argument)`` over the warps that dispatch
    (congestion > 0).  The argument is ``note`` with ``{n}`` set to the
    dispatched count, or says that no warp dispatches."""
    cong = cong[cong > 0]
    if cong.size == 0:
        return 0, 0.0, 0, "no active lane; the step dispatches no warp"
    return (
        int(cong.max()),
        float(cong.mean()),
        int(cong.sum()),
        note.format(n=cong.size),
    )


def _counted(cong: np.ndarray, w: int) -> tuple[int, float, int, str]:
    """Summary of a step counted warp by warp."""
    return _summary(
        cong,
        f"counted exactly over {{n}} dispatched warp(s) of {w} lanes "
        "(no symbolic rule applies)",
    )


def _first_tier(
    step: "KernelStep", idx: int, base: int, mapping: AddressMapping
) -> tuple[int, float, int, str, str]:
    """``(worst, mean, total, argument, method)`` from the first tier
    that closes the step: symbolic, then absint, then enumerate."""
    w = mapping.w
    # A base that is a multiple of w shifts every address by whole bank
    # periods, so the per-warp bank pattern — and hence every closed
    # form — is unchanged.
    if base % w == 0:
        if step.mask is None:
            access = AffineAccess.from_grids(step.ii, step.jj, w)
            proved = None if access is None else symbolic_step(access, mapping)
            if proved is not None:
                return (
                    proved.worst, proved.mean, proved.total,
                    proved.argument, METHOD_SYMBOLIC,
                )
        if isinstance(mapping, ShiftedRowMapping):
            # No affine form, but if every warp factors into per-row
            # full cosets (or stays row-local), the congestion is the
            # residue-multiset closed form evaluated on this mapping's
            # own shift vector — exact, no address enumerated.
            abstract = abstract_step(step, w, index=idx)
            recipe = step_recipe(abstract)
            if recipe is not None:
                cong = recipe.congestions(mapping.shifts[None, :])[0]
                ks = sorted({int(g.k) for g in recipe.groups})
                note = (
                    f"abstract interpretation: {abstract.coset_warps} "
                    f"coset warp(s) (k in {ks}) over {{n}} dispatched — "
                    "congestion is the residue-multiset closed form of "
                    "the draw, evaluated on this mapping's shifts"
                )
                worst, mean, total, argument = _summary(cong, note)
                return worst, mean, total, argument, METHOD_ABSINT
    cong = step_congestions(step, base, mapping)
    worst, mean, total, argument = _counted(cong, w)
    return worst, mean, total, argument, METHOD_ENUMERATE


def certify_kernel(
    kernel: "SharedMemoryKernel", name: str = "kernel"
) -> ProgramCertificate:
    """Certify every step of an uncompiled kernel under its mapping.

    Each step goes to the first tier that closes it.  Steps whose grids
    are full (no mask) and whose array base is a multiple of ``w``
    (true for all builtin mappings except padding, whose per-row skew
    changes the bank arithmetic) are lifted through
    :meth:`AffineAccess.from_grids` and closed symbolically where the
    prover has a rule; steps of a shifted-row mapping whose warps are
    coset-structured are closed by the abstract interpreter; everything
    else is enumerated exactly.
    """
    certs = []
    for idx, step in enumerate(kernel.steps):
        worst, mean, total, argument, method = _first_tier(
            step, idx, kernel.bases[step.array], kernel.mapping
        )
        certs.append(
            StepCertificate(
                step=idx,
                op=step.op,
                array=step.array,
                worst=worst,
                mean=mean,
                total=total,
                method=method,
                argument=argument,
            )
        )
    return ProgramCertificate(
        program=name, mapping=kernel.mapping.name, w=kernel.w, steps=tuple(certs)
    )


def certify_program(
    program: MemoryProgram,
    w: int,
    name: str = "program",
    mapping_name: str = "-",
) -> ProgramCertificate:
    """Certify a compiled program by exact per-warp enumeration.

    Compiled programs carry flat physical addresses with no recoverable
    affine structure, so every step is ``method="enumerate"`` — still
    exact, just measured rather than proved.  Use
    :func:`certify_kernel` on the uncompiled step list to get the
    symbolic path.
    """
    if program.p % w != 0:
        raise ValueError(
            f"program p={program.p} is not a multiple of warp width {w}"
        )
    certs = []
    for idx, instr in enumerate(program):
        worst, mean, total, note = _counted(
            congestion_batch(instr.addresses.reshape(-1, w), w, inactive=INACTIVE),
            w,
        )
        certs.append(
            StepCertificate(
                step=idx,
                op=instr.op,
                array="-",
                worst=worst,
                mean=mean,
                total=total,
                method=METHOD_ENUMERATE,
                argument=note,
            )
        )
    return ProgramCertificate(
        program=name, mapping=mapping_name, w=w, steps=tuple(certs)
    )
