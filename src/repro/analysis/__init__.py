"""Static analysis for the RAP reproduction (``repro.analysis``).

Two legs, both pure analysis (no DMM execution, no Monte-Carlo):

**Affine congestion prover** (:mod:`repro.analysis.affine`,
:mod:`repro.analysis.prover`)
    A warp's access is modelled as an affine form over the warp index
    ``i`` and lane index ``j`` modulo the matrix geometry.  For the
    mappings whose bank function is itself affine (RAW, padded,
    degenerate swizzles) and for the shifted-row family (RAS/RAP) in
    its tractable regimes, the exact worst-case per-warp congestion
    follows from gcd and coset arithmetic — *proving* the paper's
    Theorem 1 facts (contiguous and stride congestion exactly 1 under
    RAP) instead of re-discovering them by enumeration.  Patterns the
    prover cannot close symbolically fall back to exact enumeration,
    and every result is tagged with ``method="symbolic"`` or
    ``method="enumerate"``.

**Determinism & API-hygiene linter** (:mod:`repro.analysis.lint`)
    An AST pass over the library's own sources that enforces the
    reproducibility contract of PR 1: no global-state RNG, no seedless
    public entry points, no wall clocks in result-producing code, no
    mutable default arguments.  Each rule has an ID, a fix hint, and
    an inline ``# repro: noqa[RULE]`` escape hatch.

**Program verifier & congestion certificates**
(:mod:`repro.analysis.verify`, :mod:`repro.analysis.certificates`)
    Lifts the prover from single accesses to whole
    :class:`~repro.dmm.trace.MemoryProgram`\\ s /
    :class:`~repro.gpu.kernel.SharedMemoryKernel`\\ s: a static
    sanitizer (out-of-bounds, uninitialized reads, CRCW write-write
    races, dangling registers, width mismatches) plus an exact
    per-step congestion certificate — symbolic where the step grids
    admit a closed form, labelled enumeration otherwise.

**Program IR & plan compiler** (:mod:`repro.analysis.ir`,
:mod:`repro.analysis.plan`)
    A dataflow IR over compiled programs — lane-accurate def-use
    chains, register liveness against observable state, dead-step /
    dead-store elimination, CRCW duplicate-merge counts — and a plan
    compiler that partitions a kernel's steps per mapping family into
    *statically resolved* (a certificate proves the per-warp
    congestion for every draw, so timing is a closed-form constant)
    vs *residual* (simulated as before).  Consumed by
    :meth:`repro.dmm.batched.BatchedDMM.execute_plan`.

**Abstract interpreter** (:mod:`repro.analysis.absint`)
    The sound middle tier past affine: a reduced product of interval
    and congruence domains per address expression, plus a per-warp
    coset abstraction of shifted-row bank behaviour.  Steps whose
    warps all factor into per-row full cosets get an **exact closed
    form of the shift draw** (the residue-multiset argument) — the
    ``method="absint"`` certificate tier, the plan compiler's
    :class:`~repro.analysis.absint.CosetRecipe` resolution, for-all-w
    certificates over the affine pattern templates, and the
    width-generic OOB/WIDTH proofs of the verifier.

CLI surface: ``python -m repro prove``, ``python -m repro lint``,
``python -m repro analyze``, ``python -m repro certify``, and
``python -m repro plan`` (see :mod:`repro.analysis.cli`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analysis.affine": ["AffineAccess", "affine_pattern"],
        "repro.analysis.absint": [
            "ABSINT_FAMILIES",
            "METHOD_ABSINT",
            "CosetRecipe",
            "ForAllWCertificate",
            "IntCong",
            "ProgramAbstract",
            "StepAbstract",
            "WidthGenericProof",
            "abstract_step",
            "ap_bank_bound",
            "forall_w_matrix",
            "interpret_kernel",
            "interpret_program",
            "prove_pattern_forall_w",
            "prove_width_generic",
            "step_bound",
            "step_recipe",
        ],
        "repro.analysis.prover": [
            "CongestionProof",
            "METHOD_ENUMERATE",
            "METHOD_SYMBOLIC",
            "prove_access",
            "prove_pattern",
            "symbolic_step",
        ],
        "repro.analysis.ir": ["IRNode", "ProgramIR", "build_ir", "kernel_ir"],
        "repro.analysis.plan": [
            "PLAN_FAMILIES",
            "CompiledPlan",
            "StepPlan",
            "check_family_shifts",
            "compile_plan",
        ],
        "repro.analysis.lint": [
            "LintFinding",
            "LintReport",
            "lint_paths",
            "lint_source",
        ],
        "repro.analysis.certificates": [
            "ProgramCertificate",
            "StepCertificate",
            "certify_kernel",
            "certify_program",
        ],
        "repro.analysis.verify": [
            "DIAGNOSTIC_CODES",
            "Diagnostic",
            "SanitizerReport",
            "VerificationError",
            "VerificationReport",
            "sanitize_program",
            "verify_kernel",
            "verify_program",
        ],
    },
)
