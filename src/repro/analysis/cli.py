"""CLI surface of the analysis subsystem.

Five subcommands, dispatched from ``python -m repro``:

``repro prove``
    Symbolic congestion proof for one pattern x mapping x width (or
    the full ``--all`` matrix).  ``--json`` emits a machine-readable
    proof; exit code 1 if ``--expect N`` is given and the proved
    congestion differs — so CI can assert Theorem 1 facts.  With
    ``--forall-w`` the proof quantifies over widths instead: a
    :class:`~repro.analysis.absint.ForAllWCertificate` valid for every
    ``w >= 2`` (affine patterns x shifted-row families only), with
    ``--expect`` checked against the certified congestion at ``--w``.

``repro lint``
    The determinism linter of :mod:`repro.analysis.lint` over the
    given paths (default: the installed ``repro`` package).
    ``--fail-on-warn`` turns findings into exit code 1.

``repro analyze``
    The :func:`repro.gpu.analyzer.analyze_kernel` path for the
    built-in transpose kernels, now CI-gateable: ``--json`` for
    structured output and ``--max-worst N`` for a non-zero exit when
    the best candidate layout's worst step congestion regresses
    above ``N``.

``repro certify``
    The program-level verifier (:mod:`repro.analysis.verify`) over the
    builtin app programs: sanitizer diagnostics plus per-step
    congestion certificates, symbolic where the step grids admit a
    closed form.  ``--json`` emits the full certificate set (the CI
    baseline artifact); ``--max-worst N`` exits 1 when any program's
    certified worst congestion exceeds ``N``; any sanitizer finding
    exits 1.  ``--forall-w`` appends the for-all-w certificate matrix
    (every affine pattern x RAW/RAS/RAP, one closed form per cell
    valid at every width) to the report.

``repro plan``
    The plan compiler (:mod:`repro.analysis.plan`) over the builtin
    app skeletons: per-step static-resolution verdicts under a mapping
    family, step/stage coverage, pooled address-table counts, and
    (``--ir``) the dataflow IR of :mod:`repro.analysis.ir` — def-use
    chains, liveness, dead steps, duplicate merges.  ``--json`` for
    structured output; ``--min-coverage X`` exits 1 when any requested
    program's stage coverage falls below ``X`` (the CI floor for the
    certificate-heavy zoo apps).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.analyzer import KernelDiagnosis

from repro.analysis.lint import lint_paths
from repro.analysis.prover import (
    METHOD_SYMBOLIC,
    PROVER_MAPPING_NAMES,
    prove_pattern,
)
from repro.util.validation import int_at_least

__all__ = ["build_parser", "main", "PROVE_PATTERN_NAMES"]

#: patterns `repro prove` accepts: the library's named patterns plus
#: the padding-killer antidiagonal.
PROVE_PATTERN_NAMES = (
    "contiguous",
    "stride",
    "diagonal",
    "random",
    "malicious",
    "broadcast",
    "pairwise",
    "antidiagonal",
)

#: transpose kernels `repro analyze` knows how to build.
ANALYZE_KERNELS = ("crsw", "srcw", "drdw")


_width = int_at_least(1)
_seed = int_at_least(0)


def build_parser() -> argparse.ArgumentParser:
    """Parser for the ``prove`` / ``lint`` / ``analyze`` subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Static analysis: symbolic congestion proofs and the "
        "determinism linter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prove = sub.add_parser(
        "prove", help="prove a pattern's worst-case congestion symbolically"
    )
    prove.add_argument(
        "--pattern",
        choices=PROVE_PATTERN_NAMES,
        default="stride",
        help="access pattern (default stride, the paper's Theorem 1 case)",
    )
    prove.add_argument(
        "--mapping",
        type=str.upper,
        choices=PROVER_MAPPING_NAMES,
        default="RAP",
        help="layout to prove against (default RAP)",
    )
    prove.add_argument("--w", type=_width, default=32, help="width (default 32)")
    prove.add_argument(
        "--seed",
        type=_seed,
        default=2014,
        help="seed for randomized mappings/patterns (default 2014)",
    )
    prove.add_argument(
        "--all",
        action="store_true",
        help="prove the full pattern x mapping matrix at --w",
    )
    prove.add_argument(
        "--expect",
        type=int,
        default=None,
        help="exit 1 unless the proved congestion equals this value",
    )
    prove.add_argument(
        "--json", action="store_true", help="emit the proof as JSON"
    )
    prove.add_argument(
        "--forall-w",
        action="store_true",
        help="prove the congestion for every width w >= 2 instead of "
        "one width (affine patterns x RAW/RAS/RAP only)",
    )

    lint = sub.add_parser("lint", help="run the determinism/hygiene linter")
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories (default: the installed repro package)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default text)",
    )
    lint.add_argument(
        "--fail-on-warn",
        action="store_true",
        help="exit 1 if any finding is reported",
    )

    analyze = sub.add_parser(
        "analyze", help="per-step congestion profile of a built-in kernel"
    )
    analyze.add_argument(
        "--kernel",
        choices=ANALYZE_KERNELS,
        default="crsw",
        help="transpose kernel to analyze (default crsw)",
    )
    analyze.add_argument("--w", type=_width, default=32, help="width (default 32)")
    analyze.add_argument(
        "--seed",
        type=_seed,
        default=2014,
        help="seed for the randomized candidate layouts (default 2014)",
    )
    analyze.add_argument(
        "--json", action="store_true", help="emit the diagnosis as JSON"
    )
    analyze.add_argument(
        "--max-worst",
        type=int,
        default=None,
        help="regression gate: exit 1 if the best layout's worst step "
        "congestion exceeds this value",
    )

    certify = sub.add_parser(
        "certify",
        help="statically verify builtin app programs: sanitizer + "
        "per-step congestion certificates",
    )
    certify.add_argument(
        "--app",
        default="all",
        help="program to certify (a BUILTIN_PROGRAMS name, default: all)",
    )
    certify.add_argument(
        "--mapping",
        type=str.upper,
        choices=("RAW", "RAS", "RAP", "ALL"),
        default="RAP",
        help="layout to certify under (default RAP; ALL = RAW+RAS+RAP)",
    )
    certify.add_argument(
        "--w", type=_width, default=16, help="width (default 16; power of two)"
    )
    certify.add_argument(
        "--seed",
        type=_seed,
        default=2014,
        help="seed for randomized mappings and data-dependent skeletons "
        "(default 2014)",
    )
    certify.add_argument(
        "--json", action="store_true", help="emit the certificates as JSON"
    )
    certify.add_argument(
        "--max-worst",
        type=int,
        default=None,
        help="regression gate: exit 1 if any program's certified worst "
        "congestion exceeds this value",
    )
    certify.add_argument(
        "--forall-w",
        action="store_true",
        help="also emit the for-all-w certificate matrix (affine "
        "patterns x RAW/RAS/RAP, valid at every width)",
    )

    plan = sub.add_parser(
        "plan",
        help="compile builtin app skeletons into static execution plans: "
        "per-step resolution verdicts, coverage, and the dataflow IR",
    )
    plan.add_argument(
        "--app",
        default="all",
        help="program to compile (a BUILTIN_PROGRAMS name, default: all)",
    )
    plan.add_argument(
        "--mapping",
        type=str.upper,
        choices=("RAW", "RAS", "RAP", "ALL"),
        default="RAP",
        help="mapping family to compile against (default RAP; "
        "ALL = RAW+RAS+RAP)",
    )
    plan.add_argument(
        "--w", type=_width, default=16, help="width (default 16; power of two)"
    )
    plan.add_argument(
        "--seed",
        type=_seed,
        default=2014,
        help="seed for data-dependent skeletons (default 2014)",
    )
    plan.add_argument(
        "--ir",
        action="store_true",
        help="also emit the dataflow IR (def-use, liveness, dead steps)",
    )
    plan.add_argument(
        "--absint",
        action="store_true",
        help="also emit the program-level abstract interpretation "
        "(interval x congruence address elements, sound per-step "
        "bounds, IR-dead flags)",
    )
    plan.add_argument(
        "--json", action="store_true", help="emit plans (and IR) as JSON"
    )
    plan.add_argument(
        "--min-coverage",
        type=float,
        default=None,
        metavar="X",
        help="coverage floor in [0, 1]: exit 1 if any program's stage "
        "coverage is below X (CI gate)",
    )
    return parser


def _run_prove_forall_w(args: argparse.Namespace) -> int:
    from repro.analysis.absint import ABSINT_FAMILIES, prove_pattern_forall_w
    from repro.analysis.affine import AFFINE_PATTERNS

    if args.all:
        pairs = [
            (p, f) for p in sorted(AFFINE_PATTERNS) for f in ABSINT_FAMILIES
        ]
    else:
        if args.pattern not in AFFINE_PATTERNS:
            print(
                f"--forall-w needs a width-generic affine pattern; "
                f"{args.pattern!r} is not one of "
                f"{', '.join(sorted(AFFINE_PATTERNS))}",
                file=sys.stderr,
            )
            return 2
        if args.mapping not in ABSINT_FAMILIES:
            print(
                f"--forall-w covers the shifted-row families "
                f"{', '.join(ABSINT_FAMILIES)}; got {args.mapping!r}",
                file=sys.stderr,
            )
            return 2
        pairs = [(args.pattern, args.mapping)]
    certs = [prove_pattern_forall_w(p, f) for p, f in pairs]
    if args.json:
        payload = (
            certs[0].to_dict()
            if len(certs) == 1
            else [c.to_dict() for c in certs]
        )
        print(json.dumps(payload, indent=2))
    else:
        for cert in certs:
            print(cert.render())
        if args.all:
            exact = sum(c.kind == "exact" for c in certs)
            print(
                f"\n{len(certs)}/{len(certs)} cells closed for all w "
                f"({exact} exact, {len(certs) - exact} attained suprema)."
            )
    if args.expect is not None:
        mismatched = [
            c for c in certs if c.congestion_at(args.w) != args.expect
        ]
        if mismatched:
            bad = mismatched[0]
            print(
                f"EXPECTATION FAILED: {bad.pattern}/{bad.family} certifies "
                f"congestion {bad.congestion_at(args.w)} at w={args.w}, "
                f"expected {args.expect}",
                file=sys.stderr,
            )
            return 1
    return 0


def _run_prove(args: argparse.Namespace) -> int:
    if args.forall_w:
        return _run_prove_forall_w(args)
    pairs = (
        [(p, m) for p in PROVE_PATTERN_NAMES for m in PROVER_MAPPING_NAMES]
        if args.all
        else [(args.pattern, args.mapping)]
    )
    proofs = [
        prove_pattern(pattern, mapping, w=args.w, seed=args.seed)
        for pattern, mapping in pairs
    ]
    if args.json:
        payload = proofs[0].to_dict() if len(proofs) == 1 else [
            p.to_dict() for p in proofs
        ]
        print(json.dumps(payload, indent=2))
    else:
        for proof in proofs:
            print(proof.render())
        if args.all:
            symbolic = sum(p.method == METHOD_SYMBOLIC for p in proofs)
            print(
                f"\n{symbolic}/{len(proofs)} cells closed symbolically; the "
                "rest measured by enumeration."
            )
    if args.expect is not None:
        mismatched = [p for p in proofs if p.congestion != args.expect]
        if mismatched:
            bad = mismatched[0]
            print(
                f"EXPECTATION FAILED: {bad.pattern}/{bad.mapping} has "
                f"congestion {bad.congestion}, expected {args.expect}",
                file=sys.stderr,
            )
            return 1
    return 0


def _run_lint(args: argparse.Namespace) -> int:
    report = lint_paths(args.paths)
    print(report.to_json() if args.format == "json" else report.render())
    if args.fail_on_warn and not report.clean:
        return 1
    return 0


def _analyze_diagnosis(args: argparse.Namespace) -> "KernelDiagnosis":
    """Build and analyze the requested transpose kernel."""
    from repro.access.transpose import transpose_indices
    from repro.gpu.analyzer import analyze_kernel
    from repro.gpu.kernel import KernelStep

    (ri, rj), (wi, wj) = transpose_indices(args.kernel.upper(), args.w)
    steps = [
        KernelStep("read", "a", ri, rj, register="c"),
        KernelStep("write", "b", wi, wj, register="c"),
    ]
    return analyze_kernel(args.w, steps, seed=args.seed)


def _run_analyze(args: argparse.Namespace) -> int:
    diagnosis = _analyze_diagnosis(args)
    best = diagnosis.best_layout()
    best_worst = max(
        s.worst for s in diagnosis.steps if s.layout == best
    )
    if args.json:
        print(
            json.dumps(
                {
                    "kernel": args.kernel,
                    "w": diagnosis.w,
                    "best_layout": best,
                    "best_layout_worst": best_worst,
                    "totals": diagnosis.totals,
                    "steps": [
                        {
                            "step": s.step_index,
                            "op": s.op,
                            "array": s.array,
                            "layout": s.layout,
                            "worst": s.worst,
                            "mean": s.mean,
                            "method": s.method,
                        }
                        for s in diagnosis.steps
                    ],
                },
                indent=2,
            )
        )
    else:
        print(diagnosis.render())
    if args.max_worst is not None and best_worst > args.max_worst:
        print(
            f"REGRESSION: best layout {best} has worst step congestion "
            f"{best_worst} > --max-worst {args.max_worst}",
            file=sys.stderr,
        )
        return 1
    return 0


def _selected_apps(args: argparse.Namespace) -> Optional[list[str]]:
    """The builtin programs ``--app`` selects, or ``None`` after printing
    the one-line reason they cannot run (unknown name, bad ``--w``)."""
    from repro.apps import BUILTIN_PROGRAMS, app_width_error

    if args.app != "all" and args.app not in BUILTIN_PROGRAMS:
        print(
            f"unknown --app {args.app!r}; expected 'all' or one of "
            f"{', '.join(sorted(BUILTIN_PROGRAMS))}",
            file=sys.stderr,
        )
        return None
    apps = sorted(BUILTIN_PROGRAMS) if args.app == "all" else [args.app]
    problem = app_width_error(apps, args.w)
    if problem:
        print(problem, file=sys.stderr)
        return None
    return apps


def _run_certify(args: argparse.Namespace) -> int:
    from repro.analysis.verify import verify_kernel
    from repro.apps import build_app_program
    from repro.core.mappings import mapping_by_name

    apps = _selected_apps(args)
    if apps is None:
        return 2
    mappings = ("RAW", "RAS", "RAP") if args.mapping == "ALL" else (args.mapping,)

    entries = []
    dirty = False
    regressions = []
    for mapping_name in mappings:
        for app in apps:
            mapping = mapping_by_name(mapping_name, args.w, args.seed)
            kernel = build_app_program(app, mapping, seed=args.seed)
            report = verify_kernel(kernel)
            cert = report.certificate
            entries.append((app, mapping_name, report))
            if not report.ok:
                dirty = True
            if args.max_worst is not None and cert.worst > args.max_worst:
                regressions.append((app, mapping_name, cert.worst))

    forall_w = None
    if args.forall_w:
        from repro.analysis.absint import forall_w_matrix

        forall_w = forall_w_matrix()

    if args.json:
        payload = {
            "w": args.w,
            "seed": args.seed,
            "programs": [
                {
                    "program": app,
                    "mapping": mapping_name,
                    **report.to_dict(),
                }
                for app, mapping_name, report in entries
            ],
        }
        if forall_w is not None:
            payload["forall_w"] = [c.to_dict() for c in forall_w]
        print(json.dumps(payload, indent=2))
    else:
        for app, mapping_name, report in entries:
            cert = report.certificate
            status = "clean" if report.ok else "DIAGNOSTICS"
            print(
                f"{app} under {mapping_name} (w={args.w}): worst "
                f"{cert.worst}, {cert.total_stages} stages, "
                f"{cert.symbolic_steps}/{len(cert.steps)} symbolic "
                f"({cert.absint_steps} absint) [sanitizer {status}]"
            )
            if not report.ok:
                for line in report.sanitizer.render().splitlines():
                    print(f"  {line}")
        certified = sum(r.ok for _, _, r in entries)
        print(f"\n{certified}/{len(entries)} program certificates clean.")
        if forall_w is not None:
            print("\nfor-all-w certificates:")
            for c in forall_w:
                print(c.render())

    if dirty:
        findings = sum(
            len(r.sanitizer.diagnostics) for _, _, r in entries if not r.ok
        )
        print(
            f"SANITIZER: {findings} finding(s) across "
            f"{sum(not r.ok for _, _, r in entries)} program(s)",
            file=sys.stderr,
        )
        return 1
    if regressions:
        app, mapping_name, worst = regressions[0]
        print(
            f"REGRESSION: {app} under {mapping_name} certifies worst "
            f"congestion {worst} > --max-worst {args.max_worst}",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_plan(args: argparse.Namespace) -> int:
    from repro.analysis.ir import kernel_ir
    from repro.analysis.plan import compile_plan
    from repro.apps import build_app_program
    from repro.core.mappings import RAWMapping

    apps = _selected_apps(args)
    if apps is None:
        return 2
    if args.min_coverage is not None and not 0.0 <= args.min_coverage <= 1.0:
        print(
            f"--min-coverage must lie in [0, 1], got {args.min_coverage}",
            file=sys.stderr,
        )
        return 2
    families = (
        ("RAW", "RAS", "RAP") if args.mapping == "ALL" else (args.mapping,)
    )

    entries = []
    shortfalls = []
    for family in families:
        for app in apps:
            # The skeleton is mapping-independent; the concrete RAW
            # instance only pins array bases and input data.
            kernel = build_app_program(app, RAWMapping(args.w), seed=args.seed)
            plan = compile_plan(kernel, family, app)
            ir = kernel_ir(kernel) if args.ir or args.absint else None
            absint = None
            if args.absint:
                from repro.analysis.absint import interpret_program

                absint = interpret_program(kernel.program(), args.w, ir=ir)
            entries.append((app, family, plan, ir if args.ir else None, absint))
            if (
                args.min_coverage is not None
                and plan.stage_coverage < args.min_coverage
            ):
                shortfalls.append((app, family, plan.stage_coverage))

    if args.json:
        payload = {
            "w": args.w,
            "seed": args.seed,
            "programs": [
                {
                    **plan.to_dict(),
                    **({"ir": ir.to_dict()} if ir is not None else {}),
                    **(
                        {"absint": absint.to_dict()}
                        if absint is not None
                        else {}
                    ),
                }
                for _, _, plan, ir, absint in entries
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for _, _, plan, ir, absint in entries:
            print(plan.render())
            if ir is not None:
                print(ir.render())
            if absint is not None:
                print(absint.render())
        resolved = sum(p.resolved_steps for _, _, p, _, _ in entries)
        total = sum(len(p.steps) for _, _, p, _, _ in entries)
        print(f"\n{resolved}/{total} steps statically resolved.")

    if shortfalls:
        app, family, coverage = shortfalls[0]
        print(
            f"COVERAGE: {app} under {family} resolves {coverage:.1%} of "
            f"stages < --min-coverage {args.min_coverage:.1%}",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the analysis subcommands; returns an exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "prove":
        return _run_prove(args)
    if args.command == "lint":
        return _run_lint(args)
    if args.command == "certify":
        return _run_certify(args)
    if args.command == "plan":
        return _run_plan(args)
    return _run_analyze(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
