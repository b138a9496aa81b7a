"""CLI linter/certifier: ``python -m repro.analysis [--certify] [...]``.

Default mode runs :func:`repro.analysis.analyze` over every bench
workload circuit (plus the parametric sweep template), compiles each
through :func:`repro.plan.compile_plan` for its pinned backend, and
verifies the compiled plan with :func:`repro.analysis.verify_plan`.
Ruff-style ``--select`` / ``--ignore`` restrict the diagnostic codes,
``--severity CODE=LEVEL`` rewrites per-code severities, and the run
exits non-zero when any error-severity diagnostic is found (``--strict``
also fails on warnings).

``--certify`` switches modes: instead of linting, every workload (the
bench families — channel circuits included — plus the parametric sweep
template and a measure/reset/if_bit dynamic circuit) is transpiled
through the default pass pipeline under certification
(:func:`repro.analysis.certify_rewrite`), fusing at the width
:func:`repro.plan.fusion_width` gives the workload's backend, as
:func:`repro.plan.compile_plan` does, and the run exits non-zero if
any pass application cannot be *proven* semantically equivalent.  The
certifier only ever builds local operators on each rewrite's support
(never a dense ``2^n`` matrix), so this gate is cheap enough for CI:
the bench-smoke job runs both modes, blocking a rule regression, a
lowering bug, or an unsound rewrite at the merge, not the next
benchmark run.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, Tuple

from repro.analysis import AnalysisContext, analyze, verify_plan
from repro.analysis.diagnostics import AnalysisReport
from repro.bench.workloads import default_workloads, parameterized_rotations
from repro.circuit import Circuit, Instruction
from repro.plan import compile_plan, fusion_width
from repro.sim import get_backend


def _lint_one(
    name: str,
    num_qubits: int,
    circuit: Circuit,
    backend_name: str,
    context_kwargs: dict,
) -> dict:
    """Analyze one circuit + its compiled plan; one JSON-ready row."""
    backend = get_backend(backend_name)
    context = AnalysisContext(mode=backend.plan_mode, **context_kwargs)
    report = analyze(circuit, context=context)
    plan = compile_plan(circuit, backend)
    # Plan-verifier findings honour the same select/ignore/severity
    # spec as the circuit rules (apply() is idempotent, so re-filtering
    # the combined report is safe).
    report = AnalysisReport(context.apply(report + verify_plan(plan)))
    return {
        "name": name,
        "num_qubits": num_qubits,
        "backend": backend_name,
        "plan_ops": len(plan),
        "errors": len(report.errors),
        "warnings": len(report.warnings),
        "infos": len(report.infos),
        "diagnostics": list(report.as_dicts()),
    }


def _dynamic_workload(num_qubits: int) -> Circuit:
    """A measure/reset/if_bit circuit exercising the dynamic-op barriers.

    Not part of :func:`default_workloads` (those circuits are static);
    built here so the certify gate always covers the dataflow-certificate
    path.
    """
    from repro.gates import get_gate

    circuit = Circuit(
        num_qubits, num_clbits=2, name=f"dynamic_feedback_{num_qubits}"
    )
    circuit.h(0)
    for q in range(num_qubits - 1):
        circuit.cx(q, q + 1)
    circuit.rz(0.3, 0).rz(-0.3, 0)  # cancellable pair straddling nothing
    circuit.measure(0, 0)
    circuit.if_bit(0, 1, Instruction(get_gate("x"), (1,)))
    circuit.reset(0)
    circuit.h(1).h(1)  # identity pair in the post-measurement segment
    circuit.measure(1, 1)
    return circuit


def _certify_one(name: str, num_qubits: int, circuit: Circuit, width: int) -> dict:
    """Certify the default pipeline, fusing at ``width``, over one circuit.

    Returns one JSON-ready row.
    """
    from repro.transpile import PassManager, default_passes
    from repro.utils.exceptions import CertificationError

    manager = PassManager(default_passes(width))
    failure: Optional[str] = None
    try:
        manager.run(circuit, certify=True)
    except CertificationError as exc:
        failure = str(exc)
    certificates = [
        stats["certificate"]
        for stats in manager.last_stats_dicts()
        if stats["certificate"] is not None
    ]
    return {
        "name": name,
        "num_qubits": num_qubits,
        "passes": len(certificates),
        "sites": sum(c["sites"] for c in certificates),
        "max_support": max(
            (c["max_support"] for c in certificates), default=0
        ),
        "max_deviation": max(
            (c["max_deviation"] for c in certificates), default=0.0
        ),
        "certified": failure is None
        and all(c["status"] == "certified" for c in certificates),
        "failure": failure,
        "certificates": certificates,
    }


def _collect(smoke: bool, backend: Optional[str], context_kwargs: dict) -> List[dict]:
    rows = []
    for workload in default_workloads(smoke=smoke):
        backend_name = workload.backend or backend or "statevector"
        rows.append(
            _lint_one(
                workload.name,
                workload.num_qubits,
                workload.build(),
                backend_name,
                context_kwargs,
            )
        )
    # The sweep template rides along: parametric slots exercise the
    # bindability checks no static workload reaches.
    n = 4 if smoke else 8
    template, _ = parameterized_rotations(n)
    rows.append(
        _lint_one("parameterized_rotations", n, template, "statevector", context_kwargs)
    )
    return rows


def _collect_certify(smoke: bool) -> List[dict]:
    # Each row fuses at the width compile_plan uses for its backend, so
    # the proof covers what execute() runs.
    def width(backend_name: Optional[str]) -> int:
        return fusion_width(get_backend(backend_name or "statevector").plan_mode)

    rows = []
    for workload in default_workloads(smoke=smoke):
        rows.append(
            _certify_one(
                workload.name,
                workload.num_qubits,
                workload.build(),
                width(workload.backend),
            )
        )
    n = 4 if smoke else 8
    template, _ = parameterized_rotations(n)
    rows.append(_certify_one("parameterized_rotations", n, template, width(None)))
    rows.append(_certify_one("dynamic_feedback", n, _dynamic_workload(n), width(None)))
    return rows


def _format_table(rows: Sequence[dict]) -> Tuple[str, List[str]]:
    header = (
        f"{'workload':<26} {'n':>3} {'backend':>15} {'plan_ops':>8} "
        f"{'errors':>6} {'warnings':>8} {'infos':>5}"
    )
    lines = [header, "-" * len(header)]
    details: List[str] = []
    for row in rows:
        lines.append(
            f"{row['name']:<26} {row['num_qubits']:>3} {row['backend']:>15} "
            f"{row['plan_ops']:>8} {row['errors']:>6} {row['warnings']:>8} "
            f"{row['infos']:>5}"
        )
        for diagnostic in row["diagnostics"]:
            site = diagnostic["site"]
            noun = "instruction" if diagnostic["scope"] == "circuit" else "op"
            where = f" @ {noun} {site}" if site is not None else ""
            details.append(
                f"  {row['name']}(n={row['num_qubits']}): "
                f"{diagnostic['severity']}[{diagnostic['code']}]{where}: "
                f"{diagnostic['message']}"
            )
    return "\n".join(lines), details


def _format_certify_table(rows: Sequence[dict]) -> Tuple[str, List[str]]:
    header = (
        f"{'workload':<26} {'n':>3} {'passes':>6} {'sites':>6} "
        f"{'max_support':>11} {'max_deviation':>14} {'status':>10}"
    )
    lines = [header, "-" * len(header)]
    details: List[str] = []
    for row in rows:
        status = "certified" if row["certified"] else "FAILED"
        lines.append(
            f"{row['name']:<26} {row['num_qubits']:>3} {row['passes']:>6} "
            f"{row['sites']:>6} {row['max_support']:>11} "
            f"{row['max_deviation']:>14.3e} {status:>10}"
        )
        if row["failure"]:
            details.append(
                f"  {row['name']}(n={row['num_qubits']}): {row['failure']}"
            )
    return "\n".join(lines), details


def _parse_severity(entries: Sequence[str]) -> dict:
    overrides = {}
    for entry in entries:
        code, sep, level = entry.partition("=")
        if not sep or not code or not level:
            raise SystemExit(
                f"--severity expects CODE=LEVEL (e.g. unused-qubit=error), "
                f"got {entry!r}"
            )
        overrides[code] = level
    return overrides


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Lint the bench workload circuits and their compiled "
        "execution plans, or (--certify) prove the default transpile "
        "pipeline semantically equivalent on them.",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON on stdout"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small/fast CI configuration (fewer qubits)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on warnings as well as errors",
    )
    parser.add_argument(
        "--backend",
        type=str,
        default=None,
        help="default backend for workloads that do not pin one "
        "(default statevector)",
    )
    parser.add_argument(
        "--certify",
        action="store_true",
        help="certify the default transpile pipeline over every workload "
        "(plus a dynamic-op circuit) instead of linting",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="CODE",
        help="only report diagnostics with this code (repeatable; "
        "default: all codes)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="CODE",
        help="drop diagnostics with this code (repeatable; applied "
        "after --select)",
    )
    parser.add_argument(
        "--severity",
        action="append",
        default=[],
        metavar="CODE=LEVEL",
        help="override the severity of a diagnostic code "
        "(LEVEL: error, warning, info; repeatable)",
    )
    args = parser.parse_args(argv)

    if args.certify:
        rows = _collect_certify(smoke=args.smoke)
        failed = [row for row in rows if not row["certified"]]
        if args.json:
            print(
                json.dumps(
                    {"workloads": rows, "failed": len(failed)},
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            table, details = _format_certify_table(rows)
            print(table)
            for line in details:
                print(line)
            total_sites = sum(row["sites"] for row in rows)
            print(
                f"{len(rows)} circuit(s) certified: {total_sites} rewrite "
                f"site(s) proven, {len(failed)} failure(s)"
            )
        if failed:
            print(
                f"certification failed for {len(failed)} circuit(s)",
                file=sys.stderr,
            )
            return 1
        return 0

    context_kwargs = {
        "select": tuple(args.select),
        "ignore": tuple(args.ignore),
        "severity_overrides": _parse_severity(args.severity),
    }
    rows = _collect(
        smoke=args.smoke, backend=args.backend, context_kwargs=context_kwargs
    )
    total_errors = sum(row["errors"] for row in rows)
    total_warnings = sum(row["warnings"] for row in rows)

    if args.json:
        print(
            json.dumps(
                {
                    "workloads": rows,
                    "total_errors": total_errors,
                    "total_warnings": total_warnings,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        table, details = _format_table(rows)
        print(table)
        for line in details:
            print(line)
        print(
            f"{len(rows)} circuit(s) linted: {total_errors} error(s), "
            f"{total_warnings} warning(s)"
        )

    if total_errors:
        print(
            f"static analysis found {total_errors} error(s)", file=sys.stderr
        )
        return 1
    if args.strict and total_warnings:
        print(
            f"static analysis found {total_warnings} warning(s) "
            f"(--strict)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
