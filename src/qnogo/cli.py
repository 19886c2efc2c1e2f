"""Command-line front end: run the verification suites, check user-supplied
context systems, and emit text or JSON reports with strict exit codes
(0 all checks passed, 1 some check failed, 2 usage/config, 3 file/parse).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import ks_search, proofs
from .observables import PairKind
from .report import VerificationReport, make_check, make_report, report_to_dict, report_to_text

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_FILE = 3

DEFAULT_TOLERANCE = 1e-10


@dataclass(frozen=True)
class CliConfig:
    command: str
    tolerance: float = DEFAULT_TOLERANCE
    format: str = "text"
    system_path: str | None = None
    measurement: PairKind = PairKind.B
    budget: int = ks_search.DEFAULT_BUDGET


def _search_report_to_dict(sr: ks_search.SearchReport) -> dict:
    return {
        "satisfiable": sr.satisfiable,
        "assignments_checked": sr.assignments_checked,
        "witness": sr.witness,
        "first_violated_context_histogram": {str(k): v for k, v in sr.first_violated_context_histogram.items()},
    }


def _search_report_to_text(title: str, sr: ks_search.SearchReport) -> str:
    lines = [f"-- search: {title} --"]
    lines.append(f"satisfiable: {'yes' if sr.satisfiable else 'no'}")
    lines.append(f"assignments checked: {sr.assignments_checked}")
    if sr.witness is not None:
        pairs = ", ".join(f"{k}={v:g}" for k, v in sr.witness.items())
        lines.append(f"witness: {pairs}")
    if sr.first_violated_context_histogram:
        pairs = ", ".join(f"{k}: {v}" for k, v in sr.first_violated_context_histogram.items())
        lines.append(f"first violated context histogram: {{{pairs}}}")
    return "\n".join(lines)


def _ks_report() -> tuple[VerificationReport, dict[str, ks_search.SearchReport]]:
    searches = {
        "state_dependent": ks_search.search(ks_search.state_dependent_system()),
        "state_independent": ks_search.search(ks_search.state_independent_system()),
    }
    checks = []
    for name, sr in searches.items():
        label = name.replace("_", "-")
        checks.append(make_check(f"{label} system unsatisfiable", 1.0 if sr.satisfiable else 0.0, 0.0, 0.0))
        checks.append(make_check(f"{label} assignments exhausted", float(sr.assignments_checked), 4096.0, 0.0))
    return make_report("ks", checks), searches


def _emit_verification(report: VerificationReport, fmt: str, extra: dict | None = None, extra_text: str = "") -> int:
    if fmt == "json":
        payload = report_to_dict(report)
        if extra:
            payload.update(extra)
        print(json.dumps(payload, indent=2))
    else:
        text = report_to_text(report)
        if extra_text:
            text = text + "\n" + extra_text
        print(text)
    return EXIT_OK if report.overall else EXIT_CHECK_FAILED


def run(config: CliConfig) -> int:
    """Execute one command and print its report; returns the exit code."""
    tol = config.tolerance
    fmt = config.format

    if config.command == "verify-ghz":
        return _emit_verification(proofs.verify_ghz(tol=tol), fmt)

    if config.command == "verify-hardy":
        return _emit_verification(proofs.verify_hardy(tol=tol), fmt)

    if config.command == "demo-swap":
        return _emit_verification(proofs.swap_demo(measurement=config.measurement, tol=tol), fmt)

    if config.command == "verify-ks":
        report, searches = _ks_report()
        extra = {"search_reports": {k: _search_report_to_dict(v) for k, v in searches.items()}}
        extra_text = "\n".join(_search_report_to_text(k, v) for k, v in searches.items())
        return _emit_verification(report, fmt, extra=extra, extra_text=extra_text)

    if config.command == "check-system":
        try:
            system = load_system(config.system_path)
            sr = ks_search.search(system, budget=config.budget)
        except ks_search.SearchBudgetError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except (OSError, ValueError) as exc:
            # JSONDecodeError, SystemFormatError and CyclicDeterminationError
            # are all ValueErrors: anything wrong with the file lands here.
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FILE
        if fmt == "json":
            print(json.dumps(_search_report_to_dict(sr), indent=2))
        else:
            print(_search_report_to_text(config.system_path, sr))
        return EXIT_OK

    if config.command == "all":
        ghz = proofs.verify_ghz(tol=tol)
        hardy = proofs.verify_hardy(tol=tol)
        ks_report, searches = _ks_report()
        matrix = ks_search.validate_against_matrices(
            ks_search.state_independent_system(), ks_search.builtin_matrix_bindings(), tol=tol
        )
        overall = all(r.overall for r in (ghz, hardy, ks_report, matrix))
        if fmt == "json":
            ks_payload = report_to_dict(ks_report)
            ks_payload["search_reports"] = {k: _search_report_to_dict(v) for k, v in searches.items()}
            payload = {
                "reports": [report_to_dict(ghz), report_to_dict(hardy), ks_payload, report_to_dict(matrix)],
                "overall": overall,
            }
            print(json.dumps(payload, indent=2))
        else:
            sections = [
                report_to_text(ghz),
                report_to_text(hardy),
                report_to_text(ks_report) + "\n" + "\n".join(_search_report_to_text(k, v) for k, v in searches.items()),
                report_to_text(matrix),
                f"ALL: {'PASS' if overall else 'FAIL'}",
            ]
            print("\n\n".join(sections))
        return EXIT_OK if overall else EXIT_CHECK_FAILED

    print(f"error: unknown command {config.command!r}", file=sys.stderr)
    return EXIT_USAGE


def load_system(path: str) -> ks_search.ContextSystem:
    """Read and validate a context-system document from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return ks_search.system_from_document(doc)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnogo",
        description="Certify the no-go arguments numerically and combinatorially.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text", help="report format")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE, help="numeric tolerance (default 1e-10)")
        add_format(p)

    add_common(sub.add_parser("verify-ghz", help="operator-algebra argument on three pairs"))
    add_common(sub.add_parser("verify-hardy", help="probability argument on two pairs"))
    # The searches compare values at their own fixed relative tolerance.
    add_format(sub.add_parser("verify-ks", help="exhaustive search over both built-in value-assignment systems"))

    swap = sub.add_parser("demo-swap", help="entanglement-swapping post-selection demo")
    add_common(swap)
    swap.add_argument("--measurement", choices=("A", "B"), default="B", help="middle-pair observable (default B)")

    check = sub.add_parser("check-system", help="search a user-supplied context-system JSON document")
    add_format(check)
    check.add_argument("system_path", help="path to the context-system document")
    check.add_argument("--budget", type=int, default=ks_search.DEFAULT_BUDGET, help="enumeration budget")

    add_common(sub.add_parser("all", help="run every verification suite"))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    tolerance = getattr(args, "tolerance", DEFAULT_TOLERANCE)
    if tolerance <= 0:
        parser.error("--tolerance must be positive")
    config = CliConfig(
        command=args.command,
        tolerance=tolerance,
        format=args.format,
        system_path=getattr(args, "system_path", None),
        measurement=PairKind(getattr(args, "measurement", "B")),
        budget=getattr(args, "budget", ks_search.DEFAULT_BUDGET),
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
