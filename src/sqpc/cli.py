"""Command line front end.

Subcommands: ``run`` (one Monte Carlo experiment), ``verify-equations``
(the exact-amplitude state suite for the double C-NOT analysis), and
``detection-curve`` (detection rate vs attack size).  Exit codes: 0 on
success, 1 on validation failure or failed checks, 2 on I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .harness import (
    ATTACK_TABLE,
    SCENARIOS,
    ExperimentSpec,
    SpecValidationError,
    emit_report,
    estimate_detection_curve,
    run_experiment,
)
from .jiang import MODE_POLICIES, attack_state_checks


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the report schema reserves 2 for I/O."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.set_defaults(**{f.name: f.default for f in dataclasses.fields(ExperimentSpec) if f.name != "scenario"})
    parser.add_argument("--scenario", choices=SCENARIOS, required=True)
    parser.add_argument("--attack", choices=tuple(ATTACK_TABLE))
    parser.add_argument("--L", type=int, help="secret length in bits")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--mode-policy", choices=MODE_POLICIES, dest="mode_policy")
    parser.add_argument("--threshold", type=float, dest="error_threshold",
                        help="abort threshold on check mismatch rate")
    parser.add_argument("--target", choices=("A", "B"), help="participant whose channel is attacked")
    counted = ", ".join(name for name, attack in ATTACK_TABLE.items() if attack.takes_count)
    parser.add_argument("--attacked-count", type=int, dest="attacked_count",
                        help=f"attacked-position subset size, taken only by {counted} (default: attack-specific)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="report path (default: stdout)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="sqpc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run_p = sub.add_parser("run", help="run one Monte Carlo experiment")
    run_p.set_defaults(handler=_cmd_run)
    _add_common(run_p)

    verify_p = sub.add_parser("verify-equations", help="exact-amplitude checks of the attack state evolutions")
    verify_p.set_defaults(handler=_cmd_verify_equations)

    curve_p = sub.add_parser("detection-curve", help="detection rate per attacked-bit count")
    curve_p.set_defaults(handler=_cmd_detection_curve)
    _add_common(curve_p)
    curve_p.add_argument("--k", default="1,2,4,8", help="comma-separated attack sizes")

    return parser


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    spec = ExperimentSpec(**{f.name: getattr(args, f.name) for f in dataclasses.fields(ExperimentSpec)})
    spec.validate()
    return spec


def _emit(stats, args: argparse.Namespace) -> int:
    try:
        text = emit_report(stats, args.format, args.out)
    except OSError as exc:
        print(f"sqpc: I/O error: {exc}", file=sys.stderr)
        return 2
    if args.out is None:
        sys.stdout.write(text)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    stats = run_experiment(_spec_from_args(args))
    return _emit(stats, args)


def _cmd_verify_equations(args: argparse.Namespace) -> int:
    checks = attack_state_checks()
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status}  {check.name}: {check.detail}")
    return 0 if all(c.passed for c in checks) else 1


def _cmd_detection_curve(args: argparse.Namespace) -> int:
    try:
        counts = [int(part) for part in args.k.split(",") if part.strip() != ""]
    except ValueError:
        print("sqpc: error: --k expects comma-separated integers", file=sys.stderr)
        return 1
    curve = estimate_detection_curve(_spec_from_args(args), counts)
    return _emit(curve, args)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except SpecValidationError as exc:
        print(f"sqpc: invalid spec: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    raise SystemExit(main())
