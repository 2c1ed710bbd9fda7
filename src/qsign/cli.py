"""Command-line front end.

Exit codes: 0 pass, 1 usage/domain error, 2 non-definitive numerics,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Each _cmd_* imports the modules it runs: a cold `expand`, or a `verify`
# below the paper's threshold, loads neither mpmath nor the exact formula.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NON_DEFINITIVE = 2
EXIT_VERIFICATION_FAILED = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise SystemExit(_fail(message))


def _fail(message: str, code: int = EXIT_USAGE) -> int:
    print(f"qsign: error: {message}", file=sys.stderr)
    return code


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text, flush=True)  # a closed pipe raises here, not at interpreter exit


def build_parser() -> _Parser:
    parser = _Parser(prog="qsign", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, precision=True, formats=(), output=True):  # only the flags and formats p's command reads
        if precision:
            p.add_argument("--precision-bits", type=int, default=128)
        if formats:
            p.add_argument("--format", dest="fmt", choices=formats, default="json")
        if output:
            p.add_argument("--output", default=None)

    p = sub.add_parser("expand", help="expand the coefficient series")
    p.add_argument("--delta", type=int, required=True, choices=(1, -1))
    p.add_argument("--order", type=int, required=True)
    add_common(p, precision=False, formats=("json", "csv", "plain"))

    p = sub.add_parser("exact", help="evaluate the exact formula at one index")
    p.add_argument("--delta", type=int, required=True, choices=(1, -1))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k-max", type=int, default=None)
    add_common(p, formats=("json", "csv", "plain"))

    p = sub.add_parser("verify", help="brute-force sign verification up to n-max")
    p.add_argument("--delta", type=int, required=True, choices=(1, -1))
    p.add_argument("--n-max", type=int, required=True)
    add_common(p, precision=False)

    p = sub.add_parser("sweeps", help="Kloosterman identity and bound sweeps")
    p.add_argument("--k-max", type=int, default=500)
    p.add_argument("--identity-k-max", type=int, default=200)
    p.add_argument("--n-samples", type=int, default=20)
    add_common(p, formats=("json", "csv"))

    p = sub.add_parser("threshold", help="closed-form threshold inequality at n")
    p.add_argument("--delta", type=int, required=True, choices=(1, -1))
    p.add_argument("--n", type=int, required=True)
    add_common(p, precision=False)

    p = sub.add_parser("modular", help="modular-backbone validation suite")
    add_common(p)

    # no abbreviations, or the refused --output would pass for --output-dir
    p = sub.add_parser("pipeline", help="full verification pipeline", allow_abbrev=False)
    p.add_argument("--delta", type=int, default=None, choices=(1, -1))
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--sweep-k-max", type=int, default=500)
    p.add_argument("--identity-k-max", type=int, default=200)
    p.add_argument("--n-samples", type=int, default=20)
    p.add_argument("--exact-lo", type=int, default=10)
    p.add_argument("--exact-hi", type=int, default=300)
    p.add_argument("--output-dir", default="qsign_artifacts")
    add_common(p, output=False)

    return parser


def _cmd_expand(args) -> int:
    from .qseries import q10_series

    if args.order < 0:
        return _fail("order must be >= 0")
    series = q10_series(args.delta, args.order)
    if args.fmt == "json":
        _emit(json.dumps(series.to_json_dict(args.delta), sort_keys=True), args.output)
    elif args.fmt == "csv":
        rows = ["n,coefficient"] + [f"{n},{c}" for n, c in enumerate(series.coeffs)]
        _emit("\n".join(rows), args.output)
    else:
        _emit("\n".join(str(c) for c in series.coeffs), args.output)
    return EXIT_OK


def _cmd_exact(args) -> int:
    from . import exactformula

    ev = exactformula.c_exact(args.delta, args.n, k_max=args.k_max, prec=args.precision_bits)
    payload = ev.to_dict()
    if args.fmt == "csv":
        keys = sorted(payload)
        _emit(",".join(keys) + "\n" + ",".join(str(payload[k]) for k in keys), args.output)
    elif args.fmt == "plain":
        _emit("\n".join(f"{k}={v}" for k, v in sorted(payload.items())), args.output)
    else:
        _emit(json.dumps(payload, sort_keys=True), args.output)
    return EXIT_OK if ev.definitive else EXIT_NON_DEFINITIVE


def _cmd_verify(args) -> int:
    from . import verifier

    report = verifier.verify_conjecture(args.delta, args.n_max)
    _emit(json.dumps(report.to_dict(), sort_keys=True, indent=2), args.output)
    print(f"verify delta={args.delta:+d} n<={args.n_max}: {'PASS' if report.passed else 'FAIL'}", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_VERIFICATION_FAILED


def _cmd_sweeps(args) -> int:
    from . import verifier

    report = verifier.run_bound_sweeps(
        k_max=args.k_max,
        n_samples=args.n_samples,
        identity_k_max=args.identity_k_max,
        prec=args.precision_bits,
    )
    if args.fmt == "csv":
        _emit(report.csv_text(), args.output)
    else:
        _emit(json.dumps(report.to_dict(), sort_keys=True, indent=2), args.output)
    print(f"sweeps: {'PASS' if report.passed else 'FAIL'}", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_VERIFICATION_FAILED


def _cmd_threshold(args) -> int:
    from mpmath import mp

    from . import exactformula

    lhs = exactformula.threshold_lhs(args.delta, args.n)
    ok = lhs.hi < 1
    _emit(f"threshold delta={args.delta:+d} n={args.n}: lhs = {mp.nstr(lhs.value, 12)} "
          f"(err {mp.nstr(lhs.err, 3)}) {'PASS' if ok else 'FAIL'}", args.output)
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def _cmd_modular(args) -> int:
    from . import modularcheck

    records = modularcheck.validation_suite(prec=args.precision_bits)
    payload = [r.to_dict() for r in records]
    _emit(json.dumps(payload, sort_keys=True, indent=2), args.output)
    ok = all(r.passed for r in records)
    print(f"modular: {sum(r.passed for r in records)}/{len(records)} checks pass", file=sys.stderr)
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def _cmd_pipeline(args) -> int:
    from . import verifier

    result = verifier.full_pipeline(
        deltas=(args.delta,) if args.delta else (1, -1),
        n_max=args.n_max,
        sweep_k_max=args.sweep_k_max,
        identity_k_max=args.identity_k_max,
        sweep_n_samples=args.n_samples,
        exact_range=(args.exact_lo, args.exact_hi),
        precision_bits=args.precision_bits,
        output_dir=args.output_dir,
    )
    for phase, ok in sorted(result.phases.items()):
        print(f"phase {phase}: {'PASS' if ok else 'FAIL'}", file=sys.stderr)
    return result.exit_status


_COMMANDS = {
    "expand": _cmd_expand,
    "exact": _cmd_exact,
    "verify": _cmd_verify,
    "sweeps": _cmd_sweeps,
    "threshold": _cmd_threshold,
    "modular": _cmd_modular,
    "pipeline": _cmd_pipeline,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if getattr(args, "precision_bits", 128) < 64:
            return _fail("precision-bits must be >= 64")
        return _COMMANDS[args.command](args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        # OSError: output that cannot be written. After a closed pipe the rest
        # of stdout goes to devnull, so the interpreter's final flush is silent
        if isinstance(exc, BrokenPipeError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _fail(str(exc))
    except (RuntimeError, ArithmeticError) as exc:
        # a convergence cap, an overflow or an unresolved sign (PoleError is
        # an ArithmeticError); ZeroDivisionError exits 1 above
        return _fail(str(exc), EXIT_NON_DEFINITIVE)


def entry() -> None:
    sys.exit(main())
