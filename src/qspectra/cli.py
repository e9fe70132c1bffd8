"""Command-line verification harness.

Subcommands: selftest (seeded property suites), example (the golden
multiplier scenario), decompose (multiplication form of a matrix file),
transform (bounded transform checks of a matrix file). Only decompose and
transform take a slice axis, --m.

Each check compares a residual with a fixed bound; no flag overrides one.
A check that a library routine builds is reported as the routine built
it, with its bound: decompose reports the checks of multiplication_form and
slice_spectrum_check, and transform those of transform_checks or, with
--inverse, inverse_checks.

Exit codes: 0 pass, 1 check failure, 2 precondition violation, 3 input
error. Reports are emitted as versioned JSON; reruns with identical flags
and seed are byte-identical except for the timing field.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .errors import (
    ComputationError,
    InputFormatError,
    PreconditionError,
)
from .example import run_example
from .measure import ess_sup
from .quaternion import SliceFrame
from .report import VerificationReport
from .selftest import run_selftest
from .serialize import (
    load_json,
    matrix_from_json,
    quaternion_from_text,
    save_json,
)
from .slices import build_J
from .spectral import multiplication_form, slice_spectrum_check, sphere_spectrum
from .transform import inverse_checks, transform_checks

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_PRECONDITION = 2
EXIT_INPUT = 3


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache  # one parser per process; parse_args leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="qspectra", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="report path (default stdout)")
    matrix = argparse.ArgumentParser(add_help=False, parents=[common])
    matrix.add_argument("matrix", help="path to a matrix JSON file")
    matrix.add_argument("--m", default="0,1,0,0", help="slice axis as 'w,x,y,z'")

    p = sub.add_parser("selftest", parents=[common], help="run the seeded property suites")
    p.add_argument("--seed", type=int, default=0, help="non-negative integer")
    p.add_argument("--n", type=int, default=8, help="matrix dimension (1..128)")

    p = sub.add_parser("example", parents=[common], help="verify the golden multiplier scenario")
    p.add_argument("--grid", type=int, default=64, help="number of grid atoms (>= 2)")

    sub.add_parser("decompose", parents=[matrix], help="multiplication form of a matrix file")

    p = sub.add_parser("transform", parents=[matrix], help="bounded-transform checks of a matrix file")
    p.add_argument(
        "--inverse",
        action="store_true",
        help="treat the file as a contraction Z and reconstruct its source",
    )
    return parser


def _parse_frame(text: str) -> SliceFrame:
    m = quaternion_from_text(text)
    try:
        return SliceFrame.from_m(m)
    except Exception as exc:
        raise InputFormatError(f"--m must be a unit imaginary quaternion: {exc}") from exc


def _emit(report: VerificationReport, start: float, out_path) -> int:
    report.timing = time.perf_counter() - start
    if out_path:
        save_json(report.to_dict(), out_path)
    else:
        print(report.to_json())
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILURE


def _cmd_selftest(args) -> int:
    if args.n < 1 or args.n > 128:
        raise InputFormatError(f"--n must be in 1..128, got {args.n}")
    if args.seed < 0:
        raise InputFormatError(f"--seed must be a non-negative integer, got {args.seed}")
    start = time.perf_counter()
    return _emit(run_selftest(args.seed, args.n), start, args.out)


def _cmd_example(args) -> int:
    if args.grid < 2:
        raise InputFormatError(f"--grid must be >= 2, got {args.grid}")
    start = time.perf_counter()
    return _emit(run_example(args.grid), start, args.out)


def _cmd_decompose(args) -> int:
    frame = _parse_frame(args.m)
    a = matrix_from_json(load_json(args.matrix))
    start = time.perf_counter()
    # multiplication_form checks normality first, then requires the checks
    # it returns; the slice spectrum checks are reported pass or fail
    form = multiplication_form(a, frame)
    spectrum = sphere_spectrum(form)
    slice_report = slice_spectrum_check(a, build_J(form.decomposition), spectrum=spectrum)
    report = VerificationReport(
        "decompose",
        [*form.checks, *slice_report.checks],
        extra={
            "phi": form.phi.values.tolist(),
            "orbits": spectrum.points.tolist(),
            "residual": form.residual,
            "normCheck": {
                "opNorm": form.op_norm,
                "essSup": ess_sup(form.phi),
                "gap": form.checks[1].residual,  # decompose.norm_identity
            },
        },
    )
    return _emit(report, start, args.out)


def _cmd_transform(args) -> int:
    _parse_frame(args.m)  # the transform needs no frame, but a bad --m is an input error
    a = matrix_from_json(load_json(args.matrix))
    start = time.perf_counter()
    if args.inverse:
        checks, z_norm = inverse_checks(a)
        report = VerificationReport("transform-inverse", checks, extra={"zNorm": z_norm})
    else:
        checks = transform_checks(a)
        report = VerificationReport("transform", checks, extra={"zNorm": checks[0].residual})
    return _emit(report, start, args.out)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "selftest": _cmd_selftest,
        "example": _cmd_example,
        "decompose": _cmd_decompose,
        "transform": _cmd_transform,
    }
    try:
        return handlers[args.command](args)
    except InputFormatError as exc:
        print(f"qspectra: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as exc:
        print(f"qspectra: precondition violation: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ComputationError as exc:
        print(f"qspectra: check failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
