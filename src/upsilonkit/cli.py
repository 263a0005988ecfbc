"""Command-line surface.

Expressions use the grammar of upsilonkit.expr, e.g. "T(3,4)",
"T(5,6) # T(2,5) # -T(5,7)", "2*T(2,3) # U".  Rational arguments are
written a/b or a.  Exit codes: 0 success, 1 verification mismatch,
2 parse or validation errors, 3 internal error (a failed consistency check
of the engine), 4 the output could not be written (a full disk, a closed
pipe).  Every output format is written here, except the complex dump,
which cfk writes beside its reader.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from fractions import Fraction

from .expr import (DEFAULT_GENERATOR_LIMIT, ComplexTooLargeError, Unknot,
                   expected_generators, expr_to_str, parse_expr, realize)
from .plfun import Infinity, _frac, format_ext
from .staircase import alexander_torus
from .upsilon import jump_values, upsilon2, upsilon_pl
from .cfk import complex_to_json
from . import verify


def _rational(text: str) -> Fraction:
    """a/b or a, with an optional sign, through the library's gate."""
    try:
        return _frac(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """argparse reads every argument that starts with '-' as an option.  The
    only single-dash option here is -h, so any other argument with a single
    leading '-' is a value: a mirror such as "-T(2,3)", or a negative number.

    argparse also drops write errors, so help that could not be written
    would exit 0, or fail in the flush at interpreter shutdown.  Here a
    failed write to stdout, or its flush before the exit, raises OSError.
    """

    def _parse_optional(self, arg_string):
        if (arg_string[:1] == "-" and arg_string[1:2] != "-"
                and arg_string != "-h"):
            return None
        return super()._parse_optional(arg_string)

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)

    def exit(self, status=0, message=None):
        sys.stdout.flush()
        super().exit(status, message)


def _json(x) -> dict:
    """json.dumps hook: a Fraction as num and den, an infinity as its sign."""
    if isinstance(x, Infinity):
        return {"inf": x.sign}
    return {"num": x.numerator, "den": x.denominator}


def _dumps(obj, **kw) -> str:
    """obj as JSON through _json; json loads on the first JSON write."""
    import json
    return json.dumps(obj, default=_json, **kw)


_JSON_HELP = "JSON output instead of text"


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="upsilonkit",
        description="Exact upsilon and secondary upsilon invariants of "
                    "torus knots, mirrors and connected sums.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_expr_command(name: str, run, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("expr", help="knot expression, e.g. 'T(3,4) # -T(2,5)'")
        p.add_argument("--max-generators", type=int,
                       default=DEFAULT_GENERATOR_LIMIT,
                       help="size guard for tensor products; 0 disables "
                            f"(default {DEFAULT_GENERATOR_LIMIT})")
        return p

    p = sub.add_parser("alexander", help="Alexander polynomial of a torus knot")
    p.set_defaults(run=_cmd_alexander)
    p.add_argument("expr")
    p.add_argument("--json", action="store_true", help=_JSON_HELP)

    p = add_expr_command("upsilon", _cmd_upsilon,
                         "upsilon as a piecewise-linear function")
    p.add_argument("--json", action="store_true", help=_JSON_HELP)

    p = add_expr_command("upsilon2", _cmd_upsilon2,
                         "secondary upsilon at parameters t, s")
    p.add_argument("--t", type=_rational, required=True,
                   help="parameter t in (0,2)")
    p.add_argument("--s", type=_rational, default=None,
                   help="parameter s in [0,2]; defaults to t")
    p.add_argument("--json", action="store_true", help=_JSON_HELP)

    p = add_expr_command("jumps", _cmd_jumps,
                         "jump-value report over the candidate parameters")
    p.add_argument("--max-t", type=_rational, default=None,
                   help="only candidates t <= MAX_T")
    p.add_argument("--json", action="store_true", help=_JSON_HELP)

    p = sub.add_parser("verify-paper", help="recompute the published claims; "
                       "nonzero exit on any mismatch")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--fast", action="store_true",
                   help="trimmed parameter ranges")

    add_expr_command("dump-complex", _cmd_dump,
                     "JSON dump of the realized complex")
    return parser


def _realize(args):
    if args.max_generators < 0:
        raise ValueError(f"--max-generators must be 0 (no limit) or "
                         f"positive, got {args.max_generators}")
    return realize(parse_expr(args.expr),
                   max_generators=args.max_generators or None)


def _cmd_alexander(args) -> int:
    e = parse_expr(args.expr)
    if len(e) != 1 or e[0].n != 1 or e[0].mirror:
        raise ValueError("alexander: only certified for torus knots, got "
                         f"{expr_to_str(e)}")
    # The polynomial has as many terms as the staircase has generators.
    terms = expected_generators(e)
    if terms > DEFAULT_GENERATOR_LIMIT:
        raise ComplexTooLargeError(
            f"{expr_to_str(e)} has {terms} Alexander terms, "
            f"above the limit of {DEFAULT_GENERATOR_LIMIT}")
    atom = e[0].atom
    poly = (((0, 1),) if isinstance(atom, Unknot)
            else alexander_torus(atom.p, atom.q))
    if args.json:
        print(_dumps({"terms": [{"exp": e, "coef": c} for e, c in poly]}))
    else:  # 1 - t + t^3 ...: the first term is 1, every coefficient +-1
        print("1" + "".join(f" {'+' if c > 0 else '-'} "
                            f"{'t' if e == 1 else f't^{e}'}"
                            for e, c in poly[1:]))
    return 0


def _cmd_upsilon(args) -> int:
    f = upsilon_pl(_realize(args))
    if args.json:
        points = [{"t": t, "v": v} for t, v in f.breakpoints]
        print(_dumps({"breakpoints": points}))
    else:
        sys.stdout.write("".join(f"{t}\t{v}\n" for t, v in f.breakpoints))
    return 0


def _cmd_upsilon2(args) -> int:
    value = upsilon2(_realize(args), args.t, args.s)
    print(_dumps(value) if args.json else format_ext(value))
    return 0


def _cmd_jumps(args) -> int:
    reports = jump_values(_realize(args), max_t=args.max_t)
    if args.json:
        print(_dumps([{"t": t, "is_jump": is_jump, "upsilon2": value}
                      for t, is_jump, value in reports]))
    else:
        sys.stdout.write("t\tjump\tupsilon2\n" + "".join(
            f"{t}\t{'yes' if is_jump else 'no'}\t{format_ext(value)}\n"
            for t, is_jump, value in reports))
    return 0


def _cmd_verify(args) -> int:
    results = verify.run_all(fast=args.fast)
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    failed = sum(1 for r in results if not r.ok)
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def _cmd_dump(args) -> int:
    print(_dumps(complex_to_json(_realize(args)), indent=2))
    return 0


def main(argv=None) -> int:
    try:
        with warnings.catch_warnings():  # restores showwarning on exit
            warnings.showwarning = lambda message, *_: print(
                f"warning: {message}", file=sys.stderr)
            args = _build_parser().parse_args(argv)
            status = args.run(args)
        sys.stdout.flush()
        return status
    except (ValueError, Warning) as exc:  # Warning: under -W error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # the commands read nothing, so stdout failed
        print(f"error: cannot write output: {exc.strerror or exc}",
              file=sys.stderr)
        # Unwritten output goes to devnull: the flush at exit must not fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 4
