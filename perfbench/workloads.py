"""The benchmark's workloads: seeded inputs, CLI arguments, output checks
and the in-process flow that the traced run times.

Each workload is chosen to load different layers (see README.md):

- reproduce:    `verify-paper`, the full suite a reader of the paper runs;
                mostly PL algebra (the lower envelope) and many small engines.
- jumps-tensor: `jumps` on the 2821-generator vanishing-upsilon knot; dense
                GF(2) work in the gamma sweep, cycle spaces and gamma2, and
                no envelope calls.
- torus-large:  `upsilon` on T(p,p+1) with p near 1000; engine set-up over
                about 500k level pairs, the semigroup sieve and a sparse
                sweep.  Not in BENCHMARK.json (see README.md), but run and
                checked by report.py.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
NAMES = ("reproduce", "jumps-tensor", "torus-large")

JUMP_FACTORS = ("T(7,8)", "T(2,7)", "-T(7,9)")
# Rows published for T(7,8) # T(2,7) # -T(7,9): jumps at 4/7 and 10/7 with
# secondary value -4(p-2)/p = -20/7.
PUBLISHED_JUMP_ROWS = ("4/7\tyes\t-20/7", "10/7\tyes\t-20/7")


def jumps_expr(seed: int) -> str:
    """Seed 0 is the published order; other seeds permute the factors,
    which changes elimination order and cost but not the invariants."""
    factors = list(JUMP_FACTORS)
    if seed:
        random.Random(seed).shuffle(factors)
    return " # ".join(factors)


def torus_p(seed: int) -> int:
    """p = 1000 for seed 0, otherwise an even p in [996, 1004].

    Measured on a 2-CPU x86-64 machine, odd p near 1000 ran about 6%
    faster than even p, and p = 990 about 6% faster than p = 1008, so a
    wider band would let the seed, not the program, move the figures."""
    return 1000 if seed == 0 else 2 * random.Random(seed).randint(498, 502)


def cli_args(workload: str, seed: int) -> list[str]:
    """Arguments to `python -m upsilonkit`.  Expressions go after `--`:
    argparse takes a space-free argument with a leading '-' for an option."""
    if workload == "reproduce":
        return ["verify-paper"]
    if workload == "jumps-tensor":
        return ["jumps", "--", jumps_expr(seed)]
    if workload == "torus-large":
        p = torus_p(seed)
        return ["upsilon", "--", f"T({p},{p + 1})"]
    raise ValueError(f"unknown workload {workload!r}")


def torus_closed_form(p: int) -> str:
    """CLI output for T(p,p+1) from the closed form of Ozsvath-Stipsicz-Szabo
    (arXiv:1407.1795): Upsilon(2i/p) = -i(i+1) - i(p-1-2i) for 0 <= i <= p/2,
    symmetric under t -> 2-t.  No three breakpoints are collinear, so every
    one of them is printed."""
    def ups(i: int) -> int:
        i = min(i, p - i)
        return -i * (i + 1) - i * (p - 1 - 2 * i)
    return "".join(f"{Fraction(2 * i, p)}\t{ups(i)}\n" for i in range(p + 1))


def check_output(workload: str, seed: int, stdout: str) -> str | None:
    """None when stdout is correct for the workload, else the reason."""
    if workload == "reproduce":
        if stdout != (GOLDEN / "verify-paper.txt").read_text():
            return "verify-paper output differs from the golden"
    elif workload == "jumps-tensor":
        if stdout != (GOLDEN / "jumps-tensor.txt").read_text():
            return "jump table differs from the golden"
        rows = set(stdout.splitlines())
        missing = [r for r in PUBLISHED_JUMP_ROWS if r not in rows]
        if missing:
            return f"published jump rows missing: {missing}"
    elif workload == "torus-large":
        if stdout != torus_closed_form(torus_p(seed)):
            return "upsilon breakpoints differ from the closed form"
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return None


def run_in_process(workload: str, seed: int) -> str:
    """The workload through the public library calls the CLI makes, in the
    same order, plus a first candidate_parameters(c) call that isolates
    engine set-up in its own span.  Returns the text the CLI would print."""
    from upsilonkit import cli
    from upsilonkit.expr import parse_expr, realize
    from upsilonkit.plfun import format_ext
    from upsilonkit.upsilon import candidate_parameters, jump_values, upsilon_pl

    out = io.StringIO()
    if workload == "reproduce":
        with redirect_stdout(out):
            code = cli.main(cli_args(workload, seed))
        if code != 0:
            raise RuntimeError(f"verify-paper exited {code}")
        return out.getvalue()
    expr = cli_args(workload, seed)[-1]
    c = realize(parse_expr(expr))
    candidate_parameters(c)
    if workload == "jumps-tensor":
        out.write("t\tjump\tupsilon2\n")
        for r in jump_values(c):
            out.write(f"{r.t}\t{'yes' if r.is_jump else 'no'}\t"
                      f"{format_ext(r.upsilon2)}\n")
    else:
        for t, v in upsilon_pl(c).breakpoints:
            out.write(f"{t}\t{v}\n")
    return out.getvalue()


def complex_counts(c) -> dict[str, int]:
    """Sizes computed from the public complex.

    The grading-0 slice holds U^{m/2} x for every generator x of even
    grading m, at level (alg - m/2, alex - m/2); grading 1 likewise holds
    the odd generators.  d1 is the slice-1 to slice-0 boundary matrix.
    """
    level0, dim0, dim1 = set(), 0, 0
    for g in c.generators:
        n = g.maslov // 2
        if g.maslov % 2 == 0:
            dim0 += 1
            level0.add((g.alg - n, g.alex - n))
        else:
            dim1 += 1
    gens = c.generators
    nnz = 0
    for (i, j), exps in c.differential.items():
        mi, mj = gens[i].maslov, gens[j].maslov
        if mi % 2 == 1 and mj % 2 == 0:
            hits = sum(1 for n in exps if (mi - 1) // 2 + n == mj // 2)
            nnz += hits % 2
    levels = len(level0)
    return {
        "cfk.generators": len(gens),
        "cfk.differential_entries": len(c.differential),
        "upsilon.level_pairs": levels * (levels - 1) // 2,
        "f2.dim0": dim0,
        "f2.dim1": dim1,
        "f2.d1_nnz": nnz,
    }
