"""Acceptance gate: every published numerical claim in scope, recomputed
from first definitions at its stated runtime budget, one pass/fail line per
criterion (run with -s to see them on success)."""

import subprocess
import sys
import time
from pathlib import Path

import pytest

from upsilonkit.expr import expected_generators, parse_expr
from upsilonkit.plfun import pl_add, pl_constant
from upsilonkit import verify

# Runtime budget in seconds of each check in verify.ALL_CHECKS, in that
# order, by the name its result carries.  A check without a budget makes
# the strict zip below fail, and with it the collection of this module.
BUDGETS = {
    "alexander-oracle-agreement": 1,
    "t34-golden-values": 1,
    "staircase-fast-path": 30,
    "torus-recursion": 10,
    "first-jump-value": 30,
    "secondary-value-adjacent-torus": 30,
    "secondary-value-small-k": 30,
    "secondary-value-large-k": 30,
    "non-jump-at-4-over-q": 30,
    "mirror-secondary-trivial": 10,
    "stable-inequivalence": 120,
    "vanishing-upsilon-family": 300,
    "property-battery": 120,
}

# The golden verify-paper output, line by check name; each check's line
# must match it byte for byte, detail included.
GOLDEN = {line.split(":")[0].removeprefix("PASS "): line
          for line in (Path(__file__).resolve().parents[1] / "perfbench"
                       / "golden" / "verify-paper.txt").read_text().splitlines()}

# The pinned stdout of `verify-paper --fast`.
FAST_GOLDEN = (Path(__file__).resolve().parent
               / "verify-paper-fast.txt").read_text()


@pytest.mark.parametrize("check,name",
                         zip(verify.ALL_CHECKS, BUDGETS, strict=True),
                         ids=list(BUDGETS))
def test_criterion(check, name):
    start = time.perf_counter()
    result = check(False)
    elapsed = time.perf_counter() - start
    print(f"{'PASS' if result.ok else 'FAIL'} {result.name} "
          f"[{elapsed:.2f}s]: {result.detail}")
    assert result.name == name, "BUDGETS is out of step with verify.ALL_CHECKS"
    assert result.ok, f"{result.name}: {result.detail}"
    assert f"PASS {name}: {result.detail}" == GOLDEN[name]
    assert elapsed < BUDGETS[name], (
        f"{result.name} took {elapsed:.2f}s, budget {BUDGETS[name]}s")


def test_vanishing_family_sizes():
    # tensor sizes follow from the staircase generator counts
    # (2*runs+1 per torus factor)
    assert expected_generators(
        parse_expr("T(5,6) # T(2,5) # -T(5,7)")) == 9 * 5 * 17 == 765
    assert expected_generators(
        parse_expr("T(7,8) # T(2,7) # -T(7,9)")) == 13 * 7 * 31 == 2821


def test_full_suite_exit_status():
    results = verify.run_all(fast=True)
    assert all(r.ok for r in results)
    assert [r.name for r in results] == list(BUDGETS)
    assert [f"PASS {r.name}: {r.detail}" for r in results] == \
        FAST_GOLDEN.splitlines()[:-1]


@pytest.mark.parametrize("planted,failing", [
    # read as T(p,q) on the left and as T(p,q-p) for (3,8) and (5,8)
    ((3, 5), [(3, 5), (3, 8), (5, 8)]),
    # read as T(p,p+1) for every p = 5 and as T(q-p,p) for (6,11); the
    # identity of (5,6) reads it on both sides, so the change cancels there
    ((5, 6), [(5, 7), (5, 8), (5, 9), (5, 11), (5, 12), (6, 11)]),
    # read on the left only
    ((7, 12), [(7, 12)]),
])
def test_recursion_reports_a_planted_mismatch(monkeypatch, planted, failing):
    # check_recursion computes each staircase upsilon once into a table; a
    # wrong entry must still fail every identity that reads it.
    true = verify.upsilon_staircase
    monkeypatch.setattr(
        verify, "upsilon_staircase",
        lambda p, q: (pl_add(true(p, q), pl_constant(1))
                      if (p, q) == planted else true(p, q)))
    result = verify.check_recursion(fast=True)
    assert not result.ok
    assert result.detail.endswith(f"; mismatches: {failing}")


def test_vanishing_case_builds_each_torus_complex_once(monkeypatch):
    # The certificate and the n-fold check share T(p,p+1), and its engine.
    built = []
    torus = verify._torus_complex
    monkeypatch.setattr(verify, "_torus_complex",
                        lambda p, q: built.append((p, q)) or torus(p, q))
    good, detail = verify._vanishing_case(5)
    assert good
    assert sorted(built) == [(2, 5), (5, 6), (5, 7)]
    assert f"PASS vanishing-upsilon-family: {detail}; " in (
        GOLDEN["vanishing-upsilon-family"])


def test_fast_suite_under_optimize():
    # python -O strips assert statements; the checks must not depend on them.
    src = Path(verify.__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "-O", "-m", "upsilonkit", "verify-paper", "--fast"],
        cwd=src, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == FAST_GOLDEN


def _plain_and_optimized(*args):
    """The CLI run on args without and with python -O."""
    src = Path(verify.__file__).resolve().parents[1]
    runs = [subprocess.run(
        [sys.executable, *flags, "-m", "upsilonkit", *args],
        cwd=src, capture_output=True, text=True, timeout=120)
        for flags in ([], ["-O"])]
    assert [run.returncode for run in runs] == [0, 0], runs[1].stderr
    return runs


def test_jumps_under_optimize():
    # The certificate checks of the gamma intervals raise explicitly, so
    # python -O, which strips assert statements, prints the same table.
    runs = _plain_and_optimized("jumps", "--", "T(5,6) # T(2,5) # -T(5,7)")
    assert "4/5\tyes\t-12/5" in runs[0].stdout
    assert runs[1].stdout == runs[0].stdout
    # The table of the jumps-tensor benchmark workload, against its golden.
    golden = (Path(__file__).resolve().parents[1] / "perfbench" / "golden"
              / "jumps-tensor.txt").read_bytes()
    runs = _plain_and_optimized("jumps", "--", "T(7,8) # T(2,7) # -T(7,9)")
    assert [run.stdout.encode() for run in runs] == [golden, golden]


def test_one_t_upsilon2_under_optimize():
    # A query at one t certifies only the intervals just below and above it.
    runs = _plain_and_optimized("upsilon2", "--t", "4/7", "--",
                                "-T(7,8) # -T(2,7) # T(7,9)")
    assert runs[0].stdout == "inf\n"
    assert runs[1].stdout == runs[0].stdout
