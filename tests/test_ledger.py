"""A work ledger beside the timings: the engine's sweeps, meets, kernel
calls and row XORs on two fixed workloads, counted from outside.

The counts do not depend on the host, so they show a change of work that
a timing on a noisy host cannot.  The kernel is wrapped under the name the
engine calls, `upsilon.reduce_pair`; the wrapper replays the kernel's loop
to count the rows it XORs in, then calls the real kernel, so the kernel
itself carries no counter.  The validation in cfk is not counted.

A change that moves a count updates it here and says why.
"""

from collections import Counter

import pytest

from upsilonkit import upsilon, verify
from upsilonkit.expr import parse_expr, realize
from upsilonkit.f2 import reduce_pair

K7 = "T(7,8) # T(2,7) # -T(7,9)"


@pytest.fixture
def ledger(monkeypatch):
    counts = Counter()

    def counted(name, method):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)
        return wrapper

    def kernel(v, tag, basis):
        counts["kernel calls"] += 1
        w = v
        while w:
            row = basis.get(w.bit_length() - 1)
            if row is None:
                break
            w ^= row[0]
            counts["xors"] += 1
        return reduce_pair(v, tag, basis)

    monkeypatch.setattr(upsilon._Engine, "_sweep",
                        counted("sweeps", upsilon._Engine._sweep))
    monkeypatch.setattr(upsilon._Engine, "meet",
                        counted("meets", upsilon._Engine.meet))
    monkeypatch.setattr(upsilon, "reduce_pair", kernel)
    return counts


def test_verify_fast(ledger):
    assert all(r.ok for r in verify.run_all(fast=True))
    assert ledger == {"sweeps": 363, "meets": 265, "kernel calls": 2395,
                      "xors": 2516}


def test_jumps_on_k7(ledger):
    reports = upsilon.jump_values(realize(parse_expr(K7)))
    assert sum(is_jump for _, is_jump, _ in reports) > 0
    assert ledger == {"sweeps": 8, "meets": 7, "kernel calls": 7535,
                      "xors": 12208}
