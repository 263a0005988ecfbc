"""A work ledger beside the timings: the engine's sweeps, interval
lookups, meets, gamma2 scans, kernel calls, row XORs and the 64-bit words
those XORs touch, on two fixed workloads, counted from outside.

The counts do not depend on the host, so they show a change of work that
a timing on a noisy host cannot.  The kernel is wrapped under the name the
engine calls, `upsilon.reduce_pair`; the wrapper replays the kernel's loop
to count the rows it XORs in, then calls the real kernel, so the kernel
itself carries no counter.  An XOR touches the words of the vector, whose
highest bit is the row's pivot, and those of the longer of the two tags.
An interval lookup is an `_Engine.interval` call, from the table or by a
sweep.  A gamma2 scan is a `_secondary` call at a jump, where the minimal-r
scan runs.  The validation in cfk is not counted.

A change that moves a count updates it here and says why.
"""

import random
from collections import Counter

import pytest

from reference import relabel
from upsilonkit import upsilon, verify
from upsilonkit.cfk import BifilteredComplex, dual
from upsilonkit.expr import parse_expr, realize
from upsilonkit.f2 import reduce_pair
from upsilonkit.plfun import NEG_INF

K7 = "T(7,8) # T(2,7) # -T(7,9)"


def _words(x):
    return (x.bit_length() + 63) // 64


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
        w, t = v, tag
        while w:
            row = basis.get(w.bit_length() - 1)
            if row is None:
                break
            counts["xors"] += 1
            counts["words"] += _words(w) + max(_words(t), _words(row[1]))
            w, t = w ^ row[0], t ^ row[1]
        return reduce_pair(v, tag, basis)

    def secondary(eng, t, s):
        values = real_secondary(eng, t, s)
        counts["gamma2 scans"] += values[0] is not NEG_INF
        return values

    real_secondary = upsilon._secondary
    monkeypatch.setattr(upsilon._Engine, "_sweep",
                        counted("sweeps", upsilon._Engine._sweep))
    monkeypatch.setattr(upsilon._Engine, "interval",
                        counted("intervals", upsilon._Engine.interval))
    monkeypatch.setattr(upsilon._Engine, "meet",
                        counted("meets", upsilon._Engine.meet))
    monkeypatch.setattr(upsilon, "reduce_pair", kernel)
    monkeypatch.setattr(upsilon, "_secondary", secondary)
    return counts


def test_verify_fast(ledger):
    assert all(r.ok for r in verify.run_all(fast=True))
    assert ledger == {"sweeps": 363, "intervals": 894, "meets": 265,
                      "gamma2 scans": 75,
                      "kernel calls": 2395, "xors": 2268, "words": 15268}


def test_jumps_on_k7(ledger):
    reports = upsilon.jump_values(realize(parse_expr(K7)))
    assert sum(is_jump for _, is_jump, _ in reports) > 0
    assert ledger == {"sweeps": 8, "intervals": 22, "meets": 7,
                      "gamma2 scans": 4,
                      "kernel calls": 7598, "xors": 8269, "words": 273805}


@pytest.mark.parametrize("p,sweeps,kept", [(5, 9, 7), (7, 19, 13)])
def test_jumps_on_the_mirror_sweeps_more_than_it_keeps(ledger, p, sweeps,
                                                       kept):
    # Known extra work: a certificate does not always reach the largest
    # interval its contact level holds on, so a later sweep can certify a
    # wider interval that replaces earlier entries.  On the mirror of K_p
    # jump_values makes more sweeps than its final table has entries; a
    # certificate that reached the largest interval would lower the count.
    knot = f"T({p},{p + 1}) # T(2,{p}) # -T({p},{p + 2})"
    c = dual(realize(parse_expr(knot)))
    upsilon.jump_values(c)
    assert ledger["sweeps"] == sweeps
    assert len(upsilon._engine(c)._intervals) == kept


def test_work_does_not_depend_on_the_numbering(ledger):
    # Validation numbers the slices by level, so K_7 in tensor order,
    # reversed, and in a seeded random order takes the same walk: equal
    # values, sweeps and meets, and row XORs within 1.25x, since only the
    # order within a level is the caller's.  Numbered as given, the
    # reversed order made 58 sweeps against 8.
    c = realize(parse_expr(K7))
    n = len(c)
    orders = [range(n), range(n - 1, -1, -1),
              random.Random(7).sample(range(n), n)]
    seen = []
    for order in orders:
        ledger.clear()
        reports = upsilon.jump_values(BifilteredComplex(*relabel(c, order)))
        seen.append((reports, ledger["sweeps"], ledger["meets"],
                     ledger["xors"]))
    reports, sweeps, meets, xors = zip(*seen)
    assert len(set(map(tuple, reports))) == 1
    assert len(set(sweeps)) == len(set(meets)) == 1, (sweeps, meets)
    assert max(xors) <= 1.25 * min(xors), xors
