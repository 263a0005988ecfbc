"""The linear-independence argument for the paper's family
K_p = T(p,p+1) # T(2,p) # -T(p,p+2), on a window of odd p.

Take a nontrivial relation sum n_p K_p = 0, let p* be the largest p with
n_p != 0, mirror the relation so that n_p* > 0, and let t = 4/p*.  The
argument needs one entry per (p, p*) with p <= p*:

- on the diagonal, upsilon2_t(K_p*) = -4(p*-2)/p* and
  upsilon2_t(-K_p*) = +infinity;
- off it (p < p*), upsilon2_t(K_p) = upsilon2_t(-K_p) = +infinity, by
  verify's subadditivity certificate on the torus summands.

The n-fold rule and the sum lemma (tests/test_lemmas.py) then make
upsilon2_t of the relation finite, while a slice knot has +infinity.

This test checks the argument on its window: the entries for the p and p*
in that window.  It does not prove the theorem for all p.  Tier-1 runs the
window {5, 7}; a longer run calls `entry_holds` on each case of
`cases(WIDE)`.
"""

from fractions import Fraction

import pytest

from upsilonkit.cfk import dual, from_staircase
from upsilonkit.expr import parse_expr, realize
from upsilonkit.plfun import POS_INF
from upsilonkit.staircase import build_staircase
from upsilonkit.upsilon import upsilon2
from upsilonkit.verify import upsilon2_sum_certificate

TIER1 = (5, 7)
WIDE = (5, 7, 9, 11)


def cases(window):
    """(p, p*) for p <= p* in the window."""
    return [(p, top) for top in window for p in window if p <= top]


def torus(p, q, mirror):
    c = from_staircase(build_staircase(p, q))
    return dual(c) if mirror else c


def entry_holds(p, top):
    """The entry (p, p*) of the argument at t = 4/p*, on complexes built
    here."""
    t = Fraction(4, top)
    if p == top:
        k = realize(parse_expr(f"T({p},{p + 1}) # T(2,{p}) # -T({p},{p + 2})"))
        return (upsilon2(k, t) == Fraction(-4 * (p - 2), p)
                and upsilon2(dual(k), t) == POS_INF)
    return all(
        upsilon2_sum_certificate([torus(p, p + 1, mirror), torus(2, p, mirror),
                                  torus(p, p + 2, not mirror)], t) == POS_INF
        for mirror in (False, True))


@pytest.mark.parametrize("p, top", cases(TIER1))
def test_entry(p, top):
    assert entry_holds(p, top)
