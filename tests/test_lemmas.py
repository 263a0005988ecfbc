"""The two lemmas that the linear-independence argument for the paper's
family rests on, tested on random connected sums of 2 or 3 torus knots
T(p,q), p <= 7, q <= 11, or their mirrors, of at most 4000 generators:

- where verify's subadditivity certificate returns a value, it equals
  upsilon2 of the tensor;
- the n-fold rule, upsilon2_t(nK) = upsilon2_t(K) when
  upsilon2_t(K) < upsilon2_t(-K), for n = 2 and 3, on each summand and on
  the sum.

The same sums check diagonal subadditivity on the tensor (Kim and
Livingston 2018) and the additivity of upsilon.  A refused certificate is
no failure; hypothesis counts refusals as events, which
`--hypothesis-show-statistics` prints.  `check_sum` takes one sum, so a
longer run can call it in a loop.
"""

from collections import Counter
from functools import cache, reduce
from math import gcd, prod

from hypothesis import event, given, settings, strategies as st

from upsilonkit.cfk import dual, from_staircase, tensor
from upsilonkit.plfun import pl_add, pl_equal
from upsilonkit.staircase import build_staircase, torus_generators
from upsilonkit.upsilon import (candidate_parameters, check_subadditivity,
                                upsilon2, upsilon_pl)
from upsilonkit.verify import upsilon2_sum_certificate

MAX_GENERATORS = 4000
TORI = [(p, q) for p in range(2, 8) for q in range(p + 1, 12)
        if gcd(p, q) == 1]


@cache
def summand(p, q, mirror):
    c = from_staircase(build_staircase(p, q))
    return dual(c) if mirror else c


def size(summands) -> int:
    return prod(torus_generators(p, q) for p, q, _ in summands)


def parameters(summands) -> list:
    """The candidate parameters of the summands, in increasing order."""
    return sorted({t for p, q, _ in summands
                   for t in candidate_parameters(summand(p, q, False))})


def check_sum(summands, ts) -> Counter:
    """Checks the sum of the (p, q, mirror) summands at each t in ts, and
    counts the certified and refused certificates and the n-fold cases."""
    parts = [summand(*k) for k in summands]
    rest = reduce(tensor, parts[1:])
    whole = tensor(parts[0], rest)
    assert pl_equal(upsilon_pl(whole), reduce(pl_add, map(upsilon_pl, parts)))
    knots = [(c, summand(p, q, not m)) for c, (p, q, m) in zip(parts, summands)]
    knots.append((whole, dual(whole)))
    counts = Counter()
    for t in ts:
        direct = upsilon2(whole, t)
        try:
            certified = upsilon2_sum_certificate(parts, t)
        except ValueError:
            counts["refused"] += 1
        else:
            assert certified == direct, t
            counts["certified"] += 1
        assert check_subadditivity(parts[0], rest, t, tensor_complex=whole), t
        for k, mirror in knots:
            value = upsilon2(k, t)
            if not value < upsilon2(mirror, t):
                continue
            multiple = k
            for n in (2, 3):
                if len(k) ** n > MAX_GENERATORS:
                    break
                multiple = tensor(multiple, k)
                assert upsilon2(multiple, t) == value, (n, t)
                counts[f"{n}-fold"] += 1
    return counts


sums = st.lists(
    st.builds(lambda pq, m: (*pq, m), st.sampled_from(TORI), st.booleans()),
    min_size=2, max_size=3).filter(lambda ks: size(ks) <= MAX_GENERATORS)


@settings(max_examples=60, deadline=None)
@given(sums, st.data())
def test_sum_lemmas(summands, data):
    cands = parameters(summands)
    ts = data.draw(st.lists(st.sampled_from(cands), min_size=1, max_size=3,
                            unique=True))
    counts = check_sum(summands, ts)
    if counts["refused"]:
        event("certificate refused")
    if counts["2-fold"]:
        event("n-fold rule applied")
