"""Metamorphic tests: filtered changes of basis, acyclic stabilisations,
filtration shifts, reordered tensor factors and renumbered generators leave
the jump set and the secondary invariant at every jump unchanged, and
upsilon too, up to the linear term -2 f_t of a shift.

The variants are complexes that `realize()` never builds: nonzero
U-exponents, several generators at one level, and arrows that keep both
filtrations.  Each is validated before its invariants are compared with
those of the knot it came from; a bounded sample is also compared with the
affine cycle spaces of the reference at every candidate.
"""

from fractions import Fraction
from functools import cache

from hypothesis import given, settings, strategies as st

from reference import relabel, secondary
from upsilonkit.cfk import (BifilteredComplex, Generator, shift_filtration,
                            validate)
from upsilonkit.expr import parse_expr, realize
from upsilonkit.plfun import NEG_INF, pl_add, pl_equal, pl_from_samples
from upsilonkit.upsilon import (candidate_parameters, gamma2, is_jump_value,
                                jump_values, upsilon_pl)

KNOTS = ["T(2,3)", "T(2,5)", "T(3,4)", "T(3,5)", "T(2,7)", "-T(2,3)",
         "-T(3,4)", "T(2,3) # T(2,3)", "T(2,3) # -T(2,5)", "T(3,4) # -T(2,3)",
         "T(2,3) # T(2,3) # -T(2,5)"]


def invariants(c):
    """Upsilon, and each jump with its diagonal secondary value."""
    return (upsilon_pl(c),
            {r.t: r.upsilon2 for r in jump_values(c) if r.is_jump})


@cache
def knot(expr):
    c = realize(parse_expr(expr))
    return c, invariants(c)


def _rows(c):
    rows = {i: {} for i in range(len(c))}
    for (i, j), exps in c.differential.items():
        rows[i][j] = set(exps)
    return rows


def _add(row, j, exps):
    """row[j] += exps over F2."""
    row[j] = row.get(j, set()) ^ exps


def change_basis(c, x, y, e):
    """The complex in the basis with x replaced by x + U^e y.

    d(x') = dx + U^e dy, and x = x' + U^e y in every image.  The new basis
    is filtered when U^e y is no higher than x in either filtration.
    """
    rows = _rows(c)
    for j, exps in rows[y].items():
        _add(rows[x], j, {n + e for n in exps})
    for row in rows.values():
        if x in row:
            _add(row, y, {n + e for n in row[x]})
    return BifilteredComplex(c.generators, {
        (i, j): exps for i, row in rows.items() for j, exps in row.items()})


def basis_partners(c, x):
    """Every (y, e) such that U^e y has the grading of x and no filtration
    level above it."""
    gx = c.generators[x]
    out = []
    for y, gy in enumerate(c.generators):
        e, odd = divmod(gy.maslov - gx.maslov, 2)
        if (y != x and not odd and gy.alg - e <= gx.alg
                and gy.alex - e <= gx.alex):
            out.append((y, e))
    return out


def stabilize(c, maslov, alg, alex, n):
    """c plus an acyclic pair w -> U^n y, both at level (alg, alex)."""
    k = len(c)
    gens = list(c.generators) + [
        Generator(f"w{k}", maslov + 1, alg, alex),
        Generator(f"y{k}", maslov + 2 * n, alg + n, alex + n)]
    return BifilteredComplex(gens, {**c.differential, (k, k + 1): {n}})


@st.composite
def variants(draw):
    """(expr, variant, shift): the knot of expr with its tensor factors in
    a drawn order, basis changes and stabilisations, its generators in a
    drawn numbering, then every filtration level moved by shift."""
    expr = draw(st.sampled_from(KNOTS))
    c = realize(parse_expr(" # ".join(
        draw(st.permutations(expr.split(" # "))))))
    small = st.integers(-2, 2)
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            c = stabilize(c, draw(small), draw(small), draw(small),
                          draw(st.integers(-1, 1)))
        x = draw(st.integers(0, len(c) - 1))
        partners = basis_partners(c, x)
        if partners:
            c = change_basis(c, x, *draw(st.sampled_from(partners)))
    c = BifilteredComplex(*relabel(c, draw(st.permutations(range(len(c))))))
    shift = (draw(small), draw(small))
    return expr, shift_filtration(c, *shift), shift


@settings(max_examples=300, deadline=None)
@given(variants())
def test_invariants_survive_basis_change_and_stabilisation(case):
    expr, c, (da, db) = case
    assert validate(c) == []
    ups, jumps = invariants(c)
    want_ups, want_jumps = knot(expr)[1]
    # gamma moves by f_t(da, db), linear from da at t = 0 to db at t = 2.
    assert pl_equal(ups, pl_add(want_ups, pl_from_samples(
        [(0, -2 * da), (2, -2 * db)])))
    assert jumps == want_jumps


S_VALUES = (None, Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1),
            Fraction(3, 2), Fraction(2))    # None stands for t


@settings(max_examples=40, deadline=None)
@given(variants())
def test_variants_match_reference_at_every_candidate(case):
    _, c, _ = case
    cands = candidate_parameters(c)
    for t, (jump, values) in zip(cands, secondary(c, cands, S_VALUES)):
        assert is_jump_value(c, t) == jump, t
        got = [gamma2(c, t, t if s is None else s) for s in S_VALUES]
        assert [None if g == NEG_INF else g for g in got] == values, t


def test_change_basis_by_hand():
    # In T(2,3) # T(2,3), w0|w1 (1) and w1|w0 (3) share grading 0 and level
    # (1,1).  Over the basis with w0|w1 + w1|w0 in place of w0|w1, the images
    # of w0|b0 (2) and b0|w1 (7), which contain w0|w1, gain w1|w0.
    c, _ = knot("T(2,3) # T(2,3)")
    assert (3, 0) in basis_partners(c, 1)
    changed = change_basis(c, 1, 3, 0)
    assert changed.differential == {**c.differential,
                                    (2, 3): {0}, (7, 3): {0}}
    assert validate(changed) == []
    assert change_basis(changed, 1, 3, 0).differential == c.differential
