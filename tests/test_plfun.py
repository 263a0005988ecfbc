import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import reference
from reference import evaluate, lower_envelope
from upsilonkit.expr import parse_expr, realize
from upsilonkit.plfun import (
    NEG_INF,
    POS_INF,
    PLFunction,
    _frac,
    format_ext,
    pl_add,
    pl_constant,
    pl_equal,
    pl_from_samples,
    pl_lower_envelope,
    pl_neg,
)
from upsilonkit.staircase import build_staircase, upsilon_staircase
from upsilonkit.upsilon import gamma_at, jump_values

UPS34 = upsilon_staircase(3, 4)


class TestInfinity:
    def test_ordering(self):
        assert NEG_INF < F(-10**9) < POS_INF
        assert NEG_INF < POS_INF
        assert not NEG_INF < NEG_INF
        assert POS_INF > F(10**9)
        assert F(1, 3) < POS_INF
        assert F(1, 3) > NEG_INF
        assert POS_INF >= POS_INF
        assert NEG_INF <= F(0)

    def test_min_max(self):
        assert min(POS_INF, F(-12, 5)) == F(-12, 5)
        assert min(NEG_INF, F(3)) is NEG_INF
        assert max(POS_INF, F(3)) is POS_INF

    def test_format(self):
        assert format_ext(POS_INF) == "inf"
        assert format_ext(NEG_INF) == "-inf"
        assert format_ext(F(-20, 7)) == "-20/7"


class TestFromSamples:
    def test_constant_zero(self):
        f = pl_from_samples([(0, 0), (1, 0), (2, 0)])
        assert f.breakpoints == ((F(0), F(0)), (F(2), F(0)))

    def test_t34(self):
        f = pl_from_samples([(0, 0), (F(2, 3), -2), (F(4, 3), -2), (2, 0)])
        assert pl_equal(f, UPS34)

    def test_collinear_pruned(self):
        f = pl_from_samples([(0, 0), (1, -1), (2, -2)])
        assert f.breakpoints == ((F(0), F(0)), (F(2), F(-2)))

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            pl_from_samples([(0, 0), (F(3, 2), 1), (1, 0), (2, 0)])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            pl_from_samples([(0, 0), (1, 0), (1, 1), (2, 0)])

    def test_outside_domain_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            pl_from_samples([(-1, 0), (0, 0), (2, 0)])
        with pytest.raises(ValueError, match="outside"):
            pl_from_samples([(0, 0), (2, 0), (F(5, 2), 0)])

    def test_must_cover_endpoints(self):
        with pytest.raises(ValueError, match="cover"):
            pl_from_samples([(0, 0), (1, 0)])
        with pytest.raises(ValueError, match="cover"):
            pl_from_samples([(1, 0), (2, 0)])

    def test_round_trip(self):
        f = pl_from_samples(list(UPS34.breakpoints))
        assert pl_equal(f, UPS34)


class TestEval:
    """The reference evaluator that the value tests use."""

    def test_t34_plateau(self):
        assert evaluate(UPS34, 1) == -2

    def test_t34_slope(self):
        # -3t on the first segment
        assert evaluate(UPS34, F(1, 3)) == -1

    def test_breakpoint_values(self):
        for t, v in UPS34.breakpoints:
            assert evaluate(UPS34, t) == v

    def test_outside_domain(self):
        with pytest.raises(ValueError):
            evaluate(UPS34, F(21, 10))
        with pytest.raises(ValueError):
            evaluate(UPS34, F(-1, 10))


class TestArithmetic:
    def test_additive_identity(self):
        assert pl_equal(pl_add(UPS34, pl_constant(0)), UPS34)

    def test_additive_inverse(self):
        assert pl_equal(pl_add(UPS34, pl_neg(UPS34)), pl_constant(0))

    def test_double_t34_is_t37(self):
        # upsilon doubles under connected sum with itself; T(3,7) carries the
        # doubled torus-knot function by the recursion, so the staircase fast
        # path gives an independent value to compare against.
        assert pl_equal(pl_add(UPS34, UPS34), upsilon_staircase(3, 7))

    def test_neg_eval(self):
        assert evaluate(pl_neg(UPS34), 1) == 2


def _random_pl(rng: random.Random) -> PLFunction:
    ts = sorted(rng.sample(range(1, 40), rng.randint(0, 4)))
    grid = [F(0)] + [F(t, 20) for t in ts] + [F(2)]
    vals = [F(rng.randint(-30, 30), rng.randint(1, 5)) for _ in grid]
    return pl_from_samples(list(zip(grid, vals)))


class TestAlgebraicProperties:
    def test_add_commutative_associative(self):
        rng = random.Random(7)
        for _ in range(25):
            f, g, h = (_random_pl(rng) for _ in range(3))
            assert pl_equal(pl_add(f, g), pl_add(g, f))
            assert pl_equal(pl_add(pl_add(f, g), h), pl_add(f, pl_add(g, h)))

    def test_eval_is_additive(self):
        rng = random.Random(11)
        for _ in range(25):
            f, g = _random_pl(rng), _random_pl(rng)
            for t in (F(0), F(1, 7), F(1), F(13, 9), F(2)):
                assert evaluate(pl_add(f, g), t) == evaluate(f, t) + evaluate(g, t)

    def test_canonical_round_trip(self):
        rng = random.Random(13)
        for _ in range(25):
            f = _random_pl(rng)
            assert pl_equal(pl_from_samples(list(f.breakpoints)), f)

    def test_sum_breakpoints_within_union(self):
        rng = random.Random(15)
        for _ in range(25):
            f, g = _random_pl(rng), _random_pl(rng)
            union = {t for t, _ in f.breakpoints} | {t for t, _ in g.breakpoints}
            assert {t for t, _ in pl_add(f, g).breakpoints} <= union


class TestLowerEnvelope:
    def test_single_line(self):
        f = pl_lower_envelope([(F(1, 2), F(3))])
        assert f.breakpoints == ((F(0), F(3)), (F(2), F(4)))

    def test_symmetric_crossing(self):
        f = pl_lower_envelope([(1, 0), (-1, 2)])
        assert f.breakpoints == ((F(0), F(0)), (F(1), F(1)), (F(2), F(0)))

    def test_t34_whites(self):
        # lines t -> f_t(white) for the T(3,4) staircase whites, then the
        # upsilon normalization of -2 times the minimum
        lines = [(F(3, 2), F(0)), (F(0), F(1)), (F(-3, 2), F(3))]
        env = pl_lower_envelope(lines)
        assert pl_equal(pl_neg(pl_add(env, env)), UPS34)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pl_lower_envelope([])

    def test_concavity(self):
        rng = random.Random(17)
        for _ in range(20):
            lines = [(F(rng.randint(-6, 6), rng.randint(1, 3)),
                      F(rng.randint(-9, 9))) for _ in range(rng.randint(1, 6))]
            env = pl_lower_envelope(lines)
            pts = env.breakpoints
            for (t0, v0), (t1, v1), (t2, v2) in zip(pts, pts[1:], pts[2:]):
                s01 = (v1 - v0) / (t1 - t0)
                s12 = (v2 - v1) / (t2 - t1)
                assert s01 > s12  # canonical form: strict concavity kinks

    def test_envelope_below_all_lines(self):
        rng = random.Random(19)
        for _ in range(20):
            lines = [(F(rng.randint(-6, 6), rng.randint(1, 3)),
                      F(rng.randint(-9, 9))) for _ in range(rng.randint(1, 6))]
            env = pl_lower_envelope(lines)
            for t in (F(0), F(1, 3), F(1), F(8, 5), F(2)):
                assert evaluate(env, t) == min(m * t + b for m, b in lines)


SMALL = st.builds(F, st.integers(-12, 12), st.integers(1, 4))
INTS = st.integers(-12, 12)
# where a pencil of lines crosses: an end of [0,2] or outside it; a drawn
# coefficient puts it anywhere
PENCIL_POINTS = st.sampled_from([0, 2, -1, 3])


@st.composite
def line_families(draw, coefficients=SMALL):
    """1-12 lines with small coefficients drawn from coefficients, with
    duplicates, equal slopes and pencils of three or more lines through one
    point put in; integer coefficients give integer pencils."""
    lines = draw(st.lists(st.tuples(coefficients, coefficients), min_size=1,
                          max_size=6))
    kinds = st.sampled_from(["duplicate", "same slope", "pencil"])
    for kind in draw(st.lists(kinds, max_size=3)):
        m, b = draw(st.sampled_from(lines))
        if kind == "duplicate":
            lines.append((m, b))
        elif kind == "same slope":
            lines.append((m, b + draw(coefficients.filter(bool))))
        else:
            t = draw(PENCIL_POINTS | coefficients)
            v = m * t + b
            slopes = st.lists(coefficients.filter(lambda s: s != m),
                              min_size=2, max_size=2, unique=True)
            lines += [(s, v - s * t) for s in draw(slopes)]
    return lines


@st.composite
def pl_functions(draw):
    inner = st.integers(1, 23).map(lambda k: F(k, 12))
    ts = draw(st.lists(inner, max_size=6, unique=True))
    grid = [F(0)] + sorted(ts) + [F(2)]
    return pl_from_samples([(t, draw(SMALL)) for t in grid])


def assert_canonical(f):
    assert f.breakpoints[0][0] == 0 and f.breakpoints[-1][0] == 2
    # strictly increasing parameters and no collinear interior breakpoint
    assert pl_equal(pl_from_samples(f.breakpoints), f)


STAIRCASE_PAIRS = [pytest.param(p, q, id=f"T({p},{q})")
                   for p in range(2, 21) for q in range(p + 1, 22)
                   if gcd(p, q) == 1]


class TestEnvelopeOracle:
    """The hull sweep against the all-pairs envelope of tests/reference.py."""

    @pytest.mark.parametrize("p,q", STAIRCASE_PAIRS)
    def test_staircase_whites(self, p, q):
        lines = [(F(alex - alg, 2), F(alg))
                 for alg, alex in build_staircase(p, q)]
        assert pl_lower_envelope(lines).breakpoints == lower_envelope(lines)

    @settings(max_examples=300, deadline=None)
    @given(line_families())
    def test_random_families(self, lines):
        env = pl_lower_envelope(lines)
        assert env.breakpoints == lower_envelope(lines)
        assert_canonical(env)

    @settings(max_examples=300, deadline=None)
    @given(line_families(INTS))
    def test_integer_families(self, lines):
        env = pl_lower_envelope(lines)
        assert env.breakpoints == lower_envelope(lines)
        assert_canonical(env)

    @settings(max_examples=300, deadline=None)
    @given(line_families(INTS | SMALL))
    def test_mixed_families(self, lines):
        env = pl_lower_envelope(lines)
        assert env.breakpoints == lower_envelope(lines)
        assert_canonical(env)

    @pytest.mark.parametrize("p,q", STAIRCASE_PAIRS)
    def test_integer_staircase_lines(self, p, q):
        # The lines of 2*gamma have integer coefficients; -1 times their
        # envelope is upsilon, and -2 times the envelope of gamma's lines,
        # which test_staircase_whites checks against the reference.
        whites = build_staircase(p, q)
        doubled = [(alex - alg, 2 * alg) for alg, alex in whites]
        halved = [(F(alex - alg, 2), F(alg)) for alg, alex in whites]
        ups = pl_neg(pl_lower_envelope(doubled))
        assert pl_equal(ups, upsilon_staircase(p, q))
        gamma = pl_lower_envelope(halved)
        assert pl_equal(ups, pl_neg(pl_add(gamma, gamma)))


@settings(max_examples=200, deadline=None)
@given(pl_functions(), pl_functions())
def test_add_on_union_of_breakpoints(f, g):
    union = {t for t, _ in f.breakpoints} | {t for t, _ in g.breakpoints}
    h = pl_add(f, g)
    assert {t for t, _ in h.breakpoints} <= union
    for t in union:
        assert evaluate(h, t) == evaluate(f, t) + evaluate(g, t)
    assert_canonical(h)


# Parameters inside (0,2) and values with small, often coprime,
# denominators, so the lcm scale of a merge mixes several primes.
DENOMINATORS = st.sampled_from([1, 2, 3, 5, 7, 11, 12, 13])
INNER = DENOMINATORS.flatmap(
    lambda d: st.integers(1, 2 * d - 1).map(lambda n: F(n, d)))
VALUES = st.builds(F, st.integers(-30, 30), DENOMINATORS)


@st.composite
def breakpoint_lists(draw):
    """Sorted points (t, v) covering 0 and 2, not canonicalized: a value may
    be drawn on the line through the two points before it."""
    grid = [F(0), *sorted(set(draw(st.lists(INNER, max_size=6)))), F(2)]
    pts = []
    for t in grid:
        if len(pts) >= 2 and draw(st.booleans()):
            (t0, v0), (t1, v1) = pts[-2:]
            pts.append((t, v1 + (v1 - v0) * (t - t1) / (t1 - t0)))
        else:
            pts.append((t, draw(VALUES)))
    return pts


@st.composite
def breakpoint_pairs(draw):
    """Two breakpoint lists f and g whose parameters overlap: g takes some
    of f's parameters and some of its own.  Its values are drawn, or they
    are a line minus f, so the kinks of the sum cancel at the shared
    parameters and the merge leaves collinear points."""
    f = draw(breakpoint_lists())
    shared = draw(st.lists(st.sampled_from([t for t, _ in f])))
    own = draw(st.lists(INNER, max_size=4))
    grid = sorted({F(0), F(2), *shared, *own})
    if draw(st.booleans()):
        m, b = draw(VALUES), draw(VALUES)
        g = [(t, m * t + b - evaluate(PLFunction(tuple(f)), t)) for t in grid]
    else:
        g = [(t, draw(VALUES)) for t in grid]
    return f, g


def assert_fraction_breakpoints(h):
    assert all(type(x) is F for pt in h.breakpoints for x in pt)


class TestIntegerAlgebra:
    """pl_add and pl_from_samples against the Fraction merge and collinearity
    test of tests/reference.py."""

    @settings(max_examples=300, deadline=None)
    @given(breakpoint_lists())
    def test_from_samples_matches_reference(self, pts):
        h = pl_from_samples(pts)
        assert h.breakpoints == reference.canonicalize(pts)
        assert_fraction_breakpoints(h)
        assert all(any(t is s for s, _ in pts) for t, _ in h.breakpoints)

    @settings(max_examples=300, deadline=None)
    @given(breakpoint_pairs())
    def test_add_matches_reference(self, pair):
        f, g = (pl_from_samples(pts) for pts in pair)
        h = pl_add(f, g)
        assert h.breakpoints == reference.pl_add(f, g)
        assert_fraction_breakpoints(h)
        inputs = [t for t, _ in f.breakpoints + g.breakpoints]
        assert all(any(t is s for s in inputs) for t, _ in h.breakpoints)

    @settings(max_examples=300, deadline=None)
    @given(breakpoint_pairs())
    def test_add_matches_reference_on_raw_breakpoints(self, pair):
        # collinear points inside either summand as well as in the merge
        f, g = (PLFunction(tuple(pts)) for pts in pair)
        assert pl_add(f, g).breakpoints == reference.pl_add(f, g)

    def test_cancelled_kinks_leave_a_line(self):
        f = pl_from_samples([(0, 0), (F(2, 7), F(3, 5)), (F(12, 11), -1),
                             (2, F(1, 13))])
        g = PLFunction(tuple((t, F(1, 3) * t + 2 - v)
                             for t, v in f.breakpoints))
        assert pl_add(f, g).breakpoints == ((0, 2), (2, F(8, 3)))
        assert pl_add(f, g).breakpoints == reference.pl_add(f, g)

    def test_equal_breakpoints(self):
        f = pl_from_samples([(0, 1), (F(1, 3), 0), (F(5, 3), 0), (2, 1)])
        g = pl_from_samples([(0, 0), (F(1, 3), 1), (F(5, 3), 1), (2, 0)])
        assert pl_add(f, g).breakpoints == ((0, 1), (2, 1))
        h = pl_from_samples([(0, 0), (F(1, 3), 1), (F(5, 3), 2), (2, 0)])
        assert pl_add(f, h).breakpoints == reference.pl_add(f, h) == (
            (0, 1), (F(1, 3), 1), (F(5, 3), 2), (2, 1))


def test_frac_returns_a_fraction_as_it_is():
    x = F(-7, 3)
    assert _frac(x) is x
    assert _frac(4) == F(4) and type(_frac(4)) is F
    assert _frac("-4/6") == F(-2, 3)
    with pytest.raises(TypeError, match="floating point"):
        _frac(0.5)
    for text in ("1e300000", "0.5", "1/2 ", "", "nan"):
        with pytest.raises(ValueError, match="not a rational"):
            _frac(text)
    with pytest.raises(ZeroDivisionError):
        _frac("1/0")


def test_float_inputs_rejected():
    with pytest.raises(TypeError, match="floating point"):
        pl_constant(0.5)
    with pytest.raises(TypeError, match="floating point"):
        jump_values(realize(parse_expr("T(3,4)")), max_t=0.9)
    # a float in either coordinate of a line, next to int and Fraction lines
    for line in [(0.5, 1), (1, 0.5), (F(1, 2), 2.0)]:
        with pytest.raises(TypeError, match="floating point"):
            pl_lower_envelope([(1, 0), line])


def test_rational_strings_only():
    # Exponent notation is refused before Fraction expands it to 10^300000.
    c = realize(parse_expr("T(3,4)"))
    for text in ("1e300000", "0.5", "1/2 ", ""):
        with pytest.raises(ValueError, match="not a rational"):
            gamma_at(c, text)
    assert gamma_at(c, "-0/3") == gamma_at(c, 0)
    assert pl_constant("+4/6") == pl_constant(F(2, 3))
