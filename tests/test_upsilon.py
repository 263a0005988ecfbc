import itertools
import math
import random
import tracemalloc
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from reference import (apply, boundary, certified_interval, chamber_sweeps,
                       collinearity_parameters, cycle_spaces, evaluate,
                       is_essential, secondary, slice_levels)
from upsilonkit import upsilon
from upsilonkit.cfk import (dual, from_staircase, shift_filtration, tensor,
                            unknot_complex, validated_slices)
from upsilonkit.expr import parse_expr, realize
from upsilonkit.f2 import span_basis
from upsilonkit.plfun import (NEG_INF, POS_INF, is_finite, pl_add,
                              pl_constant, pl_equal, pl_neg)
from upsilonkit.staircase import build_staircase, upsilon_staircase
from upsilonkit.upsilon import (InvalidComplexError, JumpReport,
                                candidate_parameters,
                                check_subadditivity, cycle_space, gamma2,
                                gamma_at, is_jump_value, jump_values,
                                pivot_points, upsilon2, upsilon_pl,
                                _collinearity_parameters, _engine, _Engine)
from upsilonkit.cfk import BifilteredComplex, Generator
from upsilonkit.cli import main


def torus_complex(p, q):
    return from_staircase(build_staircase(p, q))


def _reference_ends(c):
    """0, the reference collinearity parameters of c, and 2."""
    levels = [(alg, alex) for _, _, alg, alex in slice_levels(c, 0)]
    return [F(0), *collinearity_parameters(levels), F(2)]


@pytest.fixture
def calls(monkeypatch):
    """calls(name) wraps the _Engine method name and returns the list of
    the (t, side) of its calls in order: their first two arguments (t alone
    for the meet), without the rows dict that a meet hands down.  With
    returns=True, the list of ((t, side), result) pairs."""
    def record(name, returns=False):
        seen, method = [], getattr(_Engine, name)

        def recorded(self, *args):
            result = method(self, *args)
            seen.append((args[:2], result) if returns else args[:2])
            return result

        monkeypatch.setattr(_Engine, name, recorded)
        return seen
    return record


@pytest.fixture
def swept(calls):
    """The (t, side) of every engine sweep, in order."""
    return calls("_sweep")


# ---------------------------------------------------------------------------
# Brute-force oracles, written against the reference slices in
# tests/reference.py, not the engine's.  They enumerate whole GF(2)
# coordinate spaces, so they stay honest and slow; use them only on
# complexes whose slices have at most ~12 elements.
# ---------------------------------------------------------------------------

def _slice_data(c):
    d0 = boundary(c, 0)            # columns over the grading -1 slice
    d1 = boundary(c, 1)            # columns over the grading 0 slice
    levels0 = [(alg, alex) for _, _, alg, alex in slice_levels(c, 0)]
    levels1 = [(alg, alex) for _, _, alg, alex in slice_levels(c, 1)]
    boundary_span = span_basis(d1)
    return d0, d1, levels0, levels1, boundary_span


def _f(t, level):
    a, alex = level
    return (t / 2) * alex + (1 - t / 2) * a


def _outside_span(x, span):
    """Whether x is not in the span of the reduced basis span."""
    while x:
        row = span.get(x.bit_length() - 1)
        if row is None:
            return True
        x ^= row[0]
    return False


def _essential_cycles_in(c, t, level_cap, d0, levels0, boundary_span):
    """All essential grading-0 cycles supported where f_t <= level_cap."""
    allowed = [i for i, lev in enumerate(levels0) if _f(t, lev) <= level_cap]
    assert len(allowed) <= 14, "oracle complex too large"
    out = []
    for bits in itertools.product((0, 1), repeat=len(allowed)):
        x = sum(1 << i for i, b in zip(allowed, bits) if b)
        if x and apply(d0, x) == 0 and _outside_span(x, boundary_span):
            out.append(x)
    return out


def brute_gamma(c, t):
    d0, _, levels0, _, bspan = _slice_data(c)
    for s in sorted({_f(t, lev) for lev in levels0}):
        if _essential_cycles_in(c, t, s, d0, levels0, bspan):
            return s
    raise AssertionError("no essential cycle at any level")


def brute_gamma2(c, t, s):
    """Independent secondary-invariant scan; also asserts that solvability
    is monotone in r across the whole threshold scan."""
    d0, d1, levels0, levels1, bspan = _slice_data(c)
    cands = candidate_parameters(c)
    if t not in cands:
        return NEG_INF
    pos = cands.index(t)
    lo = cands[pos - 1] if pos > 0 else F(0)
    hi = cands[pos + 1] if pos + 1 < len(cands) else F(2)
    delta = min(t - lo, hi - t) / 2
    zplus = _essential_cycles_in(c, t + delta, brute_gamma(c, t + delta),
                                 d0, levels0, bspan)
    zminus = _essential_cycles_in(c, t - delta, brute_gamma(c, t - delta),
                                  d0, levels0, bspan)
    targets = {zp ^ zm for zp in zplus for zm in zminus}
    gamma_t = brute_gamma(c, t)
    base = [i for i, lev in enumerate(levels1) if _f(t, lev) <= gamma_t]

    def solvable(allowed):
        assert len(allowed) <= 14, "oracle complex too large"
        for bits in itertools.product((0, 1), repeat=len(allowed)):
            w = sum(1 << i for i, b in zip(allowed, bits) if b)
            if apply(d1, w) in targets:
                return True
        return False

    if solvable(base):
        return NEG_INF
    thresholds = sorted({_f(s, lev) for i, lev in enumerate(levels1)
                         if i not in base})
    answer = None
    seen_solvable = False
    for r in thresholds:
        allowed = sorted(set(base) | {i for i, lev in enumerate(levels1)
                                      if _f(s, lev) <= r})
        ok = solvable(allowed)
        assert not (seen_solvable and not ok), "solvability not monotone in r"
        if ok and answer is None:
            answer = r
        seen_solvable = seen_solvable or ok
    assert answer is not None
    return answer


SMALL_COMPLEXES = [
    ("T(3,4)", lambda: torus_complex(3, 4)),
    ("T(2,7)", lambda: torus_complex(2, 7)),
    ("T(3,5)", lambda: torus_complex(3, 5)),
    ("-T(2,5)", lambda: dual(torus_complex(2, 5))),
    ("T(2,3)#T(2,3)", lambda: tensor(torus_complex(2, 3), torus_complex(2, 3))),
    ("T(2,3)#-T(2,5)",
     lambda: tensor(torus_complex(2, 3), dual(torus_complex(2, 5)))),
]


# The small complexes, the p = 5 and 7 families and their duals, and two
# tensors with the twin unknot, whose levels each hold two essential cycles.
WALKED_COMPLEXES = SMALL_COMPLEXES + [
    ("T(5,6)#T(2,5)#-T(5,7)", lambda: _vanishing_family(5)),
    ("-(T(5,6)#T(2,5)#-T(5,7))", lambda: dual(_vanishing_family(5))),
    ("T(7,8)#T(2,7)#-T(7,9)", lambda: _vanishing_family(7)),
    ("-(T(7,8)#T(2,7)#-T(7,9))", lambda: dual(_vanishing_family(7))),
    ("T(3,4)#twin", lambda: tensor(torus_complex(3, 4), _twin_unknot())),
    ("-T(2,5)#twin",
     lambda: tensor(dual(torus_complex(2, 5)), _twin_unknot()))]


class TestGammaOracle:
    @pytest.mark.parametrize("name,make", SMALL_COMPLEXES)
    def test_gamma_matches_brute_force(self, name, make):
        c = make()
        cands = candidate_parameters(c)
        ts = {F(0), F(2), F(1, 3), F(1), F(13, 10)} | set(cands)
        for a, b in zip(cands, cands[1:]):
            ts.add((a + b) / 2)
        for t in sorted(ts):
            assert gamma_at(c, t) == brute_gamma(c, t), (name, t)

    @pytest.mark.parametrize("name,make", SMALL_COMPLEXES)
    def test_gamma2_matches_brute_force(self, name, make):
        c = make()
        for t in candidate_parameters(c):
            for s in (t, F(1, 2), F(3, 2)):
                assert gamma2(c, t, s) == brute_gamma2(c, t, s), (name, t, s)

    def test_gamma2_noncandidate_fast_path(self):
        c = torus_complex(3, 4)
        assert gamma2(c, F(17, 16), F(1)) is NEG_INF
        assert upsilon2(c, F(17, 16), F(1)) is POS_INF


@st.composite
def _level_sets(draw):
    """Level sets with repeated levels and negative coordinates, and with
    pairs forced to agree at t = 0 (equal alg), at t = 2 (equal alex) and
    nowhere (da == dx)."""
    coord = st.integers(-6, 6)
    levels = draw(st.lists(st.tuples(coord, coord), max_size=12))
    for _ in range(draw(st.integers(0, 4))):
        a, x = draw(st.tuples(coord, coord))
        k = draw(st.integers(-4, 4))
        da, dx = draw(st.sampled_from([(0, 1), (1, 0), (1, 1)]))
        levels += [(a, x), (a + k * da, x + k * dx)]
    return levels


def _takes_bitset(levels):
    """Whether _collinearity_parameters lists the differences of levels'
    packed keys a*S + x from a bitset."""
    pts = set(levels)
    xs = [x for _, x in pts]
    s = 2 * (max(xs) - min(xs)) + 1
    keys = [a * s + x for a, x in pts]
    return upsilon._bitset_pays(max(keys) - min(keys), len(keys))


def _both_paths(levels):
    """_collinearity_parameters of levels sent down the bitset path, then
    down the pairwise path, whatever their span."""
    got = []
    for bitset in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(upsilon, "_bitset_pays", lambda span, n: bitset)
            got.append(_collinearity_parameters(levels))
    return got


# The paper's family and its mirror at p = 5 and 7: dense level sets.
DENSE_COMPLEXES = [
    ("T(5,6)#T(2,5)#-T(5,7)", lambda: _vanishing_family(5)),
    ("-(T(5,6)#T(2,5)#-T(5,7))", lambda: dual(_vanishing_family(5))),
    ("T(7,8)#T(2,7)#-T(7,9)", lambda: _vanishing_family(7)),
    ("-(T(7,8)#T(2,7)#-T(7,9))", lambda: dual(_vanishing_family(7)))]


class TestCandidates:
    @pytest.mark.parametrize("name,make", WALKED_COMPLEXES)
    def test_matches_pairwise_fractions(self, name, make):
        c = make()
        levels = [(alg, alex) for _, _, alg, alex in slice_levels(c, 0)]
        assert candidate_parameters(c) == collinearity_parameters(levels)

    def test_torus_level_sets(self):
        # The grading-0 levels of the 64 torus knots T(p,q) with q <= 16.
        tori = [(p, q) for q in range(3, 17) for p in range(2, q)
                if math.gcd(p, q) == 1]
        assert len(tori) == 64
        for p, q in tori:
            levels = [(alg, alex) for _, _, alg, alex
                      in slice_levels(torus_complex(p, q), 0)]
            expected = collinearity_parameters(levels)
            assert _collinearity_parameters(levels) == expected, (p, q)
            assert _both_paths(levels) == [expected] * 2, (p, q)

    @pytest.mark.parametrize("name,make", DENSE_COMPLEXES)
    def test_dense_level_sets(self, name, make):
        # The family's keys span at most 2 words per level (K_7: 73 words
        # for 319 levels), so its candidates come from the bitset.
        levels = [(alg, alex) for _, _, alg, alex in slice_levels(make(), 0)]
        assert _takes_bitset(levels), name
        assert _collinearity_parameters(levels) == \
            collinearity_parameters(levels), name

    @pytest.mark.parametrize("name,levels", [
        ("Farey", [(0, 1346269), (832040, 0), (0, 2178309), (1346269, 0)]),
        ("corners", [(a, x) for a in (-10**9, 0, 10**9)
                     for x in (-10**9, 10**9)]),
        ("T(50,51)", build_staircase(50, 51))])
    def test_memory(self, name, levels):
        # Wide spans take the pairwise path: bitsets as long as the span
        # peak at 7 MiB on the 50 whites of T(50,51) and need more memory
        # than any host has for coordinates near 10^9.
        assert not _takes_bitset(levels), name
        tracemalloc.start()
        try:
            _collinearity_parameters(levels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (name, peak)

    @settings(max_examples=300, deadline=None)
    @given(_level_sets())
    @example([])
    @example([(3, -2)])
    @example([(3, -2)] * 4)
    @example([(-1, 5), (2, 1), (-1, 5), (2, 1)])
    def test_level_sets(self, levels):
        expected = collinearity_parameters(levels)
        assert _collinearity_parameters(levels) == expected
        assert _both_paths(levels) == [expected] * 2

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
           st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
           st.lists(st.integers(-6, 6), min_size=1, max_size=10))
    def test_collinear_level_sets(self, start, step, ks):
        # All levels on one line, repeats included: one parameter when the
        # line falls from left to right, none otherwise.
        (a, x), (da, dx) = start, step
        levels = [(a + k * da, x + k * dx) for k in ks]
        got = _collinearity_parameters(levels)
        assert got == collinearity_parameters(levels)
        assert _both_paths(levels) == [got] * 2
        assert len(got) == (da * dx < 0 and len(set(levels)) > 1)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-10**9, 10**9),
                              st.integers(-10**9, 10**9)), max_size=8))
    @example([(0, 1346269), (832040, 0), (0, 2178309), (1346269, 0)])
    def test_wide_level_sets(self, levels):
        # Large coordinates give parameters that differ by about 1/M, the
        # resolution of the integer sort key; the example's ratios are the
        # Farey neighbours 832040/1346269 and 1346269/2178309.
        assert _collinearity_parameters(levels) == \
            collinearity_parameters(levels)


class TestGammaValues:
    def test_t34_at_1(self):
        assert gamma_at(torus_complex(3, 4), 1) == 1

    def test_unknot(self):
        c = unknot_complex()
        for t in (F(0), F(1, 2), F(1), F(2)):
            assert gamma_at(c, t) == 0

    def test_relative_coordinates_shift(self):
        c = shift_filtration(torus_complex(3, 4), 0, -3)
        assert gamma_at(c, 1) == F(-1, 2)

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            gamma_at(torus_complex(3, 4), F(5, 2))

    def test_invalid_complex_rejected(self):
        bad = BifilteredComplex(
            [Generator("a", 0, 0, 0), Generator("b", 0, 0, 0)], {})
        with pytest.raises(InvalidComplexError):
            gamma_at(bad, F(1))

    @pytest.mark.parametrize("call,error", [
        (lambda c: gamma_at(c, F(5, 2)), ValueError),
        (lambda c: gamma_at(c, 0.5), TypeError),
        (lambda c: is_jump_value(c, F(2)), ValueError),
        (lambda c: is_jump_value(c, 0.5), TypeError),
        (lambda c: gamma2(c, F(1), F(3)), ValueError),
        (lambda c: gamma2(c, F(1), 0.5), TypeError),
        (lambda c: upsilon2(c, F(1), F(3)), ValueError),
        (lambda c: pivot_points(c, F(0)), ValueError),
        (lambda c: cycle_space(c, 0.5), TypeError),
        (lambda c: jump_values(c, max_t="1e9"), ValueError),
        (lambda c: jump_values(c, max_t=0.5), TypeError)],
        ids=["gamma_at", "gamma_at-float", "is_jump_value",
             "is_jump_value-float", "gamma2-s", "gamma2-s-float",
             "upsilon2-s", "pivot_points", "cycle_space-float",
             "jump_values-max_t", "jump_values-max_t-float"])
    def test_parameter_checked_before_the_engine(self, monkeypatch, call,
                                                 error):
        # Validation reads the whole complex, so a bad parameter is refused
        # first: on an invalid complex the parameter's own error comes, not
        # InvalidComplexError, and no engine is built.
        built, init = [], _Engine.__init__
        monkeypatch.setattr(_Engine, "__init__",
                            lambda self, c: built.append(c) or init(self, c))
        bad = BifilteredComplex(
            [Generator("a", 0, 0, 0), Generator("b", 0, 0, 0)], {})
        with pytest.raises(error) as raised:
            call(bad)
        assert type(raised.value) is error
        assert built == []


class TestUpsilonPL:
    def test_t34(self):
        assert pl_equal(upsilon_pl(torus_complex(3, 4)), upsilon_staircase(3, 4))

    def test_fast_path_agreement_sample(self):
        for p, q in [(2, 3), (2, 9), (3, 8), (4, 7), (5, 6), (5, 8)]:
            assert pl_equal(upsilon_pl(torus_complex(p, q)),
                            upsilon_staircase(p, q)), (p, q)

    def test_additivity(self):
        a, b = torus_complex(2, 5), torus_complex(5, 6)
        assert pl_equal(upsilon_pl(tensor(a, b)),
                        pl_add(upsilon_pl(a), upsilon_pl(b)))

    def test_mirror_negation(self):
        for c in (torus_complex(3, 4),
                  tensor(torus_complex(2, 3), torus_complex(2, 5))):
            assert pl_equal(upsilon_pl(dual(c)), pl_neg(upsilon_pl(c)))

    def test_knot_minus_knot_vanishes(self):
        c = tensor(torus_complex(2, 5), dual(torus_complex(2, 5)))
        assert pl_equal(upsilon_pl(c), pl_constant(0))

    def test_matches_gamma_pointwise(self):
        rng = random.Random(61)
        c = tensor(torus_complex(2, 3), torus_complex(3, 4))
        f = upsilon_pl(c)
        for _ in range(12):
            t = F(rng.randint(0, 64), 32)
            assert evaluate(f, t) == -2 * gamma_at(c, t)

    @pytest.mark.parametrize("p", range(1, 41))
    def test_adjacent_torus_closed_form(self, p):
        # Upsilon of T(p,p+1) has a kink at every 2i/p, with value
        # -i(i+1) - i(p-1-2i) there (arXiv:1407.1795).
        assert upsilon_pl(torus_complex(p, p + 1)).breakpoints == tuple(
            (F(2 * i, p), -i * (i + 1) - i * (p - 1 - 2 * i))
            for i in range(p + 1))

    def test_endpoint_zero(self):
        for _, make in SMALL_COMPLEXES:
            assert evaluate(upsilon_pl(make()), 0) == 0


class TestCandidateGuard:
    """A jump scan over a candidate set missing a breakpoint of upsilon is
    refused (exit 3), also under -O."""

    @pytest.mark.parametrize("expr,breakpoints", [
        ("T(3,4)", ["2/3", "4/3"]),
        ("T(5,7)", ["2/5", "4/5", "1", "6/5", "8/5"]),
        ("T(3,4) # T(2,5)", ["2/3", "1", "4/3"]),
    ])
    def test_each_dropped_breakpoint_raises(self, monkeypatch, capsys, expr,
                                            breakpoints):
        ups = upsilon_pl(realize(parse_expr(expr)))
        assert [str(t) for t, _ in ups.breakpoints[1:-1]] == breakpoints
        complete = upsilon._collinearity_parameters
        for text in breakpoints:
            dropped = F(text)
            monkeypatch.setattr(
                upsilon, "_collinearity_parameters",
                lambda levels: tuple(t for t in complete(levels)
                                     if t != dropped))
            with pytest.raises(AssertionError,
                               match="candidate set incomplete"):
                jump_values(realize(parse_expr(expr)))
            assert main(["jumps", expr]) == 3, (expr, text)
            assert capsys.readouterr().err.startswith("internal error: ")

    def test_dropped_breakpoint_above_max_t(self, monkeypatch, capsys):
        # Cut at max_t = 1, the scan of T(3,4) walks into [2/3, 4/3]; with
        # 4/3 dropped, that interval ends at no candidate.
        complete = upsilon._collinearity_parameters
        monkeypatch.setattr(
            upsilon, "_collinearity_parameters",
            lambda levels: tuple(t for t in complete(levels) if t != F(4, 3)))
        with pytest.raises(AssertionError,
                           match="certified interval ends at 4/3, no "):
            jump_values(torus_complex(3, 4), max_t=F(1))
        assert main(["jumps", "T(3,4)", "--max-t", "1"]) == 3
        assert capsys.readouterr().err.startswith("internal error: ")


class TestIntervalTable:
    @pytest.mark.parametrize("name,make,sweeps", [
        ("T(3,4)#T(2,5)",
         lambda: tensor(torus_complex(3, 4), torus_complex(2, 5)), 4),
        ("T(5,6)#T(2,5)#-T(5,7)", lambda: _vanishing_family(5), 6),
        ("T(7,8)#T(2,7)#-T(7,9)", lambda: _vanishing_family(7), 8),
    ])
    def test_one_sweep_per_interval(self, swept, name, make, sweeps):
        # upsilon_pl and jump_values (jump tests, gamma2 and gamma at every
        # candidate) sweep once per certified interval, walking from t = 0
        # just above each point: 0+, then the hi of the previous interval.
        c = make()
        upsilon_pl(c)
        jump_values(c)
        his = [hi for *_, hi in _engine(c)._intervals]
        assert len(swept) == len(his) == sweeps, name
        assert swept == [(0, 1)] + [(hi, 1) for hi in his[:-1]], name
        assert his[-1] == 2, name

    def test_one_t_query_sweeps_twice(self, swept):
        # The mirror of the p = 7 family at its jump 4/7: one sweep just
        # below t and one just above, and no candidate list.
        c = realize(parse_expr("-T(7,8) # -T(2,7) # T(7,9)"))
        assert upsilon2(c, F(4, 7)) is POS_INF
        assert swept == [(F(4, 7), -1), (F(4, 7), 1)]
        assert "candidates" not in vars(_engine(c))

    def test_point_query_reads_each_side_once(self, calls):
        # A query at the jump 2/3 of T(3,4) looks up the interval just
        # below t and the one just above it once each, for the jump test,
        # gamma(t) and both masks; at 1, inside one interval, the interval
        # below covers both sides.
        looked, swept = calls("interval"), calls("_sweep")
        assert upsilon2(torus_complex(3, 4), F(2, 3)) == F(-4, 3)
        assert looked == [(F(2, 3), -1), (F(2, 3), 1)]
        assert len(swept) == 2
        looked.clear()
        assert upsilon2(torus_complex(3, 4), F(1)) is POS_INF
        assert looked == [(F(1), -1)]

    def test_bounds_are_fractions(self):
        # _certify keeps its bounds as integer pairs and returns Fractions.
        for c in (torus_complex(3, 4), dual(torus_complex(2, 5)),
                  _vanishing_family(5)):
            upsilon_pl(c)
            jump_values(c)
            ends = [end for *_, lo, hi in _engine(c)._intervals
                    for end in (lo, hi)]
            assert ends and all(type(end) is F for end in ends)

    def test_inside_one_interval_builds_no_mask(self, calls):
        # A candidate inside one certified interval is no jump: the meet
        # answers before it builds a mask, so gamma2 is -infinity.
        c = _vanishing_family(7)
        upsilon_pl(c)
        ends = {end for *_, lo, hi in _engine(c)._intervals
                for end in (lo, hi)}
        inside = [t for t in candidate_parameters(c) if t not in ends][:10]
        assert len(inside) == 10
        built = calls("mask")
        assert [upsilon2(c, t) for t in inside] == [POS_INF] * 10
        assert built == []

    @pytest.mark.parametrize("name,make", SMALL_COMPLEXES + [
        ("T(5,6)#T(2,5)#-T(5,7)", lambda: _vanishing_family(5)),
        ("T(7,8)#T(2,7)#-T(7,9)", lambda: _vanishing_family(7))])
    def test_matches_chamber_sweeps(self, name, make):
        # At the midpoint m of every reference chamber the certified level
        # is the level of a sweep there, the mask its mask and the witness
        # an essential cycle inside it.
        c = make()
        eng = _engine(c)
        ends = _reference_ends(c)
        sweeps = chamber_sweeps(c)
        assert len(sweeps) == len(ends) - 1, name
        for a, b, (level, mask) in zip(ends, ends[1:], sweeps):
            m = (a + b) / 2
            got, witness, lo, hi = eng.interval(m, 1)
            assert got == level, (name, m)
            assert eng.mask(m, 1, got) == mask, (name, m)
            assert not witness & ~mask, (name, m)
            assert lo <= a < b <= hi, (name, m)
        assert all(is_essential(c, z) for _, z, _, _ in eng._intervals), name

    @pytest.mark.parametrize("name,make", WALKED_COMPLEXES)
    def test_matches_reference_intervals(self, monkeypatch, name, make):
        # Every certified interval equals the reference sweep and bounds,
        # element by element, at its sweep point.  Tensored with the twin
        # unknot, every level holds two essential cycles of its own, so
        # reducing a level in any order other than by slice index changes
        # the witness.
        made = []
        certify = _Engine._certify
        monkeypatch.setattr(_Engine, "_certify",
                            lambda self, t, side, rows=None:
                            made.append((t, side,
                                         certify(self, t, side, rows)))
                            or made[-1][2])
        c = make()
        upsilon_pl(c)
        jump_values(c)
        table = _engine(c)._intervals
        assert table and all(any(entry is e for *_, e in made)
                             for entry in table), name
        for t, side, entry in made:
            assert entry == certified_interval(c, t, side), (name, t, side)

    def test_engine_memory(self):
        # What jump_values leaves held on K_7: the slice bitsets, the level
        # table and the interval table, about 0.7 MiB.  A transpose of d0
        # or per-element copies of the level data would pass 1 MiB.
        c = realize(parse_expr("T(7,8) # T(2,7) # -T(7,9)"))
        tracemalloc.start()
        try:
            reports = jump_values(c)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sum(r.is_jump for r in reports) == 4
        assert held < 1.0 * 2**20


class TestPivots:
    def test_t34_generic(self):
        pair = pivot_points(torus_complex(3, 4), 1)
        assert pair.negative == pair.positive == (1, 1)

    def test_t34_jump(self):
        pair = pivot_points(torus_complex(3, 4), F(2, 3))
        assert pair.negative == (0, 3)
        assert pair.positive == (1, 1)
        assert pair.delta == F(1, 6)

    def test_t78_relative(self):
        c = torus_complex(7, 8)
        genus = build_staircase(7, 8)[0][1]  # the first white's alex
        pair = pivot_points(shift_filtration(c, 0, -genus), F(4, 7))
        assert pair.negative == (1, -6)
        assert pair.positive == (3, -11)

    def test_interior_only(self):
        with pytest.raises(ValueError):
            pivot_points(torus_complex(3, 4), 0)
        with pytest.raises(ValueError):
            pivot_points(torus_complex(3, 4), 2)


def _twin_unknot():
    """The unknot with its generator doubled: two cycles at (0,0) whose sum
    bounds a third generator, so either one is the essential cycle."""
    return BifilteredComplex([Generator("a", 0, 0, 0), Generator("b", 0, 0, 0),
                              Generator("w", 1, 0, 0)],
                             {(2, 0): {0}, (2, 1): {0}})


def _vanishing_family(p):
    """T(p,p+1) # T(2,p) # -T(p,p+2): Upsilon vanishes, Upsilon2 does not."""
    return tensor(tensor(torus_complex(p, p + 1), torus_complex(2, p)),
                  dual(torus_complex(p, p + 2)))


class TestCycleSpace:
    def test_unknot_single_point(self):
        assert cycle_space(unknot_complex(), F(1)) == (0b1, [])

    def test_t34_minus_side(self):
        c = torus_complex(3, 4)
        delta = pivot_points(c, F(2, 3)).delta
        # the lone white at (0,3) is slice index 1, after (3,0): the slice
        # runs by descending (alg + alex, alg)
        assert cycle_space(c, F(2, 3) - delta) == (0b010, [])

    def test_dual_all_whites_cycle(self):
        c = dual(torus_complex(2, 5))
        delta = pivot_points(c, F(1)).delta
        lo, hi = cycle_space(c, F(1) - delta), cycle_space(c, F(1) + delta)
        assert lo == hi == (0b111, [])

    def test_candidate_parameter_rejected(self):
        with pytest.raises(ValueError, match="collinearity"):
            cycle_space(torus_complex(3, 4), F(1))

    @pytest.mark.parametrize("name,make", [
        ("T(3,4)#T(2,5)",
         lambda: tensor(torus_complex(3, 4), torus_complex(2, 5))),
        ("T(3,5)#-T(2,3)",
         lambda: tensor(torus_complex(3, 5), dual(torus_complex(2, 3)))),
        ("-T(3,4)", lambda: dual(torus_complex(3, 4))),
    ])
    def test_one_space_per_chamber(self, name, make):
        c = make()
        cands = candidate_parameters(c)
        ends = [F(0), *cands, F(2)]
        for k, t in enumerate(cands, start=1):
            delta = pivot_points(c, t).delta
            for sign, mid in ((-1, (ends[k - 1] + t) / 2),
                              (1, (t + ends[k + 1]) / 2)):
                spaces = [cycle_space(c, x) for x in
                          (t + sign * delta, mid, t + sign * delta / 3)]
                assert spaces[0] == spaces[1] == spaces[2], (name, t, sign)

    @pytest.mark.parametrize("name,make,chambers,masks", [
        ("T(3,4)#T(2,5)",
         lambda: tensor(torus_complex(3, 4), torus_complex(2, 5)), 8, 4),
        ("T(5,6)#T(2,5)#-T(5,7)", lambda: _vanishing_family(5), 166, 38),
    ])
    def test_matches_reference_at_chamber_midpoints(self, name, make,
                                                    chambers, masks):
        # The directions depend on the sublevel mask alone, so chambers
        # with one mask share them.
        c = make()
        eng = _engine(c)
        ends = _reference_ends(c)
        mids = [(a + b) / 2 for a, b in zip(ends, ends[1:])]
        assert len(mids) == chambers, name
        dirs_of_mask = {}
        for m, expected in zip(mids, cycle_spaces(c, mids)):
            space = cycle_space(c, m)
            assert space == expected, (name, m)
            level, witness, _, _ = eng.interval(m, 1)
            mask = eng.mask(m, 1, level)
            assert space[0] == witness, (name, m)
            assert dirs_of_mask.setdefault(mask, space[1]) == space[1], (
                name, m)
        assert len(dirs_of_mask) == masks, name

    def test_t34_no_jump_at_1(self):
        c = torus_complex(3, 4)
        [(jump, _)] = secondary(c, [F(1)], [])
        assert not jump
        assert not is_jump_value(c, F(1))


S_VALUES = (None, F(0), F(1, 3), F(1), F(3, 2), F(2))   # None stands for t


def _engine_gamma2(value):
    return value if value is not NEG_INF else None


class TestSecondaryOracle:
    """The mask sweeps against the affine cycle spaces of the reference."""

    @pytest.mark.parametrize("name,make", SMALL_COMPLEXES + [
        ("T(5,6)#T(2,5)#-T(5,7)", lambda: _vanishing_family(5))])
    def test_every_candidate(self, name, make):
        c = make()
        cands = candidate_parameters(c)
        expected = secondary(c, cands, S_VALUES)
        for t, (jump, values) in zip(cands, expected):
            assert is_jump_value(c, t) == jump, (name, t)
            assert is_finite(upsilon2(c, t)) == jump, (name, t)
            got = [_engine_gamma2(gamma2(c, t, t if s is None else s))
                   for s in S_VALUES]
            assert got == values, (name, t)

    def test_off_diagonal_tie(self):
        # At t = 2/3 and s = 4/5 the grading-1 levels (1, 5), holding two
        # elements, and (3, 2) of T(3,4) # T(2,5) tie under f_s at the
        # value gamma2 = 13/5: the scan sorts levels, and two tied index
        # ranges go in in slice order.
        c = tensor(torus_complex(3, 4), torus_complex(2, 5))
        t, s = F(2, 3), F(4, 5)
        tied = [(a, x) for _, _, a, x in slice_levels(c, 1)
                if s / 2 * x + (1 - s / 2) * a == F(13, 5)]
        assert sorted(set(tied)) == [(1, 5), (3, 2)]
        assert len(tied) == 3
        [(jump, [value])] = secondary(c, [t], [s])
        assert jump
        assert value == gamma2(c, t, s) == F(13, 5)

    def test_p7_family_at_its_jumps(self):
        c = _vanishing_family(7)
        jumps = [r.t for r in jump_values(c) if r.is_jump]
        assert jumps == [F(4, 7), F(6, 7), F(8, 7), F(10, 7)]
        for t, (jump, values) in zip(jumps, secondary(c, jumps, S_VALUES)):
            assert jump, t
            got = [_engine_gamma2(gamma2(c, t, t if s is None else s))
                   for s in S_VALUES]
            assert got == values, t


class TestEssentialFunctional:
    """The phi that validation back-substitutes is a certificate: even on
    every boundary, odd on an essential cycle found by the reference
    elimination, not the engine's."""

    @pytest.mark.parametrize("name,make", SMALL_COMPLEXES + [
        ("T(5,6)#T(2,5)#-T(5,7)", lambda: _vanishing_family(5))])
    def test_phi_certificate(self, name, make):
        c = make()
        phi = validated_slices(c)[1].phi
        assert all((col & phi).bit_count() % 2 == 0
                   for col in boundary(c, 1)), name
        [(essential, _)] = cycle_spaces(c, [F(0)])
        assert (essential & phi).bit_count() % 2 == 1, name


class TestCertificates:
    """The consistency checks of gamma2 raise (exit 3), also under -O."""

    @pytest.fixture
    def corrupt_sides(self, monkeypatch):
        """Make both sides of t = 2/3 of T(3,4) report a witness (through
        sides) or a mask just below and above t (through mask at sides
        -1 and +1, not the sublevel mask at side 0) grown by one slice
        element outside the sublevel set at gamma(2/3)."""
        def corrupt(field):
            t = F(2, 3)
            c = torus_complex(3, 4)
            g = gamma_at(c, t)
            basis0 = validated_slices(c)[1].basis0
            assert list(basis0) == [(alg, alex) for _, _, alg, alex
                                    in slice_levels(c, 0)]
            outside = [k for k, level in enumerate(basis0)
                       if _f(t, level) > g]
            assert outside
            extra = 1 << outside[0]
            sides, mask = _Engine.sides, _Engine.mask

            def grown(entry):
                level, witness, lo, hi = entry
                return level, witness | extra, lo, hi

            def patched_sides(self, t, rows=None):
                below, above, top = sides(self, t, rows)
                if below is above:
                    return below, above, top
                return grown(below), grown(above), top

            def patched_mask(self, t, side, level):
                return mask(self, t, side, level) | (extra if side else 0)

            if field == "witness":
                monkeypatch.setattr(_Engine, "sides", patched_sides)
            else:
                monkeypatch.setattr(_Engine, "mask", patched_mask)
            return c, t
        return corrupt

    @pytest.mark.parametrize("field", ["mask", "witness"])
    def test_cycle_outside_sublevel_set_raises(self, corrupt_sides, field):
        c, t = corrupt_sides(field)
        with pytest.raises(AssertionError, match="leaves the sublevel set"):
            gamma2(c, t, t)

    def test_cli_exit_code(self, corrupt_sides, capsys):
        corrupt_sides("mask")
        assert main(["upsilon2", "T(3,4)", "--t", "2/3"]) == 3
        assert capsys.readouterr().err.startswith("internal error: ")

    def test_jump_test_checks_sublevel_set(self, corrupt_sides, capsys):
        # The jump test and gamma2 share one check, so a corrupt mask
        # cannot pass as a jump verdict either.
        c, t = corrupt_sides("mask")
        with pytest.raises(AssertionError, match="leaves the sublevel set"):
            is_jump_value(c, t)
        assert main(["jumps", "T(3,4)"]) == 3
        assert capsys.readouterr().err.startswith("internal error: ")

    def test_first_phase_closing_raises(self):
        # Moving a grading-1 level of T(3,4) below the support line at 2/3,
        # under levels of its own boundary, lets it close the first phase
        # at a jump, which a filtered d1 never does (see _secondary):
        # gamma2 raises, not -infinity.  The scan reads grading-1 levels
        # from the engine's per-level slice-1 data.
        c, t = torus_complex(3, 4), F(2, 3)
        eng = _engine(c)
        eng.levels1[eng.levels1.index((1, 3))] = (0, 1)
        assert is_jump_value(c, t)
        with pytest.raises(AssertionError, match="closes the secondary scan"):
            gamma2(c, t, t)

    def test_exhausted_scan_raises(self):
        c = torus_complex(3, 4)
        eng = _engine(c)
        eng.d1cols = [0] * len(eng.d1cols)
        with pytest.raises(AssertionError, match="exhausted"):
            gamma2(c, F(2, 3), F(2, 3))


def _refused(capsys, expr, match):
    """upsilon of expr raises match, and the CLI exits 3."""
    with pytest.raises(AssertionError, match=match):
        upsilon_pl(realize(parse_expr(expr)))
    assert main(["upsilon", expr]) == 3
    assert capsys.readouterr().err.startswith("internal error: ")


class TestIntervalCertificate:
    """A corrupt gamma certificate raises (exit 3), also under -O."""

    @pytest.fixture
    def corrupt_sweeps(self, monkeypatch):
        def corrupt(change):
            sweep = _Engine._sweep

            def patched(self, t, side, rows=None):
                return change(self, t, *sweep(self, t, side, rows))

            monkeypatch.setattr(_Engine, "_sweep", patched)
            return sweep
        return corrupt

    def test_functional_off_phi_below_level(self, corrupt_sweeps, capsys):
        # Flip lam on the pivot of d0 e_j for an element j below the
        # contact level, so j lands in Q.
        def change(self, t, level, z, lam, below):
            j = next(j for j in range(len(self.d0cols))
                     if below >> j & 1 and self.d0cols[j])
            return level, z, lam ^ 1 << self.d0cols[j].bit_length() - 1, below

        corrupt_sweeps(change)
        _refused(capsys, "-T(3,4)", "differs from phi below the contact level")

    def test_even_witness(self, corrupt_sweeps, capsys):
        # A nonzero boundary in place of the witness: a cycle, but phi is
        # even on it.
        c = realize(parse_expr("T(2,3) # -T(2,5)"))
        witnesses = []

        def change(self, t, level, z, lam, below):
            witnesses.append(next(col for col in self.d1cols if col))
            return level, witnesses[-1], lam, below

        corrupt_sweeps(change)
        _refused(capsys, "T(2,3) # -T(2,5)", "not an essential cycle")
        assert witnesses[0] and apply(boundary(c, 0), witnesses[0]) == 0
        assert not is_essential(c, witnesses[0])

    def test_witness_not_a_cycle(self, corrupt_sweeps, capsys):
        # Add a slice element whose boundary is nonzero.
        def change(self, t, level, z, lam, below):
            j = next(j for j, col in enumerate(self.d0cols) if col)
            return level, z ^ 1 << j, lam, below

        corrupt_sweeps(change)
        _refused(capsys, "-T(3,4)", "not an essential cycle")

    def test_witness_above_contact_level(self, corrupt_sweeps):
        # T(2,3) plus an acyclic pair w -> y at (1,2), on the line of slope
        # 1 through the first contact level (0,1) and above it at every t.
        # y is a boundary, so the witness plus y passes d0 z = 0 and
        # phi(z) = 1, but bounds gamma from above by f(1,2) only.
        base = torus_complex(2, 3)
        k = len(base)
        c = BifilteredComplex(
            list(base.generators) + [Generator("w", 1, 1, 2),
                                     Generator("y", 0, 1, 2)],
            {**base.differential, (k, k + 1): {0}})
        levels = list(validated_slices(c)[1].basis0)
        assert levels == [(alg, alex) for _, _, alg, alex
                          in slice_levels(c, 0)]
        y = 1 << levels.index((1, 2))
        corrupt_sweeps(lambda self, t, level, z, lam, below:
                       (level, z | y, lam, below))
        with pytest.raises(AssertionError, match=r"\[0, 0\] misses t=0$"):
            upsilon_pl(c)

    def test_interval_end_not_a_candidate(self, monkeypatch, capsys):
        complete = upsilon._collinearity_parameters
        monkeypatch.setattr(
            upsilon, "_collinearity_parameters",
            lambda levels: tuple(t for t in complete(levels) if t != F(2, 3)))
        with pytest.raises(AssertionError,
                           match="certified interval ends at 2/3, no "):
            jump_values(torus_complex(3, 4))
        assert main(["jumps", "T(3,4)"]) == 3
        assert capsys.readouterr().err.startswith("internal error: ")


class TestOtherConsistencyChecks:
    """The checks the certificates make redundant still raise (exit 3)."""

    @pytest.mark.parametrize("reader", [
        "upsilon", "gamma_at", "upsilon2", "pivot_points"])
    def test_table_entry_off_gamma(self, monkeypatch, capsys, reader):
        # An entry whose level is not gamma's breaks continuity at its end,
        # and every reader of the intervals beside t checks it.
        certify = _Engine._certify

        def patched(self, t, side, rows=None):
            level, z, lo, hi = certify(self, t, side, rows)
            return ((1, 2) if level == (1, 1) else level), z, lo, hi

        monkeypatch.setattr(_Engine, "_certify", patched)
        match = "gamma not continuous at t=2/3"
        if reader == "upsilon":
            _refused(capsys, "T(3,4)", match)
        else:
            with pytest.raises(AssertionError, match=match):
                getattr(upsilon, reader)(torus_complex(3, 4), F(2, 3))


class TestSecondary:
    def test_t34_gamma2(self):
        c = torus_complex(3, 4)
        assert gamma2(c, F(2, 3), F(2, 3)) == F(5, 3)
        assert gamma2(c, F(1), F(1)) is NEG_INF
        assert upsilon2(c, F(2, 3)) == F(-4, 3)
        assert upsilon2(c, F(1)) is POS_INF

    def test_adjacent_family(self):
        for p in (3, 5, 7, 9, 11):
            assert upsilon2(torus_complex(p, p + 1), F(4, p)) == \
                F(-4 * (p - 2), p), p

    def test_small_k_family(self):
        for p, k in [(5, 2), (7, 2), (7, 3), (9, 2), (11, 3)]:
            assert upsilon2(torus_complex(p, p + k), F(4, p)) == \
                F(-4 * (p - k - 1), p), (p, k)

    def test_large_k_family(self):
        for p, k in [(5, 3), (7, 4), (7, 5), (9, 5), (9, 7)]:
            assert upsilon2(torus_complex(p, p + k), F(4, p)) == \
                F(-4 * (k - 1), p), (p, k)

    def test_first_jump_family(self):
        for p, q in [(3, 4), (5, 7), (7, 9), (2, 5)]:
            assert upsilon2(torus_complex(p, q), F(2, p)) == \
                F(-2 * (p - 1), p), (p, q)

    def test_mirror_trivial(self):
        c = dual(torus_complex(5, 7))
        for t in candidate_parameters(c):
            assert upsilon2(c, t) is POS_INF

    def test_default_s_is_t(self):
        c = torus_complex(7, 8)
        assert upsilon2(c, F(4, 7)) == upsilon2(c, F(4, 7), F(4, 7))

    def test_s_endpoints_accepted(self):
        c = torus_complex(3, 4)
        assert gamma2(c, F(2, 3), F(0)) is not None
        assert gamma2(c, F(2, 3), F(2)) is not None

    def test_domain_checked(self):
        c = torus_complex(3, 4)
        with pytest.raises(ValueError):
            gamma2(c, F(0), F(1))
        with pytest.raises(ValueError):
            gamma2(c, F(1), F(5, 2))


class TestJumps:
    def test_t711(self):
        reports = jump_values(torus_complex(7, 11), max_t=F(4, 7))
        jumps = [r.t for r in reports if r.is_jump]
        assert jumps == [F(2, 7), F(1, 2), F(4, 7)]

    def test_t59_non_jump(self):
        assert not is_jump_value(torus_complex(5, 9), F(4, 9))

    def test_unknot_empty(self):
        assert jump_values(unknot_complex()) == []

    def test_report_values(self):
        reports = jump_values(torus_complex(3, 4))
        by_t = {r.t: r for r in reports}
        assert by_t[F(2, 3)].is_jump and by_t[F(2, 3)].upsilon2 == F(-4, 3)
        assert not by_t[F(1)].is_jump and by_t[F(1)].upsilon2 is POS_INF
        assert by_t[F(4, 3)].is_jump and by_t[F(4, 3)].upsilon2 == F(-4, 3)

    @pytest.mark.parametrize("name,make", WALKED_COMPLEXES)
    def test_meets_only_at_interval_ends(self, monkeypatch, calls, name,
                                         make):
        # jump_values reads the candidates along the walk 0+, hi+, ... and
        # runs the meet exactly at the walked interval ends among them; a
        # candidate strictly inside an interval is no jump.  The walked
        # ends are the ends of the intervals its interval(., +1) calls
        # return.  The reports agree with the public jump test and
        # upsilon2 of a fresh engine, which meet at every candidate.
        c = make()
        met_args, looked = calls("meet"), calls("interval", returns=True)
        reports = jump_values(c)
        met = [t for t, in met_args]
        ends = {hi for (_, side), (*_, hi) in looked if side > 0}
        cands = candidate_parameters(c)
        assert met == [t for t in cands if t in ends], name
        monkeypatch.undo()
        fresh = make()
        assert reports == [JumpReport(t, is_jump_value(fresh, t),
                                      upsilon2(fresh, t)) for t in cands], name

    @pytest.mark.parametrize("name,make,replaced", [
        ("T(5,6)#T(2,5)#-T(5,7)", lambda: _vanishing_family(5), False),
        ("-(T(5,6)#T(2,5)#-T(5,7))", lambda: dual(_vanishing_family(5)),
         True),
        ("T(7,11)", lambda: torus_complex(7, 11), False)])
    def test_runs_match_upsilon2_per_candidate(self, calls, name, make,
                                               replaced):
        # The walk reports the candidates strictly inside an interval as
        # one run and meets at its ends; a fresh engine, queried from the
        # last candidate down, answers each candidate alone.  On the mirror
        # of the p = 5 family wider certificates replace walked intervals,
        # so the walk sweeps more often than its final table has entries.
        sweeps, c = calls("_sweep"), make()
        reports = jump_values(c)
        assert (len(sweeps) > len(_engine(c)._intervals)) == replaced, name
        fresh = make()
        ts = candidate_parameters(fresh)
        values = {t: upsilon2(fresh, t) for t in reversed(ts)}
        assert reports == [JumpReport(t, is_finite(values[t]), values[t])
                           for t in ts], name

    def test_p5_family_jumps(self):
        # Upsilon2 at the jumps 4/5 and 6/5 of the p = 5 family is
        # -4(p-2)/p.
        reports = jump_values(_vanishing_family(5))
        assert [(r.t, r.upsilon2) for r in reports if r.is_jump] == [
            (F(4, 5), F(-12, 5)), (F(6, 5), F(-12, 5))]

    @pytest.mark.parametrize("kind", [
        "candidate", "interval end", "inside an interval",
        "below the first candidate", "past the last candidate", "above 2"])
    def test_max_t_gives_a_prefix(self, kind):
        # Cut at max_t, the scan of a fresh engine reports the full scan's
        # rows up to max_t, wherever max_t falls on the walk.
        c = _vanishing_family(5)
        full = jump_values(c)
        ts = [r.t for r in full]
        ends = [hi for *_, hi in _engine(c)._intervals][:-1]
        assert ends[1] in ts
        after = ts.index(ends[1]) + 1
        max_t = {"candidate": ts[after],
                 "interval end": ends[1],
                 "inside an interval": (ts[after] + ts[after + 1]) / 2,
                 "below the first candidate": ts[0] / 2,
                 "past the last candidate": F(2),
                 "above 2": F(5, 2)}[kind]
        assert (max_t in ts) == (kind in ("candidate", "interval end"))
        assert (max_t in ends) == (kind == "interval end")
        assert jump_values(_vanishing_family(5), max_t=max_t) == [
            r for r in full if r.t <= max_t]

    def test_noncandidates_never_jump(self):
        c = torus_complex(3, 4)
        assert not is_jump_value(c, F(3, 4))
        assert not is_jump_value(c, F(11, 7))


def _held_dicts(eng):
    """The dicts reachable from the engine's attributes through lists,
    tuples, sets and dicts, other than its attribute dict itself."""
    seen, stack, found = set(), [vars(eng)], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            if obj is not vars(eng):
                found.append(obj)
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
    return found


class TestMeetRows:
    """The meet at an interval end starts from the rows of the sweep at t+
    when sides(t) runs that sweep, and from no rows when the interval comes
    from the table; the engine keeps no rows once a call returns."""

    @pytest.mark.parametrize("name,make", WALKED_COMPLEXES)
    def test_with_and_without_sweep_rows(self, monkeypatch, name, make):
        # jump_values on a fresh engine sweeps at t+ inside every meet; after
        # upsilon_pl every interval comes from the table.  Both report the
        # reference's secondary value.  A meet that starts from rows
        # eliminates the elements of M+ on the support line, |M+ minus B|
        # columns with B the elements strictly below it; one that starts
        # from none eliminates all of M+ (both until a column closes).
        count, reduce = [0], upsilon.reduce_pair

        def counting(*args):
            count[0] += 1
            return reduce(*args)

        meets, handed, in_sides = [], [], []
        meet, sides, sweep = _Engine.meet, _Engine.sides, _Engine._sweep

        def recorded_sweep(self, t, side, rows=None):
            result = sweep(self, t, side, rows)
            handed.append(bool(rows))
            return result

        def recorded_sides(self, t, rows=None):
            start = count[0]
            result = sides(self, t, rows)
            in_sides.append(count[0] - start)
            return result

        def recorded_meet(self, t):
            start, k = count[0], len(handed)
            found = meet(self, t)
            meets.append((t, any(handed[k:]),
                          count[0] - start - in_sides[-1], found is not None))
            return found

        monkeypatch.setattr(upsilon, "reduce_pair", counting)
        monkeypatch.setattr(_Engine, "_sweep", recorded_sweep)
        monkeypatch.setattr(_Engine, "sides", recorded_sides)
        monkeypatch.setattr(_Engine, "meet", recorded_meet)
        c = make()
        reports = jump_values(c)
        fresh = list(meets)
        meets.clear()
        tabled = make()
        upsilon_pl(tabled)
        assert jump_values(tabled) == reports, name
        monkeypatch.undo()
        assert fresh and not any(took for _, took, *_ in meets), name
        if name.startswith(("T(5", "-(T(5", "T(7", "-(T(7")):
            assert all(took for _, took, *_ in fresh), name

        d0 = boundary(c, 0)
        levels = [(alg, alex) for _, _, alg, alex in slice_levels(c, 0)]
        met = sorted({t for t, *_ in fresh + meets})
        expected = dict(zip(met, secondary(c, met, [None])))
        for t, is_jump, u2 in reports:
            if t not in expected:
                assert (is_jump, u2) == (False, POS_INF), (name, t)
        for (t, took, eliminated, jump), swept_here in [
                (m, True) for m in fresh] + [(m, False) for m in meets]:
            level = certified_interval(c, t, 1)[0]
            g, slope = _f(t, level), level[1] - level[0]
            below = [j for j, lev in enumerate(levels) if _f(t, lev) < g]
            on = [j for j, lev in enumerate(levels)
                  if _f(t, lev) == g and lev[1] - lev[0] <= slope]
            ref_jump, [g2] = expected[t]
            assert jump == ref_jump, (name, t)
            report = reports[candidate_parameters(c).index(t)]
            assert report == (t, jump, -2 * (g2 - g) if jump else POS_INF)
            # At t+ the sweep reduces B first, so an element of B with a
            # nonzero boundary leaves a row.
            assert took or not swept_here or not any(d0[j] for j in below)
            if jump:
                assert eliminated == len(on) + (0 if took else len(below))

    @pytest.mark.parametrize("call", [
        "upsilon_pl", "gamma_at", "upsilon2", "is_jump_value", "jump_values",
        "all"])
    def test_no_rows_left_on_the_engine(self, call):
        # The weak-keyed engine cache keeps an engine as long as its
        # complex lives, so rows left on it would stay alive with it.
        calls = {"upsilon_pl": upsilon_pl,
                 "gamma_at": lambda c: gamma_at(c, F(4, 5)),
                 "upsilon2": lambda c: upsilon2(c, F(4, 5)),
                 "is_jump_value": lambda c: is_jump_value(c, F(6, 5)),
                 "jump_values": jump_values}
        c = _vanishing_family(5)
        names = set(vars(_Engine(c))) | {"candidates"}
        for fn in calls.values() if call == "all" else [calls[call]]:
            fn(c)
            assert set(vars(_engine(c))) <= names, call
            assert _held_dicts(_engine(c)) == [], call

    def test_no_rows_left_after_a_raise(self, monkeypatch):
        # A check that raises inside the meet's sides(t), after the sweep at
        # t+, leaves no rows on the engine.
        certify = _Engine._certify

        def patched(self, t, side, rows=None):
            level, z, lo, hi = certify(self, t, side, rows)
            return ((1, 2) if level == (1, 1) else level), z, lo, hi

        monkeypatch.setattr(_Engine, "_certify", patched)
        c = torus_complex(3, 4)
        with pytest.raises(AssertionError, match="gamma not continuous"):
            is_jump_value(c, F(2, 3))
        assert "_rows" not in vars(_engine(c))
        assert _held_dicts(_engine(c)) == []


K5 = "T(5,6) # T(2,5) # -T(5,7)"


class TestRelease:
    """The public functions hold the engine and drop the complex before the
    walk, so a complex that only the call holds is freed then."""

    @pytest.mark.parametrize("call,spied", [
        (lambda box: jump_values(box.pop()), "interval"),
        (lambda box: upsilon_pl(box.pop()), "interval"),
        (lambda box: upsilon2(box.pop(), F(4, 5)), "interval"),
        (lambda box: gamma_at(box.pop(), F(4, 5)), "interval"),
        (lambda box: gamma2(box.pop(), F(4, 5), F(1)), "interval"),
        (lambda box: is_jump_value(box.pop(), F(4, 5)), "interval"),
        (lambda box: pivot_points(box.pop(), F(4, 5)), "interval"),
        (lambda box: cycle_space(box.pop(), F(49, 100)), "interval"),
        (lambda box: candidate_parameters(box.pop()), "candidates")],
        ids=["jump_values", "upsilon_pl", "upsilon2", "gamma_at", "gamma2",
             "is_jump_value", "pivot_points", "cycle_space",
             "candidate_parameters"])
    def test_complex_freed_before_the_walk(self, monkeypatch, call, spied):
        # box.pop() is passed as the only reference; no *args tuple or
        # local of the caller holds it during the call.  The spy is on the
        # first interval lookup, or on the candidate list for the one
        # function that looks up no interval.
        box = [realize(parse_expr(K5))]
        freed = weakref.finalize(box[0], lambda: None)
        alive_at_first_use = []
        owner, name = ((_Engine, "interval") if spied == "interval"
                       else (upsilon, "_collinearity_parameters"))
        method = getattr(owner, name)

        def spy(*args):
            if not alive_at_first_use:
                alive_at_first_use.append(freed.alive)
            return method(*args)

        monkeypatch.setattr(owner, name, spy)
        got = call(box)
        assert alive_at_first_use == [False]
        kept = realize(parse_expr(K5))
        assert call([kept]) == got
        # A caller that keeps its complex keeps the cached engine.
        held = vars(_engine(kept))
        assert held["_intervals"] if spied == "interval" else (
            "candidates" in held)

    def test_engine_holds_no_complex(self):
        c = realize(parse_expr(K5))
        ref = weakref.ref(c)
        eng = _Engine(c)
        del c
        assert ref() is None
        kept = _Engine(realize(parse_expr(K5)))
        assert eng.candidates == kept.candidates
        for t in (F(0), *kept.candidates, F(1, 3), F(2)):
            assert eng.sides(t) == kept.sides(t), t


class TestSubadditivity:
    def test_equality_case(self):
        a, b = torus_complex(5, 6), torus_complex(2, 5)
        ab = tensor(a, b)
        t = F(4, 5)
        assert check_subadditivity(a, b, t, tensor_complex=ab)
        assert upsilon2(ab, t) == F(-12, 5)
        assert min(upsilon2(a, t), upsilon2(b, t)) == F(-12, 5)

    def test_unknot_trivial(self):
        a, b = torus_complex(3, 4), unknot_complex()
        assert check_subadditivity(a, b, F(2, 3), tensor_complex=tensor(a, b))

    def test_knot_minus_knot(self):
        a = torus_complex(5, 7)
        b = dual(a)
        ab = tensor(a, b)
        t = F(4, 5)
        assert check_subadditivity(a, b, t, tensor_complex=ab)
        assert upsilon2(ab, t) is POS_INF

    def test_battery(self):
        pairs = [(torus_complex(2, 3), torus_complex(2, 5)),
                 (torus_complex(3, 4), dual(torus_complex(2, 3)))]
        for a, b in pairs:
            ab = tensor(a, b)
            for t in candidate_parameters(ab):
                assert check_subadditivity(a, b, t, tensor_complex=ab)


class TestStabilization:
    def test_acyclic_pair_does_not_change_invariants(self):
        # adding an acyclic two-generator summand (joined by a U^1 arrow)
        # leaves every invariant unchanged
        st = build_staircase(2, 3)
        base = from_staircase(st)
        gens = list(base.generators) + [Generator("x", -1, 5, 5),
                                        Generator("y", 0, 3, 3)]
        diff = dict(base.differential)
        diff[(3, 4)] = {1}
        stabilized = BifilteredComplex(gens, diff)
        assert pl_equal(upsilon_pl(stabilized), upsilon_staircase(2, 3))
        ts = set(candidate_parameters(base)) | set(candidate_parameters(stabilized))
        for t in sorted(ts):
            assert upsilon2(stabilized, t) == upsilon2(base, t), t


class TestShiftInvariance:
    def test_upsilon2_invariant(self):
        c = torus_complex(3, 4)
        base = upsilon2(c, F(2, 3))
        for da in (-1, 0, 1):
            for db in (-1, 0, 1):
                assert upsilon2(shift_filtration(c, da, db), F(2, 3)) == base

    def test_gamma_shift_law(self):
        c = torus_complex(2, 5)
        for da, db in [(-1, 2), (0, -3), (2, 1)]:
            shifted = shift_filtration(c, da, db)
            for t in (F(1, 3), F(1), F(8, 5)):
                assert gamma_at(shifted, t) == \
                    gamma_at(c, t) + (1 - t / 2) * da + (t / 2) * db
