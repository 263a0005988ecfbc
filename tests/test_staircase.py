import tracemalloc
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from reference import evaluate, staircase_gamma2
from upsilonkit.cfk import from_staircase
from upsilonkit.plfun import NEG_INF, pl_add, pl_constant, pl_equal
from upsilonkit.staircase import (
    alexander_oracle,
    alexander_torus,
    _divide_one_minus,
    build_staircase,
    semigroup_runs,
    staircase_steps,
    upsilon_staircase,
)
from upsilonkit.upsilon import candidate_parameters, gamma2


def coprime_pairs(qmax, pmin=2):
    return [(p, q) for p in range(pmin, qmax) for q in range(p + 1, qmax + 1)
            if gcd(p, q) == 1]


def semigroup_by_enumeration(p, q, bound):
    return sorted({a * p + b * q
                   for a in range(bound // p + 1)
                   for b in range(bound // q + 1)
                   if a * p + b * q <= bound})


def elements_upto(starts, ends, bound):
    """The semigroup's elements up to bound, read off its runs and tail."""
    out = [n for s, e in zip(starts, ends) for n in range(s, e + 1)
           if n <= bound]
    out.extend(range(starts[-1], bound + 1))
    return out


def blacks(whites):
    """The black dots of a staircase: the Maslov-1 generators of its
    complex."""
    return tuple((g.alg, g.alex) for g in from_staircase(whites).generators
                 if g.maslov == 1)


class TestSemigroup:
    def test_t34(self):
        # runs {0}, {3, 4} and the tail from 6
        assert semigroup_runs(3, 4) == ([0, 3, 6], [0, 4])

    def test_t23(self):
        assert semigroup_runs(2, 3) == ([0, 2], [0])

    def test_t79_prefix(self):
        starts, ends = semigroup_runs(7, 9)
        assert elements_upto(starts, ends, 21) == [0, 7, 9, 14, 16, 18, 21]

    def test_unknot_conventions(self):
        assert semigroup_runs(1, 5) == semigroup_runs(1, 2)
        assert semigroup_runs(1, 5) == ([0], [])

    def test_against_enumeration(self):
        for p, q in coprime_pairs(12):
            starts, ends = semigroup_runs(p, q)
            bound = starts[-1] + 2 * p
            assert elements_upto(starts, ends, bound) == \
                semigroup_by_enumeration(p, q, bound)

    def test_run_gaps(self):
        for p, q in coprime_pairs(14):
            starts, ends = semigroup_runs(p, q)
            assert starts[0] == 0
            assert len(starts) == len(ends) + 1
            for s, e, s2 in zip(starts, ends, starts[1:]):
                assert s <= e <= s2 - 2
            assert starts[-1] == (p - 1) * (q - 1)

    @pytest.mark.parametrize("build", [semigroup_runs, build_staircase,
                                       alexander_torus, alexander_oracle])
    @pytest.mark.parametrize("p, q", [(1, 0), (0, 1), (1, -5), (-3, 1)])
    def test_non_positive_parameters_rejected(self, build, p, q):
        with pytest.raises(ValueError, match="positive"):
            build(p, q)

    def test_runs_memory_follows_generators(self):
        # 9999 runs below a conductor of 99,990,000: a byte per integer
        # below the conductor would peak near 96 MiB.
        tracemalloc.start()
        try:
            starts, ends = semigroup_runs(10000, 10001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ends) == 9999 and starts[-1] == 99990000
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("build", [semigroup_runs, build_staircase,
                                       alexander_torus, alexander_oracle])
    def test_bad_parameters(self, build):
        with pytest.raises(ValueError, match="coprime"):
            build(4, 6)
        with pytest.raises(ValueError, match="p < q"):
            build(4, 3)
        with pytest.raises(ValueError, match="positive"):
            build(0, 3)


class TestAlexander:
    def test_t34(self):
        assert alexander_torus(3, 4) == ((0, 1), (1, -1), (3, 1), (5, -1),
                                         (6, 1))

    def test_t23(self):
        assert alexander_torus(2, 3) == ((0, 1), (1, -1), (2, 1))
        assert alexander_oracle(2, 3) == ((0, 1), (1, -1), (2, 1))

    def test_t25_oracle(self):
        assert alexander_oracle(2, 5) == ((0, 1), (1, -1), (2, 1), (3, -1),
                                          (4, 1))

    def test_unknot(self):
        assert alexander_torus(1, 2) == ((0, 1),)
        assert alexander_oracle(1, 7) == ((0, 1),)

    def test_agreement_sweep(self):
        for p, q in coprime_pairs(60):
            assert alexander_torus(p, q) == alexander_oracle(p, q), (p, q)

    def test_coefficients_alternate(self):
        for p, q in coprime_pairs(14):
            terms = alexander_torus(p, q)
            assert terms[0] == (0, 1)
            assert terms[-1][0] == (p - 1) * (q - 1)
            for i, (_, c) in enumerate(terms):
                assert c == (1 if i % 2 == 0 else -1)

    def test_divexact_rejects_inexact(self):
        with pytest.raises(ArithmeticError):
            _divide_one_minus([1, 1], 2)
        with pytest.raises(ArithmeticError):
            _divide_one_minus([1, 0, 1], 2)
        assert _divide_one_minus([1, 0, 0, -1], 3) == [1]


class TestSteps:
    def test_t34(self):
        assert staircase_steps(3, 4) == [1, 2, 2, 1]

    def test_t23(self):
        assert staircase_steps(2, 3) == [1, 1]

    def test_t7_13_pattern(self):
        # family q = 2p-1: steps open [1, p-1, 1, p-2, 2, p-2, 2, p-3, 3, ...]
        assert staircase_steps(7, 13)[:11] == [1, 6, 1, 5, 2, 5, 2, 4, 3, 4, 3]

    def test_even_length_positive(self):
        for p, q in coprime_pairs(14):
            steps = staircase_steps(p, q)
            assert len(steps) % 2 == 0
            assert all(s > 0 for s in steps)

    def test_steps_from_runs(self):
        # [e_1-s_1+1, s_2-e_1-1, ..., e_n-s_n+1, s_{n+1}-e_n-1]
        for p, q in coprime_pairs(14):
            starts, ends = semigroup_runs(p, q)
            assert staircase_steps(p, q) == [
                step for s, e, s2 in zip(starts, ends, starts[1:])
                for step in (e - s + 1, s2 - e - 1)]

    def test_step_sums_equal_genus(self):
        for p, q in coprime_pairs(14):
            steps = staircase_steps(p, q)
            genus = (p - 1) * (q - 1) // 2
            assert sum(steps[0::2]) == genus
            assert sum(steps[1::2]) == genus


class TestStaircase:
    def test_t34_golden(self):
        whites = build_staircase(3, 4)
        assert whites == ((0, 3), (1, 1), (3, 0))
        assert blacks(whites) == ((1, 3), (3, 1))
        assert whites[0][1] == 3  # the genus

    def test_t23(self):
        whites = build_staircase(2, 3)
        assert whites == ((0, 1), (1, 0))
        assert blacks(whites) == ((1, 1),)
        assert whites[0][1] == 1  # the genus

    def test_t78_relative_prefix(self):
        whites = build_staircase(7, 8)
        relative = [(a, alex - 21) for a, alex in whites]  # genus 21
        assert len(whites) == 7
        assert relative[:3] == [(0, 0), (1, -6), (3, -11)]

    def test_unknot(self):
        whites = build_staircase(1, 9)
        assert whites == ((0, 0),)
        assert blacks(whites) == ()
        assert staircase_steps(1, 9) == []
        assert build_staircase(9, 1) == whites

    def test_walk_and_normalization(self):
        for p, q in coprime_pairs(14):
            whites = build_staircase(p, q)
            steps = staircase_steps(p, q)
            assert len(whites) == len(blacks(whites)) + 1
            assert min(a for a, _ in whites) == 0
            assert min(b for _, b in whites) == 0
            assert whites[0] == (0, (p - 1) * (q - 1) // 2)
            for i, (bx, by) in enumerate(blacks(whites)):
                wx, wy = whites[i]
                nx, ny = whites[i + 1]
                assert by == wy and bx == wx + steps[2 * i]
                assert nx == bx and ny == by - steps[2 * i + 1]

    def test_whites_count_matches_alexander(self):
        for p, q in coprime_pairs(14):
            positives = sum(1 for _, c in alexander_torus(p, q) if c > 0)
            assert len(build_staircase(p, q)) == positives
            assert len(build_staircase(p, q)) == \
                len(semigroup_runs(p, q)[1]) + 1


class TestUpsilonStaircase:
    def test_t34(self):
        f = upsilon_staircase(3, 4)
        assert f.breakpoints == ((F(0), F(0)), (F(2, 3), F(-2)),
                                 (F(4, 3), F(-2)), (F(2), F(0)))

    def test_t23(self):
        f = upsilon_staircase(2, 3)
        assert f.breakpoints == ((F(0), F(0)), (F(1), F(-1)), (F(2), F(0)))

    def test_unknot_zero(self):
        assert pl_equal(upsilon_staircase(1, 4), pl_constant(0))

    def test_endpoints_and_symmetry(self):
        for p, q in coprime_pairs(12):
            f = upsilon_staircase(p, q)
            assert evaluate(f, 0) == 0
            assert evaluate(f, 2) == 0
            for t in (F(1, 5), F(1, 2), F(1), F(3, 2)):
                assert evaluate(f, t) == evaluate(f, 2 - t)

    def test_value_at_1_is_minus_genus_like(self):
        # upsilon(1) of T(p,q) is -2*min over whites of (alg+alex)/2
        want = -min(a + b for a, b in build_staircase(5, 6))
        assert evaluate(upsilon_staircase(5, 6), 1) == want

    def test_recursion_small(self):
        for p, q in coprime_pairs(12):
            lhs = upsilon_staircase(p, q)
            a, b = sorted((p, q - p))
            rhs = pl_add(upsilon_staircase(a, b), upsilon_staircase(p, p + 1))
            assert pl_equal(lhs, rhs), (p, q)


@st.composite
def staircases(draw):
    """The whites of a staircase of 1 to 6 stairs, each going right and then
    down by 1 to 4, ending at alex 0."""
    steps = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                          min_size=1, max_size=6))
    alg, alex = 0, sum(down for _, down in steps)
    whites = [(alg, alex)]
    for right, down in steps:
        alg, alex = alg + right, alex - down
        whites.append((alg, alex))
    return tuple(whites)


class TestStaircaseGamma2:
    """The closed form of reference.staircase_gamma2, from the white dots
    alone, against the engine's gamma2 on the staircase complex."""

    @staticmethod
    def agree(whites, c, t, s):
        want = staircase_gamma2(whites, t, s)
        return gamma2(c, t, s) == (NEG_INF if want is None else want)

    def test_torus_staircases(self):
        # Every candidate t of every torus staircase with p < q <= 12, at
        # the diagonal and at five fixed s.
        cases, mismatches = 0, []
        for p, q in coprime_pairs(12):
            whites = build_staircase(p, q)
            c = from_staircase(whites)
            for t in candidate_parameters(c):
                for s in (t, F(0), F(1, 3), F(1), F(5, 3), F(2)):
                    cases += 1
                    if not self.agree(whites, c, t, s):
                        mismatches.append((p, q, t, s))
        assert mismatches == []
        assert cases == 5244

    @settings(max_examples=150, deadline=None)
    @given(staircases(), st.data())
    def test_random_staircases(self, whites, data):
        c = from_staircase(whites)
        for t in candidate_parameters(c):
            s = data.draw(st.fractions(0, 2, max_denominator=12), label="s")
            assert self.agree(whites, c, t, s), (t, s)
