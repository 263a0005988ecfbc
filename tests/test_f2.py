import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from upsilonkit.f2 import (
    F2AffineSpace,
    affine_intersects,
    parity,
    reduce_pair,
    reduce_vector,
    solve,
    span_basis,
)


def _random_rows(rng, nrows, ncols):
    return [rng.getrandbits(ncols) for _ in range(nrows)]


def _rank(rows):
    return len(span_basis(rows))


def _transpose(rows, ncols):
    return [sum(((r >> j) & 1) << i for i, r in enumerate(rows))
            for j in range(ncols)]


def _matvec(rows, x):
    return sum(parity(r & x) << i for i, r in enumerate(rows))


def _rowspan_size(rows) -> int:
    """Rank oracle: enumerate the whole row span (fine up to 2^12)."""
    span = {0}
    for r in rows:
        span |= {v ^ r for v in span}
    return len(span)


class TestReducePair:
    def test_residues_are_tagged_combinations(self):
        # The contract gamma, the essential functional and cycle_space rely
        # on: each residue is the XOR of the inputs its tag selects, and
        # exactly input count - rank inputs reduce to zero.
        rng = random.Random(19)
        for _ in range(60):
            n, dim = rng.randint(1, 12), rng.randint(1, 8)
            vecs = _random_rows(rng, n, dim)
            basis = {}
            zeros = 0
            for i, v in enumerate(vecs):
                residue, tag = reduce_pair(v, 1 << i, basis)
                assert tag >> i == 1    # input i itself, plus earlier ones
                selected = 0
                for j in range(i + 1):
                    if tag >> j & 1:
                        selected ^= vecs[j]
                assert residue == selected
                zeros += residue == 0
            assert zeros == n - (_rowspan_size(vecs).bit_length() - 1)

    def test_reduce_vector_leaves_basis(self):
        basis = span_basis([0b110, 0b011])
        before = dict(basis)
        assert reduce_vector(0b101, basis) == 0
        assert reduce_vector(0b001, basis) != 0
        assert basis == before


class TestRank:
    def test_identity(self):
        assert _rank([0b001, 0b010, 0b100]) == 3

    def test_zero(self):
        assert _rank([0] * 4) == 0

    def test_repeated_row(self):
        assert _rank([0b11, 0b11]) == 1

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(23)
        for _ in range(40):
            ncols = rng.randint(1, 9)
            rows = _random_rows(rng, rng.randint(1, 9), ncols)
            assert _rank(rows) == _rank(_transpose(rows, ncols))

    def test_rank_against_rowspan_enumeration(self):
        rng = random.Random(29)
        for _ in range(40):
            rows = _random_rows(rng, rng.randint(1, 10), rng.randint(1, 8))
            assert 2 ** _rank(rows) == _rowspan_size(rows)


class TestSolve:
    def test_identity(self):
        assert solve([0b001, 0b010, 0b100], 0b101) == 0b101

    def test_zero_inconsistent(self):
        assert solve([0, 0], 0b01) is None

    def test_underdetermined_any_solution(self):
        x = solve([0b11], 0b1)
        assert x in (0b01, 0b10)

    def test_solution_is_exact(self):
        rng = random.Random(31)
        for _ in range(50):
            nrows, ncols = rng.randint(1, 10), rng.randint(1, 10)
            a = _random_rows(rng, nrows, ncols)
            x0 = rng.getrandbits(ncols)
            b = _matvec(a, x0)
            x = solve(a, b)
            assert x is not None
            assert _matvec(a, x) == b

    def test_inconsistent_detected(self):
        rng = random.Random(37)
        found_none = 0
        for _ in range(50):
            nrows, ncols = rng.randint(2, 8), rng.randint(1, 6)
            a = _random_rows(rng, nrows, ncols)
            b = rng.getrandbits(nrows)
            x = solve(a, b)
            if x is None:
                found_none += 1
                # b must genuinely lie outside the column space
                cols = span_basis(_transpose(a, ncols))
                assert reduce_vector(b, cols) != 0
            else:
                assert _matvec(a, x) == b
        assert found_none > 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve([0b001, 0b010, 0b100], 0b1000)


class TestMatrixOps:
    def test_transpose_involution(self):
        # _transpose is the reference the rank and solve tests lean on.
        rng = random.Random(41)
        for _ in range(20):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
            rows = _random_rows(rng, nrows, ncols)
            assert _transpose(_transpose(rows, ncols), nrows) == rows

    def test_parity(self):
        assert parity(0b1011) == 1
        assert parity(0b1001) == 0


class TestAffine:
    def test_equal_spaces_intersect(self):
        u = F2AffineSpace(0b101, [0b110], 3)
        assert affine_intersects(u, u)

    def test_parallel_distinct_lines(self):
        # base e1 vs e2, both with direction e3: never meet
        u = F2AffineSpace(0b001, [0b100], 3)
        v = F2AffineSpace(0b010, [0b100], 3)
        assert not affine_intersects(u, v)

    def test_symmetric(self):
        rng = random.Random(47)
        for _ in range(50):
            dim = rng.randint(1, 8)
            u = F2AffineSpace(rng.getrandbits(dim),
                              [rng.getrandbits(dim) for _ in range(rng.randint(0, 3))],
                              dim)
            v = F2AffineSpace(rng.getrandbits(dim),
                              [rng.getrandbits(dim) for _ in range(rng.randint(0, 3))],
                              dim)
            assert affine_intersects(u, v) == affine_intersects(v, u)

    def test_against_enumeration(self):
        rng = random.Random(53)
        for _ in range(40):
            dim = rng.randint(1, 6)
            def make():
                return F2AffineSpace(
                    rng.getrandbits(dim),
                    [rng.getrandbits(dim) for _ in range(rng.randint(0, 2))],
                    dim)
            u, v = make(), make()

            def points(s):
                dirs = s.directions
                pts = set()
                for coeffs in itertools.product((0, 1), repeat=len(dirs)):
                    x = s.base
                    for c, d in zip(coeffs, dirs):
                        if c:
                            x ^= d
                    pts.add(x)
                return pts

            assert affine_intersects(u, v) == bool(points(u) & points(v))

    def test_contains(self):
        u = F2AffineSpace(0b001, [0b110], 3)

        def point(x):
            return F2AffineSpace(x, [], 3)

        assert affine_intersects(u, point(0b001))
        assert affine_intersects(u, point(0b111))
        assert not affine_intersects(u, point(0b000))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda dim: st.tuples(
        st.just(dim), st.integers(0, 2 ** dim - 1),
        st.integers(0, 2 ** dim - 1),
        st.lists(st.integers(0, 2 ** dim - 1), max_size=6))))
    def test_shared_direction_list(self, case):
        # Spaces through one linear space share its list, and the jump test
        # then spans it once; the answer must be the one for two lists.
        dim, a, b, vectors = case
        linear = F2AffineSpace(0, vectors, dim)
        u, v = linear.through(a), linear.through(b)
        assert u.directions is v.directions is linear.directions
        assert (u.base, v.base, u.dim) == (a, b, dim)
        copied = F2AffineSpace(b, list(linear.directions), dim)
        assert copied.directions is not u.directions
        expected = reduce_vector(a ^ b, span_basis(vectors)) == 0
        assert affine_intersects(u, v) == expected
        assert affine_intersects(u, copied) == expected
        assert affine_intersects(copied, u) == expected

    def test_directions_are_reduced(self):
        u = F2AffineSpace(0, [0b11, 0b11, 0b01], 2)
        assert u.rank() == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            affine_intersects(F2AffineSpace(0, [], 2), F2AffineSpace(0, [], 3))
