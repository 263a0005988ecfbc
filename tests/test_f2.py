import random

import pytest

from upsilonkit.f2 import parity, reduce_pair, reduce_vector, solve, span_basis


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
        # The contract gamma, the essential functional, the mask sweeps and
        # cycle_space rely on: each residue is the XOR of the inputs its tag
        # selects, and exactly input count - rank inputs reduce to zero.
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
