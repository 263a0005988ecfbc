import random

import reference
from upsilonkit.f2 import functional, image, reduce_pair, span_basis


def _random_rows(rng, nrows, ncols):
    return [rng.getrandbits(ncols) for _ in range(nrows)]


def _rank(rows):
    return len(span_basis(rows))


def _transpose(rows, ncols):
    return [sum(((r >> j) & 1) << i for i, r in enumerate(rows))
            for j in range(ncols)]


def _rowspan_size(rows) -> int:
    """Rank oracle: enumerate the whole row span (fine up to 2^12)."""
    span = {0}
    for r in rows:
        span |= {v ^ r for v in span}
    return len(span)


class TestReducePair:
    def test_residues_are_tagged_combinations(self):
        # The contract the gamma sweeps, validation's essential functional,
        # the mask sweeps and cycle_space rely on: each residue is the XOR
        # of the inputs its tag selects, and exactly input count - rank
        # inputs reduce to zero.
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


class TestFunctional:
    def test_takes_each_row_to_its_tag(self):
        # Validation's phi and the sweeps' lam rest on this: lam(row) is the
        # parity of the row's tag, on every row of a reduced basis.
        rng = random.Random(23)
        for _ in range(60):
            basis = {}
            for v in _random_rows(rng, rng.randint(1, 12), rng.randint(1, 10)):
                reduce_pair(v, rng.randint(0, 5), basis)
            lam = functional(basis)
            assert all((row & lam).bit_count() % 2 == tag % 2
                       for row, tag in basis.values())
            assert lam & ~sum(1 << p for p in basis) == 0


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


class TestMatrixOps:
    def test_transpose_involution(self):
        # _transpose is the reference the rank tests lean on.
        rng = random.Random(41)
        for _ in range(20):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
            rows = _random_rows(rng, nrows, ncols)
            assert _transpose(_transpose(rows, ncols), nrows) == rows


def test_image_matches_reference():
    # The sum of the columns at the set bits of v, v = 0 and no columns
    # included.
    rng = random.Random(23)
    assert image([], 0) == 0
    for _ in range(200):
        ncols, dim = rng.randint(0, 12), rng.randint(0, 10)
        cols = _random_rows(rng, ncols, dim)
        for v in (0, rng.getrandbits(ncols), (1 << ncols) - 1):
            assert image(cols, v) == reference.apply(cols, v), (cols, v)
