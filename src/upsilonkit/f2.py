"""Dense linear algebra over GF(2) on bitset vectors.

Vectors are Python ints, bit i being coordinate i, so addition is XOR and
arbitrary dimensions cost nothing extra.  Everything the homology engine
needs (ranks, the cycles of a column reduction over a sublevel mask and the
essential class) is Gaussian elimination with the highest set bit as pivot,
and `reduce_pair` is the only place that eliminates; `functional`
back-substitutes a functional with given values on a reduced basis, and
`image` applies a matrix given by its columns.
"""

from __future__ import annotations

from typing import Iterable, Sequence

# Pivot -> (row, tag): each row's pivot is its highest set bit, and the tag
# is whatever the caller carries along with the row (a combination of
# inputs, a functional's value on the row, or 0).
Basis = dict[int, tuple[int, int]]


def reduce_pair(v: int, tag: int, basis: Basis) -> tuple[int, int]:
    """Reduce v against basis, adding up the tags of the rows used.

    Returns the reduced (v, tag).  A nonzero result is independent of the
    rows and is inserted under its pivot; a zero v means the input was a
    combination of the rows, and tag then holds that combination's tags.
    """
    while v:
        p = v.bit_length() - 1
        row = basis.get(p)
        if row is None:
            basis[p] = (v, tag)
            break
        v ^= row[0]
        tag ^= row[1]
    return v, tag


def image(cols: Sequence[int], v: int) -> int:
    """The sum of the columns at the set bits of v."""
    out = 0
    while v:
        k = v.bit_length() - 1
        out ^= cols[k]
        v ^= 1 << k
    return out


def functional(rows: Basis) -> int:
    """A functional taking every row to the parity of its tag, zero off the
    pivots: set by back-substitution in increasing pivot order, each row's
    other bits lying below its pivot."""
    lam = 0
    for p in sorted(rows):
        row, tag = rows[p]
        if (tag ^ (row & lam).bit_count()) & 1:
            lam |= 1 << p
    return lam


def span_basis(vectors: Iterable[int]) -> Basis:
    """A reduced basis of the span; its size is the rank."""
    basis: Basis = {}
    for v in vectors:
        reduce_pair(v, 0, basis)
    return basis
