"""Dense linear algebra over GF(2) on bitset vectors.

Vectors are Python ints, bit i being coordinate i, so addition is XOR and
arbitrary dimensions cost nothing extra.  Everything the homology engine
needs (ranks, the cycles of a column reduction over a sublevel mask and the
parity of a functional on them, one solution of a linear system) is Gaussian
elimination with the highest set bit as pivot, and `reduce_pair` is the only
place that eliminates.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

# Pivot -> (row, tag): each row's pivot is its highest set bit, and the tag
# is whatever the caller carries along with the row (a combination of
# inputs, a right-hand-side bit, or 0).
Basis = dict[int, tuple[int, int]]


def parity(v: int) -> int:
    return v.bit_count() & 1


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


def reduce_vector(v: int, basis: Basis) -> int:
    """The residue of v against basis; basis is left as it was."""
    v, _ = reduce_pair(v, 0, basis)
    if v:
        del basis[v.bit_length() - 1]
    return v


def span_basis(vectors: Iterable[int]) -> Basis:
    """A reduced basis of the span; its size is the rank."""
    basis: Basis = {}
    for v in vectors:
        reduce_pair(v, 0, basis)
    return basis


def solve(rows: Sequence[int], b: int) -> Optional[int]:
    """Some x with parity(rows[i] & x) equal to bit i of b for every i, or
    None if the system is inconsistent.

    Any solution is acceptable to the callers, which only ever ask about
    existence; free variables are set to zero.
    """
    if b >> len(rows):
        raise ValueError("rhs has bits outside the row count")
    basis: Basis = {}
    for i, row in enumerate(rows):
        v, s = reduce_pair(row, (b >> i) & 1, basis)
        if v == 0 and s:
            return None
    # Back-substitute in ascending pivot order: each stored row has its
    # pivot as leading bit, every other bit strictly below it.
    x = 0
    for p in sorted(basis):
        row, s = basis[p]
        if s ^ parity(row & x):
            x |= 1 << p
    return x
