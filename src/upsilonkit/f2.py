"""Dense linear algebra over GF(2) on bitset vectors.

Vectors are Python ints, bit i being coordinate i, so addition is XOR and
arbitrary dimensions cost nothing extra.  Everything the homology engine
needs (ranks, cycles of a column reduction, one solution of a linear system,
affine-subspace intersection) is Gaussian elimination with the highest set
bit as pivot, and `reduce_pair` is the only place that eliminates.
"""

from __future__ import annotations

import copy
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


class F2AffineSpace:
    """Affine subspace base + span(directions) of GF(2)^dim."""

    def __init__(self, base: int, directions: Iterable[int], dim: int):
        self.dim = dim
        self.base = base
        basis = span_basis(directions)
        # Reduced, so independent; kept as a plain list, the smallest form
        # for the many spaces the engine caches.
        self.directions = [basis[p][0] for p in sorted(basis)]

    def through(self, base: int) -> "F2AffineSpace":
        """The parallel space through base, sharing this space's direction
        list (the same object, so affine_intersects can tell)."""
        space = copy.copy(self)
        space.base = base
        return space

    def rank(self) -> int:
        return len(self.directions)

    def __repr__(self) -> str:
        return f"F2AffineSpace(dim={self.dim}, rank={self.rank()})"


def affine_intersects(u: F2AffineSpace, v: F2AffineSpace) -> bool:
    """Whether the two affine subspaces share a point.

    u.base + span(U) meets v.base + span(V) iff u.base + v.base lies in
    span(U union V), which is span(U) alone when both share one list.
    """
    if u.dim != v.dim:
        raise ValueError("affine spaces live in different ambient dimensions")
    dirs = u.directions
    basis = span_basis(dirs if dirs is v.directions else dirs + v.directions)
    return reduce_pair(u.base ^ v.base, 0, basis)[0] == 0
