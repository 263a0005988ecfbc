"""Reference constructions for the tests, written from the definitions and
sharing no code with upsilonkit: grading slices, boundary maps as bitset
columns, the Euler characteristic, and the lower envelope of a family of
lines.

The brute-force oracles and the d^2 test use these, so they do not trust
the slices the engine builds; the envelope tests use the all-pairs
envelope, so they do not trust the hull sweep.
"""

from fractions import Fraction


def slice_levels(c, m):
    """(generator index, U-exponent, alg, alex) of each element of the
    grading-m slice: U^{(maslov - m)/2} x for every generator x whose grading
    has the parity of m."""
    out = []
    for i, g in enumerate(c.generators):
        if (g.maslov - m) % 2 == 0:
            n = (g.maslov - m) // 2
            out.append((i, n, g.alg - n, g.alex - n))
    return out


def boundary(c, m):
    """The boundary map from the grading-m slice to the grading-(m-1) slice,
    one bitset column per source element over the target slice."""
    target = {i: (k, n) for k, (i, n, _, _) in
              enumerate(slice_levels(c, m - 1))}
    cols = []
    for i, n, _, _ in slice_levels(c, m):
        col = 0
        for (src, tgt), exps in c.differential.items():
            if src != i or tgt not in target:
                continue
            k, tn = target[tgt]
            for e in exps:
                if n + e == tn:
                    col ^= 1 << k
        cols.append(col)
    return cols


def apply(cols, x):
    """Image of the chain x (a bitset over the columns)."""
    out = 0
    for j, col in enumerate(cols):
        if x >> j & 1:
            out ^= col
    return out


def euler_characteristic(c):
    return sum(1 if g.maslov % 2 == 0 else -1 for g in c.generators)


def lower_envelope(lines):
    """Breakpoints of the minimum over [0,2] of the lines t -> m*t + b, from
    every pairwise intersection and the minimum over all lines at each,
    O(n^3).  Interior points collinear with their neighbours are dropped."""
    lns = [(Fraction(m), Fraction(b)) for m, b in lines]
    grid = {Fraction(0), Fraction(2)}
    for i, (m1, b1) in enumerate(lns):
        for m2, b2 in lns[i + 1:]:
            if m1 == m2:
                continue
            t = (b2 - b1) / (m1 - m2)
            if 0 < t < 2:
                grid.add(t)
    kept = []
    for p in [(t, min(m * t + b for m, b in lns)) for t in sorted(grid)]:
        while len(kept) >= 2:
            (t0, v0), (t1, v1) = kept[-2], kept[-1]
            if (v1 - v0) * (p[0] - t1) != (p[1] - v1) * (t1 - t0):
                break
            kept.pop()
        kept.append(p)
    return tuple(kept)
