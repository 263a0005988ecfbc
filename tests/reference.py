"""Reference constructions for the tests, written from the definitions and
sharing no code with upsilonkit: grading slices, boundary maps as bitset
columns, the Euler characteristic, the lower envelope of a family of
lines, the collinearity parameters of a level set and the cycle spaces of a
complex.

The brute-force oracles and the d^2 test use these, so they do not trust
the slices the engine builds; the envelope tests use the all-pairs
envelope, so they do not trust the hull sweep; the candidate and
cycle-space tests build one Fraction per pair of levels and one
elimination per parameter, so they do not trust the engine's dedupe and
caches.
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


def collinearity_parameters(levels):
    """All t in (0,2) where two distinct (alg, alex) levels agree under f_t,
    one Fraction per pair of levels."""
    pts = sorted(set(levels))
    out = set()
    for i, (a1, x1) in enumerate(pts):
        for a2, x2 in pts[i + 1:]:
            da, dx = a1 - a2, x1 - x2
            if da == dx:
                continue
            t = Fraction(2 * da, da - dx)
            if 0 < t < 2:
                out.add(t)
    return tuple(sorted(out))


def _reduce(v, tag, basis, insert=True):
    """Eliminate v against basis (pivot = highest set bit -> (row, tag)),
    adding up tags; a nonzero residue is inserted when insert is set."""
    while v:
        p = v.bit_length() - 1
        if p not in basis:
            if insert:
                basis[p] = (v, tag)
            break
        row, rtag = basis[p]
        v, tag = v ^ row, tag ^ rtag
    return v, tag


def cycle_spaces(c, ts):
    """(base, directions) of the essential grading-0 cycles at gamma(t), for
    each t off the candidate parameters, rebuilt from scratch at every t.

    It runs the engine's eliminations in the engine's order, so equal
    output means the same lists, not only the same spaces.  base is the
    first essential cycle of the column reduction of d0 in f_t order (ties
    by slice index); a cycle is essential when it is not a boundary.  The
    directions span the boundaries supported in the sublevel set at
    gamma(t), as a reduced basis in increasing pivot order.
    """
    d0, d1 = boundary(c, 0), boundary(c, 1)
    levels = [(alg, alex) for _, _, alg, alex in slice_levels(c, 0)]
    boundaries = {}
    for col in d1:
        _reduce(col, 0, boundaries)
    out = []
    for t in ts:
        f = [(t / 2) * alex + (1 - t / 2) * alg for alg, alex in levels]
        columns = {}
        for i in sorted(range(len(f)), key=f.__getitem__):
            v, base = _reduce(d0[i], 1 << i, columns)
            if v == 0 and _reduce(base, 0, boundaries, insert=False)[0]:
                break
        outside = ~sum(1 << j for j, fj in enumerate(f) if fj <= f[i])
        kernel, dirs = {}, []
        for col in d1:
            o, v = _reduce(col & outside, col, kernel)
            if o == 0 and v:
                dirs.append(v)
        span = {}
        for v in dirs:
            _reduce(v, 0, span)
        out.append((base, [span[p][0] for p in sorted(span)]))
    return out
