"""Reference constructions for the tests, written from the definitions and
sharing no code with upsilonkit: grading slices, boundary maps as bitset
columns, and the Euler characteristic.

The brute-force oracles and the d^2 test use these, so they do not trust
the slices the engine builds.
"""


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
