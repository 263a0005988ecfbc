"""Reference constructions for the tests, written from the definitions and
sharing no code with upsilonkit: the runs of a numerical semigroup by a
sieve, the value of a piecewise-linear function, the tensor product of
two complexes with a set per differential entry, a renumbering of the
generators, grading slices in the engine's numbering, boundary maps as
bitset columns, the Euler characteristic, the lower envelope of a
family of lines, the canonical form and the sum of piecewise-linear
functions on Fractions, the collinearity parameters of a level set, one gamma
sweep per chamber, the certified interval of one sweep, the cycle spaces
of a complex, the jump test and secondary invariant computed on them, and
the secondary invariant of a staircase in closed form.

The semigroup tests compare the closed-form runs with the sieve, so they do
not trust the lattice corner; the value tests interpolate breakpoints
here; the tensor tests build a fresh set per entry, so they do not trust
the exponent sets the product shares with its factors.  The brute-force oracles and the d^2 test use these, so they do not
trust the slices the engine builds; the envelope tests use the all-pairs
envelope, so they do not trust the hull sweep; the sum and sample tests
merge, interpolate and test collinearity on Fractions, so they do not
trust the integer scaling of plfun; the candidate and
cycle-space tests build one Fraction per pair of levels and one
elimination per parameter, so they do not trust the engine's dedupe and
caches; the interval tests sweep every chamber midpoint and test
essential cycles against the boundaries, so they do not trust the
engine's certified intervals or its essential functional, and the
interval-table test sweeps and bounds element by element, so it does not
trust the engine's grouping of the slice by level; the jump and
secondary-invariant tests intersect affine cycle spaces, so they do not
trust the engine's mask sweeps; the staircase formula reads the white
dots alone, so it trusts no slice, sweep or elimination.
"""

from fractions import Fraction


def semigroup_runs(p, q):
    """(runs, tail start) of <p, q>, coprime p < q, by marking the integers
    below the conductor (p-1)(q-1): runs are inclusive (start, end) pairs."""
    conductor = (p - 1) * (q - 1)
    member = bytearray(conductor)
    for bq in range(0, conductor, q):
        member[bq::p] = b"\x01" * len(range(bq, conductor, p))
    runs = []
    start = member.find(1)
    while start != -1:
        end = member.find(0, start)
        runs.append((start, end - 1))
        start = member.find(1, end)
    return tuple(runs), conductor


def evaluate(f, t):
    """Value of the piecewise-linear function f at t in [0,2], by linear
    interpolation between the breakpoints around t."""
    t = Fraction(t)
    pts = f.breakpoints
    if not pts[0][0] <= t <= pts[-1][0]:
        raise ValueError(f"t={t} outside [0,2]")
    for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
        if t <= t1:
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def tensor(a, b):
    """(generators, differential) of the tensor product of complexes a and
    b: generator x@y is (name, maslov, alg, alex) with the names joined by
    '|' and the rest added, at index i * len(b) + k for x, y at i, k; the
    differential dx@y + x@dy over F2, as one new set of exponents per
    nonzero entry."""
    nb = len(b.generators)
    gens = [(f"{x.name}|{y.name}", x.maslov + y.maslov, x.alg + y.alg,
             x.alex + y.alex) for x in a.generators for y in b.generators]
    diff = {}
    for (i, j), exps in a.differential.items():
        for k in range(nb):
            key = (i * nb + k, j * nb + k)
            diff[key] = diff.get(key, set()) ^ set(exps)
    for (i, j), exps in b.differential.items():
        for k in range(len(a.generators)):
            key = (k * nb + i, k * nb + j)
            diff[key] = diff.get(key, set()) ^ set(exps)
    return gens, {e: exps for e, exps in diff.items() if exps}


def relabel(c, order):
    """(generators, differential) of c renumbered: the generator at index
    order[k] moves to index k, and every entry follows its generators."""
    new = {i: k for k, i in enumerate(order)}
    return ([c.generators[i] for i in order],
            {(new[i], new[j]): exps for (i, j), exps in c.differential.items()})


def slice_levels(c, m):
    """(generator index, U-exponent, alg, alex) of each element of the
    grading-m slice: U^{(maslov - m)/2} x for every generator x whose grading
    has the parity of m, in the numbering of the engine's slices, by
    descending (alg + alex, alg), ties in generator order."""
    out = []
    for i, g in enumerate(c.generators):
        if (g.maslov - m) % 2 == 0:
            n = (g.maslov - m) // 2
            out.append((i, n, g.alg - n, g.alex - n))
    return sorted(out, key=lambda e: (e[2] + e[3], e[2]), reverse=True)


def element_levels(sl, m):
    """The level of each element of the grading-m slice (m = 0 or 1) of the
    validated Slices sl, in slice order: each distinct level repeated over
    its index range."""
    levels, starts = (sl.levels0, sl.starts0) if m == 0 else (sl.levels1,
                                                              sl.starts1)
    return [level for level, b, e in zip(levels, starts, starts[1:])
            for _ in range(b, e)]


def boundary(c, m):
    """The boundary map from the grading-m slice to the grading-(m-1) slice,
    one bitset column per source element over the target slice."""
    target = {i: (k, n) for k, (i, n, _, _) in
              enumerate(slice_levels(c, m - 1))}
    outgoing = {}
    for (src, tgt), exps in c.differential.items():
        outgoing.setdefault(src, []).append((tgt, exps))
    cols = []
    for i, n, _, _ in slice_levels(c, m):
        col = 0
        for tgt, exps in outgoing.get(i, ()):
            if tgt not in target:
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
    return canonicalize([(t, min(m * t + b for m, b in lns))
                         for t in sorted(grid)])


def canonicalize(points):
    """The points (t, v), sorted by t, with every interior point that is
    collinear with its kept neighbours dropped, tested on Fractions."""
    kept = []
    for p in points:
        while len(kept) >= 2:
            (t0, v0), (t1, v1) = kept[-2], kept[-1]
            if (v1 - v0) * (p[0] - t1) != (p[1] - v1) * (t1 - t0):
                break
            kept.pop()
        kept.append(p)
    return tuple(kept)


def pl_add(f, g):
    """Breakpoints of f + g: one merge over both breakpoint lists, each
    point of one function summed with the other's value there, interpolated
    on Fractions inside the other's segment, then canonicalized."""
    fp, gp = f.breakpoints, g.breakpoints

    def at(pts, k, t):
        (t0, v0), (t1, v1) = pts[k - 1], pts[k]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    points = []
    i = j = 0
    while i < len(fp) and j < len(gp):
        (tf, vf), (tg, vg) = fp[i], gp[j]
        if tf == tg:
            points.append((tf, vf + vg))
            i += 1
            j += 1
        elif tf < tg:
            points.append((tf, vf + at(gp, j, tf)))
            i += 1
        else:
            points.append((tg, at(fp, i, tg) + vg))
            j += 1
    return canonicalize(points)


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


def _data(c):
    """d0, d1, the grading-0 and grading-1 levels and a basis of the
    grading-0 boundaries."""
    d1 = boundary(c, 1)
    boundaries = {}
    for col in d1:
        _reduce(col, 0, boundaries)
    return (boundary(c, 0), d1,
            [(alg, alex) for _, _, alg, alex in slice_levels(c, 0)],
            [(alg, alex) for _, _, alg, alex in slice_levels(c, 1)],
            boundaries)


def _f(t, level):
    alg, alex = level
    return alg + t * (alex - alg) / 2


def _scaled(t, levels):
    """2v * f_t on each level, t = u/v: integers in the order of f_t."""
    u, v = t.numerator, t.denominator
    return [(2 * v - u) * alg + u * alex for alg, alex in levels]


def _gamma(data, t):
    """(gamma(t), the first essential cycle of the column reduction of d0
    in f_t order, ties by slice index, and the index of the element that
    closed it); a cycle is essential when it is not a boundary."""
    d0, _, levels, _, boundaries = data
    columns = {}
    for i in sorted(range(len(levels)), key=_scaled(t, levels).__getitem__):
        v, base = _reduce(d0[i], 1 << i, columns)
        if v == 0 and _reduce(base, 0, boundaries, insert=False)[0]:
            return _f(t, levels[i]), base, i
    raise AssertionError("no essential cycle")


def chamber_sweeps(c):
    """(level, mask) at the midpoint t of every chamber, one sweep per
    chamber: the level of the element that closes the first essential cycle
    of the column reduction of d0 in f_t order, and the slice elements whose
    f_t is at most gamma(t)."""
    data = _data(c)
    levels = data[2]
    ends = [Fraction(0), *collinearity_parameters(levels), Fraction(2)]
    out = []
    for a, b in zip(ends, ends[1:]):
        t = (a + b) / 2
        i = _gamma(data, t)[2]
        key = _scaled(t, levels)
        out.append((levels[i], sum(1 << j for j, k in enumerate(key)
                                   if k <= key[i])))
    return out


def _parity(x):
    return bin(x).count("1") % 2


def _back_substitute(rows):
    """The functional taking each row (pivot -> (row, tag)) to its tag and
    every non-pivot coordinate to 0, set in increasing pivot order."""
    lam = 0
    for p in sorted(rows):
        row, tag = rows[p]
        if (tag + _parity(row & lam)) % 2:
            lam |= 1 << p
    return lam


def essential_functional(c):
    """phi as validation builds it: a functional on the grading-0 slice
    taking the rows of a reduced basis of the boundaries to 0 and the first
    cycle of the column reduction of d0 in slice order that is no boundary
    to 1, by back-substitution."""
    span, columns = {}, {}
    for col in boundary(c, 1):
        _reduce(col, 0, span)
    for j, col in enumerate(boundary(c, 0)):
        v, combo = _reduce(col, 1 << j, columns)
        if v == 0 and _reduce(combo, 1, span)[0]:
            break
    return _back_substitute(span)


def certified_interval(c, t, side):
    """(L, z, lo, hi) of one sweep just above (side +1) or just below
    (side -1) t, element by element.

    The slice elements are reduced in the order of (f_t, side * slope),
    ties by slice index; the first cycle z on which phi is odd closes at
    the contact level L.  lam takes the rows whose combination lies below
    L to phi of that combination, and Q holds the elements j with
    phi_j != lam(d0 e_j).  [lo, hi] is the widest interval in [0,2] around
    t on which no element of z lies above L and none of Q below it under
    f_t'.
    """
    d0 = boundary(c, 0)
    levels = [(alg, alex) for _, _, alg, alex in slice_levels(c, 0)]
    phi = essential_functional(c)
    key = [(f, side * (alex - alg))
           for f, (alg, alex) in zip(_scaled(t, levels), levels)]
    columns = {}
    for i in sorted(range(len(levels)), key=key.__getitem__):
        v, z = _reduce(d0[i], 1 << i, columns)
        if v == 0 and _parity(z & phi):
            break
    else:
        raise AssertionError("no essential cycle")
    below = sum(1 << j for j, k in enumerate(key) if k < key[i])
    lam = _back_substitute({p: (row, _parity(combo & phi))
                            for p, (row, combo) in columns.items()
                            if not combo & ~below})
    q = [j for j, col in enumerate(d0) if _parity(col & lam) != phi >> j & 1]
    (a, x), lo, hi = levels[i], Fraction(0), Fraction(2)
    for sign, part in ((1, [j for j in range(len(levels)) if z >> j & 1]),
                       (-1, q)):
        for b, y in (levels[j] for j in part):
            # sign * (f_t'(b, y) - f_t'(a, x)) = c0 + c1 * t' / 2 <= 0
            c0, c1 = sign * (b - a), sign * (y - b - x + a)
            if c1 > 0:
                hi = min(hi, Fraction(-2 * c0, c1))
            elif c1 < 0:
                lo = max(lo, Fraction(-2 * c0, c1))
            elif c0 > 0:
                raise AssertionError("an element lies above L at every t")
    return levels[i], z, lo, hi


def is_essential(c, z):
    """Whether the grading-0 chain z is a cycle and not a boundary."""
    boundaries = {}
    for col in boundary(c, 1):
        _reduce(col, 0, boundaries)
    return (apply(boundary(c, 0), z) == 0
            and _reduce(z, 0, boundaries, insert=False)[0] != 0)


def cycle_spaces(c, ts):
    """(base, directions) of the essential grading-0 cycles at gamma(t), for
    each t off the candidate parameters, rebuilt from scratch at every t.

    It runs the engine's eliminations in the engine's order, so equal
    output means the same lists, not only the same spaces.  base is the
    first essential cycle of the column reduction of d0 in f_t order (ties
    by slice index).  The directions span the boundaries supported in the
    sublevel set at gamma(t), as a reduced basis in increasing pivot order.
    """
    data = _data(c)
    _, d1, levels, _, _ = data
    out = []
    for t in ts:
        g, base, _ = _gamma(data, t)
        outside = ~sum(1 << j for j, lev in enumerate(levels)
                       if _f(t, lev) <= g)
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


def secondary(c, ts, ss):
    """The per-chamber jump test and secondary invariant at each candidate
    t in ts, on the affine cycle spaces beside t: a list of
    (is_jump, [gamma2(t, s) for s in ss]), where an s of None stands for t
    and a value of None for -infinity.

    t is a jump when the cycle spaces of the chambers either side of it are
    disjoint affine spaces.  gamma2 solves d1 w + v+ + v- = z+ + z- for a
    grading-1 chain w, with v+ and v- directions of the two spaces: first
    with w inside C^t_{gamma(t)}, then admitting the other grading-1
    elements in increasing f_s order, a whole level at a time.
    """
    data = _data(c)
    _, d1, levels0, levels1, _ = data
    ends = [Fraction(0), *collinearity_parameters(levels0), Fraction(2)]
    sides = {}
    for t in ts:
        k = ends.index(t)
        sides[t] = ((ends[k - 1] + t) / 2, (t + ends[k + 1]) / 2)
    mids = sorted({x for pair in sides.values() for x in pair})
    space = dict(zip(mids, cycle_spaces(c, mids)))
    out = []
    for t in ts:
        (zm, dm), (zp, dp) = (space[x] for x in sides[t])
        meet = {}
        for v in dm + dp:
            _reduce(v, 0, meet)
        target = zm ^ zp
        jump = _reduce(target, 0, meet, insert=False)[0] != 0
        g = _gamma(data, t)[0]
        inside, later = dict(meet), []
        for col, lev in zip(d1, levels1):
            if _f(t, lev) <= g:
                _reduce(col, 0, inside)
            else:
                later.append((lev, col))
        values = []
        for s in ss:
            s = t if s is None else s
            reducer = dict(inside)
            residue = _reduce(target, 0, reducer, insert=False)[0]
            value = None
            scan = sorted((_f(s, lev), col) for lev, col in later) \
                if residue else []
            k = 0
            while residue and k < len(scan):
                value = scan[k][0]
                while k < len(scan) and scan[k][0] == value:
                    _reduce(scan[k][1], 0, reducer)
                    k += 1
                residue = _reduce(residue, 0, reducer, insert=False)[0]
            if residue:
                raise AssertionError("secondary scan exhausted")
            values.append(value)
        out.append((jump, values))
    return out


def staircase_gamma2(whites, t, s):
    """gamma2(t, s) of the staircase complex of whites, its (alg, alex) white
    dots in walk order, in closed form; None stands for -infinity (t is no
    jump).

    Slice 0 is the whites and d0 = 0, so every white is an essential cycle
    and gamma(t) is the least f_t over them.  Of the whites on that support
    line, the one with the largest slope alex - alg is the minimizer just
    below t, and the one with the smallest slope the minimizer just above.
    When they coincide, that white lies in both sublevel masks.  Otherwise
    the only grading-1 chain whose boundary is their sum is the sum of the
    blacks between them, the black between whites (a0, x0) and (a1, x1)
    sitting at (a1, x0), so gamma2 is the largest f_s over those blacks.
    """
    t, s = Fraction(t), Fraction(s)
    gamma = min(_f(t, w) for w in whites)
    line = [i for i, w in enumerate(whites) if _f(t, w) == gamma]
    slope = [alex - alg for alg, alex in whites]
    below = max(line, key=slope.__getitem__)
    above = min(line, key=slope.__getitem__)
    if below == above:
        return None
    lo, hi = sorted((below, above))
    return max(_f(s, (whites[i + 1][0], whites[i][1])) for i in range(lo, hi))
