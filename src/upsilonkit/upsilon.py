"""The invariant engine: gamma, upsilon, pivot points and the secondary
invariant, computed exactly on arbitrary valid bifiltered complexes.

For a parameter t in [0,2] the filtration functional

    f_t(alg, alex) = (t/2)*alex + (1 - t/2)*alg

cuts the grading-0 slice of the complex into sublevel subcomplexes, and
gamma(t) is the least level s at which the sublevel set contains a cycle
that survives to the generator of the homology of the full complex; upsilon
is -2*gamma.  Two distinct grading-0 bifiltration levels take the same f_t
value only at finitely many parameters, the collinearity candidates.  Just
above (below) t, f orders the levels by f_t with ties broken by (minus)
the slope alex - alg: the symbolic perturbation of Edelsbrunner and Muecke,
"Simulation of Simplicity", ACM Trans. Graphics 9(1), 1990.  One sweep in
that order gives the contact level L, a witness cycle z and a certificate
that gamma = f(L) on a whole interval: a functional lam with phi = lam o d0
below L, where phi is the essential functional.  Every essential cycle
meets the elements Q on which phi and lam o d0 differ, so f(L) bounds
gamma from below while no element of Q falls below L, and from above while
no element of z rises above it.  A walk 0+, hi+, ... makes one sweep per
linear piece of gamma, and a query at one t sweeps at t- and t+ at most.
The orders, masks and bounds are constant on a level, and each level is
one index range of its slice: a sweep, and the gamma2 scan over grading 1,
sort the distinct levels, and a certificate makes one bound per level that
meets z or Q.

The cycles just below or above t are read off the mask M there, the slice
elements at or below L in that order: they are the essential cycles
supported in M, since every grading-0 cycle is either essential or a
boundary.  t is a jump when no essential cycle lies in the masks M- and
M+ just below and above it at once, so only an interval end can be one.
Every value at t depends only on the two certified intervals beside t,
read once by _Engine.sides: gamma(t) and the pivots come from their
contact levels, and t is no jump when one interval covers both sides.
Else one column elimination over their masks, the meet, hands its rows
and gamma(t) on to the secondary invariant.  The elements strictly below
the support line lie in both masks, and when sides(t) sweeps at t+ the
meet starts from that sweep's rows over them, so it eliminates only the
elements of M+ on the line.  The secondary invariant measures how far the
support line must retreat, along a second direction s, before the cycles
from just below t and just above t become homologous:

    gamma2_{t}(s) = min { r : some z+ and z- represent the same class in
                          H_0( C^t_{gamma(t)} + C^s_r ) }

with z+ and z- essential cycles in M+ and M-.  The scan over r is monotone
(growing r only adds grading-1 elements), so the minimum is found by one
incremental Gaussian elimination over the grading-1 thresholds.  A scan
of the candidates follows the walk and runs the meet at its interval ends
only.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import compress, count, repeat
from operator import itemgetter, sub
from typing import NamedTuple, Optional, Sequence

from .cfk import BifilteredComplex, Level, validated_slices
from .f2 import Basis, functional, image, reduce_pair
from .plfun import (NEG_INF, POS_INF, ExtRational, PLFunction, is_finite,
                    pl_from_samples, _frac)


class InvalidComplexError(ValueError):
    """Raised when an invariant is requested of a structurally bad complex."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid complex: " + "; ".join(violations))
        self.violations = violations


class PivotPair(NamedTuple):
    """Unique on-line bifiltration levels just below / above a parameter t."""
    negative: tuple[int, int]
    positive: tuple[int, int]
    delta: Fraction


class JumpReport(NamedTuple):
    t: Fraction
    is_jump: bool
    upsilon2: ExtRational


# A certified interval: (contact level, witness cycle, lo, hi), lo and hi
# Fractions built once per sweep from the integer bounds of _certify.
Interval = tuple[Level, int, Fraction, Fraction]
_LO, _HI = itemgetter(2), itemgetter(3)

# Binary digits '0' and '1' as the bytes 0 and 1, false and true to compress.
_BITS = bytes.maketrans(b"01", b"\0\1")


def _keys(levels: Sequence[Level], t: Fraction, side: int = 0,
          w: int = 1) -> list[int]:
    """Integer keys that order the (alg, alex) levels as f_t does (side 0),
    as f does just above t (side +1) or just below t (side -1).

    For t = u/v the side-0 key is 2v*f_t(a, A) = u*A + (2v-u)*a.  Otherwise
    it is scaled by the slope weight w, at least 2*max|A - a| + 1 over the
    levels, and side*(A - a) is added: (u*w + side)*A + ((2v-u)*w - side)*a.
    That shifts no key past another of different f_t: the keys order by
    f_t, then by side times the slope, as f_{t+e} = f_t + e*(A - a)/2 does
    for every small e of the sign of side.  Equal keys mean equal f_t and
    equal slope A - a, hence equal a = f_t - t*(A - a)/2 and equal A: just
    below or above t the support line meets exactly one level.
    """
    u, v = t.numerator, t.denominator
    p, q = u * w + side, (2 * v - u) * w - side
    return [p * A + q * a for a, A in levels]


def _bitset_pays(span: int, n: int) -> bool:
    """Whether n keys spanning span bits fit a bitset of at most 2 64-bit
    words per key and of no more bits than their n^2 pairs."""
    return span <= n * min(128, n)


def _collinearity_parameters(levels: list[Level]) -> tuple[Fraction, ...]:
    """All t in (0,2) where two distinct (alg, alex) levels agree under f_t.

    f_t(P) = f_t(Q) is linear in t, so each unordered pair of distinct
    levels contributes at most one parameter: for P left of and above Q,
    with A = Q.alg - P.alg > 0 and X = P.alex - Q.alex > 0, it is
    t = 2A / (A + X); other pairs agree at no t in (0,2).  t depends only
    on A/X and increases with it, so one Fraction is built per distinct
    parameter.

    Each level is packed into the integer key a*S + x, with R the range of
    the alex values and S = 2R + 1, so the differences of all pairs are
    taken in C, and each distinct one is decoded once.  The keys sort as
    the levels do, since for a < a' the gap a'S + x' - aS - x is at least
    S - R > 0.  For P before Q the difference is d = AS - X with A >= 0
    and |X| <= R, so d + R = AS + (R - X) with 0 <= R - X <= 2R < S:
    divmod(d + R, S) is (A, R - X), and distinct (A, X) give distinct d.

    When _bitset_pays, the bitset of the keys less the least, shifted down
    by each key and ORed (n shifts in C), has the differences d >= 0 as
    its set bits, each once, and a mask keeps those with A > 0 and X > 0:
    the d > 0 with d mod S in (R, 2R].  Else each pair is subtracted into
    a set, since a wider bitset costs more time than the pairs and more
    memory (a 7 MiB peak on the 50 levels of T(50,51)).  On 2-CPU x86-64
    with Python 3.11, K_7's 319 levels span 73 words, 1.1 ms against 4 ms
    pairwise, and K_11's 1431 span 451, 9 against 60 ms; the 64 torus
    level sets with q <= 16 (2 to 49 levels) span more than n^2 bits but
    for T(2,3) and T(2,5), and there the pairs win or tie, by up to 0.6 ms.

    One pair is kept per integer key A * M // X, M = R^2, which is equal
    for equal A/X and increases with it: if A/X < A'/X' then the integer
    A'X - AX' is at least 1, and X X' <= M, so A'/X' - A/X >= 1/(X X')
    >= 1/M.  Hence A'M/X' >= AM/X + 1, and the floor of the left side
    exceeds the floor of AM/X.
    """
    pts = set(levels)
    alex = [x for _, x in pts] or [0]
    r = max(alex) - min(alex)
    s = 2 * r + 1
    keys = sorted(a * s + x for a, x in pts)
    if keys and _bitset_pays(keys[-1] - keys[0], len(keys)):
        k0 = keys[0]
        bits = sum(1 << (k - k0) for k in keys)
        seen = 0
        for k in keys:
            seen |= bits >> (k - k0)
        mask, w = ((1 << r) - 1) << (r + 1), s
        while w < seen.bit_length():
            mask |= mask << w
            w *= 2
        digits = bin(seen & mask)[:1:-1].encode().translate(_BITS)
        diffs = compress(count(), digits)
    else:
        diffs = set()
        for i, k in enumerate(keys):
            diffs.update(map(sub, keys[i + 1:], repeat(k)))
    m, pairs = r * r, {}
    for d in diffs:
        A, q = divmod(d + r, s)
        X = r - q
        if A > 0 and X > 0:
            pairs[A * m // X] = A, X
    return tuple(Fraction(2 * A, A + X)
                 for A, X in map(pairs.__getitem__, sorted(pairs)))


def _ranges(basis: Sequence[Level]) -> tuple[list[Level], list[int]]:
    """The distinct levels of a slice numbered by level, in slice order, and
    the start of each one's index range, then the slice's length."""
    s = [i for i, lv in enumerate(basis) if not i or lv != basis[i - 1]]
    return [basis[i] for i in s], s + [len(basis)]


class _Engine:
    """Per-complex slice data and the table of certified gamma intervals.

    Holds the grading-0/1 slice data as bitset columns and the essential
    functional phi from validation, which vanishes on boundaries but not on
    the essential class, so "is this cycle homologically essential" is a
    single popcount.  Each level of a slice is one index range: the
    distinct levels in slice order and the start of each range (and the
    slice's length after the last), for the grading-0 slice also their
    bitset masks.  Each table entry comes from one sweep just above or
    below some t; no entry contains another, so lo and hi increase
    together.  The collinearity candidates are listed on first use.
    """

    def __init__(self, c: BifilteredComplex):
        violations, slices = validated_slices(c)
        if violations:
            raise InvalidComplexError(violations)
        basis0, basis1, self.d0cols, self.d1cols, self.phi = slices
        self.levels, self._starts = _ranges(basis0)
        self.levels1, self._starts1 = _ranges(basis1)
        s = self._starts
        self._masks = [(1 << e) - (1 << b) for b, e in zip(s, s[1:])]
        self._w = 2 * max((abs(A - a) for a, A in self.levels), default=0) + 1
        self._intervals: list[Interval] = []

    @cached_property
    def candidates(self) -> tuple[Fraction, ...]:
        return _collinearity_parameters(self.levels)

    def interval(self, t: Fraction, side: int,
                 rows: Optional[Basis] = None) -> Interval:
        """The certified interval just above t (side +1: lo <= t < hi) or
        just below it (side -1: lo < t <= hi): the entry with the largest lo
        short of t if it covers t, else a new one from a sweep (its rows
        go into rows), which replaces the entries it contains."""
        table = self._intervals
        k = (bisect_right if side > 0 else bisect_left)(table, t, key=_LO)
        if k and (t < table[k - 1][3] or side < 0 and t == table[k - 1][3]):
            return table[k - 1]
        entry = self._certify(t, side, rows)
        table[bisect_left(table, entry[2], key=_LO):
              bisect_right(table, entry[3], key=_HI)] = [entry]
        return entry

    def sides(self, t: Fraction, rows: Optional[Basis] = None
              ) -> tuple[Interval, Interval, int]:
        """(below, above, top): the certified intervals just below and just
        above t, one entry twice when it covers both sides or t is 0 or 2,
        and the side-0 key top = 2v*gamma(t), t = u/v, of their contact
        levels, which must agree, since gamma is continuous (else a
        certified interval is wrong).  rows goes to the lookup above t."""
        below = self.interval(t, -1 if t else 1)
        above = self.interval(t, 1, rows) if below[3] == t < 2 else below
        lo, hi = _keys([below[0], above[0]], t)
        if lo != hi:
            raise AssertionError(f"gamma not continuous at t={t}")
        return below, above, lo

    def mask(self, t: Fraction, side: int, level: Level) -> int:
        """The slice elements at or below level in the order at t (side 0),
        just above t (side +1) or just below it (side -1): a union of level
        masks.  At side 0 and a contact level beside t, it is the sublevel
        set at gamma(t)."""
        keys = _keys(self.levels, t, side, self._w)
        top = _keys([level], t, side, self._w)[0]
        return sum(m for m, k in zip(self._masks, keys) if k <= top)

    def _sweep(self, t: Fraction, side: int,
               rows: Optional[Basis] = None) -> tuple[Level, int, int, int]:
        """Processes the levels in increasing order just above (side +1) or
        just below (side -1) t, where no two share a key, and each level's
        slice elements in increasing index, while column-reducing the
        grading-0 boundary map; every dependent column yields a cycle
        supported in the current sublevel set, and phi tells in O(1)
        whether it is essential.  The first essential cycle is the witness
        z, and the level of the element that closed it the contact level L.
        Returns (L, z, lam, S), S the union of the masks of the levels
        below L in that order and lam a functional on the grading -1 slice
        with phi = lam o d0 on S, back-substituted in increasing pivot
        order over the rows whose combination lies in S.  The rows
        (pivot -> (residue, combination)) go into rows when it is given."""
        keys = _keys(self.levels, t, side, self._w)
        reducer: Basis = {} if rows is None else rows
        phi, below, s = self.phi, 0, self._starts
        for k in sorted(range(len(self.levels)), key=keys.__getitem__):
            for i in range(s[k], s[k + 1]):
                v, combo = reduce_pair(self.d0cols[i], 1 << i, reducer)
                if v == 0 and ((combo & phi).bit_count() & 1):
                    rest = ~below
                    lam = functional({p: (row, (rcombo & phi).bit_count())
                                      for p, (row, rcombo) in reducer.items()
                                      if not rcombo & rest})
                    return self.levels[k], combo, lam, below
            below |= self._masks[k]
        raise AssertionError("no essential cycle found; complex invalid")

    def _certify(self, t: Fraction, side: int,
                 rows: Optional[Basis] = None) -> Interval:
        """(L, z, lo, hi) from the sweep at t+ or t-, with gamma = f(L) on
        [lo, hi].

        With Q the elements i where phi_i != lam(d0 e_i), a cycle z' has
        phi(z') = |z' meet Q| mod 2, so every essential cycle meets Q, and
        min over Q of f_t' <= gamma(t') <= max over z of f_t'.  d0 z sums
        the columns of z's elements only, and Q flips phi at the columns
        where lam is odd.  Both bounds are f_t'(L) while no element of z
        lies above L and none of Q below it, one linear inequality in t'
        per level that meets z or Q.  Each bound is kept as an integer pair
        (num, den > 0) and tightened by cross-multiplying; lo and hi become
        Fractions once, at the end.  Checked: d0 z = 0, phi(z) = 1, Q misses
        S, and [lo, hi] holds t+ (lo <= t < hi) or t- (lo < t <= hi).
        """
        level, z, lam, below = self._sweep(t, side, rows)
        dz, q = image(self.d0cols, z), self.phi
        for i, col in enumerate(self.d0cols):
            if (col & lam).bit_count() & 1:
                q ^= 1 << i
        if dz or not (z & self.phi).bit_count() & 1:
            raise AssertionError(f"witness at t={t} is not an essential cycle")
        if q & below:
            raise AssertionError(
                f"lam o d0 differs from phi below the contact level at t={t}")
        (lo, lo_den), (hi, hi_den) = (0, 1), (2, 1)
        a, x = level
        for sign, part in ((1, z), (-1, q)):
            for (b, y), m in zip(self.levels, self._masks):
                if not part & m:
                    continue
                # sign * (f_t'(b, y) - f_t'(L)) = c0 + c1 * t' / 2 <= 0
                c0, c1 = sign * (b - a), sign * (y - b - x + a)
                if c1 > 0:
                    if -2 * c0 * hi_den < hi * c1:
                        hi, hi_den = -2 * c0, c1
                elif c1 < 0:
                    if 2 * c0 * lo_den > lo * -c1:
                        lo, lo_den = 2 * c0, -c1
                elif c0 > 0:
                    hi, hi_den = lo, lo_den
        lo, hi = Fraction(lo, lo_den), Fraction(hi, hi_den)
        if not (lo <= t < hi if side > 0 else lo < t <= hi):
            raise AssertionError(
                f"certified interval [{lo}, {hi}] misses t={t}")
        return level, z, lo, hi

    def meet(self, t: Fraction) -> Optional[tuple[int, Basis, int]]:
        """The one jump test, from the intervals beside t: None when t is
        no jump, an essential cycle lying in both masks M- and M+ just
        below and above t (such as the witness of one interval covering
        both sides, which answers with no mask).  Else (M-, basis, top),
        top the side-0 key 2v*gamma(t) of sides(t): after checking that the
        two witnesses and masks lie in the sublevel set at gamma(t), it
        eliminates the columns (e_i outside M-, d0 e_i) for i in M+, tagged
        phi_i, where a zero residue with an odd tag is an essential cycle
        in M- and M+.  The slice-0 coordinates sit above the d0 part, at
        bit len(d1cols) on, since slice -1 lists the grading-1 generators:
        a further column with no d0 part is a plain slice-0 vector.

        The elements B strictly below the support line come first in the
        order at t+ and lie in M- and M+, so their columns here are d0 e_i
        alone, as in a sweep at t+.  The rows of that sweep, if sides(t)
        makes one, fill the dict the meet hands it.  Those whose combination
        lies in B, tagged with the parity of phi on it, start this
        elimination, so only the elements of M+ on the line are left.  B
        holds no essential cycle, so every dependency the sweep dropped
        there has an even tag.  With no rows, as when the interval at t+
        comes from the table, the same loop eliminates all of M+."""
        rows: Basis = {}
        below, above, top = self.sides(t, rows)
        if below is above:
            return None
        mlo, mhi = self.mask(t, -1, below[0]), self.mask(t, 1, above[0])
        if (mlo | mhi | below[1] | above[1]) & ~self.mask(t, 0, below[0]):
            raise AssertionError(
                "a cycle from either side of t leaves the sublevel set at t")
        phi, shift = self.phi, len(self.d1cols)
        taken = sum(m for m, k in zip(self._masks, _keys(self.levels, t))
                    if k < top) if rows else 0
        rest, out = ~taken, ~mlo
        reducer = {p: (row, (combo & phi).bit_count() & 1)
                   for p, (row, combo) in rows.items() if not combo & rest}
        rows.clear()  # frees the combinations before the elimination
        todo = mhi & rest
        while todo:
            i = (todo & -todo).bit_length() - 1
            todo ^= 1 << i
            v, odd = reduce_pair(((1 << i) & out) << shift | self.d0cols[i],
                                 phi >> i & 1, reducer)
            if v == 0 and odd:
                return None
        return mlo, reducer, top


_engines: "weakref.WeakKeyDictionary[BifilteredComplex, _Engine]" = (
    weakref.WeakKeyDictionary())


def _engine(c: BifilteredComplex) -> _Engine:
    """The engine of c, built on first use.  The cache holds it only while
    c lives, and no engine field refers to c, so each public function binds
    the engine and drops its own c before any sweep: a complex that only
    the call held is freed then, and a caller who keeps c keeps the cache
    entry."""
    eng = _engines.get(c)
    if eng is None:
        eng = _engines[c] = _Engine(c)
    return eng


def _parameter(x, name: str, closed: bool) -> Fraction:
    """x as a Fraction in [0,2] (closed) or in (0,2); floats are refused."""
    x = _frac(x)
    if not (0 <= x <= 2 if closed else 0 < x < 2):
        raise ValueError(
            f"{name}={x} outside {'[0,2]' if closed else '(0,2)'}")
    return x


def candidate_parameters(c: BifilteredComplex) -> tuple[Fraction, ...]:
    """Parameters in (0,2) where upsilon can have a breakpoint and where the
    secondary invariant can be finite."""
    eng = _engine(c)
    del c  # freed here if only the call held it; see _engine
    return eng.candidates


def gamma_at(c: BifilteredComplex, t) -> Fraction:
    """Minimal level s with an essential grading-0 cycle in the f_t sublevel
    subcomplex at level s."""
    t, eng = _parameter(t, "t", closed=True), _engine(c)
    del c  # freed here if only the call held it; see _engine
    return Fraction(eng.sides(t)[2], 2 * t.denominator)


def upsilon_pl(c: BifilteredComplex) -> PLFunction:
    """Upsilon of the complex as an exact piecewise-linear function.

    gamma is linear on each certified interval, so the walk 0+, hi+, ...
    that samples it at 0 and at the hi of every interval it meets gives
    the exact canonical function.  Each end t is sampled from sides(t) as
    -2*gamma(t) = -top/v for t = u/v, and the walk steps on to the hi of
    the interval above t, up to 2.
    """
    eng, t, samples = _engine(c), Fraction(0), []
    del c  # freed here if only the call held it; see _engine
    while True:
        _, above, top = eng.sides(t)
        samples.append((t, Fraction(-top, t.denominator)))
        if t == 2:
            return pl_from_samples(samples)
        t = above[3]


def pivot_points(c: BifilteredComplex, t) -> PivotPair:
    """The unique bifiltration levels on the support line just below and just
    above t.

    They are the contact levels of sides(t), the certified intervals just
    below and just above t (one level twice when t is no candidate).  delta
    is half the distance from t to the nearest candidate, 0 or 2 other than
    t, so no candidate lies strictly between t and t +/- delta.
    """
    t = _parameter(t, "t", closed=False)
    eng = _engine(c)
    del c  # freed here if only the call held it; see _engine
    below = max((x for x in eng.candidates if x < t), default=Fraction(0))
    above = min((x for x in eng.candidates if x > t), default=Fraction(2))
    lower, upper, _ = eng.sides(t)
    return PivotPair(negative=lower[0], positive=upper[0],
                     delta=min(t - below, above - t) / 2)


def cycle_space(c: BifilteredComplex, t_side) -> tuple[int, list[int]]:
    """The essential grading-0 cycles in the sublevel subcomplex at
    gamma(t_side), as (base, directions): the witness of the certified
    interval covering t_side plus the span of the boundaries supported
    there, a reduced basis in increasing pivot order.  t_side must avoid
    the candidate parameters; the points between two consecutive
    candidates share one space (for instance the t +/- delta of
    pivot_points).  Built on demand; the engine itself reads masks."""
    t_side = _parameter(t_side, "t_side", closed=False)
    eng = _engine(c)
    del c  # freed here if only the call held it; see _engine
    if t_side in eng.candidates:
        raise ValueError(
            f"t_side={t_side} is a collinearity parameter; cycle spaces are "
            f"only defined off the candidate set")
    level, witness, _, _ = eng.interval(t_side, 1)
    mask = eng.mask(t_side, 1, level)
    # A boundary combination is supported inside when its projection onto
    # the outside coordinates vanishes.
    reducer: Basis = {}
    inside: Basis = {}
    for col in eng.d1cols:
        o, v = reduce_pair(col & ~mask, col, reducer)
        if o == 0:
            reduce_pair(v, 0, inside)
    return witness, [inside[p][0] for p in sorted(inside)]


def _secondary(eng: _Engine, t: Fraction,
               s: Fraction) -> tuple[ExtRational, ExtRational]:
    """(gamma2, upsilon2) at t, s: (-infinity, +infinity) off the jumps, else
    (g2, -2*(g2 - gamma(t))) from the incremental minimal-r scan, going on
    from eng.meet(t): its elimination, and its top for gamma(t).

    The question is whether some chain x in M+ with d0 x = 0 and
    phi(x) = 1 (an essential cycle z+) and some allowed grading-1 chain w
    leave x + d1 w inside M- (an essential cycle z-, homologous to z+).
    One elimination answers it: the columns of the meet, then (d1 w
    outside M-), tagged 0, for the grading-1 elements inside
    C^t_{gamma(t)} and then the others in increasing f_s order.  These
    have no d0 part, so they sit at the meet's slice-0 bits, len(d1cols)
    on; the meet's rows for the elements below the support line are the
    rows of the sweep at t+ when sides(t) made one.  As in a sweep, the
    keys, the phase test and the f_s sort are per grading-1 level, and
    each level's index range goes in in index order, so the columns go in
    as a stable sort of the elements would put them.  The grading-1 keys
    at t serve s = t, the diagonal of jump_values, as well.  A dependency
    with an odd tag is such a pair; solvability is monotone along the
    scan, and gamma2 is the threshold at which the first one appears,
    -infinity when meet finds one (t is no jump).

    At a jump the first phase closes nothing, so a close there raises.  d1
    raises neither filtration, so each element of d1 w, for w at
    f_t <= gamma(t), lies strictly below the support line, hence in M- and
    M+, or at w's own level on the line; elements at one level share their
    mask.  Say x + d1 W lies in M-, for x an essential cycle in M+ and W
    such elements, and W+ are those of W on the line at levels in M+.  Then
    x' = x + d1 W+ is an essential cycle in M+, and d1 of W minus W+ misses
    M+ minus M-, so x' lies in M- and M+ at once: t is no jump.  So gamma2
    is -infinity exactly off the jumps, and upsilon2 is finite exactly at
    them.  At s = t the grading-1 elements on the line have the least key
    of the f_s scan, so moving them into it changes no value there; off the
    diagonal that is open.
    """
    found = eng.meet(t)
    if found is None:
        return NEG_INF, POS_INF
    mlo, reducer, top_t = found
    d1, starts = eng.d1cols, eng._starts1
    shift, out = len(d1), ~mlo

    def closes(k: int) -> bool:  # an element of level k, in index order
        for col in d1[starts[k]:starts[k + 1]]:
            v, odd = reduce_pair((col & out) << shift, 0, reducer)
            if v == 0 and odd == 1:
                return True
        return False

    keys_t = _keys(eng.levels1, t)
    keys_s = keys_t if s == t else _keys(eng.levels1, s)
    if any(closes(k) for k, key in enumerate(keys_t) if key <= top_t):
        raise AssertionError(
            f"a grading-1 element at or below gamma(t) closes the secondary "
            f"scan at the jump t={t}")
    later = [k for k, key in enumerate(keys_t) if key > top_t]
    for k in sorted(later, key=keys_s.__getitem__):
        if closes(k):
            g2 = Fraction(keys_s[k], 2 * s.denominator)
            return g2, -2 * (g2 - Fraction(top_t, 2 * t.denominator))
    raise AssertionError(
        "secondary invariant scan exhausted all grading-1 thresholds without "
        "solving; complex invalid")


def gamma2(c: BifilteredComplex, t, s) -> ExtRational:
    """Minimal r at which some essential cycles in the sublevel masks just
    below and just above t become homologous in C^t_{gamma(t)} + C^s_r;
    -infinity exactly when one essential cycle lies in both masks, that is
    when t is no jump."""
    t = _parameter(t, "t", closed=False)
    s = _parameter(s, "s", closed=True)
    eng = _engine(c)
    del c  # freed here if only the call held it; see _engine
    return _secondary(eng, t, s)[0]


def upsilon2(c: BifilteredComplex, t, s=None) -> ExtRational:
    """Secondary upsilon: -2*(gamma2 - gamma); +infinity off the jump set.

    Defaults to the diagonal s = t.  Invariant under uniform filtration
    shifts, since gamma and gamma2 shift by the same amount.
    """
    t = _parameter(t, "t", closed=False)
    s = t if s is None else _parameter(s, "s", closed=True)
    eng = _engine(c)
    del c  # freed here if only the call held it; see _engine
    return _secondary(eng, t, s)[1]


def is_jump_value(c: BifilteredComplex, t) -> bool:
    """Whether no essential cycle lies in both sublevel masks either side of
    t: the meet that gamma2 starts with, so upsilon2 is finite exactly here."""
    t = _parameter(t, "t", closed=False)
    eng = _engine(c)
    del c  # freed here if only the call held it; see _engine
    return eng.meet(t) is not None


def jump_values(c: BifilteredComplex,
                max_t: Optional[Fraction] = None) -> list[JumpReport]:
    """Scan every candidate parameter, reporting jump status and the diagonal
    secondary invariant, computed at the jumps only (+infinity at the
    others); parameters outside the candidate set are never jumps.

    The candidates are read along the walk 0+, hi+, ... of upsilon_pl,
    which steps to interval(hi, +1) only when a candidate lies past its end
    hi.  No jump lies inside a certified interval, so the run of candidates
    strictly inside the current interval, one bisect slice, is reported as
    no jump with no lookup.  At an interval end one meet decides the jump,
    and at a jump the gamma2 scan goes on from its elimination, so t is a
    jump exactly when its value is finite (see _secondary).  An end of a
    table interval in (0,2) that is no candidate would be a lost jump: that
    raises."""
    max_t = None if max_t is None else _frac(max_t)
    eng = _engine(c)
    del c  # freed here if only the call held it; see _engine
    cands = eng.candidates
    stop = len(cands) if max_t is None else bisect_right(cands, max_t)
    out: list[JumpReport] = []
    k, hi = 0, Fraction(0)
    while k < stop:
        while hi < cands[k]:
            hi = eng.interval(hi, 1)[3]
        j = bisect_left(cands, hi, k, stop)
        # The no-jump reports of the run strictly inside, built in C.
        out += map(tuple.__new__, repeat(JumpReport),
                   zip(cands[k:j], repeat(False), repeat(POS_INF)))
        if j < stop and cands[j] == hi:
            u2 = _secondary(eng, hi, hi)[1]
            out.append(JumpReport(t=hi, is_jump=is_finite(u2), upsilon2=u2))
            j += 1
        k = j
    for end in sorted({end for entry in eng._intervals
                       for end in entry[2:] if 0 < end < 2}):
        k = bisect_left(cands, end)
        if cands[k:k + 1] != (end,):
            raise AssertionError(f"certified interval ends at {end}, no "
                                 f"candidate parameter; candidate set "
                                 f"incomplete")
    return out


def check_subadditivity(a: BifilteredComplex, b: BifilteredComplex, t,
                        tensor_complex: BifilteredComplex) -> bool:
    """Diagonal subadditivity of the secondary invariant under connected sum:
    upsilon2 of tensor_complex, the tensor of a and b, is at least the
    minimum of the summands'."""
    return upsilon2(tensor_complex, t) >= min(upsilon2(a, t), upsilon2(b, t))
