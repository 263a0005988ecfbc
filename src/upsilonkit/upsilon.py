"""The invariant engine: gamma, upsilon, pivot points and the secondary
invariant, computed exactly on arbitrary valid bifiltered complexes.

For a parameter t in [0,2] the filtration functional

    f_t(alg, alex) = (t/2)*alex + (1 - t/2)*alg

cuts the grading-0 slice of the complex into sublevel subcomplexes, and
gamma(t) is the least level s at which the sublevel set contains a cycle
that survives to the generator of the homology of the full complex; upsilon
is -2*gamma.  Two distinct grading-0 bifiltration levels take the same f_t
value only at finitely many parameters, the collinearity candidates, which
cut [0,2] into chambers.  One sweep at a point t gives the contact level L,
a witness cycle z and a certificate that gamma = f(L) on a whole interval
of chambers: a functional lam with phi = lam o d0 below L, where phi is the
essential functional.  Every essential cycle meets the elements Q on which
phi and lam o d0 differ, so f(L) bounds gamma from below while no element
of Q falls below L, and from above while no element of z rises above it.
A walk from t = 0 makes one sweep per linear piece of gamma, not one per
chamber; gamma is continuous across candidates.

The cycles of a chamber are read off its mask M, the slice elements at or
below gamma there: they are the essential cycles supported in M, since
every grading-0 cycle is either essential or a boundary.  So both questions
about a candidate t, with masks M- and M+ on the chambers below and above
it, are column sweeps over masks.  t is a jump when no essential cycle lies
in M- and M+ at once, which a witness of one interval does inside it.  The
secondary invariant measures how far the support line must retreat, along
a second direction s, before the cycles coming from just below t and just
above t become homologous:

    gamma2_{t}(s) = min { r : some z+ and z- represent the same class in
                          H_0( C^t_{gamma(t)} + C^s_r ) }

with z+ and z- essential cycles in M+ and M-.  The scan over r is monotone
(growing r only adds grading-1 elements), so the minimum is found by one
incremental Gaussian elimination over the grading-1 thresholds.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .cfk import BifilteredComplex, validated_slices
from .f2 import Basis, functional, reduce_pair
from .plfun import (NEG_INF, POS_INF, ExtRational, PLFunction, pl_from_samples,
                    _frac)


class InvalidComplexError(ValueError):
    """Raised when an invariant is requested of a structurally bad complex."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid complex: " + "; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class PivotPair:
    """Unique on-line bifiltration levels just below / above a parameter t."""
    negative: tuple[int, int]
    positive: tuple[int, int]
    delta: Fraction


@dataclass(frozen=True)
class JumpReport:
    t: Fraction
    is_jump: bool
    upsilon2: ExtRational


def _keys(levels: list[tuple[int, int]], t: Fraction) -> tuple[list[int], int]:
    """Integer keys proportional to f_t on the given (alg, alex) levels.

    For t = u/v, f_t(a, A) = (u*A + (2v-u)*a) / (2v); the scale 2v is
    returned so callers can recover exact values.
    """
    u, v = t.numerator, t.denominator
    wa = 2 * v - u
    return [u * A + wa * a for a, A in levels], 2 * v


def _f(t: Fraction, level: tuple[int, int]) -> Fraction:
    """f_t(level), exactly."""
    alg, alex = level
    return alg + t * (alex - alg) / 2


def _collinearity_parameters(levels: list[tuple[int, int]]
                             ) -> tuple[Fraction, ...]:
    """All t in (0,2) where two distinct (alg, alex) levels agree under f_t.

    f_t(P) = f_t(Q) is linear in t, so each unordered pair of distinct
    levels contributes at most one parameter: for P left of and above Q,
    with A = Q.alg - P.alg > 0 and X = P.alex - Q.alex > 0, it is
    t = 2A / (A + X); other pairs agree at no t in (0,2).  t depends only
    on A/X, so pairs are deduped on the reduced integer (A, X) and one
    Fraction is built per distinct parameter.
    """
    pts = sorted(set(levels))
    keys: set[tuple[int, int]] = set()
    for i, (a1, x1) in enumerate(pts):
        for a2, x2 in pts[i + 1:]:
            if a2 > a1 and x1 > x2:
                g = math.gcd(a2 - a1, x1 - x2)
                keys.add(((a2 - a1) // g, (x1 - x2) // g))
    return tuple(sorted(Fraction(2 * a, a + x) for a, x in keys))


Level = tuple[int, int]
# A certified interval: (contact level, witness cycle, lo, hi).
Interval = tuple[Level, int, Fraction, Fraction]


class _Engine:
    """Per-complex slice data and the table of certified gamma intervals.

    Holds the grading-0/1 slice data as bitset columns and the essential
    functional phi from validation, which vanishes on boundaries but not on
    the essential class, so "is this cycle homologically essential" is a
    single popcount.  Chamber k is (ends[k], ends[k+1]).  The table is
    walked from t = 0: each entry comes from one sweep at the midpoint of
    the chamber where the previous entry ends, and covers the chambers from
    there to its hi.  A chamber's mask is built on first use.
    """

    def __init__(self, c: BifilteredComplex):
        violations, slices = validated_slices(c)
        if violations:
            raise InvalidComplexError(violations)
        self.dim0 = len(slices.basis0)
        self.lev0 = [(e.alg, e.alex) for e in slices.basis0]
        self.lev1 = [(e.alg, e.alex) for e in slices.basis1]
        self.d0cols = slices.d0
        self.d1cols = slices.d1
        self.phi = slices.phi
        self.candidates = _collinearity_parameters(self.lev0)
        self.ends = (Fraction(0), *self.candidates, Fraction(2))
        self._intervals: list[Interval] = []
        self._masks: dict[int, int] = {}

    def sides(self, t: Fraction) -> tuple[int, int]:
        """The chambers below and above t in [0,2]: two neighbours for a
        candidate, the same chamber twice for any other t (for 0 and 2, the
        chamber they end)."""
        e = self.ends
        return (max(bisect_left(e, t) - 1, 0),
                min(bisect_right(e, t) - 1, len(e) - 2))

    def interval(self, k: int) -> Interval:
        """The certified interval covering chamber k."""
        table, ends = self._intervals, self.ends
        while not table or table[-1][3] <= ends[k]:
            start = bisect_left(ends, table[-1][3]) if table else 0
            table.append(self._certify((ends[start] + ends[start + 1]) / 2))
        return table[bisect_right(table, ends[k], key=lambda e: e[3])]

    def chamber(self, k: int) -> tuple[Level, int, int]:
        """(level, witness, mask) of chamber k: its interval's level and
        witness, and the slice elements at or below that level there."""
        level, witness, _, _ = self.interval(k)
        if k not in self._masks:
            self._masks[k] = self._sublevel(
                (self.ends[k] + self.ends[k + 1]) / 2, level)[1]
        return level, witness, self._masks[k]

    def _sublevel(self, t: Fraction, level: Level) -> tuple[int, int]:
        """The slice elements below level under f_t, and those at or below
        it.  t must lie inside a chamber, where the support line meets
        exactly one level; that is checked."""
        keys, _ = _keys(self.lev0, t)
        [key], _ = _keys([level], t)
        if any(k == key and lev != level for k, lev in zip(keys, self.lev0)):
            raise AssertionError(f"support line at t={t} meets more than one "
                                 f"level; candidate set incomplete")
        return (sum(1 << j for j, k in enumerate(keys) if k < key),
                sum(1 << j for j, k in enumerate(keys) if k <= key))

    def _sweep(self, t: Fraction) -> tuple[Level, int, int, int]:
        """Processes slice elements in increasing f_t order while
        column-reducing the grading-0 boundary map; every dependent column
        yields a cycle supported in the current sublevel set, and phi tells
        in O(1) whether it is essential.  The first essential cycle is the
        witness z, and the level of the element that closed it the contact
        level L.  Returns (L, z, lam, S), S the elements below L and lam a
        functional on the grading -1 slice with phi = lam o d0 on S,
        back-substituted in increasing pivot order over the rows whose
        combination lies in S.
        """
        keys, _ = _keys(self.lev0, t)
        reducer: Basis = {}
        phi = self.phi
        for i in sorted(range(self.dim0), key=keys.__getitem__):
            v, combo = reduce_pair(self.d0cols[i], 1 << i, reducer)
            if v == 0 and ((combo & phi).bit_count() & 1):
                below = self._sublevel(t, self.lev0[i])[0]
                lam = functional({p: (row, (rcombo & phi).bit_count())
                                  for p, (row, rcombo) in reducer.items()
                                  if not rcombo & ~below})
                return self.lev0[i], combo, lam, below
        raise AssertionError("no essential cycle found; complex invalid")

    def _certify(self, t: Fraction) -> Interval:
        """(L, z, lo, hi) from the sweep at t, with gamma = f(L) on [lo, hi].

        With Q the elements i where phi_i != lam(d0 e_i), a cycle z' has
        phi(z') = |z' meet Q| mod 2, so every essential cycle meets Q, and
        min over Q of f_t' <= gamma(t') <= max over z of f_t'.  Both bounds
        are f_t'(L) while no element of z lies above L and none of Q below
        it, one linear inequality in t' per element.  Checked: d0 z = 0,
        phi(z) = 1, Q misses S, and [lo, hi] holds t and ends at chamber ends.
        """
        level, z, lam, below = self._sweep(t)
        dz = q = 0
        for i, col in enumerate(self.d0cols):
            dz ^= col if z >> i & 1 else 0
            q |= ((col & lam).bit_count() ^ self.phi >> i) % 2 << i
        if dz or not (z & self.phi).bit_count() & 1:
            raise AssertionError(f"witness at t={t} is not an essential cycle")
        if q & below:
            raise AssertionError(
                f"lam o d0 differs from phi below the contact level at t={t}")
        lo, hi = Fraction(0), Fraction(2)
        a, x = level
        for side, part in ((1, z), (-1, q)):
            for b, y in {lev for i, lev in enumerate(self.lev0)
                         if part >> i & 1}:
                # side * (f_t'(b, y) - f_t'(L)) = c0 + c1 * t' / 2 <= 0
                c0, c1 = side * (b - a), side * (y - b - x + a)
                if c1 > 0:
                    hi = min(hi, Fraction(-2 * c0, c1))
                elif c1 < 0:
                    lo = max(lo, Fraction(-2 * c0, c1))
                elif c0 > 0:
                    hi = lo
        if not lo < t < hi:
            raise AssertionError(
                f"certified interval [{lo}, {hi}] misses t={t}")
        for end in (lo, hi):
            if self.ends[bisect_left(self.ends, end)] != end:
                raise AssertionError(f"certified interval ends at {end}, no "
                                     f"chamber end; candidate set incomplete")
        return level, z, lo, hi

    def gamma(self, t: Fraction) -> Fraction:
        """f_t of the contact level of the chambers either side of t.  They
        must agree at a candidate, where gamma is continuous; a disagreement
        means a collinearity parameter is missing."""
        lo, hi = (_f(t, self.interval(i)[0]) for i in self.sides(t))
        if lo != hi:
            raise AssertionError(
                f"gamma not continuous at t={t}: candidate set incomplete")
        return lo

    def essential_sweep(self, inside: int, outside: int) -> Optional[Basis]:
        """Eliminate the column (d0 e_i, e_i & outside) for every slice
        element i in inside, tagged phi_i.  A zero residue with an odd tag
        is a chain x in inside with d0 x = 0, phi(x) = 1 and no element
        outside: an essential cycle.  Returns None at the first one, else
        the basis, for the caller to eliminate further columns against.

        The d0 part sits above the slice-0 coordinates, so a further column
        with no d0 part is a plain slice-0 vector.
        """
        phi = self.phi
        reducer: Basis = {}
        for i, col in enumerate(self.d0cols):
            if inside >> i & 1:
                v, odd = reduce_pair(col << self.dim0 | ((1 << i) & outside),
                                     phi >> i & 1, reducer)
                if v == 0 and odd:
                    return None
        return reducer

    def is_jump(self, t: Fraction) -> bool:
        """Whether t is a candidate and no essential cycle lies in the masks
        of both chambers either side of it.  Inside one certified interval
        its witness is one, so only a candidate at an interval end needs
        the masks: a witness inside the other mask is one; otherwise one
        sweep over the meet of the masks looks for one."""
        i, j = self.sides(t)
        if i == j or self.interval(i) is self.interval(j):
            return False
        (_, zlo, mlo), (_, zhi, mhi) = self.chamber(i), self.chamber(j)
        if not zlo & ~mhi or not zhi & ~mlo:
            return False
        return self.essential_sweep(mlo & mhi, 0) is not None


_engines: "weakref.WeakKeyDictionary[BifilteredComplex, _Engine]" = (
    weakref.WeakKeyDictionary())


def _engine(c: BifilteredComplex) -> _Engine:
    eng = _engines.get(c)
    if eng is None:
        eng = _Engine(c)
        _engines[c] = eng
    return eng


def candidate_parameters(c: BifilteredComplex) -> tuple[Fraction, ...]:
    """Parameters in (0,2) where upsilon can have a breakpoint and where the
    secondary invariant can be finite."""
    return _engine(c).candidates


def gamma_at(c: BifilteredComplex, t) -> Fraction:
    """Minimal level s with an essential grading-0 cycle in the f_t sublevel
    subcomplex at level s."""
    t = _frac(t)
    if not 0 <= t <= 2:
        raise ValueError(f"t={t} outside [0,2]")
    return _engine(c).gamma(t)


def upsilon_pl(c: BifilteredComplex) -> PLFunction:
    """Upsilon of the complex as an exact piecewise-linear function.

    gamma is linear on each certified interval, so sampling it at 0 and at
    the hi of every interval gives the exact canonical function.  Each
    sample checks that the lines of the intervals either side meet there.
    """
    eng = _engine(c)
    eng.interval(len(eng.ends) - 2)
    return pl_from_samples([(t, -2 * eng.gamma(t)) for t in
                            (eng.ends[0], *(hi for *_, hi in eng._intervals))])


def pivot_points(c: BifilteredComplex, t) -> PivotPair:
    """The unique bifiltration levels on the support line just below and just
    above t.

    They are the certified levels of the chambers either side of t (the
    chamber containing t, twice, when t is no candidate); building each
    chamber's mask checks that its support line meets exactly one level.
    delta is half the distance from t to the nearest chamber end other than
    t, so t +/- delta lie in those chambers.
    """
    t = _frac(t)
    if not 0 < t < 2:
        raise ValueError(f"pivot points need t in (0,2), got {t}")
    eng = _engine(c)
    i, j = eng.sides(t)
    return PivotPair(negative=eng.chamber(i)[0], positive=eng.chamber(j)[0],
                     delta=min(t - eng.ends[i], eng.ends[j + 1] - t) / 2)


def cycle_space(c: BifilteredComplex, t_side) -> tuple[int, list[int]]:
    """The essential grading-0 cycles in the sublevel subcomplex at
    gamma(t_side), as (base, directions): the witness of the certified
    interval covering t_side plus the span of the boundaries supported
    there, a reduced basis in increasing pivot order.  t_side must avoid
    the candidate parameters; any point of a chamber gives the same space
    (for instance the t +/- delta of pivot_points).  Built on demand; the
    engine itself reads masks."""
    t_side = _frac(t_side)
    if not 0 < t_side < 2:
        raise ValueError(f"t_side={t_side} outside (0,2)")
    eng = _engine(c)
    i, j = eng.sides(t_side)
    if i != j:
        raise ValueError(
            f"t_side={t_side} is a collinearity parameter; cycle spaces are "
            f"only defined off the candidate set")
    _, witness, mask = eng.chamber(i)
    # A boundary combination is supported inside when its projection onto
    # the outside coordinates vanishes.
    outside = ~mask
    reducer: Basis = {}
    inside: Basis = {}
    for col in eng.d1cols:
        o, v = reduce_pair(col & outside, col, reducer)
        if o == 0:
            reduce_pair(v, 0, inside)
    return witness, [inside[p][0] for p in sorted(inside)]


def _gamma2_engine(eng: _Engine, t: Fraction, s: Fraction) -> ExtRational:
    """Incremental minimal-r scan for the secondary invariant.

    The question is whether some chain x in M+ with d0 x = 0 and
    phi(x) = 1 (an essential cycle z+) and some allowed grading-1 chain w
    leave x + d1 w inside M- (an essential cycle z-, homologous to z+).
    One elimination answers it: the columns (d0 e_i, e_i outside M-) for i
    in M+, tagged phi_i, then (d1 w outside M-), tagged 0, for the
    grading-1 elements inside C^t_{gamma(t)} and then the others in
    increasing f_s order.  A dependency with an odd tag is such a pair;
    solvability is monotone along the scan, and the threshold at which the
    first one appears gives gamma2 (-infinity before the f_s scan).
    """
    i, j = eng.sides(t)
    if i == j:
        return NEG_INF
    (_, zlo, mlo), (_, zhi, mhi) = eng.chamber(i), eng.chamber(j)
    keys0, scale_t = _keys(eng.lev0, t)
    top_t = math.floor(eng.gamma(t) * scale_t)
    # The cycles from just below and above t, which lie in their masks,
    # live inside the t-sublevel set.
    mask_t = sum(1 << k for k, key in enumerate(keys0) if key <= top_t)
    if (mlo | mhi | zlo | zhi) & ~mask_t:
        raise AssertionError(
            "a cycle from either side of t leaves the sublevel set at t")

    outside = ~mlo
    reducer = eng.essential_sweep(mhi, outside)
    if reducer is None:
        return NEG_INF

    def closes(col: int) -> bool:
        v, odd = reduce_pair(col & outside, 0, reducer)
        return v == 0 and odd == 1

    keys_t, _ = _keys(eng.lev1, t)
    keys_s, scale_s = _keys(eng.lev1, s)
    rest: list[tuple[int, int]] = []
    for i, col in enumerate(eng.d1cols):
        if keys_t[i] <= top_t:
            if closes(col):
                return NEG_INF
        else:
            rest.append((keys_s[i], col))
    rest.sort(key=lambda kv: kv[0])
    for key, col in rest:
        if closes(col):
            return Fraction(key, scale_s)
    raise AssertionError(
        "secondary invariant scan exhausted all grading-1 thresholds without "
        "solving; complex invalid")


def gamma2(c: BifilteredComplex, t, s) -> ExtRational:
    """Minimal r at which some essential cycles in the sublevel masks just
    below and just above t become homologous in C^t_{gamma(t)} + C^s_r;
    -infinity when they already are at r -> -oo (in particular whenever one
    essential cycle lies in both masks, that is when t is not a jump)."""
    t, s = _frac(t), _frac(s)
    if not 0 < t < 2:
        raise ValueError(f"gamma2 needs t in (0,2), got {t}")
    if not 0 <= s <= 2:
        raise ValueError(f"gamma2 needs s in [0,2], got {s}")
    return _gamma2_engine(_engine(c), t, s)


def upsilon2(c: BifilteredComplex, t, s=None) -> ExtRational:
    """Secondary upsilon: -2*(gamma2 - gamma); +infinity off the jump set.

    Defaults to the diagonal s = t.  Invariant under uniform filtration
    shifts, since gamma and gamma2 shift by the same amount.
    """
    t = _frac(t)
    s = t if s is None else _frac(s)
    g2 = gamma2(c, t, s)
    if g2 == NEG_INF:
        return POS_INF
    return -2 * (g2 - _engine(c).gamma(t))


def is_jump_value(c: BifilteredComplex, t) -> bool:
    """Whether the cycles just below and just above t are all distinct: no
    essential cycle lies in both sublevel masks either side of t."""
    t = _frac(t)
    if not 0 < t < 2:
        raise ValueError(f"jump test needs t in (0,2), got {t}")
    return _engine(c).is_jump(t)


def jump_values(c: BifilteredComplex,
                max_t: Optional[Fraction] = None) -> list[JumpReport]:
    """Scan every candidate parameter, reporting jump status and the diagonal
    secondary invariant; parameters outside the candidate set are never
    jumps."""
    eng = _engine(c)
    out = []
    for t in eng.candidates:
        if max_t is not None and t > max_t:
            break
        jump = is_jump_value(c, t)
        u2 = upsilon2(c, t) if jump else POS_INF
        out.append(JumpReport(t=t, is_jump=jump, upsilon2=u2))
    return out


def check_subadditivity(a: BifilteredComplex, b: BifilteredComplex, t,
                        tensor_complex: BifilteredComplex) -> bool:
    """Diagonal subadditivity of the secondary invariant under connected sum:
    upsilon2 of tensor_complex, the tensor of a and b, is at least the
    minimum of the summands'."""
    t = _frac(t)
    lhs = upsilon2(tensor_complex, t)
    rhs = min(upsilon2(a, t), upsilon2(b, t))
    return lhs >= rhs
