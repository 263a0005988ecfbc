"""The invariant engine: gamma, upsilon, pivot points and the secondary
invariant, computed exactly on arbitrary valid bifiltered complexes.

For a parameter t in [0,2] the filtration functional

    f_t(alg, alex) = (t/2)*alex + (1 - t/2)*alg

cuts the grading-0 slice of the complex into sublevel subcomplexes, and
gamma(t) is the least level s at which the sublevel set contains a cycle
that survives to the generator of the homology of the full complex; upsilon
is -2*gamma.  Two distinct grading-0 bifiltration levels take the same f_t
value only at finitely many parameters, the collinearity candidates, which
cut [0,2] into chambers.  Inside a chamber the f_t order of the slice
elements is fixed, so one sweep at its midpoint gives the sweep of every
point of it: the contact level L, the witness cycle and the sublevel mask.
gamma is f_t(L) on the closed chamber, and is continuous across candidates.

The cycles of a chamber are read off its mask M, the slice elements at or
below gamma there: they are the essential cycles supported in M, since
every grading-0 cycle is either essential or a boundary.  So both questions
about a candidate t, with masks M- and M+ on the chambers below and above
it, are column sweeps over masks.  t is a jump when no essential cycle lies
in M- and M+ at once.  The secondary invariant measures how far the support
line must retreat, along a second direction s, before the cycles coming
from just below t and just above t become homologous:

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
from .f2 import Basis, reduce_pair
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


class _Engine:
    """Per-complex slice data and the chamber table.

    Holds the grading-0/1 slice data as bitset columns and the essential
    functional phi from validation, which vanishes on boundaries but not on
    the essential class, so "is this cycle homologically essential" is a
    single popcount.  Chamber i is (ends[i], ends[i+1]); its entry in the
    table is (level, witness, mask), filled by one sweep on first use.
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
        self._chambers: list[Optional[tuple[tuple[int, int], int, int]]] = (
            [None] * (len(self.ends) - 1))

    def sides(self, t: Fraction) -> tuple[int, int]:
        """The chambers below and above t in [0,2]: two neighbours for a
        candidate, the same chamber twice for any other t (for 0 and 2, the
        chamber they end)."""
        e = self.ends
        return (max(bisect_left(e, t) - 1, 0),
                min(bisect_right(e, t) - 1, len(e) - 2))

    def chamber(self, i: int) -> tuple[tuple[int, int], int, int]:
        """(level, witness, mask) of chamber i, swept at its midpoint."""
        hit = self._chambers[i]
        if hit is None:
            hit = self._chambers[i] = self._sweep(
                (self.ends[i] + self.ends[i + 1]) / 2)
        return hit

    def _sweep(self, t: Fraction) -> tuple[tuple[int, int], int, int]:
        """Processes slice elements in increasing f_t order while
        column-reducing the grading-0 boundary map; every dependent column
        yields a cycle supported in the current sublevel set, and phi tells
        in O(1) whether it is essential.  The first essential cycle is the
        witness, the level of the element that closed it the contact level,
        and the elements at or below that level the mask.  t must lie inside a
        chamber, where the support line meets exactly one level; that is
        checked.
        """
        keys, _ = _keys(self.lev0, t)
        reducer: Basis = {}
        phi = self.phi
        for i in sorted(range(self.dim0), key=keys.__getitem__):
            v, combo = reduce_pair(self.d0cols[i], 1 << i, reducer)
            if v == 0 and ((combo & phi).bit_count() & 1):
                level, key = self.lev0[i], keys[i]
                mask = 0
                for j, k in enumerate(keys):
                    if k <= key:
                        mask |= 1 << j
                        if k == key and self.lev0[j] != level:
                            raise AssertionError(
                                f"support line at t={t} meets more than one "
                                f"level; candidate set incomplete")
                return level, combo, mask
        raise AssertionError("no essential cycle found; complex invalid")

    def gamma(self, t: Fraction) -> Fraction:
        """f_t of the contact level of the chambers either side of t.  They
        must agree at a candidate, where gamma is continuous; a disagreement
        means a collinearity parameter is missing."""
        lo, hi = (_f(t, self.chamber(i)[0]) for i in self.sides(t))
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
        of both chambers either side of it.  A chamber witness inside the
        other mask is one; otherwise one sweep over the meet of the masks
        looks for one."""
        i, j = self.sides(t)
        if i == j:
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

    gamma is linear on each chamber, so sampling it at every chamber end
    (the collinearity candidates plus 0 and 2) gives the exact canonical
    function.  Each sample checks that the lines of the two chambers at a
    candidate meet there, which a missing candidate breaks.
    """
    eng = _engine(c)
    return pl_from_samples([(t, -2 * eng.gamma(t)) for t in eng.ends])


def pivot_points(c: BifilteredComplex, t) -> PivotPair:
    """The unique bifiltration levels on the support line just below and just
    above t.

    They are the contact levels of the chambers either side of t (the
    chamber containing t, twice, when t is no candidate); each chamber's
    sweep checks that its support line meets exactly one grading-0 level.
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
    gamma(t_side), as (base, directions): the chamber witness plus the span of
    the boundaries supported there, a reduced basis in increasing pivot
    order.  t_side must avoid the candidate parameters; any point of a
    chamber gives the same space (for instance the t +/- delta of
    pivot_points).  Built on demand; the engine itself reads masks."""
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
