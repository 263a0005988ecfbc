"""The invariant engine: gamma, upsilon, pivot points and the secondary
invariant, computed exactly on arbitrary valid bifiltered complexes.

For a parameter t in [0,2] the filtration functional

    f_t(alg, alex) = (t/2)*alex + (1 - t/2)*alg

cuts the grading-0 slice of the complex into sublevel subcomplexes, and
gamma(t) is the least level s at which the sublevel set contains a cycle
that survives to the generator of the homology of the full complex; upsilon
is -2*gamma.  All minimisations are exact finite scans: a sublevel set only
changes when s crosses f_t of a slice basis element, and gamma's breakpoints
in t only occur at the finitely many parameters where two distinct grading-0
bifiltration levels take the same f_t value (the collinearity candidates).

The cycles of a chamber (an open interval between candidates) are read off
its sublevel mask M, the slice elements at or below gamma there: they are
the essential cycles supported in M, since every grading-0 cycle is either
essential or a boundary.  So both questions about a candidate t, with masks
M- and M+ on the chambers below and above it, are column sweeps over masks.
t is a jump when no essential cycle lies in M- and M+ at once.  The
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

from .cfk import BifilteredComplex, tensor, validated_slices
from .f2 import Basis, reduce_pair, reduce_vector, solve
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


@dataclass(frozen=True)
class _GammaResult:
    value: Fraction
    witness: int                      # essential cycle over the slice-0 basis
    mask: int                         # slice-0 elements with f_t <= value
    contact_levels: tuple[tuple[int, int], ...]


def _keys(levels: list[tuple[int, int]], t: Fraction) -> tuple[list[int], int]:
    """Integer keys proportional to f_t on the given (alg, alex) levels.

    For t = u/v, f_t(a, A) = (u*A + (2v-u)*a) / (2v); the scale 2v is
    returned so callers can recover exact values.
    """
    u, v = t.numerator, t.denominator
    wa = 2 * v - u
    return [u * A + wa * a for a, A in levels], 2 * v


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
    """Per-complex caches for the invariant computations.

    Holds the grading-0/1 slice data as bitset columns, a reduced basis of
    the grading-0 boundary space, and a linear functional phi vanishing on
    boundaries but not on the essential class, so that "is this cycle
    homologically essential" is a single popcount.
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
        self.bspan = slices.d1span
        self.phi = self._essential_functional()
        self.candidates = _collinearity_parameters(self.lev0)
        # The candidates cut [0,2] into chambers (ends[i], ends[i+1]).
        self.ends = (Fraction(0), *self.candidates, Fraction(2))
        self._gamma_cache: dict[Fraction, _GammaResult] = {}

    # -- construction helpers -------------------------------------------

    def _essential_functional(self) -> int:
        """A functional phi with phi(boundary) = 0 and phi(z*) = 1 for one
        (hence every) grading-0 cycle generating the homology."""
        zstar = None
        reducer: Basis = {}
        for j, col in enumerate(self.d0cols):
            v, combo = reduce_pair(col, 1 << j, reducer)
            if v == 0 and reduce_vector(combo, self.bspan):
                zstar = combo
                break
        if zstar is None:
            raise InvalidComplexError(["homology: no essential grading-0 cycle"])
        # Solve <b, phi> = 0 for the boundary basis, <z*, phi> = 1.
        rows = [b for b, _ in self.bspan.values()]
        phi = solve(rows + [zstar], 1 << len(rows))
        if phi is None:
            raise AssertionError("essential functional system inconsistent")
        return phi

    # -- scans ------------------------------------------------------------

    def gamma(self, t: Fraction) -> _GammaResult:
        """Minimal f_t level of an essential grading-0 cycle.

        Processes slice elements in increasing f_t order while column-reducing
        the grading-0 boundary map; every dependent column yields a cycle
        supported in the current sublevel set, and phi tells in O(1) whether
        it is essential.  The first essential cycle fixes gamma(t), and with
        it the sublevel mask at gamma(t).
        """
        cached = self._gamma_cache.get(t)
        if cached is not None:
            return cached
        keys, scale = _keys(self.lev0, t)
        order = sorted(range(self.dim0), key=keys.__getitem__)
        reducer: Basis = {}
        phi = self.phi
        result = None
        for i in order:
            v, combo = reduce_pair(self.d0cols[i], 1 << i, reducer)
            if v == 0 and ((combo & phi).bit_count() & 1):
                key = keys[i]
                mask, contacts = 0, set()
                for j, k in enumerate(keys):
                    if k <= key:
                        mask |= 1 << j
                        if k == key:
                            contacts.add(self.lev0[j])
                result = _GammaResult(Fraction(key, scale), combo, mask,
                                      tuple(sorted(contacts)))
                break
        if result is None:
            raise AssertionError("no essential cycle found; complex invalid")
        self._gamma_cache[t] = result
        return result

    def beside(self, t: Fraction) -> tuple[Fraction, Fraction]:
        """Halfway from t in (0,2) to the nearest chamber end below and above
        it: the midpoints of the chambers either side of a candidate t.  Any
        other t lies in one chamber (a, b), and tm + tp - t = (a + b) / 2."""
        e = self.ends
        return ((e[bisect_left(e, t) - 1] + t) / 2,
                (t + e[bisect_right(e, t)]) / 2)

    def is_candidate(self, t: Fraction) -> bool:
        i = bisect_left(self.candidates, t)
        return i < len(self.candidates) and self.candidates[i] == t

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
        """Whether no essential cycle lies in both masks beside the
        candidate t.  A chamber witness inside the other mask is one;
        otherwise one sweep over the meet of the masks looks for one."""
        lo, hi = (self.gamma(x) for x in self.beside(t))
        if not lo.witness & ~hi.mask or not hi.witness & ~lo.mask:
            return False
        return self.essential_sweep(lo.mask & hi.mask, 0) is not None


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
    return _engine(c).gamma(t).value


def upsilon_pl(c: BifilteredComplex) -> PLFunction:
    """Upsilon of the complex as an exact piecewise-linear function.

    gamma is sampled at every chamber end (the collinearity candidates plus
    0 and 2), and linearity on each chamber is verified at its midpoint, so
    the returned canonical function is exact.
    """
    eng = _engine(c)
    ts = eng.ends
    vals = [eng.gamma(t).value for t in ts]
    for (t0, v0), (t1, v1) in zip(zip(ts, vals), zip(ts[1:], vals[1:])):
        if eng.gamma((t0 + t1) / 2).value != (v0 + v1) / 2:
            raise AssertionError(
                f"gamma not linear on [{t0},{t1}]: candidate set incomplete")
    return pl_from_samples([(t, -2 * v) for t, v in zip(ts, vals)])


def pivot_points(c: BifilteredComplex, t) -> PivotPair:
    """The unique bifiltration levels on the support line just below and just
    above t.

    The levels are read at the points beside t (for a candidate, the
    midpoints of the chambers either side of it), and delta is the distance
    from t to the nearer of them: half the gap to the nearest other candidate
    parameter, 0 or 2.  There the support line meets exactly one grading-0
    level, which is checked.
    """
    t = _frac(t)
    if not 0 < t < 2:
        raise ValueError(f"pivot points need t in (0,2), got {t}")
    eng = _engine(c)
    tm, tp = eng.beside(t)
    neg = eng.gamma(tm).contact_levels
    pos = eng.gamma(tp).contact_levels
    delta = min(t - tm, tp - t)
    if len(neg) != 1 or len(pos) != 1:
        raise AssertionError(
            f"support line at t={t}+/-{delta} meets more than one level; "
            f"delta not small enough")
    return PivotPair(negative=neg[0], positive=pos[0], delta=delta)


def cycle_space(c: BifilteredComplex, t_side) -> tuple[int, list[int]]:
    """The essential grading-0 cycles in the sublevel subcomplex at
    gamma(t_side), as (base, directions): the gamma witness plus the span of
    the boundaries supported there, a reduced basis in increasing pivot
    order.  t_side must avoid the candidate parameters; any point of a
    chamber gives the same space (for instance the t +/- delta of
    pivot_points).  Built on demand; the engine itself reads masks."""
    t_side = _frac(t_side)
    if not 0 < t_side < 2:
        raise ValueError(f"t_side={t_side} outside (0,2)")
    eng = _engine(c)
    if eng.is_candidate(t_side):
        raise ValueError(
            f"t_side={t_side} is a collinearity parameter; cycle spaces are "
            f"only defined off the candidate set")
    res = eng.gamma(t_side)
    # A boundary combination is supported inside when its projection onto
    # the outside coordinates vanishes.
    outside = ~res.mask
    reducer: Basis = {}
    inside: Basis = {}
    for col in eng.d1cols:
        o, v = reduce_pair(col & outside, col, reducer)
        if o == 0:
            reduce_pair(v, 0, inside)
    return res.witness, [inside[p][0] for p in sorted(inside)]


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
    if not eng.is_candidate(t):
        return NEG_INF
    lo, hi = (eng.gamma(x) for x in eng.beside(t))
    g = eng.gamma(t)
    # The cycles from just below and above t, which lie in their masks,
    # live inside the t-sublevel set.
    if (lo.mask | hi.mask | lo.witness | hi.witness) & ~g.mask:
        raise AssertionError("a cycle from beside t leaves the sublevel set at t")

    outside = ~lo.mask
    reducer = eng.essential_sweep(hi.mask, outside)
    if reducer is None:
        return NEG_INF

    def closes(col: int) -> bool:
        v, odd = reduce_pair(col & outside, 0, reducer)
        return v == 0 and odd == 1

    keys_t, scale_t = _keys(eng.lev1, t)
    top_t = math.floor(g.value * scale_t)
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
    return -2 * (g2 - _engine(c).gamma(t).value)


def is_jump_value(c: BifilteredComplex, t) -> bool:
    """Whether the cycles just below and just above t are all distinct: no
    essential cycle lies in both sublevel masks beside t."""
    t = _frac(t)
    if not 0 < t < 2:
        raise ValueError(f"jump test needs t in (0,2), got {t}")
    eng = _engine(c)
    return eng.is_candidate(t) and eng.is_jump(t)


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
                        tensor_complex: Optional[BifilteredComplex] = None) -> bool:
    """Diagonal subadditivity of the secondary invariant under connected sum:
    upsilon2 of the tensor is at least the minimum of the summands'.

    Passing the precomputed tensor complex avoids rebuilding it when checking
    many parameters.
    """
    t = _frac(t)
    ab = tensor_complex if tensor_complex is not None else tensor(a, b)
    lhs = upsilon2(ab, t)
    rhs = min(upsilon2(a, t), upsilon2(b, t))
    return lhs >= rhs
