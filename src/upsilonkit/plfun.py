"""Exact rational values and continuous piecewise-linear functions on [0,2].

The upsilon invariant of a knot is a continuous piecewise-linear function on
[0,2] with rational breakpoints; the secondary invariant takes values in the
rationals extended by two infinities.  Everything here is exact: rationals
are ``fractions.Fraction`` and no floating point appears anywhere.

A ``PLFunction`` is kept in canonical form (strictly increasing breakpoint
parameters covering 0 and 2, no interior breakpoint collinear with its two
neighbours) so that structural equality coincides with functional equality.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from functools import total_ordering
from math import lcm
from typing import Iterable, NamedTuple, Sequence, Union


_RATIONAL = re.compile(r"[+-]?\d+(/\d+)?")


def _frac(x) -> Fraction:
    """x as a Fraction: an int, a Fraction, or a string a/b or a with an
    optional sign.  A Fraction is returned as it is.  Floats raise
    TypeError.  Any other string raises ValueError before Fraction sees it,
    since Fraction would expand exponent notation such as 1e10000000 digit
    by digit."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("floating point input not allowed; use Fraction")
    if isinstance(x, str) and not _RATIONAL.fullmatch(x):
        raise ValueError(f"not a rational: {x!r}")
    return Fraction(x)


@total_ordering
class Infinity:
    """A signed infinity adjoined to the rationals.

    Only the two module singletons POS_INF and NEG_INF exist.  They are
    ordered values with no arithmetic: NEG_INF lies below every rational
    and POS_INF above.
    """

    __slots__ = ("sign",)

    def __init__(self, sign: int):
        self.sign = sign

    def __repr__(self) -> str:
        return "inf" if self.sign > 0 else "-inf"

    def __eq__(self, other) -> bool:
        return isinstance(other, Infinity) and other.sign == self.sign

    def __hash__(self) -> int:
        return hash(("Infinity", self.sign))

    def __lt__(self, other):
        if isinstance(other, Infinity):
            return self.sign < other.sign
        if isinstance(other, (Fraction, int)):
            return self.sign < 0
        return NotImplemented


POS_INF = Infinity(1)
NEG_INF = Infinity(-1)

ExtRational = Union[Fraction, Infinity]


def is_finite(x: ExtRational) -> bool:
    return not isinstance(x, Infinity)


def format_ext(x: ExtRational) -> str:
    """Render an extended rational the way the CLI prints it."""
    if isinstance(x, Infinity):
        return repr(x)
    return str(x)


T_MIN = Fraction(0)
T_MAX = Fraction(2)


class PLFunction(NamedTuple):
    """Continuous piecewise-linear function on [0,2] in canonical form."""

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __repr__(self) -> str:
        pts = ", ".join(f"({t}, {v})" for t, v in self.breakpoints)
        return f"PLFunction[{pts}]"


# A point (t, s, n, d) in integer form under a scale: the parameter t, with
# s = t*scale, and the value n/(d*scale), with d != 0.
_Point = tuple[Fraction, int, int, int]


def _scaled(*pair_lists) -> tuple[int, list[list[_Point]]]:
    """The lcm of every denominator in the lists of pairs (t, v), points or
    lines, and each list in integer form under that scale, with d = 1."""
    scale = lcm(*(x.denominator for pts in pair_lists for pt in pts
                  for x in pt))
    return scale, [[(t, t.numerator * (scale // t.denominator),
                     v.numerator * (scale // v.denominator), 1)
                    for t, v in pts] for pts in pair_lists]


def _canonicalize(points: list[_Point], scale: int) -> PLFunction:
    """The PLFunction through points, dropping interior points collinear
    with their neighbours.

    The collinearity test multiplies (v1 - v0)(t2 - t1) = (v2 - v1)(t1 - t0)
    through by d0*d1*d2*scale, so it runs on the integer form, and a
    Fraction is built only for each kept value.
    """
    kept: list[_Point] = []
    for p in points:
        _, s2, n2, d2 = p
        while len(kept) >= 2:
            (_, s0, n0, d0), (_, s1, n1, d1) = kept[-2], kept[-1]
            if ((n1 * d0 - n0 * d1) * d2 * (s2 - s1)
                    != (n2 * d1 - n1 * d2) * d0 * (s1 - s0)):
                break
            kept.pop()
        kept.append(p)
    return PLFunction(tuple((t, Fraction(n, d * scale))
                            for t, _, n, d in kept))


def pl_from_samples(samples: Iterable[tuple[Fraction, Fraction]]) -> PLFunction:
    """Canonical PLFunction interpolating the samples.

    The samples must be sorted with strictly increasing t in [0,2] and must
    include t=0 and t=2.
    """
    pts = [(_frac(t), _frac(v)) for t, v in samples]
    if not pts:
        raise ValueError("no samples")
    scale, [scaled] = _scaled(pts)
    for (t0, s0, _, _), (_, s1, _, _) in zip(scaled, scaled[1:]):
        if s0 == s1:
            raise ValueError(f"duplicate sample parameter t={t0}")
        if s0 > s1:
            raise ValueError("samples not sorted by t")
    first, last = scaled[0][1], scaled[-1][1]
    if first < 0 or last > 2 * scale:
        raise ValueError("sample parameter outside [0,2]")
    if first != 0 or last != 2 * scale:
        raise ValueError("samples must cover t=0 and t=2")
    return _canonicalize(scaled, scale)


def pl_constant(value: Fraction) -> PLFunction:
    v = _frac(value)
    return PLFunction(((T_MIN, v), (T_MAX, v)))


def _plus_segment(p: _Point, q0: _Point, q1: _Point) -> _Point:
    """The point p plus the value at its parameter of the segment from q0 to
    q1, all three with d = 1; the sum has d = s1 - s0, the segment's scaled
    length."""
    (t, s, n, _), (_, s0, n0, _), (_, s1, n1, _) = p, q0, q1
    d = s1 - s0
    return t, s, (n + n0) * d + (n1 - n0) * (s - s0), d


def pl_add(f: PLFunction, g: PLFunction) -> PLFunction:
    """Pointwise sum, by one merge over both breakpoint lists on integers.

    Both lists start at 0 and end at 2, so a breakpoint of one function
    lies strictly inside the current segment of the other, or on its end.
    Every parameter and value is scaled by the lcm of their denominators;
    a value interpolated inside a segment keeps the segment's scaled length
    as its own denominator, so the merge and the collinearity test run on
    integers, and every output parameter is an input parameter.
    """
    fp, gp = f.breakpoints, g.breakpoints
    scale, (fs, gs) = _scaled(fp, gp)
    points: list[_Point] = []
    i = j = 0
    while i < len(fs) and j < len(gs):
        (tf, sf, vf, _), (_, sg, vg, _) = fs[i], gs[j]
        if sf == sg:
            points.append((tf, sf, vf + vg, 1))
            i += 1
            j += 1
        elif sf < sg:
            points.append(_plus_segment(fs[i], gs[j - 1], gs[j]))
            i += 1
        else:
            points.append(_plus_segment(gs[j], fs[i - 1], fs[i]))
            j += 1
    return _canonicalize(points, scale)


def pl_neg(f: PLFunction) -> PLFunction:
    return PLFunction(tuple((t, -v) for t, v in f.breakpoints))


def pl_equal(f: PLFunction, g: PLFunction) -> bool:
    return f.breakpoints == g.breakpoints


def pl_lower_envelope(lines: Sequence[tuple[Fraction, Fraction]]) -> PLFunction:
    """Pointwise minimum over [0,2] of the lines t -> slope*t + intercept.

    An exact O(n log n) convex-hull sweep (Andrew's monotone chain) on
    integers: scale every line by the lcm D of the denominators (1 for
    integer lines), keep the lowest intercept for each slope, take the lines
    by decreasing slope, and keep a stack of the lines on the envelope, each
    with the parameter num/den (den > 0) where it takes over from the one
    below it; scaling changes no takeover.  A new line pops the top while it
    crosses the top at or before the top's own takeover, compared by
    cross-multiplying.  The envelope over [0,2] is read off at 0, at the
    takeovers inside (0,2) and at 2, with values divided by D.  Consecutive
    hull lines differ in slope, so these points are already canonical.  For
    int and Fraction input they are the only Fractions built.
    """
    if not lines:
        raise ValueError("empty family of lines")
    scale, [scaled] = _scaled([(m if isinstance(m, int) else _frac(m),
                                b if isinstance(b, int) else _frac(b))
                               for m, b in lines])
    lowest: dict[int, int] = {}
    for _, m, b, _ in scaled:
        if m not in lowest or b < lowest[m]:
            lowest[m] = b
    # (takeover num, den, slope, intercept).  The steepest line holds from
    # -inf, written (-1, 0): it compares below every takeover with den > 0,
    # so it is never popped and every later line gets a takeover.
    hull: list[tuple[int, int, int, int]] = []
    for m in sorted(lowest, reverse=True):
        b = lowest[m]
        num, den = -1, 0
        while hull:
            start, start_den, m0, b0 = hull[-1]
            num, den = b - b0, m0 - m
            if num * start_den > start * den:
                break
            hull.pop()
        hull.append((num, den, m, b))
    # takeovers increase along the hull: the lines on [0,2] run from the
    # last one taking over at or before 0 to the last one before 2
    first = bisect_left(hull, True, key=lambda h: h[0] > 0) - 1
    stop = bisect_left(hull, True, key=lambda h: h[0] >= 2 * h[1])
    _, _, m, b = hull[first]
    samples = [(T_MIN, Fraction(b, scale))]
    samples += [(Fraction(num, den), Fraction(m * num + b * den, den * scale))
                for num, den, m, b in hull[first + 1:stop]]
    _, _, m, b = hull[stop - 1]
    samples.append((T_MAX, Fraction(2 * m + b, scale)))
    return PLFunction(tuple(samples))

