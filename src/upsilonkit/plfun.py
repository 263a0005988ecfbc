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
    optional sign.  Floats raise TypeError.  Any other string raises
    ValueError before Fraction sees it, since Fraction would expand exponent
    notation such as 1e10000000 digit by digit."""
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


def rational_to_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def ext_to_json(x: ExtRational) -> dict:
    if isinstance(x, Infinity):
        return {"inf": x.sign}
    return rational_to_json(x)


T_MIN = Fraction(0)
T_MAX = Fraction(2)


class PLFunction(NamedTuple):
    """Continuous piecewise-linear function on [0,2] in canonical form."""

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __repr__(self) -> str:
        pts = ", ".join(f"({t}, {v})" for t, v in self.breakpoints)
        return f"PLFunction[{pts}]"


def _canonicalize(points: Sequence[tuple[Fraction, Fraction]]) -> PLFunction:
    """Drop interior points collinear with their neighbours."""
    kept: list[tuple[Fraction, Fraction]] = []
    for p in points:
        while len(kept) >= 2:
            (t0, v0), (t1, v1) = kept[-2], kept[-1]
            if (v1 - v0) * (p[0] - t1) == (p[1] - v1) * (t1 - t0):
                kept.pop()
            else:
                break
        kept.append(p)
    return PLFunction(tuple(kept))


def pl_from_samples(samples: Iterable[tuple[Fraction, Fraction]]) -> PLFunction:
    """Canonical PLFunction interpolating the samples.

    The samples must be sorted with strictly increasing t in [0,2] and must
    include t=0 and t=2.
    """
    pts = [(_frac(t), _frac(v)) for t, v in samples]
    if not pts:
        raise ValueError("no samples")
    for (t0, _), (t1, _) in zip(pts, pts[1:]):
        if t0 == t1:
            raise ValueError(f"duplicate sample parameter t={t0}")
        if t0 > t1:
            raise ValueError("samples not sorted by t")
    if pts[0][0] < T_MIN or pts[-1][0] > T_MAX:
        raise ValueError("sample parameter outside [0,2]")
    if pts[0][0] != T_MIN or pts[-1][0] != T_MAX:
        raise ValueError("samples must cover t=0 and t=2")
    return _canonicalize(pts)


def pl_constant(value: Fraction) -> PLFunction:
    v = _frac(value)
    return PLFunction(((T_MIN, v), (T_MAX, v)))


def _interpolate(p0, p1, t: Fraction) -> Fraction:
    """Value at t of the segment from breakpoint p0 to breakpoint p1."""
    (t0, v0), (t1, v1) = p0, p1
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def pl_add(f: PLFunction, g: PLFunction) -> PLFunction:
    """Pointwise sum, by one merge over both breakpoint lists.

    Both lists start at 0 and end at 2, so a breakpoint of one function
    lies strictly inside the current segment of the other, or on its end.
    """
    fp, gp = f.breakpoints, g.breakpoints
    points: list[tuple[Fraction, Fraction]] = []
    i = j = 0
    while i < len(fp) and j < len(gp):
        (tf, vf), (tg, vg) = fp[i], gp[j]
        if tf == tg:
            points.append((tf, vf + vg))
            i += 1
            j += 1
        elif tf < tg:
            points.append((tf, vf + _interpolate(gp[j - 1], gp[j], tf)))
            i += 1
        else:
            points.append((tg, _interpolate(fp[i - 1], fp[i], tg) + vg))
            j += 1
    return _canonicalize(points)


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
    exact = [(m if isinstance(m, int) else _frac(m),
              b if isinstance(b, int) else _frac(b)) for m, b in lines]
    scale = lcm(*(x.denominator for line in exact for x in line))
    lowest: dict[int, int] = {}
    for m, b in exact:
        m = m.numerator * (scale // m.denominator)
        b = b.numerator * (scale // b.denominator)
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


def pl_to_json(f: PLFunction) -> dict:
    return {
        "breakpoints": [
            {"t": rational_to_json(t), "v": rational_to_json(v)}
            for t, v in f.breakpoints
        ]
    }
