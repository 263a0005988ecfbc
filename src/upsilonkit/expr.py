"""Knot expressions: torus knots, mirrors, connected sums and multiples.

Grammar (any Unicode whitespace is ignored):

    EXPR := TERM ('#' TERM)*
    TERM := ['-'] [INT '*'] ('T(' INT ',' INT ')' | 'U')

'U' is the unknot, '-' mirrors, 'n*K' is the n-fold connected sum and '#'
the connected sum.  The grammar has no nesting, so an expression is the
flat tuple of its terms, parsed by one pattern match per term, each
followed by '#' or the end of the input.  Realization turns it into its
bifiltered complex: torus knots become staircases, mirrors dualize, sums
tensor.
"""

from __future__ import annotations

import re
import warnings
from typing import NamedTuple, Union

from .cfk import BifilteredComplex, dual, from_staircase, tensor, unknot_complex
from .staircase import _corner, build_staircase, torus_generators


class ExprSyntaxError(ValueError):
    """Malformed expression.  position is that of the first non-whitespace
    character of a term that does not match, of a character other than '#'
    after a complete term, or of an integer literal too long for int()."""

    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


class ComplexTooLargeError(ValueError):
    pass


class Unknot:
    """The unknot: no fields, truthy, equal only to another Unknot."""
    __slots__ = ()

    def __eq__(self, other) -> bool:
        return isinstance(other, Unknot)

    def __hash__(self) -> int:
        return hash(())  # fixed across runs, unlike hash of a str

    def __repr__(self) -> str:
        return "Unknot()"

    def __str__(self) -> str:
        return "U"


class Torus(NamedTuple):
    p: int
    q: int

    def __str__(self) -> str:
        return f"T({self.p},{self.q})"


class Term(NamedTuple):
    """n >= 1 copies of atom, each mirrored when mirror is set."""
    atom: Union[Unknot, Torus]
    n: int = 1
    mirror: bool = False

    def __str__(self) -> str:
        count = f"{self.n}*" if self.n != 1 else ""
        return f"{'-' if self.mirror else ''}{count}{self.atom}"


KnotExpr = tuple[Term, ...]  # nonempty; the connected sum of its terms


def make_torus(p: int, q: int) -> Torus:
    """Torus node judged by staircase._corner; reorders to p < q with a
    warning if needed, and refuses T(1,1), which _corner takes for the
    unknot."""
    if 0 < q < p:
        warnings.warn(f"torus parameters reordered: T({p},{q}) = T({q},{p})")
        p, q = q, p
    _corner(p, q)
    if p == q:
        raise ValueError(f"torus parameters must differ, got T({p},{q})")
    return Torus(p, q)


# One term with the whitespace around it.  A '-' takes its own \s*, so the
# leading run of whitespace is matched one way only and a failed match
# backtracks in linear time.
_TERM = re.compile(r"\s*(?:(-)\s*)?(?:(\d+)\s*\*\s*)?"
                   r"(?:(U)|T\s*\(\s*(\d+)\s*,\s*(\d+)\s*\))\s*")
# A term that does not match, from its first non-space character to the
# next '#' after it; empty at the end of the input.
_REST =re.compile(r"\s*((?:.[^#]*)?)", re.S)


def _int(m: re.Match, group: int) -> int:
    try:
        return int(m.group(group))
    except ValueError:  # beyond sys.get_int_max_str_digits()
        raise ExprSyntaxError(f"integer literal of {len(m.group(group))} "
                              "digits is too long", m.start(group)) from None


def parse_expr(text: str) -> KnotExpr:
    """Parse a knot expression; raises ExprSyntaxError with a position on
    malformed input and ValueError on invalid torus parameters."""
    terms = []
    pos = 0
    while True:
        m = _TERM.match(text, pos)
        if m is None:
            rest = _REST.match(text, pos)
            found = rest.group(1).rstrip()
            raise ExprSyntaxError(
                "expected a term [-][n*]T(p,q) or [-][n*]U, found "
                + (repr(found) if found else "end of input"), rest.start(1))
        n = _int(m, 2) if m.group(2) else 1
        atom = Unknot() if m.group(3) else make_torus(_int(m, 4), _int(m, 5))
        terms.append(Term(atom, n, bool(m.group(1))) if n else Term(Unknot()))
        pos = m.end()
        if pos == len(text):
            return tuple(terms)
        if text[pos] != "#":
            raise ExprSyntaxError("expected '#' or end of input, found "
                                  f"{text[pos]!r}", pos)
        pos += 1


def expr_to_str(e: KnotExpr) -> str:
    """Inverse of parse_expr."""
    return " # ".join(map(str, e))


def _generator_count(e: KnotExpr, stop: int | None) -> tuple[int, bool]:
    """(count, exact): the generator count of realize(e), a product over the
    tensor factors, after refusing negative copy counts.  With stop set, it
    may be a partial product above stop, exact False, which keeps numbers
    small: n copies of a factor of at least 3 pass stop once n reaches
    stop.bit_length()."""
    for t in e:
        if t.n < 0:
            raise ValueError(f"{t!r} has a negative number of copies")
    total = 1
    for t in e:
        g = torus_generators(*t.atom) if isinstance(t.atom, Torus) else 1
        if stop is not None and g > 1:
            if total > stop:
                return total, False
            if t.n > stop.bit_length():
                return total * g ** stop.bit_length(), False
        total *= g ** t.n
    return total, True


def expected_generators(e: KnotExpr) -> int:
    """Generator count of realize(e), computed without building anything."""
    return _generator_count(e, None)[0]


DEFAULT_GENERATOR_LIMIT = 20000


def realize(e: KnotExpr, max_generators: int | None = DEFAULT_GENERATOR_LIMIT
            ) -> BifilteredComplex:
    """Bifiltered complex of a knot expression, tensoring its summands
    (every copy of every term) from left to right, or the unknot's if none.

    Refuses complexes beyond max_generators generators, or summands (tensor
    products grow multiplicatively); pass None to lift the limit.
    """
    size, exact = _generator_count(e, max_generators)
    if max_generators is not None:
        # n copies cost n - 1 tensor products even when each has one
        # generator.  Neither count lists a semigroup's runs.
        summands = sum(t.n for t in e)
        need = (f"has {summands} summands" if summands > max_generators else
                f"needs {'' if exact else 'at least '}{size} generators")
        if max(size, summands) > max_generators:
            raise ComplexTooLargeError(
                f"{expr_to_str(e)} {need}, above the limit of "
                f"{max_generators}; raise or disable the limit to proceed")

    out = None
    for t in e:
        summand = (unknot_complex() if isinstance(t.atom, Unknot) else
                   from_staircase(build_staircase(t.atom.p, t.atom.q)))
        if t.mirror:
            summand = dual(summand)
        for _ in range(t.n):
            out = summand if out is None else tensor(out, summand)
    return unknot_complex() if out is None else out
