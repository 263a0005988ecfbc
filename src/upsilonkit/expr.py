"""Knot expressions: torus knots, mirrors, connected sums and multiples.

Grammar (whitespace insensitive):

    EXPR := TERM ('#' TERM)*
    TERM := ['-'] [INT '*'] ATOM
    ATOM := 'T(' INT ',' INT ')' | 'U'

'U' is the unknot, '-' mirrors, 'n*K' is the n-fold connected sum and '#'
the connected sum.  The grammar has no nesting, so an expression is the
flat tuple of its terms.  Realization turns it into its bifiltered complex:
torus knots become staircases, mirrors dualize, sums tensor.
"""

from __future__ import annotations

import re
import warnings
from math import gcd
from typing import NamedTuple, Union

from .cfk import BifilteredComplex, dual, from_staircase, tensor, unknot_complex
from .staircase import build_staircase, torus_generators


class ExprSyntaxError(ValueError):
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
    """Validated torus node; reorders to p < q with a warning if needed."""
    if p < 1 or q < 1:
        raise ValueError(f"torus parameters must be positive, got T({p},{q})")
    if q < p:
        warnings.warn(f"torus parameters reordered: T({p},{q}) = T({q},{p})")
        p, q = q, p
    if gcd(p, q) != 1:
        raise ValueError(f"torus parameters must be coprime, got T({p},{q})")
    if p == q:
        raise ValueError(f"torus parameters must differ, got T({p},{q})")
    return Torus(p, q)


_TOKEN = re.compile(r"[ \t\r\n]*(?:(\d+)|([TU#*(),-])|(\S))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        if m.group(1) is not None:
            tokens.append(("int", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append((m.group(2), m.group(2), m.start(2)))
        elif m.group(3) is not None:
            raise ExprSyntaxError(f"unexpected character {m.group(3)!r}",
                                  m.start(3))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ExprSyntaxError(
                f"expected {kind!r}, found {tok[1]!r}" if tok[0] != "end"
                else f"expected {kind!r}, found end of input", tok[2])
        self.i += 1
        return tok

    def number(self) -> int:
        _, digits, pos = self.take("int")
        try:
            return int(digits)
        except ValueError:  # beyond sys.get_int_max_str_digits()
            raise ExprSyntaxError(f"integer literal of {len(digits)} digits "
                                  "is too long", pos) from None

    def parse(self) -> KnotExpr:
        terms = [self.term()]
        while self.peek()[0] == "#":
            self.take("#")
            terms.append(self.term())
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(f"unexpected {tok[1]!r}", tok[2])
        return tuple(terms)

    def term(self) -> Term:
        mirror = self.peek()[0] == "-"
        if mirror:
            self.take("-")
        n = 1
        if self.peek()[0] == "int":
            n = self.number()
            self.take("*")
        atom = self.atom()
        return Term(atom, n, mirror) if n else Term(Unknot())

    def atom(self) -> Union[Unknot, Torus]:
        tok = self.peek()
        if tok[0] == "U":
            self.take("U")
            return Unknot()
        if tok[0] == "T":
            self.take("T")
            self.take("(")
            p = self.number()
            self.take(",")
            q = self.number()
            self.take(")")
            return make_torus(p, q)
        raise ExprSyntaxError(
            f"expected 'T(p,q)' or 'U', found {tok[1]!r}" if tok[0] != "end"
            else "expected 'T(p,q)' or 'U', found end of input", tok[2])


def parse_expr(text: str) -> KnotExpr:
    """Parse a knot expression; raises ExprSyntaxError with a position on
    malformed input and ValueError on invalid torus parameters."""
    return _Parser(text).parse()


def expr_to_str(e: KnotExpr) -> str:
    """Inverse of parse_expr."""
    return " # ".join(map(str, e))


def expected_generators(e: KnotExpr, stop: int | None = None) -> int:
    """Generator count of realize(e), computed without building or sieving
    anything: counts multiply under tensor products.  With stop set, it may
    return a partial product above stop instead, which keeps the numbers
    small: n copies of a factor of at least 3 exceed stop once n reaches
    stop.bit_length()."""
    total = 1
    for t in e:
        if isinstance(t.atom, Torus):
            n = t.n if stop is None else min(t.n, stop.bit_length())
            total *= torus_generators(t.atom.p, t.atom.q) ** n
            if stop is not None and total > stop:
                break
    return total


DEFAULT_GENERATOR_LIMIT = 20000


def realize(e: KnotExpr, max_generators: int | None = DEFAULT_GENERATOR_LIMIT
            ) -> BifilteredComplex:
    """Bifiltered complex of a knot expression, tensoring its summands
    (every copy of every term) from left to right.

    Refuses complexes beyond max_generators generators, or summands (tensor
    products grow multiplicatively); pass None to lift the limit.
    """
    if max_generators is not None:
        # n copies cost n - 1 tensor products even when each has one
        # generator.  Neither count lists a semigroup's runs.
        size = sum(t.n for t in e)
        need = f"has {size} summands"
        if size <= max_generators:
            size = expected_generators(e, stop=max_generators)
            capped = any(t.n > max_generators.bit_length() for t in e)
            need = f"needs {'at least ' if capped else ''}{size} generators"
        if size > max_generators:
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
    return out
