"""Knot expressions: torus knots, mirrors, connected sums and multiples.

Grammar (whitespace insensitive):

    EXPR := TERM ('#' TERM)*
    TERM := ['-'] [INT '*'] ATOM
    ATOM := 'T(' INT ',' INT ')' | 'U'

'U' is the unknot, '-' mirrors, 'n*K' is the n-fold connected sum and '#'
the connected sum.  Realization turns an expression into its bifiltered
complex: torus knots become staircases, mirrors dualize, sums tensor.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from math import gcd
from typing import Callable, Union

from .cfk import BifilteredComplex, dual, from_staircase, tensor, unknot_complex
from .staircase import build_staircase, semigroup_runs


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


class ComplexTooLargeError(ValueError):
    pass


@dataclass(frozen=True)
class Unknot:
    pass


@dataclass(frozen=True)
class Torus:
    p: int
    q: int


@dataclass(frozen=True)
class Mirror:
    expr: "KnotExpr"


@dataclass(frozen=True)
class Multiple:
    n: int
    expr: "KnotExpr"


@dataclass(frozen=True)
class Sum:
    parts: tuple["KnotExpr", ...]


KnotExpr = Union[Unknot, Torus, Mirror, Multiple, Sum]


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

    def parse(self) -> KnotExpr:
        terms = [self.term()]
        while self.peek()[0] == "#":
            self.take("#")
            terms.append(self.term())
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(f"unexpected {tok[1]!r}", tok[2])
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def term(self) -> KnotExpr:
        mirrored = False
        if self.peek()[0] == "-":
            self.take("-")
            mirrored = True
        count = None
        if self.peek()[0] == "int":
            count = int(self.take("int")[1])
            self.take("*")
        atom = self.atom()
        if mirrored:
            atom = Mirror(atom)
        if count is not None:
            if count == 0:
                return Unknot()
            return Multiple(count, atom)
        return atom

    def atom(self) -> KnotExpr:
        tok = self.peek()
        if tok[0] == "U":
            self.take("U")
            return Unknot()
        if tok[0] == "T":
            self.take("T")
            self.take("(")
            p = int(self.take("int")[1])
            self.take(",")
            q = int(self.take("int")[1])
            self.take(")")
            return make_torus(p, q)
        raise ExprSyntaxError(
            f"expected 'T(p,q)' or 'U', found {tok[1]!r}" if tok[0] != "end"
            else "expected 'T(p,q)' or 'U', found end of input", tok[2])


def parse_expr(text: str) -> KnotExpr:
    """Parse a knot expression; raises ExprSyntaxError with a position on
    malformed input and ValueError on invalid torus parameters."""
    return _Parser(text).parse()


def _atom_str(e: KnotExpr) -> str:
    if isinstance(e, Unknot):
        return "U"
    if isinstance(e, Torus):
        return f"T({e.p},{e.q})"
    raise ValueError(f"not a printable atom: {e!r}")


def expr_to_str(e: KnotExpr) -> str:
    """Inverse of parse_expr on grammar-shaped trees."""
    def term_str(tm: KnotExpr) -> str:
        if isinstance(tm, Multiple):
            if isinstance(tm.expr, Mirror):
                return f"-{tm.n}*{_atom_str(tm.expr.expr)}"
            return f"{tm.n}*{_atom_str(tm.expr)}"
        if isinstance(tm, Mirror):
            return f"-{_atom_str(tm.expr)}"
        return _atom_str(tm)

    if isinstance(e, Sum):
        return " # ".join(term_str(p) for p in e.parts)
    return term_str(e)


def _product_over_tori(e: KnotExpr, torus: Callable[[int, int], int],
                       stop: int | None = None) -> int:
    """Product of torus(p, q) over the torus factors of e, counted with
    multiplicity (generator counts multiply under tensor products).  With
    stop set, it may return a partial product above stop instead, which
    keeps the numbers small: n copies of a factor of at least 2 exceed stop
    once n reaches stop.bit_length()."""
    if isinstance(e, Unknot):
        return 1
    if isinstance(e, Torus):
        return torus(e.p, e.q)
    if isinstance(e, Mirror):
        return _product_over_tori(e.expr, torus, stop)
    if isinstance(e, Multiple):
        n = e.n if stop is None else min(e.n, stop.bit_length())
        return _product_over_tori(e.expr, torus, stop) ** n
    if isinstance(e, Sum):
        total = 1
        for part in e.parts:
            total *= _product_over_tori(part, torus, stop)
            if stop is not None and total > stop:
                break
        return total
    raise TypeError(f"not a knot expression: {e!r}")


def expected_generators(e: KnotExpr) -> int:
    """Generator count of realize(e), computed without building anything."""
    return _product_over_tori(e, lambda p, q: 1 if p == 1 or q == 1 else
                              2 * len(semigroup_runs(p, q).runs) + 1)


def _torus_lower_bound(p: int, q: int) -> int:
    """A lower bound on the 2*runs + 1 generators of T(p,q), p < q.

    A run of S = <p,q> below the conductor 2g = (p-1)(q-1) holds at most
    p - 1 integers, since p consecutive members put every larger integer in
    S.  S is symmetric, so g of the integers below 2g are in S: at least
    (q-1)/2 runs, hence at least q generators.  2p - 1 is a bound too
    (checked, like q, on every coprime pair with p < 70, q < 160).
    """
    p, q = sorted((p, q))
    return 1 if p == 1 else max(2 * p - 1, q)


def generator_lower_bound(e: KnotExpr, stop: int | None = None) -> int:
    """A lower bound on expected_generators(e) that sieves nothing; with
    stop given it may be a partial product, which then exceeds stop."""
    return _product_over_tori(e, _torus_lower_bound, stop)


DEFAULT_GENERATOR_LIMIT = 20000


def realize(e: KnotExpr, max_generators: int | None = DEFAULT_GENERATOR_LIMIT
            ) -> BifilteredComplex:
    """Bifiltered complex of a knot expression.

    Refuses to build complexes beyond max_generators generators (tensor
    products grow multiplicatively); pass None to lift the limit.
    """
    if max_generators is not None:
        # Refuse on the lower bound before sieving any semigroup.
        size = generator_lower_bound(e, stop=max_generators)
        need = f"at least {size}"
        if size <= max_generators:
            size = expected_generators(e)
            need = str(size)
        if size > max_generators:
            raise ComplexTooLargeError(
                f"{expr_to_str(e)} needs {need} generators, above the limit "
                f"of {max_generators}; raise or disable the limit to proceed")

    def build(node: KnotExpr) -> BifilteredComplex:
        if isinstance(node, Unknot):
            return unknot_complex()
        if isinstance(node, Torus):
            return from_staircase(build_staircase(node.p, node.q))
        if isinstance(node, Mirror):
            return dual(build(node.expr))
        if isinstance(node, Multiple):
            summand = out = build(node.expr)
            for _ in range(node.n - 1):
                out = tensor(out, summand)
            return out
        if isinstance(node, Sum):
            out = build(node.parts[0])
            for part in node.parts[1:]:
                out = tensor(out, build(part))
            return out
        raise TypeError(f"not a knot expression: {node!r}")

    return build(e)
