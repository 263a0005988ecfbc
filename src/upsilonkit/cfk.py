"""Bifiltered graded chain complexes over F2[U, U^-1].

A complex is a finite family of generators, each carrying a Maslov grading
and an integer (algebraic, Alexander) bifiltration, together with an
F2[U,U^-1]-linear differential.  A differential entry (x -> y, n) means that
U^n * y appears in dx; the differential must drop the Maslov grading by 1
and respect both filtrations, U itself dropping the grading by 2 and both
filtration levels by 1.

The whole module treats complexes as immutable values.  Connected sum of
knots is tensor product of complexes, the mirror is the dual, and the
grading-0 and grading-1 slices give the finite GF(2) picture (one
U-translate per generator of matching grading mod 2) on which all the homology
computations run.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .f2 import Basis, functional, image, reduce_pair, span_basis

Entry = tuple[int, int]  # (source index, target index)
Level = tuple[int, int]  # (alg, alex)


class Generator(NamedTuple):
    name: str
    maslov: int
    alg: int
    alex: int


class BifilteredComplex:
    """Immutable bifiltered complex; equality is by identity.

    differential maps (source, target) generator index pairs to the set of
    int U-exponents with coefficient 1.  In every complex this artifact builds
    the exponent is 0, but the data model allows arbitrary exponents.  A
    generator's name must be a str, its grading and levels ints, not bools.

    The differential keeps the caller's key tuples, once each is checked to
    be a pair of ints (not bools) in range: a repacked (i, j) would be a
    second tuple per entry for as long as the caller's mapping lives.  Index
    ints above 256 are separate objects in CPython, so `tensor` shares one
    per generator among its keys.
    """

    def __init__(self, generators: Sequence[Generator],
                 differential: Mapping[Entry, Iterable[int]]):
        self.generators: tuple[Generator, ...] = tuple(generators)
        n = len(self.generators)
        for k, (name, maslov, alg, alex) in enumerate(self.generators):
            if type(name) is not str:
                raise ValueError(f"generator {k} has name {name!r}, not a str")
            if not type(maslov) is type(alg) is type(alex) is int:
                field, value = next((f, v) for f, v in zip(
                    Generator._fields[1:], (maslov, alg, alex))
                    if type(v) is not int)
                raise ValueError(f"generator {k} has {field} {value!r}, "
                                 f"not an int")
        diff: dict[Entry, frozenset[int]] = {}
        for key, exps in differential.items():
            if type(key) is not tuple or len(key) != 2 or \
                    type(key[0]) is not int or type(key[1]) is not int:
                raise ValueError(f"differential entry {key!r} is not a pair "
                                 f"of int indices")
            i, j = key
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"differential entry ({i},{j}) out of range")
            exps = frozenset(exps)
            for e in exps:
                if type(e) is not int:
                    raise ValueError(f"differential entry ({i},{j}) has "
                                     f"exponent {e!r}, not an int")
            if exps:
                diff[key] = exps
        self.differential: dict[Entry, frozenset[int]] = diff

    def __len__(self) -> int:
        return len(self.generators)

    def __repr__(self) -> str:
        return (f"BifilteredComplex({len(self.generators)} generators, "
                f"{len(self.differential)} differential entries)")


def unknot_complex() -> BifilteredComplex:
    return BifilteredComplex([Generator("u", 0, 0, 0)], {})


def from_staircase(whites: Sequence[tuple[int, int]]) -> BifilteredComplex:
    """Complex of the white dots (alg, alex) of build_staircase: whites at
    Maslov 0, and between whites (a0, x0) and (a1, x1) a black at Maslov 1
    at (a1, x0), which maps to both with U-exponent 0."""
    gens = [Generator(f"w{i}", 0, a, x) for i, (a, x) in enumerate(whites)]
    nw = len(whites)
    zero = frozenset({0})
    diff: dict[Entry, frozenset[int]] = {}
    for i, ((_, x0), (a1, _)) in enumerate(zip(whites, whites[1:])):
        gens.append(Generator(f"b{i}", 1, a1, x0))
        diff[(nw + i, i)] = diff[(nw + i, i + 1)] = zero
    return BifilteredComplex(gens, diff)


def tensor(a: BifilteredComplex, b: BifilteredComplex) -> BifilteredComplex:
    """Tensor product over F2[U,U^-1]; gradings and filtrations add and
    d(x@y) = dx@y + x@dy with U-exponents carried through.

    x@y has index i * len(b) + k for x, y at indices i, k.  Every induced
    entry holds its factor entry's exponent frozenset itself, so the product
    builds no set per entry, and the keys read their indices from one list,
    so they share one int object per generator: CPython caches only the
    ints up to 256, and an index computed per key would be a new object in
    every key.  An entry of a and an entry of b land on the same key only
    when both are loops (i, i), and the key then holds their sum over F2,
    the symmetric difference of their exponents; an empty sum is no entry.
    A loop never drops the grading by 1, so only invalid factors collide.
    """
    nb = len(b)
    gens = [
        Generator(f"{ga.name}|{gb.name}", ga.maslov + gb.maslov,
                  ga.alg + gb.alg, ga.alex + gb.alex)
        for ga in a.generators for gb in b.generators
    ]
    idx = list(range(len(gens)))
    # The product indices of x@y with x at i: idx[i * nb:(i + 1) * nb];
    # with y at k: idx[k::nb].
    diff = {key: exps for (i, j), exps in a.differential.items()
            for key in zip(idx[i * nb:(i + 1) * nb], idx[j * nb:(j + 1) * nb])}
    for (i, j), exps in b.differential.items():
        for key in zip(idx[i::nb], idx[j::nb]):
            diff[key] = diff[key] ^ exps if key in diff else exps
    return BifilteredComplex(gens, diff)


def dual(a: BifilteredComplex) -> BifilteredComplex:
    """Dual complex (the mirror knot): gradings and filtrations negate and
    every arrow reverses.

    Reversing the entry (x -> U^n y) gives (y -> U^n x): in the diagram
    picture the dual is the 180-degree rotation of the plane with arrows
    reversed, and rotating the translate U^k x to U^{-k} x* carries the
    arrow U^k x -> U^{n+k} y onto U^{-n-k} y* -> U^{-k} x* = U^n (U^{-n-k} x*),
    so the exponent survives unchanged.
    """
    gens = [Generator(f"{g.name}*", -g.maslov, -g.alg, -g.alex)
            for g in a.generators]
    diff = {(j, i): exps for (i, j), exps in a.differential.items()}
    return BifilteredComplex(gens, diff)


def shift_filtration(c: BifilteredComplex, da: int, db: int) -> BifilteredComplex:
    """Shift every (alg, alex) by (da, db); the differential is unchanged."""
    gens = [Generator(g.name, g.maslov, g.alg + da, g.alex + db)
            for g in c.generators]
    return BifilteredComplex(gens, c.differential)


class Slices(NamedTuple):
    """Finite GF(2) model of the complex: its grading-0 and grading-1 slices.

    A grading-m slice lists U^n x, n = (maslov - m)/2, for every generator
    x with maslov = m mod 2, at the level (alg - n, alex - n), numbered by
    descending (alg + alex, alg), ties in generator order, so each level is
    one index range.  levels0 and levels1 hold each slice's distinct levels
    in slice order, and starts0 and starts1 the start of each one's range,
    then the slice's length.  Slices two gradings apart are U-translates of
    each other, so these two carry all the homology.  d0 maps grading 0 to
    grading -1 and d1 maps grading 1 to grading 0, both as columns: one
    bitset per source element over the target slice.  phi is the essential
    functional, a bitset over the grading-0 slice: phi(x), the number of
    common bits mod 2, is 0 on every boundary and 1 on the cycles
    generating the homology: the homology stage, `essential_functional`,
    derives it from d0 and d1; `slice_columns` gives the other fields.
    """

    levels0: list[Level]
    starts0: list[int]
    levels1: list[Level]
    starts1: list[int]
    d0: list[int]
    d1: list[int]
    phi: int


def slice_columns(c: BifilteredComplex) -> tuple[list[str], Optional[tuple]]:
    """Validation's structural stage, the only one that reads c: the
    grading, filtration and d^2 violations and, when there are none, the
    `Slices` fields but phi."""
    violations: list[str] = []
    gens = c.generators
    members: dict[Level, list[int]] = {}
    for i, (_, maslov, a, x) in enumerate(gens):
        members.setdefault((a - maslov // 2, x - maslov // 2), []).append(i)
    # Per parity, the distinct levels in slice order after a sentinel, and
    # the start of each one's range, the last entry the count placed so far.
    levels, starts = ([None], [None]), ([0], [0])
    # Each generator's index in its slice, as machine ints: a list would
    # hold an int object per generator beside the caller's complex.
    pos = memoryview(bytearray(8 * len(gens))).cast("q")
    for level in sorted(members, key=lambda lv: (-lv[0] - lv[1], -lv[0])):
        for i in members[level]:
            m = gens[i].maslov % 2
            s = starts[m]
            if levels[m][-1] is not level:
                levels[m].append(level)
                s.append(s[-1])
            pos[i] = s[-1]
            s[-1] += 1
    del members, levels[0][0], levels[1][0]
    # An entry x -> U^n y that drops the grading by 1 maps each translate
    # of x in a slice onto the translate of y in the slice one grading
    # below.  Slice -1 lists the same generators as slice 1 in the same
    # order, so a generator's position in the basis of its parity is its
    # bit in either slice.  A mis-graded entry's bit is never read, since
    # a grading violation returns before the slices are used.
    cols = d0, d1 = [0] * starts[0][-1], [0] * starts[1][-1]
    graded = True
    for (i, j), exps in c.differential.items():
        gi, gj = gens[i], gens[j]
        cols[gi.maslov % 2][pos[i]] |= 1 << pos[j]
        for n in exps:
            if gj.maslov - 2 * n != gi.maslov - 1:
                graded = False
                violations.append(
                    f"grading: entry {gi.name}->U^{n}.{gj.name} does not drop "
                    f"the Maslov grading by 1")
            if gj.alg - n > gi.alg or gj.alex - n > gi.alex:
                violations.append(
                    f"filtration: entry {gi.name}->U^{n}.{gj.name} increases "
                    f"a filtration level")
    if not graded:
        return violations, None

    # d^2 = 0: slices -1 and -2 are the U-translates of slices 1 and 0 with
    # the same columns, so d^2 vanishes iff d1 d0 and d0 d1 do.  Both land in
    # the basis of the source's parity, one U-translate down: the component
    # at bit k is U^n.z with n = u(z) + 1 - u(x), u = maslov // 2.
    at: Optional[list[int]] = None  # slice 0's generators, then 1's
    for off, first, second in ((0, d0, d1), (len(d0), d1, d0)):
        for j, col in enumerate(first, off):
            dd = image(second, col)
            while dd:
                k = dd.bit_length() - 1
                dd ^= 1 << k
                at = at or sorted(range(len(gens)), key=lambda i: (
                    gens[i].maslov % 2, pos[i]))
                x, z = gens[at[j]], gens[at[off + k]]
                violations.append(
                    f"d^2: component U^{z.maslov // 2 + 1 - x.maslov // 2}."
                    f"{z.name} of d^2({x.name}) is nonzero")
    if violations:
        return violations, None
    return [], (levels[0], starts[0], levels[1], starts[1], d0, d1)


def essential_functional(d0: list[int], d1: list[int]
                         ) -> tuple[list[str], Optional[int]]:
    """Validation's homology stage, on the columns alone: the homology
    violations and, when there are none, phi.  A caller that has dropped
    the complex runs its tagged elimination, validation's memory peak,
    without the complex."""
    # Rank bookkeeping on the two slices.  Slices two gradings apart carry
    # identical boundary matrices (a uniform U-shift), so
    # rank(out of grading 2) = rank(out of grading 0) etc.
    # Eliminating d0 with combination tags finds the grading-0 cycles; the
    # first one outside the boundaries joins their basis tagged 1.  From
    # then on only the rank is read, so the rows drop their tags.
    span = span_basis(d1)
    r1 = len(span)
    reducer: Basis = {}
    essential = False
    for j, col in enumerate(d0):
        v, combo = reduce_pair(col, 0 if essential else 1 << j, reducer)
        if v == 0 and not essential:
            essential = reduce_pair(combo, 1, span)[0] != 0
            if essential:
                for p, (row, _) in reducer.items():
                    reducer[p] = row, 0
    r0 = len(reducer)
    h0 = len(d0) - r0 - r1
    h1 = len(d1) - r1 - r0
    violations = []
    if h0 != 1:
        violations.append(f"homology: grading-0 homology has rank {h0}, expected 1")
    if h1 != 0:
        violations.append(f"homology: grading-1 homology has rank {h1}, expected 0")
    if violations:
        return violations, None
    # phi vanishes on the boundaries and is 1 on the essential cycle.
    return [], functional(span)


def validated_slices(c: BifilteredComplex) -> tuple[list[str], Optional[Slices]]:
    """Both stages of validation: the violations of the structural axioms
    (see `validate`) and, when there are none, the slices."""
    violations, columns = slice_columns(c)
    if not violations:
        violations, phi = essential_functional(*columns[4:])
    if violations:
        return violations, None
    return [], Slices(*columns, phi)


def validate(c: BifilteredComplex) -> list[str]:
    """Check the structural axioms; returns a list of violations (empty iff
    the complex is a valid knot complex).

    Checked: grading compatibility of every differential entry, filtration
    compatibility, d^2 = 0 over F2[U,U^-1], and that the homology is a single
    copy of F2[U,U^-1] with its generator in grading 0 (grading-0 slice
    homology has rank 1, grading-1 slice homology has rank 0; all other
    gradings are U-translates of these two).  The homology check, the
    second stage, runs when the others pass.
    """
    return validated_slices(c)[0]


def complex_to_json(c: BifilteredComplex) -> dict:
    return {
        "generators": [g._asdict() for g in c.generators],
        "differential": [
            {"source": i, "target": j, "exponents": sorted(exps)}
            for (i, j), exps in sorted(c.differential.items())
        ],
    }


_KINDS = {list: "a list", str: "a string", int: "an integer"}


def _checked(value, where: str, kind: type):
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"complex dump: {where} must be {_KINDS[kind]}")
    return value


def _field(obj, key: str, where: str, kind: type):
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"complex dump: {where}{key} is missing")
    return _checked(obj[key], where + key, kind)


def complex_from_json(d: dict) -> BifilteredComplex:
    """Inverse of complex_to_json; a malformed dump, or one that repeats an
    entry or an exponent, raises ValueError naming the first bad field."""
    gens = []
    for i, g in enumerate(_field(d, "generators", "", list)):
        where = f"generators[{i}]."
        gens.append(Generator(_field(g, "name", where, str),
                              *(_field(g, k, where, int)
                                for k in ("maslov", "alg", "alex"))))
    diff = {}
    for i, e in enumerate(_field(d, "differential", "", list)):
        where = f"differential[{i}]."
        exps: set[int] = set()
        for k, n in enumerate(_field(e, "exponents", where, list)):
            if _checked(n, f"{where}exponents[{k}]", int) in exps:
                raise ValueError(f"complex dump: {where}exponents[{k}] "
                                 f"repeats the exponent {n}")
            exps.add(n)
        key = (_field(e, "source", where, int),
               _field(e, "target", where, int))
        if key in diff:
            raise ValueError(f"complex dump: differential[{i}] repeats the "
                             f"entry from {key[0]} to {key[1]}")
        diff[key] = exps
    return BifilteredComplex(gens, diff)
