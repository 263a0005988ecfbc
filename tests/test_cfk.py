import itertools
import re
import tracemalloc
from collections import Counter
from fractions import Fraction as F

import pytest

import reference
from reference import apply, boundary, euler_characteristic, slice_levels
from upsilonkit.cfk import (
    BifilteredComplex,
    Generator,
    complex_from_json,
    complex_to_json,
    dual,
    from_staircase,
    shift_filtration,
    tensor,
    unknot_complex,
    validate,
    validated_slices,
)
from upsilonkit.expr import parse_expr, realize
from upsilonkit.f2 import span_basis
from upsilonkit.plfun import pl_equal
from upsilonkit.staircase import build_staircase
from upsilonkit.upsilon import upsilon_pl


def torus_complex(p, q):
    return from_staircase(build_staircase(p, q))


def slices(c):
    violations, sl = validated_slices(c)
    assert violations == []
    return sl


def levels(c, m):
    """The reference levels of the grading-m slice, in slice order."""
    return [(alg, alex) for _, _, alg, alex in slice_levels(c, m)]


def signature(c):
    """Multiset of (maslov, alg, alex) plus entry count; equal for complexes
    that agree up to generator relabeling."""
    return (Counter((g.maslov, g.alg, g.alex) for g in c.generators),
            len(c.differential))


BATTERY = [(2, 3), (2, 5), (3, 4), (3, 5)]


class TestConstruction:
    def test_unknot(self):
        c = unknot_complex()
        assert len(c) == 1
        assert validate(c) == []

    def test_t34(self):
        c = torus_complex(3, 4)
        assert len(c) == 5
        assert len(c.differential) == 4
        assert validate(c) == []

    def test_t23(self):
        c = torus_complex(2, 3)
        assert len(c) == 3
        assert len(c.differential) == 2
        assert validate(c) == []

    def test_gradings(self):
        c = torus_complex(3, 4)
        assert [g.maslov for g in c.generators] == [0, 0, 0, 1, 1]

    def test_entry_out_of_range(self):
        with pytest.raises(ValueError):
            BifilteredComplex([Generator("x", 0, 0, 0)], {(0, 1): {0}})

    @pytest.mark.parametrize("key", [(1.0, 0), (0, "1"), (True, 0), (0, False),
                                     0, (0, 1, 0)],
                             ids=["float", "str", "bool", "bool-target",
                                  "int", "triple"])
    def test_index_not_an_int(self, key):
        # A float index passed the range check and failed later in
        # validate; a str one failed the comparison with a TypeError.  An
        # int key failed to unpack with a TypeError, and a triple with a
        # ValueError that did not name the entry.
        gens = [Generator("x", 1, 0, 0), Generator("y", 0, 0, 0)]
        with pytest.raises(ValueError, match=re.escape(f"entry {key!r} is "
                                                       "not a pair of int")):
            BifilteredComplex(gens, {key: {0}})

    @pytest.mark.parametrize("exp", [0.0, "0", True],
                             ids=["float", "str", "bool"])
    def test_exponent_not_an_int(self, exp):
        # A float exponent was kept in the complex, a str one failed later
        # in validate with a TypeError, and True printed as U^True.
        gens = [Generator("x", 1, 0, 0), Generator("y", 0, 0, 0)]
        with pytest.raises(ValueError, match=re.escape(
                f"entry (0,1) has exponent {exp!r}, not an int")):
            BifilteredComplex(gens, {(0, 1): {exp}})

    @pytest.mark.parametrize("field, value", [
        ("name", 1), ("maslov", 0.0), ("alg", 0.5), ("alg", F(1, 2)),
        ("alg", True), ("alex", False)],
        ids=["name-int", "maslov-float", "alg-float", "alg-fraction",
             "alg-bool", "alex-bool"])
    def test_generator_field_type_refused(self, field, value):
        # A Fraction level gave upsilon over half-integer levels, a float
        # one failed deep in the engine with a TypeError, and True was
        # taken as 1.
        bad = Generator("y", 0, 0, 0)._replace(**{field: value})
        kind = "a str" if field == "name" else "an int"
        with pytest.raises(ValueError, match=re.escape(
                f"generator 1 has {field} {value!r}, not {kind}")):
            BifilteredComplex([Generator("x", 1, 0, 0), bad], {})

    def test_keeps_key_tuples(self):
        # The complex stores the caller's key, not a repacked copy.
        gens = [Generator("x", 1, 0, 0), Generator("y", 0, 0, 0)]
        key = (0, 1)
        c = BifilteredComplex(gens, {key: {0}})
        assert next(iter(c.differential)) is key

    def test_validate_battery(self):
        complexes = [torus_complex(p, q) for p, q in BATTERY]
        for a, b in itertools.combinations_with_replacement(complexes, 2):
            assert validate(tensor(a, b)) == []
            assert validate(dual(tensor(a, b))) == []
            assert validate(tensor(a, dual(b))) == []


class TestValidateViolations:
    def test_grading_violation(self):
        c = BifilteredComplex(
            [Generator("a", 0, 0, 0), Generator("b", 0, 1, 1)],
            {(1, 0): {0}})
        assert any("grading" in v for v in validate(c))
        # b -> a joins two grading-0 generators, c -> a rises in filtration:
        # validation lists exactly those two lines in entry order and stops
        # before building anything on the slices.
        gens = [Generator("a", 0, 1, 1), Generator("b", 0, 1, 1),
                Generator("c", 1, 0, 0)]
        grading = "grading: entry b->U^0.a does not drop the Maslov grading by 1"
        filtration = "filtration: entry c->U^0.a increases a filtration level"
        for entries, expected in (([(1, 0), (2, 0)], [grading, filtration]),
                                  ([(2, 0), (1, 0)], [filtration, grading])):
            c = BifilteredComplex(gens, {e: {0} for e in entries})
            assert validated_slices(c) == (expected, None)

    def test_filtration_violation(self):
        c = BifilteredComplex(
            [Generator("a", 0, 5, 5), Generator("b", 1, 0, 0)],
            {(1, 0): {0}})
        assert any("filtration" in v for v in validate(c))

    def test_d_squared_violation(self):
        # c -> b -> a survives once, so d^2(c) = a != 0
        c = BifilteredComplex(
            [Generator("a", 0, 0, 0), Generator("b", 1, 0, 0),
             Generator("c", 2, 0, 0)],
            {(1, 0): {0}, (2, 1): {0}})
        assert any("d^2" in v for v in validate(c))

    def test_violation_lists(self):
        # c -> b -> U^n.a: one line per nonzero d^2 component, and a
        # filtration violation still gets the d^2 check.
        def chain(levels, n):
            return BifilteredComplex(
                [Generator(name, *lv) for name, lv in zip("abc", levels)],
                {(1, 0): {n}, (2, 1): {0}})

        d2 = "d^2: component U^{}.a of d^2(c) is nonzero"
        assert validate(chain([(0, 0, 0), (1, 0, 0), (2, 0, 0)], 0)) == \
            [d2.format(0)]
        assert validate(chain([(1, 0, 0), (0, 0, 0), (1, 0, 0)], 1)) == \
            [d2.format(1)]
        assert validate(chain([(0, 5, 5), (1, 0, 0), (2, 0, 0)], 0)) == [
            "filtration: entry b->U^0.a increases a filtration level",
            d2.format(0)]
        # Odd gradings away from slice position 0: c -> b -> U^2.a with a
        # and c of gradings -1 and -3, behind x and y in the odd slice.
        c = BifilteredComplex(
            [Generator("x", 1, 0, 0), Generator("y", -1, 0, 0),
             Generator("a", -1, 0, 0), Generator("b", -4, 0, 0),
             Generator("c", -3, 0, 0)],
            {(3, 2): {2}, (4, 3): {0}})
        assert validate(c) == [d2.format(2)]

    def test_d_squared_names_the_callers_generators(self):
        # Three chains x -> y -> z with d^2(x) = z.  The slices number r
        # before c (levels (3,3) and (-1,-1)) and w before u, so the
        # messages come in slice order, and each still names the
        # generators of the caller's complex.
        gens = [Generator(name, maslov, a, a) for name, maslov, a in [
            ("a", 0, 0), ("b", 1, 0), ("c", 2, 0), ("p", 0, 4), ("q", 1, 4),
            ("r", 2, 4), ("u", 3, 6), ("v", 2, 6), ("w", 1, 6)]]
        index = {g.name: i for i, g in enumerate(gens)}
        c = BifilteredComplex(gens, {(index[x], index[y]): {0} for x, y in
                                     ("ba", "cb", "qp", "rq", "uv", "vw")})
        assert [gens[i].name for i, *_ in slice_levels(c, 0)] == list("vprac")
        assert [gens[i].name for i, *_ in slice_levels(c, 1)] == list("wuqb")
        assert validated_slices(c) == ([
            "d^2: component U^0.p of d^2(r) is nonzero",
            "d^2: component U^0.a of d^2(c) is nonzero",
            "d^2: component U^0.w of d^2(u) is nonzero"], None)

    def test_homology_violation_extra_generator(self):
        # two essential grading-0 classes
        c = BifilteredComplex(
            [Generator("a", 0, 0, 0), Generator("b", 0, 0, 0)], {})
        assert any("homology" in v for v in validate(c))

    def test_homology_violation_deleted_white(self):
        # dropping a middle white from the T(3,4) staircase kills the
        # grading-0 homology entirely
        gens = [g for i, g in enumerate(torus_complex(3, 4).generators)
                if i != 1]
        diff = {(2, 0): {0}, (3, 1): {0}}
        c = BifilteredComplex(gens, diff)
        assert any("homology" in v for v in validate(c))

    def test_deleted_arrow_still_valid(self):
        # removing one arrow splits off an acyclic pair; the homology is
        # still a single copy of F2[U,U^-1], so the complex stays valid
        full = torus_complex(3, 4)
        entries = dict(full.differential)
        entries.pop((3, 1))
        c = BifilteredComplex(full.generators, entries)
        assert validate(c) == []


class TestTensor:
    def test_unit(self):
        k = torus_complex(3, 4)
        assert signature(tensor(k, unknot_complex())) == signature(k)
        assert signature(tensor(unknot_complex(), k)) == signature(k)

    def test_t23_squared(self):
        c = tensor(torus_complex(2, 3), torus_complex(2, 3))
        assert len(c) == 9
        assert {g.maslov for g in c.generators} == {0, 1, 2}
        assert validate(c) == []

    def test_sizes_multiply(self):
        # T(2,5) has 5 generators, T(5,6) has 2*4+1 = 9 (four semigroup runs)
        c = tensor(torus_complex(2, 5), torus_complex(5, 6))
        assert len(c) == 45

    def test_commutative_up_to_relabeling(self):
        a, b = torus_complex(2, 5), torus_complex(3, 4)
        ab, ba = tensor(a, b), tensor(b, a)
        assert signature(ab) == signature(ba)
        assert pl_equal(upsilon_pl(ab), upsilon_pl(ba))

    def test_associative_up_to_relabeling(self):
        a, b, c = (torus_complex(2, 3), torus_complex(2, 5),
                   torus_complex(3, 4))
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert signature(left) == signature(right)
        assert pl_equal(upsilon_pl(left), upsilon_pl(right))

    def test_euler_characteristic(self):
        for p, q in BATTERY:
            assert euler_characteristic(torus_complex(p, q)) == 1
        assert euler_characteristic(
            tensor(torus_complex(2, 3), dual(torus_complex(2, 5)))) == 1

    @staticmethod
    def assert_matches_reference(a, b):
        c = tensor(a, b)
        gens, diff = reference.tensor(a, b)
        assert [tuple(g) for g in c.generators] == gens
        assert c.differential == diff
        assert all(type(e) is frozenset for e in c.differential.values())

    @pytest.mark.parametrize("a,b", itertools.product(BATTERY, repeat=2))
    def test_matches_reference(self, a, b):
        ka, kb = torus_complex(*a), torus_complex(*b)
        for x, y in itertools.product((ka, dual(ka)), (kb, dual(kb))):
            self.assert_matches_reference(x, y)

    def test_colliding_entries_add_over_f2(self):
        # A loop of a and a loop of b meet at x@y; d(x@y) = dx@y + x@dy
        # over F2 holds the symmetric difference of their exponents there,
        # next to each factor's own sets.
        a = BifilteredComplex(
            [Generator("x", 0, 0, 0), Generator("z", 1, 0, 0)],
            {(0, 0): {1, 2}, (1, 0): {0}})
        b = BifilteredComplex([Generator("y", 0, 0, 0)], {(0, 0): {2, 3}})
        self.assert_matches_reference(a, b)
        self.assert_matches_reference(b, a)
        assert tensor(a, b).differential == {
            (0, 0): {1, 3}, (1, 0): {0}, (1, 1): {2, 3}}
        # Two loops U^0 x -> x cancel in x@x, which leaves a single
        # generator with no differential: a valid complex, although each
        # factor is mis-graded.
        x = BifilteredComplex([Generator("x", 0, 0, 0)], {(0, 0): {0}})
        self.assert_matches_reference(x, x)
        assert validate(x) != []
        assert tensor(x, x).differential == {}
        assert validate(tensor(x, x)) == []

    def test_shares_factor_exponent_sets(self):
        # Every entry of the product holds an exponent set of a factor
        # entry, or their sum where entries collide: at most one object per
        # factor entry, where the product has 7752 entries.
        factors = [torus_complex(7, 8), torus_complex(2, 7),
                   dual(torus_complex(7, 9))]
        c = tensor(tensor(factors[0], factors[1]), factors[2])
        assert len(c.differential) == 7752
        distinct = {id(e) for e in c.differential.values()}
        assert len(distinct) <= sum(len(f.differential) for f in factors)

    def test_realize_memory(self):
        # A new set or frozenset per differential entry would take the peak
        # of realize(K_7) to about 5.5 MiB; shared exponent sets keep it
        # near 2.3 MiB.
        e = parse_expr("T(7,8) # T(2,7) # -T(7,9)")
        tracemalloc.start()
        try:
            c = realize(e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(c) == 2821
        assert peak < 3.5 * 2**20

    def test_realize_shares_index_ints(self):
        # Keys computed as i * nb + k hold a fresh int per index above 256
        # (14546 objects for 2821 indices of K_7, and realize(K_7) then
        # holds 1.68 MiB); one shared int per index holds about 1.2 MiB.
        e = parse_expr("T(7,8) # T(2,7) # -T(7,9)")
        tracemalloc.start()
        try:
            c = realize(e)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len({id(x) for key in c.differential for x in key}) <= len(c)
        assert held < 1.4 * 2**20


class TestDual:
    def test_unknot(self):
        assert signature(dual(unknot_complex())) == signature(unknot_complex())

    def test_t34(self):
        d = dual(torus_complex(3, 4))
        whites = sorted((g.alg, g.alex) for g in d.generators if g.maslov == 0)
        blacks = sorted((g.alg, g.alex) for g in d.generators if g.maslov == -1)
        assert whites == [(-3, 0), (-1, -1), (0, -3)]
        assert len(blacks) == 2
        assert validate(d) == []

    def test_involution(self):
        k = torus_complex(3, 4)
        dd = dual(dual(k))
        assert signature(dd) == signature(k)
        assert dd.differential == k.differential

    def test_dual_of_tensor(self):
        a = torus_complex(2, 3)
        lhs = dual(tensor(a, a))
        rhs = tensor(dual(a), dual(a))
        assert signature(lhs) == signature(rhs)
        assert pl_equal(upsilon_pl(lhs), upsilon_pl(rhs))

    def test_arrows_reversed(self):
        k = torus_complex(2, 3)
        d = dual(k)
        assert set(d.differential) == {(j, i) for i, j in k.differential}


def stabilized_t23():
    """T(2,3) staircase plus an acyclic pair joined by a U^1 arrow."""
    st = build_staircase(2, 3)
    base = from_staircase(st)
    gens = list(base.generators) + [Generator("x", -1, 5, 5),
                                    Generator("y", 0, 3, 3)]
    diff = dict(base.differential)
    diff[(3, 4)] = {1}
    return BifilteredComplex(gens, diff)


class TestNonzeroExponents:
    def test_stabilized_complex_valid(self):
        assert validate(stabilized_t23()) == []

    def test_dual_keeps_exponent_valid(self):
        # reversing x -> U^1 y to y* -> U^1 x* preserves the grading and
        # filtration axioms; any other exponent would break them
        d = dual(stabilized_t23())
        assert validate(d) == []
        assert d.differential[(4, 3)] == frozenset({1})

    def test_slice_translate_alignment(self):
        c = stabilized_t23()
        sl = slices(c)
        assert list(sl.basis1) == levels(c, 1)
        # x has grading -1, so its slice-1 translate is U^{-1} x at (6,6)
        x = [k for k, (_, n, _, _) in enumerate(slice_levels(c, 1))
             if n == -1]
        assert len(x) == 1 and sl.basis1[x[0]] == (6, 6)
        # b0 and the translate of x hit slice 0
        assert len(span_basis(sl.d1)) == 2


class TestGradingSlice:
    def test_t34_grading0(self):
        c = torus_complex(3, 4)
        sl = slices(c)
        assert list(sl.basis0) == levels(c, 0)
        assert len(sl.basis0) == 3
        assert all(g.maslov // 2 == 0 for g in c.generators
                   if g.maslov % 2 == 0)
        assert len(sl.d1) == 2  # from the two blacks
        assert len(span_basis(sl.d1)) == 2

    def test_unknot_grading1_empty(self):
        c = unknot_complex()
        sl = slices(c)
        assert sl.basis1 == ()
        assert list(sl.basis0) == levels(c, 0) and levels(c, 1) == []

    def test_tensor_translate(self):
        c = tensor(torus_complex(2, 3), torus_complex(2, 3))
        sl = slices(c)
        assert list(sl.basis0) == levels(c, 0)
        assert len(sl.basis0) == 5
        translated = [(k, i) for k, (i, n, _, _)
                      in enumerate(slice_levels(c, 0)) if n == 1]
        assert len(translated) == 1
        [(k, i)] = translated
        g = c.generators[i]
        assert g.maslov == 2
        assert sl.basis0[k] == (g.alg - 1, g.alex - 1)

    def test_slices_share_levels(self):
        # The slice bases hold one tuple object per distinct level: K_7's
        # 2821 slice elements sit at 496 levels.
        sl = slices(realize(parse_expr("T(7,8) # T(2,7) # -T(7,9)")))
        elements = sl.basis0 + sl.basis1
        assert len(elements) == 2821
        assert len({id(e) for e in elements}) == len(set(elements)) == 496

    def test_validation_memory(self):
        # A record per slice element took the peak of validating K_7 to
        # about 1.0 MiB; shared level tuples keep it near 0.73 MiB.
        c = realize(parse_expr("T(7,8) # T(2,7) # -T(7,9)"))
        tracemalloc.start()
        try:
            violations, sl = validated_slices(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert violations == [] and len(sl.basis0) + len(sl.basis1) == 2821
        assert peak < 0.85 * 2**20

    def test_boundary_composition_zero(self):
        for c in (torus_complex(3, 4),
                  tensor(torus_complex(2, 3), dual(torus_complex(2, 5)))):
            for m in (-1, 0, 1, 2):
                d_out = boundary(c, m)
                assert all(apply(d_out, col) == 0
                           for col in boundary(c, m + 1))

    def test_columns_match_reference(self):
        for c in (torus_complex(3, 4), stabilized_t23(),
                  tensor(torus_complex(2, 3), dual(torus_complex(2, 5)))):
            sl = slices(c)
            assert sl.d0 == boundary(c, 0)
            assert sl.d1 == boundary(c, 1)

    def test_parity_dimensions(self):
        c = tensor(torus_complex(2, 5), torus_complex(3, 4))
        even = sum(1 for g in c.generators if g.maslov % 2 == 0)
        sl = slices(c)
        assert len(sl.basis0) == even
        assert len(slice_levels(c, 2)) == even
        assert len(sl.basis1) == len(c.generators) - even


class TestShift:
    def test_zero_shift_identity(self):
        c = torus_complex(3, 4)
        s = shift_filtration(c, 0, 0)
        assert signature(s) == signature(c)
        assert s.differential == c.differential

    def test_shift_moves_levels(self):
        c = shift_filtration(torus_complex(3, 4), 0, -3)
        whites = sorted((g.alg, g.alex) for g in c.generators if g.maslov == 0)
        assert whites == [(0, 0), (1, -2), (3, -3)]
        assert validate(c) == []


def test_json_round_trip():
    c = tensor(torus_complex(2, 3), dual(torus_complex(2, 5)))
    c2 = complex_from_json(complex_to_json(c))
    assert signature(c2) == signature(c)
    assert c2.differential == c.differential
    assert [g.name for g in c2.generators] == [g.name for g in c.generators]


@pytest.mark.parametrize("dump,field", [
    ({}, "generators"),
    ({"generators": "x", "differential": []}, "generators"),
    ({"generators": [{"name": "a", "alg": 0, "alex": 0}], "differential": []},
     "generators[0].maslov"),
    ({"generators": [{"name": "a", "maslov": 0, "alg": 0, "alex": 0}]},
     "differential"),
    ({"generators": [{"name": "a", "maslov": 0, "alg": 0, "alex": 0},
                     {"name": "b", "maslov": -1, "alg": 0, "alex": 0}],
      "differential": [{"source": 0, "target": 1, "exponents": [0.5]}]},
     "differential[0].exponents[0]"),
    ({"generators": [{"name": "a", "maslov": 0, "alg": 0, "alex": 0},
                     {"name": "b", "maslov": 1, "alg": 0, "alex": 0}],
      "differential": [{"source": 1, "target": 0, "exponents": [0]},
                       {"source": 1, "target": 0, "exponents": []}]},
     "differential[1]"),
    ({"generators": [{"name": "a", "maslov": 0, "alg": 0, "alex": 0},
                     {"name": "b", "maslov": 1, "alg": 0, "alex": 0}],
      "differential": [{"source": 1, "target": 0, "exponents": [0, 0]}]},
     "differential[0].exponents[1]"),
])
def test_malformed_json_names_field(dump, field):
    with pytest.raises(ValueError, match=re.escape(f"complex dump: {field} ")):
        complex_from_json(dump)
