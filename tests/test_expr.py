import argparse
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
import warnings
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest

import reference
import upsilonkit
from upsilonkit.cfk import complex_from_json, tensor, validate
from upsilonkit.cli import _build_parser, main
from upsilonkit.expr import (
    ComplexTooLargeError,
    ExprSyntaxError,
    Term,
    Torus,
    Unknot,
    expected_generators,
    expr_to_str,
    parse_expr,
    realize,
)
from upsilonkit.plfun import NEG_INF, POS_INF, pl_equal, pl_from_samples
from upsilonkit.staircase import (alexander_torus, semigroup_runs,
                                  upsilon_staircase)


class TestParse:
    def test_torus(self):
        assert parse_expr("T(3,4)") == (Term(Torus(3, 4)),)

    def test_unknot(self):
        assert parse_expr("U") == (Term(Unknot()),)

    def test_vanishing_family_expression(self):
        e = parse_expr("T(5,6) # T(2,5) # -T(5,7)")
        assert e == (Term(Torus(5, 6)), Term(Torus(2, 5)),
                     Term(Torus(5, 7), mirror=True))

    def test_multiple_and_unknot(self):
        e = parse_expr("2*T(2,3) # U")
        assert e == (Term(Torus(2, 3), 2), Term(Unknot()))

    def test_whitespace_insensitive(self):
        assert parse_expr(" T( 2 , 3 )#-T(2,5) ") == \
            parse_expr("T(2,3)#-T(2,5)")

    def test_negative_multiple_normalizes(self):
        assert parse_expr("-2*T(2,3)") == (Term(Torus(2, 3), 2, True),)

    def test_one_copy_is_the_knot(self):
        assert parse_expr("1*T(2,3)") == parse_expr("T(2,3)")

    def test_zero_multiple_is_unknot(self):
        assert parse_expr("0*T(2,3)") == (Term(Unknot()),)
        assert parse_expr("-0*T(3,4)") == (Term(Unknot()),)

    def test_swap_warns(self):
        with pytest.warns(UserWarning, match="reordered"):
            assert parse_expr("T(4,3)") == (Term(Torus(3, 4)),)

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError, match="coprime"):
            parse_expr("T(4,6)")

    def test_equal_parameters_rejected(self):
        with pytest.raises(ValueError, match="coprime"):
            parse_expr("T(3,3)")
        with pytest.raises(ValueError, match="differ"):
            parse_expr("T(1,1)")

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("T(3,4) % T(2,3)")
        assert info.value.position == 7

    def test_truncated_input(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("T(3,")

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("T(3,4) T(2,3)")

    def test_empty(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("")

    def test_term_error_points_at_term(self):
        with pytest.raises(ExprSyntaxError, match="'T\\(3,x\\)'") as info:
            parse_expr("T(2,3) # T(3,x)")
        assert info.value.position == 9
        with pytest.raises(ExprSyntaxError, match="end of input") as info:
            parse_expr("T(2,3) #  ")
        assert info.value.position == 10

    def test_unicode_whitespace_ignored(self):
        # A no-break space, common in text copied from a PDF, is whitespace.
        assert parse_expr("T(5,6) # T(2,5)\xa0# -T(5,7)") == \
            parse_expr("T(5,6) # T(2,5) # -T(5,7)")
        assert parse_expr("\v\f-\u20032*T(2,3)\xa0") == \
            (Term(Torus(2, 3), 2, True),)

    def test_whitespace_does_not_end_input(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("T(2,3)\vT(9,9)")
        assert info.value.position == 7

    def test_long_whitespace_run_fails_fast(self):
        # A failed match backtracks over a run of whitespace in linear time.
        for text in (" " * 50000 + "x", "-" + " " * 50000 + "2" + " " * 50000):
            start = time.perf_counter()
            with pytest.raises(ExprSyntaxError) as info:
                parse_expr(text)
            assert time.perf_counter() - start < 1.0
            assert info.value.position == len(text) - len(text.lstrip())

    def test_literal_too_long_for_int(self):
        # int() refuses strings beyond sys.get_int_max_str_digits() digits.
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("1" * 5000 + "*U")
        assert info.value.position == 0


def _random_expr(rng: random.Random):
    tori = [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (2, 7)]

    def term():
        mirror = rng.random() < 0.4
        n = rng.choice([1, 1, 1, 2, 3])
        if rng.random() < 0.15:
            atom = Unknot()
        else:
            atom = Torus(*rng.choice(tori))
        return Term(atom, n, mirror)

    return tuple(term() for _ in range(rng.randint(2, 4) if rng.random() < 0.7
                                       else 1))


def _spaced(text: str, rng: random.Random) -> str:
    """text with a random run of whitespace around each token."""
    runs = ["", " ", "\t", "\v", "\f", "\xa0", " \xa0\t"]
    return "".join(rng.choice(runs) + token
                   for token in re.findall(r"\d+|\S", text)) + rng.choice(runs)


class TestRoundTrip:
    def test_parse_print_identity(self):
        rng = random.Random(71)
        for _ in range(60):
            e = _random_expr(rng)
            for text in (expr_to_str(e), _spaced(expr_to_str(e), rng)):
                assert parse_expr(text) == e, repr(text)

    def test_print_examples(self):
        assert expr_to_str(parse_expr("T(5,6)#T(2,5)#-T(5,7)")) == \
            "T(5,6) # T(2,5) # -T(5,7)"
        assert expr_to_str(parse_expr("-2*T(2,3)")) == "-2*T(2,3)"


def _no_sieve(p, q):
    raise AssertionError(f"semigroup of T({p},{q}) sieved")


class TestRealize:
    def test_unknot(self):
        assert len(realize(parse_expr("U"))) == 1

    @pytest.mark.parametrize("e", [(), (Term(Torus(2, 3), 0),)],
                             ids=["no-term", "zero-copies"])
    def test_no_summand_is_the_unknot(self, e):
        # The parser never builds these, but the library takes them: a sum
        # of no summands is the unknot, as expected_generators counts it.
        c = realize(e)
        assert [tuple(g) for g in c.generators] == [("u", 0, 0, 0)]
        assert c.differential == {}
        assert expected_generators(e) == len(c) == 1
        assert pl_equal(upsilonkit.upsilon_pl(c), upsilonkit.pl_constant(0))

    @pytest.mark.parametrize("max_generators", [None, 20000])
    def test_negative_copies_refused(self, max_generators):
        e = (Term(Torus(2, 5)), Term(Torus(2, 3), -1, True))
        message = re.escape("Term(atom=Torus(p=2, q=3), n=-1, mirror=True) "
                            "has a negative number of copies")
        with pytest.raises(ValueError, match=message):
            realize(e, max_generators=max_generators)
        with pytest.raises(ValueError, match=message):
            expected_generators(e)

    def test_torus_sizes(self):
        assert len(realize(parse_expr("T(2,5)#T(5,6)"))) == 45
        assert expected_generators(parse_expr("T(2,5)#T(5,6)")) == 45

    def test_vanishing_family_size(self):
        e = parse_expr("T(5,6) # T(2,5) # -T(5,7)")
        assert expected_generators(e) == 9 * 5 * 17
        k = realize(e)
        assert len(k) == 765
        assert validate(k) == []

    def test_multiple_matches_sum(self):
        a = realize(parse_expr("2*T(2,3)"))
        b = realize(parse_expr("T(2,3) # T(2,3)"))
        assert len(a) == len(b) == 9
        assert sorted((g.maslov, g.alg, g.alex) for g in a.generators) == \
            sorted((g.maslov, g.alg, g.alex) for g in b.generators)

    def test_size_guard(self):
        e = parse_expr("10*T(2,3)")
        assert expected_generators(e) == 3 ** 10
        with pytest.raises(ComplexTooLargeError, match="59049"):
            realize(e)

    def test_copies_tensor_left_to_right(self):
        c = realize(parse_expr("T(2,5) # 2*T(2,3)"))
        t25, t23 = realize(parse_expr("T(2,5)")), realize(parse_expr("T(2,3)"))
        ref = tensor(tensor(t25, t23), t23)
        assert c.generators == ref.generators
        assert c.differential == ref.differential

    def test_size_guard_counts_one_generator_summands(self):
        # n copies of U or T(1,q) have one generator but cost n - 1 tensor
        # products.
        for text in ("100000000*U", "1000000*T(1,3)"):
            with pytest.raises(ComplexTooLargeError,
                               match="above the limit of 20000"):
                realize(parse_expr(text))
        e = parse_expr("3*U # 2*T(1,3)")
        assert len(realize(e, max_generators=5)) == 1
        with pytest.raises(ComplexTooLargeError, match="has 5 summands"):
            realize(e, max_generators=4)

    def test_size_guard_refuses_before_sieving(self, monkeypatch):
        monkeypatch.setattr("upsilonkit.staircase.semigroup_runs", _no_sieve)
        # T(p,p+1) has 2p - 1 generators and T(2,q) has q; a multiple's
        # count stops growing once it passes the limit.
        for text, match in (("T(10001,10002)", "needs 20001 generators"),
                            ("T(2,100000001)", "needs 100000001 generators"),
                            ("T(4999,10000)", "needs 24994999 generators"),
                            ("1000000*T(2,3)", "above the limit of 20000"),
                            ("100*T(2,3)", "needs at least 14348907 "),
                            # a count cut short is a lower bound
                            ("T(4999,10000) # T(2,3)",
                             "needs at least 24994999 "),
                            ("T(2,3) # T(4999,10000)", "needs 74984997 ")):
            with pytest.raises(ComplexTooLargeError, match=match):
                realize(parse_expr(text))
        assert expected_generators(parse_expr("100*T(2,3)")) == 3 ** 100

    def test_size_guard_counts_past_trivial_factors(self):
        # Copies of a one-generator torus cut no count short: 20 is above
        # the 5 copies a factor of at least 3 needs to pass 21.
        assert len(realize(parse_expr("20*T(1,3) # T(2,3)"),
                           max_generators=21)) == 3
        with pytest.raises(ComplexTooLargeError, match="needs 25 generators"):
            realize(parse_expr("20*T(1,3) # T(2,25)"), max_generators=21)

    def test_closed_form_matches_sieve(self):
        # The sieve is the reference: the same runs, and 2*runs + 1
        # generators per torus.
        for p in range(1, 40):
            for q in range(p + 1, 120):
                if gcd(p, q) == 1:
                    runs, tail = reference.semigroup_runs(p, q)
                    starts = [s for s, _ in runs] + [tail]
                    ends = [e for _, e in runs]
                    assert semigroup_runs(p, q) == (starts, ends), (p, q)
                    assert expected_generators((Term(Torus(p, q)),)) == \
                        2 * len(runs) + 1, (p, q)

    def test_one_sieve_per_factor_when_building(self, monkeypatch):
        sieved = []

        def counted(p, q):
            sieved.append((p, q))
            return semigroup_runs(p, q)

        monkeypatch.setattr("upsilonkit.staircase.semigroup_runs", counted)
        realize(parse_expr("T(7,8) # T(2,7) # -T(7,9)"))
        # the size check lists no runs; each staircase lists them once
        assert sieved == [(7, 8), (2, 7), (7, 9)]
        sieved.clear()
        realize(parse_expr("3*T(2,5)"))
        assert sieved == [(2, 5)]

    def test_size_guard_admits_every_fitting_knot(self):
        # A limit equal to the exact count builds the knot.
        for p in range(1, 20):
            for q in range(p + 1, 30):
                if gcd(p, q) == 1:
                    e = (Term(Torus(p, q)),)
                    n = expected_generators(e)
                    assert len(realize(e, max_generators=n)) == n, (p, q)

    def test_size_guard_override(self):
        e = parse_expr("T(2,3) # T(2,3)")
        assert len(realize(e, max_generators=9)) == 9
        with pytest.raises(ComplexTooLargeError):
            realize(e, max_generators=8)

    def test_battery_validates(self):
        for text in ("T(3,4)", "-T(3,4)", "2*T(2,3) # U",
                     "T(2,5) # -T(2,5)", "T(3,4) # -T(2,3)"):
            assert validate(realize(parse_expr(text))) == [], text


_T34_TERMS = ('{"terms": [{"exp": 0, "coef": 1}, {"exp": 1, "coef": -1}, '
              '{"exp": 3, "coef": 1}, {"exp": 5, "coef": -1}, '
              '{"exp": 6, "coef": 1}]}')
_ZERO, _TWO = '{"num": 0, "den": 1}', '{"num": 2, "den": 1}'


def _dump(gens, arrows):
    """dump-complex stdout of the generators (name, maslov, alg, alex) and
    the differential entries (source, target), all with U-exponent 0."""
    return json.dumps({
        "generators": [dict(zip(("name", "maslov", "alg", "alex"), g))
                       for g in gens],
        "differential": [{"source": i, "target": j, "exponents": [0]}
                         for i, j in arrows],
    }, indent=2) + "\n"

# Exact stdout of the text and JSON forms, one case per command.
PINNED_OUTPUTS = [
    (["alexander", "T(3,4)"], "1 - t + t^3 - t^5 + t^6\n"),
    (["alexander", "U"], "1\n"),
    (["alexander", "T(1,5)"], "1\n"),
    (["alexander", "T(3,4)", "--json"], _T34_TERMS + "\n"),
    (["alexander", "U", "--json"], '{"terms": [{"exp": 0, "coef": 1}]}\n'),
    (["alexander", "T(1,5)", "--json"],
     '{"terms": [{"exp": 0, "coef": 1}]}\n'),
    (["upsilon", "U", "--json"],
     f'{{"breakpoints": [{{"t": {_ZERO}, "v": {_ZERO}}}, '
     f'{{"t": {_TWO}, "v": {_ZERO}}}]}}\n'),
    (["upsilon", "T(3,4)", "--json"],
     f'{{"breakpoints": [{{"t": {_ZERO}, "v": {_ZERO}}}, '
     '{"t": {"num": 2, "den": 3}, "v": {"num": -2, "den": 1}}, '
     '{"t": {"num": 4, "den": 3}, "v": {"num": -2, "den": 1}}, '
     f'{{"t": {_TWO}, "v": {_ZERO}}}]}}\n'),
    (["upsilon2", "T(3,4)", "--json", "--t", "2/3"],
     '{"num": -4, "den": 3}\n'),
    (["upsilon2", "T(3,4)", "--json", "--t", "1"], '{"inf": 1}\n'),
    (["jumps", "T(3,4)", "--json"],
     '[{"t": {"num": 2, "den": 3}, "is_jump": true, '
     '"upsilon2": {"num": -4, "den": 3}}, '
     '{"t": {"num": 1, "den": 1}, "is_jump": false, "upsilon2": {"inf": 1}}, '
     '{"t": {"num": 4, "den": 3}, "is_jump": true, '
     '"upsilon2": {"num": -4, "den": 3}}]\n'),
    (["dump-complex", "T(3,4)"],
     _dump([("w0", 0, 0, 3), ("w1", 0, 1, 1), ("w2", 0, 3, 0),
            ("b0", 1, 1, 3), ("b1", 1, 3, 1)],
           [(3, 0), (3, 1), (4, 1), (4, 2)])),
    (["dump-complex", "T(1,5)"], _dump([("w0", 0, 0, 0)], [])),
    (["dump-complex", "U"], _dump([("u", 0, 0, 0)], [])),
    (["dump-complex", "T(2,3) # -T(2,3)"],
     _dump([("w0|w0*", 0, 0, 0), ("w0|w1*", 0, -1, 1),
            ("w0|b0*", -1, -1, 0), ("w1|w0*", 0, 1, -1),
            ("w1|w1*", 0, 0, 0), ("w1|b0*", -1, 0, -1),
            ("b0|w0*", 1, 1, 0), ("b0|w1*", 1, 0, 1), ("b0|b0*", 0, 0, 0)],
           [(0, 2), (1, 2), (3, 5), (4, 5), (6, 0), (6, 3), (6, 8),
            (7, 1), (7, 4), (7, 8), (8, 2), (8, 5)])),
]

# The whole stderr of each refusal, exit code 2; a warning is one line.
REFUSALS = [
    (["upsilon", "T(4,6)"],
     "error: torus parameters must be coprime, got T(4,6)\n"),
    (["upsilon", "T(0,5)"],
     "error: torus parameters must be positive, got T(0,5)\n"),
    (["upsilon", "T(5,0)"],
     "error: torus parameters must be positive, got T(5,0)\n"),
    (["upsilon", "T(3,3)"],
     "error: torus parameters must be coprime, got T(3,3)\n"),
    (["upsilon", "T(1,1)"],
     "error: torus parameters must differ, got T(1,1)\n"),
    (["upsilon", "T(6,4)"],
     "warning: torus parameters reordered: T(6,4) = T(4,6)\n"
     "error: torus parameters must be coprime, got T(4,6)\n"),
    (["alexander", "2*U"],
     "error: alexander: only certified for torus knots, got 2*U\n"),
    (["alexander", "-T(2,3)"],
     "error: alexander: only certified for torus knots, got -T(2,3)\n"),
]


class TestCLI:
    @pytest.mark.parametrize("args, stdout", PINNED_OUTPUTS,
                             ids=[" ".join(a) for a, _ in PINNED_OUTPUTS])
    def test_pinned_output(self, capsys, args, stdout):
        assert main(args) == 0
        assert capsys.readouterr().out == stdout

    def test_upsilon_text(self, capsys):
        assert main(["upsilon", "T(3,4)"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["0\t0", "2/3\t-2", "4/3\t-2", "2\t0"]

    def test_upsilon_unknot(self, capsys):
        assert main(["upsilon", "U"]) == 0
        assert capsys.readouterr().out.splitlines() == ["0\t0", "2\t0"]

    def test_upsilon_json(self, capsys):
        assert main(["upsilon", "T(2,3)", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["breakpoints"][1] == {"t": {"num": 1, "den": 1},
                                          "v": {"num": -1, "den": 1}}

    def test_upsilon_json_round_trip(self, capsys):
        assert main(["upsilon", "T(3,4)", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        decoded = [(F(p["t"]["num"], p["t"]["den"]),
                    F(p["v"]["num"], p["v"]["den"]))
                   for p in data["breakpoints"]]
        assert pl_equal(pl_from_samples(decoded), upsilon_staircase(3, 4))
        assert data["breakpoints"][1] == {"t": {"num": 2, "den": 3},
                                          "v": {"num": -2, "den": 1}}

    def test_upsilon2_json_values(self, capsys, monkeypatch):
        for value, encoded in [(POS_INF, {"inf": 1}), (NEG_INF, {"inf": -1}),
                               (F(3, 7), {"num": 3, "den": 7})]:
            monkeypatch.setattr("upsilonkit.cli.upsilon2",
                                lambda c, t, s: value)
            assert main(["upsilon2", "T(3,4)", "--t", "1", "--json"]) == 0
            assert json.loads(capsys.readouterr().out) == encoded

    def test_upsilon2(self, capsys):
        assert main(["upsilon2", "T(7,8)", "--t", "4/7"]) == 0
        assert capsys.readouterr().out.strip() == "-20/7"

    def test_upsilon2_json_infinite(self, capsys):
        assert main(["upsilon2", "T(3,4)", "--t", "1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"inf": 1}

    def test_upsilon2_explicit_s(self, capsys):
        assert main(["upsilon2", "T(3,4)", "--t", "2/3", "--s", "2/3"]) == 0
        assert capsys.readouterr().out.strip() == "-4/3"

    def test_jumps_table(self, capsys):
        assert main(["jumps", "T(7,11)", "--max-t", "4/7"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t\tjump\tupsilon2"
        jumps = [l.split("\t") for l in lines[1:] if "\tyes\t" in l]
        assert [j[0] for j in jumps] == ["2/7", "1/2", "4/7"]
        assert [j[2] for j in jumps] == ["-12/7", "-3/2", "-12/7"]

    def test_alexander_text(self, capsys):
        assert main(["alexander", "T(3,4)"]) == 0
        assert capsys.readouterr().out.strip() == "1 - t + t^3 - t^5 + t^6"

    def test_alexander_text_matches_terms(self, capsys):
        for p, q in [(p, q) for p in range(1, 9) for q in range(p + 1, 12)
                     if gcd(p, q) == 1]:
            assert main(["alexander", f"T({p},{q})"]) == 0
            words = capsys.readouterr().out.split()  # 1 - t + t^3 ...
            read = [(0 if mono == "1" else int(mono[2:] or 1),
                     1 if sign == "+" else -1)
                    for sign, mono in zip(["+"] + words[1::2], words[0::2])]
            assert read == list(alexander_torus(p, q)), (p, q)

    def test_alexander_json_round_trip(self, capsys):
        assert main(["alexander", "T(3,4)", "--json"]) == 0
        terms = json.loads(capsys.readouterr().out)["terms"]
        assert tuple((t["exp"], t["coef"]) for t in terms) == \
            alexander_torus(3, 4)
        assert terms == [
            {"exp": 0, "coef": 1}, {"exp": 1, "coef": -1}, {"exp": 3, "coef": 1},
            {"exp": 5, "coef": -1}, {"exp": 6, "coef": 1}]

    def test_alexander_one_copy(self, capsys):
        assert main(["alexander", "1*T(3,4)"]) == 0
        assert capsys.readouterr().out.strip() == "1 - t + t^3 - t^5 + t^6"

    def test_alexander_rejects_sums(self, capsys):
        assert main(["alexander", "T(3,4) # T(2,3)"]) == 2

    def test_alexander_size_guard_refuses_before_sieving(self, capsys,
                                                         monkeypatch):
        monkeypatch.setattr("upsilonkit.staircase.semigroup_runs", _no_sieve)
        assert main(["alexander", "T(10001,10002)"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "has 20001 Alexander terms" in err

    def test_huge_torus_refused_without_sieving(self, capsys, monkeypatch):
        monkeypatch.setattr("upsilonkit.staircase.semigroup_runs", _no_sieve)
        for command in ("upsilon", "alexander"):
            assert main([command, "T(4999,10000)"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "24994999" in err, command

    def test_alexander_size_guard_bound(self, capsys, monkeypatch):
        # T(3,4) has 2*3 - 1 = 5 terms and T(4,5) has 7.
        monkeypatch.setattr("upsilonkit.cli.DEFAULT_GENERATOR_LIMIT", 5)
        assert main(["alexander", "T(3,4)"]) == 0
        assert main(["alexander", "T(4,5)"]) == 2
        assert "has 7 Alexander terms" in capsys.readouterr().err

    def test_alexander_size_guard_is_exact(self, capsys):
        # 21713 terms: above the limit, though max(2p - 1, q) = 467 is not.
        assert main(["alexander", "T(93,467)"]) == 2
        assert "has 21713 Alexander terms" in capsys.readouterr().err

    def test_dump_complex_round_trip(self, capsys):
        assert main(["dump-complex", "T(2,5) # -T(2,3)"]) == 0
        data = json.loads(capsys.readouterr().out)
        c = complex_from_json(data)
        assert len(c) == 15
        assert validate(c) == []

    def test_dump_complex_golden(self, capsys):
        assert main(["dump-complex", "T(2,3)"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "generators": [
                {"name": "w0", "maslov": 0, "alg": 0, "alex": 1},
                {"name": "w1", "maslov": 0, "alg": 1, "alex": 0},
                {"name": "b0", "maslov": 1, "alg": 1, "alex": 1},
            ],
            "differential": [
                {"source": 2, "target": 0, "exponents": [0]},
                {"source": 2, "target": 1, "exponents": [0]},
            ],
        }

    def test_parse_error_exit_code(self, capsys):
        assert main(["upsilon", "T(3,4"]) == 2
        assert "syntax error" in capsys.readouterr().err

    def test_no_break_space_expression(self, capsys):
        # The paper's K_5 with a no-break space has vanishing upsilon.
        assert main(["upsilon", "--", "T(5,6) # T(2,5)\xa0# -T(5,7)"]) == 0
        assert capsys.readouterr().out.splitlines() == ["0\t0", "2\t0"]

    def test_vertical_tab_is_not_end_of_input(self, capsys):
        assert main(["upsilon", "T(2,3)\vT(9,9)"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "syntax error at position 7" in captured.err

    def test_readme_command_lines(self, capsys):
        # Every example of README's "Command line" block runs; a comment
        # "-> value (...)", or one that is a polynomial, is its first line.
        root = Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
        lines = block.split("```", 1)[0].splitlines()
        assert len(lines) == 10
        for line in lines:
            command, comment = re.fullmatch(r"(.*?) {2,}# (.*)", line).groups()
            argv = shlex.split(command)
            assert argv[0] == "upsilonkit", line
            assert main(argv[1:]) == 0, line
            first = capsys.readouterr().out.splitlines()[0]
            if comment.startswith("-> "):
                assert first == comment[3:].split(" (")[0], line
            elif re.fullmatch(r"[\dt^+\- ]+", comment):
                assert first == comment, line

    def test_non_coprime_exit_code(self, capsys):
        assert main(["upsilon", "T(6,9)"]) == 2

    @pytest.mark.parametrize("args, stderr", REFUSALS,
                             ids=[" ".join(a) for a, _ in REFUSALS])
    def test_refusal_stderr(self, capsys, args, stderr):
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == stderr

    def test_warning_leaves_no_state(self, capsys):
        filters, show = warnings.filters[:], warnings.showwarning
        assert main(["upsilon", "T(3,2)"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "0\t0\n1\t-1\n2\t0\n"
        assert captured.err == ("warning: torus parameters reordered: "
                                "T(3,2) = T(2,3)\n")
        assert warnings.filters == filters
        assert warnings.showwarning is show

    def test_warning_as_error_exit_code(self, capsys):
        # Under a warning filter of "error" the reorder warning is raised:
        # an input error, exit 2, not a traceback.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["upsilon", "T(4,3)"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: torus parameters reordered: "
                                "T(4,3) = T(3,4)\n")

    def test_warning_as_error_exit_code_subprocess(self):
        run = subprocess.run(
            [sys.executable, "-W", "error", "-m", "upsilonkit", "upsilon",
             "T(4,3)"], cwd=Path(upsilonkit.__file__).resolve().parents[1],
            capture_output=True, text=True, timeout=60)
        assert run.returncode == 2
        assert run.stdout == ""
        assert run.stderr == ("error: torus parameters reordered: "
                              "T(4,3) = T(3,4)\n")

    def test_leading_minus_expression(self, capsys):
        assert main(["upsilon", "--", "-T(2,3)"]) == 0
        after_dashes = capsys.readouterr().out
        assert main(["upsilon", "-T(2,3)"]) == 0
        assert capsys.readouterr().out == after_dashes

    def test_leading_minus_upsilon2(self, capsys):
        assert main(["upsilon2", "-T(7,8)", "--t", "4/7"]) == 0
        assert capsys.readouterr().out.strip() == "inf"

    def test_leading_minus_jumps(self, capsys):
        assert main(["jumps", "-T(3,4)"]) == 0
        rows = [l.split("\t") for l in capsys.readouterr().out.splitlines()[1:]]
        assert rows and all(r[1:] == ["no", "inf"] for r in rows)

    def test_help_still_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["upsilon", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: upsilonkit upsilon")

    def test_every_option_has_help(self):
        # Each subcommand's --help describes every option it lists.
        [sub] = [a for a in _build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
        bare = [(name, action.option_strings[0])
                for name, parser in sub.choices.items()
                for action in parser._actions
                if action.option_strings and not action.help]
        assert bare == []

    def test_internal_error_exit_code(self, capsys, monkeypatch):
        def failing_check(c):
            raise AssertionError("no essential cycle")

        monkeypatch.setattr("upsilonkit.cli.upsilon_pl", failing_check)
        assert main(["upsilon", "T(2,3)"]) == 3
        err = capsys.readouterr().err
        assert err == "internal error: no essential cycle\n"
        assert "Traceback" not in err

    def test_size_guard_exit_code(self, capsys):
        assert main(["upsilon", "10*T(2,3)"]) == 2
        assert "generators" in capsys.readouterr().err
        assert main(["upsilon", "100000000*U"]) == 2
        assert "100000000 summands, above the limit" in capsys.readouterr().err

    def test_rational_forms_only(self, capsys):
        # Exponent notation is refused before Fraction expands it.
        with pytest.raises(SystemExit) as exc:
            main(["upsilon2", "T(3,4)", "--t", "1e5000"])
        assert exc.value.code == 2
        assert "not a rational: '1e5000'" in capsys.readouterr().err
        assert main(["upsilon2", "T(3,4)", "--t", "+2/3", "--s", "2"]) == 0

    def test_size_guard_disable(self, capsys):
        assert main(["upsilon", "5*T(2,3)", "--max-generators", "0"]) == 0

    def test_size_guard_negative_rejected(self, capsys):
        # A negative bound must not turn the guard off.
        assert main(["upsilon", "5*T(2,3)", "--max-generators", "-1"]) == 2
        assert "--max-generators" in capsys.readouterr().err

    def test_size_guard_default_from_expr(self, monkeypatch, capsys):
        # The option's default is the library's limit, read when the parser
        # is built: 2*T(2,3) has 9 generators, over a limit of 5.
        monkeypatch.setattr("upsilonkit.cli.DEFAULT_GENERATOR_LIMIT", 5)
        assert main(["upsilon", "2*T(2,3)"]) == 2
        assert "generators" in capsys.readouterr().err

    @staticmethod
    def run_writing_to(target, unbuffered, args):
        """`python -m upsilonkit args` with stdout on target, "/dev/full" or
        "closed pipe", and PYTHONUNBUFFERED set or unset."""
        if target == "/dev/full" and not os.path.exists(target):
            pytest.skip("no /dev/full on this system")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        if target == "closed pipe":
            read_end, out = os.pipe()
            os.close(read_end)
        else:
            out = os.open(target, os.O_WRONLY)
        try:
            return subprocess.run(
                [sys.executable, "-m", "upsilonkit", *args],
                cwd=Path(upsilonkit.__file__).resolve().parents[1], env=env,
                stdout=out, stderr=subprocess.PIPE, text=True, timeout=60)
        finally:
            os.close(out)

    @pytest.mark.parametrize("target, unbuffered", [
        ("/dev/full", False), ("/dev/full", True), ("closed pipe", False)])
    def test_write_failure_exit_code(self, target, unbuffered):
        # Output that cannot be written exits 4 with one line on stderr: not
        # 1 (a verification mismatch), nor a traceback, nor the 120 of a
        # failed flush at interpreter shutdown.
        run = self.run_writing_to(target, unbuffered, ["upsilon", "T(3,4)"])
        assert run.returncode == 4
        [line] = run.stderr.splitlines()
        assert line.startswith("error: cannot write output: ")

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("args", [["--help"], ["upsilon", "-h"]])
    def test_help_write_failure_exit_code(self, args, unbuffered):
        # argparse drops write errors: unbuffered, the help would exit 0;
        # buffered, its flush at shutdown would fail with exit 120.
        run = self.run_writing_to("/dev/full", unbuffered, args)
        assert run.returncode == 4
        [line] = run.stderr.splitlines()
        assert line.startswith("error: cannot write output: ")

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_usage_error_with_unwritable_stdout(self, unbuffered):
        # A usage error writes only to stderr, so it still exits 2.
        run = self.run_writing_to("/dev/full", unbuffered, ["jumps"])
        assert run.returncode == 2
        assert run.stderr.startswith("usage: upsilonkit jumps")
        assert "the following arguments are required: expr" in run.stderr

    def test_verify_fast(self, capsys):
        assert main(["verify-paper", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "all 13 checks passed" in out
        assert out.count("PASS") == 13

    def test_verify_deterministic(self, capsys):
        assert main(["verify-paper", "--fast"]) == 0
        first = capsys.readouterr().out
        assert main(["verify-paper", "--fast"]) == 0
        second = capsys.readouterr().out
        assert first == second


def test_readme_library_block():
    # README's "Library" block runs line by line, and a comment that is a
    # value, a Fraction or a tuple, is the value of its line.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1]
    scope, checked = {}, 0
    for line in block.split("```", 1)[0].splitlines():
        code, comment = re.fullmatch(r"(.*?)(?: {2,}# (.*))?", line).groups()
        if comment and re.fullmatch(r"Fraction\(.*\)|\(.*\)", comment):
            assert eval(code, scope) == eval(comment, scope), line
            checked += 1
        else:
            exec(code, scope)
    assert checked == 2
