"""Reproduction suite for the published numerical claims about upsilon and
the secondary upsilon of torus knots.

Every check recomputes its claim from first definitions with exact
arithmetic: the staircase fast path against the definitional engine, the
Alexander polynomial algorithm against the classical quotient formula, the
jump structure and secondary-invariant values of the torus-knot families,
the stable-inequivalence comparisons, and the vanishing-upsilon family, the
latter both by direct tensor computation and through the subadditivity
certificate.  Output is deterministic, so runs can be diffed byte for byte.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, NamedTuple

from .cfk import dual, from_staircase, shift_filtration, tensor
from .expr import parse_expr, realize
from .plfun import (POS_INF, ExtRational, format_ext, is_finite, pl_add,
                    pl_constant, pl_equal, pl_neg)
from .staircase import (alexander_oracle, alexander_torus, build_staircase,
                        staircase_steps, upsilon_staircase)
from .upsilon import (candidate_parameters, check_subadditivity, gamma_at,
                      is_jump_value, jump_values, upsilon2, upsilon_pl)


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def _verdict(name: str, detail: str, label: str, bad: list) -> CheckResult:
    """Passes iff nothing is bad; a failure lists the bad cases under label."""
    return CheckResult(name, not bad,
                       detail + (f"; {label}: {bad}" if bad else ""))


def _coprime_pairs(pmin: int, pmax: int, qmax: int) -> list[tuple[int, int]]:
    return [(p, q) for p in range(pmin, pmax + 1)
            for q in range(p + 1, qmax + 1) if gcd(p, q) == 1]


def _torus_complex(p: int, q: int):
    return from_staircase(build_staircase(p, q))


def _jumps_up_to(c, t: Fraction) -> dict[Fraction, ExtRational]:
    """The jumps of c up to t, in increasing order, with their diagonal
    secondary values."""
    return {r.t: r.upsilon2 for r in jump_values(c, max_t=t) if r.is_jump}


def check_alexander_agreement(fast: bool = False) -> CheckResult:
    """Semigroup-run Alexander polynomials equal the (1-t^{pq})(1-t) over
    (1-t^p)(1-t^q) quotient for every coprime pair in range."""
    qmax = 16 if fast else 30
    pairs = _coprime_pairs(2, qmax - 1, qmax)
    return _verdict(
        "alexander-oracle-agreement",
        f"{len(pairs)} coprime pairs with 2 <= p < q <= {qmax}", "mismatches",
        [(p, q) for p, q in pairs
         if alexander_torus(p, q) != alexander_oracle(p, q)])


def check_t34_golden(fast: bool) -> CheckResult:
    """Staircase steps and upsilon breakpoints of T(3,4); one size only, so
    fast changes nothing."""
    steps = staircase_steps(3, 4)
    ups = upsilon_staircase(3, 4)
    want = tuple((Fraction(t), Fraction(v)) for t, v in
                 [(0, 0), (Fraction(2, 3), -2), (Fraction(4, 3), -2), (2, 0)])
    ok = (steps == [1, 2, 2, 1] and ups.breakpoints == want
          and pl_equal(upsilon_pl(_torus_complex(3, 4)), ups))
    pts = ", ".join(f"({t},{v})" for t, v in ups.breakpoints)
    return CheckResult("t34-golden-values", ok,
                       f"steps {steps}, breakpoints {pts}")


def check_fastpath_vs_engine(fast: bool = False) -> CheckResult:
    """Envelope fast path equals the definitional engine on every torus-knot
    staircase complex in range."""
    qmax = 10 if fast else 16
    pairs = _coprime_pairs(2, qmax - 1, qmax)
    return _verdict(
        "staircase-fast-path",
        f"{len(pairs)} coprime pairs with p < q <= {qmax}", "mismatches",
        [(p, q) for p, q in pairs
         if not pl_equal(upsilon_staircase(p, q),
                         upsilon_pl(_torus_complex(p, q)))])


def check_recursion(fast: bool = False) -> CheckResult:
    """Torus-knot recursion: upsilon(T(p,q)) = upsilon(T(p,q-p)) +
    upsilon(T(p,p+1)), with T(1,n) contributing zero.  Each staircase
    upsilon that some identity reads is computed once."""
    qmax = 12 if fast else 20
    pairs = _coprime_pairs(2, qmax - 1, qmax)
    terms = {(p, q): (tuple(sorted((p, q - p))), (p, p + 1))
             for p, q in pairs}
    needed = {pq for lhs, rhs in terms.items() for pq in (lhs, *rhs)}
    ups = {pq: upsilon_staircase(*pq) for pq in needed}
    return _verdict(
        "torus-recursion",
        f"{len(pairs)} coprime pairs with p < q <= {qmax}", "mismatches",
        [pq for pq, (a, b) in terms.items()
         if not pl_equal(ups[pq], pl_add(ups[a], ups[b]))])


def check_first_jump(fast: bool = False) -> CheckResult:
    """t = 2/p is the first jump of T(p,q), with diagonal secondary value
    -2(p-1)/p and no jump below it."""
    ps = (3, 5) if fast else (3, 5, 7)
    cases = [(p, q) for p in ps for _, q in _coprime_pairs(p, p, 13)]
    return _verdict(
        "first-jump-value",
        f"{len(cases)} torus knots with p in {ps}, q <= 13", "failures",
        [(p, q) for p, q in cases
         if _jumps_up_to(_torus_complex(p, q), Fraction(2, p))
         != {Fraction(2, p): Fraction(-2 * (p - 1), p)}])


def _secondary_at_4_over_p(p: int, k: int) -> bool:
    """T(p,p+k) at s = 4/p: s is a jump with diagonal secondary value
    -4(max(k, p-k) - 1)/p, and the jumps below s are exactly 2/p, and 2/k
    when 2k > p."""
    s = Fraction(4, p)
    jumps = _jumps_up_to(_torus_complex(p, p + k), s)
    below = [Fraction(2, p)] + ([Fraction(2, k)] if 2 * k > p else [])
    return (list(jumps) == below + [s]
            and jumps[s] == Fraction(-4 * (max(k, p - k) - 1), p))


def check_adjacent_torus(fast: bool = False) -> CheckResult:
    """T(p,p+1): diagonal secondary value -4(p-2)/p at s = 4/p, and the only
    jump below 4/p is 2/p."""
    ps = (3, 5, 7) if fast else (3, 5, 7, 9, 11)
    return _verdict("secondary-value-adjacent-torus", f"p in {ps}", "failures",
                    [p for p in ps if not _secondary_at_4_over_p(p, 1)])


def check_small_k(fast: bool = False) -> CheckResult:
    """T(p,p+k) with 2 <= k < p/2: diagonal secondary value -4(p-k-1)/p at
    s = 4/p, and the only jump below 4/p is 2/p."""
    pairs = [(5, 2), (7, 2), (7, 3), (9, 2), (11, 3)][:3 if fast else None]
    return _verdict("secondary-value-small-k", f"(p,k) in {pairs}", "failures",
                    [pk for pk in pairs if not _secondary_at_4_over_p(*pk)])


def check_large_k(fast: bool = False) -> CheckResult:
    """T(p,p+k) with p/2 < k <= p-2: diagonal secondary value -4(k-1)/p at
    s = 4/p, and the jumps below 4/p are exactly 2/p and 2/k."""
    pairs = [(5, 3), (7, 4), (7, 5), (9, 5), (9, 7)][:3 if fast else None]
    return _verdict("secondary-value-large-k", f"(p,k) in {pairs}", "failures",
                    [pk for pk in pairs if not _secondary_at_4_over_p(*pk)])


def check_non_jump(fast: bool = False) -> CheckResult:
    """s = 4/q is never a jump value of T(p,q) for p < q < 2p."""
    pmax = 7 if fast else 9
    pairs = [(p, q) for p, q in _coprime_pairs(2, pmax, 2 * pmax) if q < 2 * p]
    return _verdict(
        "non-jump-at-4-over-q",
        f"{len(pairs)} pairs with p < q < 2p, p <= {pmax}", "failures",
        [(p, q) for p, q in pairs
         if is_jump_value(_torus_complex(p, q), Fraction(4, q))])


def _mirror_values(p: int, q: int) -> list[tuple[tuple, ExtRational]]:
    c = dual(_torus_complex(p, q))
    return [((p, q, t), upsilon2(c, t)) for t in candidate_parameters(c)]


def check_mirror_trivial(fast: bool = False) -> CheckResult:
    """Negative torus knots have trivial secondary invariant: upsilon2 is
    +infinity at every candidate parameter."""
    qmax = 8 if fast else 11
    values = [kv for p, q in _coprime_pairs(2, qmax - 1, qmax)
              for kv in _mirror_values(p, q)]
    return _verdict(
        "mirror-secondary-trivial",
        f"{len(values)} candidate parameters over coprime p < q <= {qmax}",
        "failures", [case for case, v in values if v != POS_INF])


def _stable_values(p: int, k: int) -> tuple[ExtRational, ExtRational]:
    """upsilon2 at 4/p of T(k,p) # T(p,p+1), on its tensor complex, and of
    T(p,p+k)."""
    s = Fraction(4, p)
    sum_complex = tensor(_torus_complex(k, p), _torus_complex(p, p + 1))
    return upsilon2(sum_complex, s), upsilon2(_torus_complex(p, p + k), s)


def check_stable_inequivalence(fast: bool = False) -> CheckResult:
    """T(k,p) # T(p,p+1) and T(p,p+k) have different diagonal secondary
    values at s = 4/p, computed directly on the tensor complexes."""
    pairs = [(5, 2), (5, 3), (7, 2), (7, 4)][:2 if fast else None]
    values = [(p, k, *_stable_values(p, k)) for p, k in pairs]
    bad = [(p, k) for p, k, v_sum, v_single in values
           if v_sum != Fraction(-4 * (p - 2), p) or v_sum == v_single]
    return CheckResult("stable-inequivalence", not bad, "; ".join(
        f"(p={p},k={k}): {format_ext(v_sum)} vs {format_ext(v_single)}"
        for p, k, v_sum, v_single in values))


def upsilon2_sum_certificate(parts, s) -> ExtRational:
    """Diagonal secondary value of a connected sum via the subadditivity
    certificate.

    At most one summand may have a finite value at s; for every other
    summand J the hypothesis min(upsilon2(J), upsilon2(-J)) > value is
    verified computationally, and the subadditivity lemma then transfers the
    finite value (or +infinity) to the sum.
    """
    vals = [(upsilon2(c, s), upsilon2(dual(c), s)) for c in parts]
    finite = [i for i, (v, _) in enumerate(vals) if is_finite(v)]
    if not finite:
        return POS_INF
    if len(finite) > 1:
        raise ValueError("certificate requires at most one nontrivial summand")
    value = vals[finite[0]][0]
    for i, (v, vm) in enumerate(vals):
        if i == finite[0]:
            continue
        if not min(v, vm) > value:
            raise ValueError(
                f"certificate hypothesis fails for summand {i}: "
                f"min({format_ext(v)}, {format_ext(vm)}) <= {format_ext(value)}")
    return value


def _vanishing_case(p: int) -> tuple[bool, str]:
    """Whether K = T(p,p+1) # T(2,p) # -T(p,p+2) passes, and its detail."""
    s = Fraction(4, p)
    want = Fraction(-4 * (p - 2), p)
    k = realize(parse_expr(f"T({p},{p+1}) # T(2,{p}) # -T({p},{p+2})"))
    vanishes = pl_equal(upsilon_pl(k), pl_constant(0))
    direct = upsilon2(k, s)
    base = _torus_complex(p, p + 1)
    certified = upsilon2_sum_certificate(
        [base, _torus_complex(2, p), dual(_torus_complex(p, p + 2))], s)
    # n-fold sums: upsilon2(nK) = upsilon2(K) when upsilon2(K) < upsilon2(-K);
    # checked directly for n = 2 on the smallest summand.
    value = upsilon2(base, s)
    double_ok = (value < upsilon2(dual(base), s)
                 and upsilon2(tensor(base, base), s) == value)
    good = vanishes and direct == want and certified == want and double_ok
    return good, (f"p={p}: {len(k)} generators, "
                  f"upsilon {'=0' if vanishes else '!=0'}, "
                  f"direct {format_ext(direct)}, "
                  f"certificate {format_ext(certified)}")


def check_vanishing_family(fast: bool = False) -> CheckResult:
    """The knots T(p,p+1) # T(2,p) # -T(p,p+2) have vanishing upsilon but
    diagonal secondary value -4(p-2)/p at s = 4/p, by direct computation on
    the tensor complex and again via the subadditivity certificate; the
    n-fold-sum certificate is cross-checked directly for 2*T(p,p+1)."""
    cases = [_vanishing_case(p) for p in ((5,) if fast else (5, 7))]
    return CheckResult("vanishing-upsilon-family",
                       all(good for good, _ in cases),
                       "; ".join(detail for _, detail in cases))


_BATTERY_PAIRS = [
    ("T(2,3)", "T(2,3)"),
    ("T(2,3)", "T(2,5)"),
    ("T(2,5)", "T(3,4)"),
    ("T(3,4)", "T(3,5)"),
    ("T(2,3)", "-T(2,5)"),
    ("T(3,4)", "-T(3,4)"),
    ("T(2,5)", "-T(3,4)"),
    ("T(2,3)", "T(4,5)"),
    ("T(2,7)", "T(3,4)"),
    ("T(3,5)", "-T(2,3)"),
]


def check_property_battery(fast: bool = False) -> CheckResult:
    """Structural properties: diagonal subadditivity under tensor on every
    candidate parameter, additivity and mirror negation of upsilon, shift
    invariance of the secondary invariant and the shift law for gamma."""
    pairs = _BATTERY_PAIRS[:5] if fast else _BATTERY_PAIRS
    failures = []
    parameters = 0
    for ea, eb in pairs:
        a = realize(parse_expr(ea))
        b = realize(parse_expr(eb))
        ab = tensor(a, b)
        if not pl_equal(upsilon_pl(ab), pl_add(upsilon_pl(a), upsilon_pl(b))):
            failures.append(f"additivity {ea} # {eb}")
        if not pl_equal(upsilon_pl(dual(ab)), pl_neg(upsilon_pl(ab))):
            failures.append(f"mirror {ea} # {eb}")
        ts = candidate_parameters(ab)
        parameters += len(ts)
        failures += [f"subadditivity {ea} # {eb} at t={t}" for t in ts
                     if not check_subadditivity(a, b, t, tensor_complex=ab)]

    shifts = [(da, db) for da in (-1, 0, 1) for db in (-1, 0, 1)]
    c = _torus_complex(3, 4)
    t = Fraction(2, 3)
    base_u2 = upsilon2(c, t, t)
    sample_ts = [Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(7, 5)]
    for da, db in shifts:
        shifted = shift_filtration(c, da, db)
        if upsilon2(shifted, t, t) != base_u2:
            failures.append(f"shift invariance ({da},{db})")
        failures += [f"gamma shift law ({da},{db}) at t={tt}"
                     for tt in sample_ts if gamma_at(shifted, tt)
                     != gamma_at(c, tt) + (1 - tt / 2) * da + (tt / 2) * db]

    return _verdict(
        "property-battery",
        f"{len(pairs)} tensor pairs, {parameters} subadditivity parameters, "
        f"{len(shifts)} filtration shifts",
        "failures", failures)


ALL_CHECKS: list[Callable[[bool], CheckResult]] = [
    check_alexander_agreement,
    check_t34_golden,
    check_fastpath_vs_engine,
    check_recursion,
    check_first_jump,
    check_adjacent_torus,
    check_small_k,
    check_large_k,
    check_non_jump,
    check_mirror_trivial,
    check_stable_inequivalence,
    check_vanishing_family,
    check_property_battery,
]


def run_all(fast: bool = False) -> list[CheckResult]:
    return [chk(fast) for chk in ALL_CHECKS]
