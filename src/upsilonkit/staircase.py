"""Torus-knot staircases via the numerical semigroup of (p,q).

For coprime p < q let S = {ap + bq : a, b >= 0}.  Writing S as maximal runs
of consecutive integers

    S = {s_1..e_1} u {s_2..e_2} u ... u {s_n..e_n} u {s_{n+1}, s_{n+1}+1, ...}

(the tail starts at the conductor (p-1)(q-1), from which every integer is in
S) determines both the Alexander polynomial of the (p,q) torus knot and the
staircase shape of its knot Floer complex: the polynomial is

    Delta(t) = sum_i (t^{s_i} - t^{e_i + 1}) + t^{s_{n+1}}

with e_i taken inclusive, and the staircase steps are

    [e_1-s_1+1, s_2-e_1-1, e_2-s_2+1, ..., e_n-s_n+1, s_{n+1}-e_n-1].

The run starts and ends form two blocks of the lattice {ip + jq}, cut at
the corner (r, s) where (p-1)(q-1) = rp + sq (see _corner).  So the runs
are two sorted lists of n + 1 and n integers, the generator count 2n + 1 is
a product, and nothing is sieved below the conductor.

White dots (grading 0) sit at the run starts: relative to the first dot the
i-th white is at (alpha(i), alpha(i) - s_i) where alpha(i) = |S ∩ [0, s_i)|,
and absolute coordinates shift the Alexander level so the lowest white sits
at 0 (the topmost one then sits at the genus (p-1)(q-1)/2).

T(1,n) and T(n,1) are accepted and treated as the unknot so that recursive
identities over torus-knot families terminate uniformly.
"""

from __future__ import annotations

from itertools import accumulate
from math import gcd

from .plfun import PLFunction, pl_lower_envelope, pl_neg


def _corner(p: int, q: int) -> tuple[int, int]:
    """The (r, s) with c = (p-1)(q-1) = rp + sq, r, s >= 0, for a torus knot
    T(p,q); (0, 0) for the unknot T(1,n) or T(n,1).  This is the one gate
    for torus parameters: non-positive ones raise, and so do the others
    unless p < q are coprime.

    Every integer is ip + jq for one pair with 0 <= j < p, and it lies in S
    exactly when i >= 0.  s < p since sq <= c < pq, so s is c/q mod p and
    (r, s) is unique.  The runs of S are read off this corner, since
    1 = (r+1)p + (s+1)q - pq gives x - 1 = (i-r-1)p + (j-s-1)q + pq:
    - x = ip + jq in S, 0 <= j < p, starts a run (or the tail) when x - 1
      is not in S.  If j > s, x - 1 is (i-r-1+q)p + (j-s-1)q with r < q,
      in S; if j <= s, it is (i-r-1)p + (j-s-1+p)q, in S exactly when
      i > r.  So the starts are the (r+1)(s+1) integers ip + jq with
      i <= r, j <= s, the largest being c.
    - y = ip + jq not in S, 0 <= j < p, so i < 0, follows a run end when
      y - 1 is in S.  If j <= s, y - 1 is (i-r-1)p + (j-s-1+p)q with
      i - r - 1 < 0, not in S; if j > s, it is (i+q-r-1)p + (j-s-1)q, in
      S exactly when i + q > r.  So, with i + q written as i, the run ends
      are the integers y - 1 = ip + jq - pq - 1 with r < i < q, s < j < p.
    Lam and Leung, "On the cyclotomic polynomial Phi_pq(X)", Amer. Math.
    Monthly 103 (1996).
    """
    if p < 1 or q < 1:
        raise ValueError(f"torus parameters must be positive, got T({p},{q})")
    if gcd(p, q) != 1:
        raise ValueError(f"torus parameters must be coprime, got T({p},{q})")
    if p >= q > 1:  # T(n,1) is the unknot
        raise ValueError(f"torus parameters must satisfy p < q, got T({p},{q})")
    c = (p - 1) * (q - 1)
    s = c * pow(q, -1, p) % p
    return (c - s * q) // p, s


def torus_generators(p: int, q: int) -> int:
    """Generator count of the staircase of T(p,q), with nothing enumerated:
    one white per run start, the tail's included, and one black per run
    end."""
    r, s = _corner(p, q)
    return 2 * (r + 1) * (s + 1) - 1


def semigroup_runs(p: int, q: int) -> tuple[list[int], list[int]]:
    """Runs of S = {ap+bq : a,b >= 0} as (starts, ends), the two lattice
    blocks of _corner, sorted: the n + 1 starts end with the tail's at the
    conductor (p-1)(q-1), and the k-th inclusive end closes the k-th run."""
    r, s = _corner(p, q)
    starts = sorted(i * p + j * q for i in range(r + 1) for j in range(s + 1))
    ends = sorted(i * p + j * q - p * q - 1
                  for i in range(r + 1, q) for j in range(s + 1, p))
    return starts, ends


def alexander_torus(p: int, q: int) -> tuple[tuple[int, int], ...]:
    """Alexander polynomial of T(p,q) from the semigroup runs, as the sorted
    (exponent, coefficient) pairs of its nonzero terms.

    Each run contributes t^{s_i} - t^{e_i + 1} (ends inclusive) and the tail
    contributes its leading term t^{(p-1)(q-1)}.  These are already the
    terms in increasing order, with no two sharing an exponent: a gap
    follows every run, so s_i <= e_i < e_i + 1 < s_{i+1}, the tail's start
    counted as s_{n+1}.
    """
    starts, ends = semigroup_runs(p, q)
    return tuple(term for s, e in zip(starts, ends)
                 for term in ((s, 1), (e + 1, -1))) + ((starts[-1], 1),)


def _divide_one_minus(coeffs: list[int], n: int) -> list[int]:
    """Coefficients of (sum_i coeffs[i] t^i) / (1 - t^n), or ArithmeticError.

    The quotient's coefficients are the running sums of coeffs with stride
    n; the division is exact iff the last n running sums are zero.
    """
    sums = list(coeffs)
    for i in range(n, len(sums)):
        sums[i] += sums[i - n]
    if any(sums[-n:]):
        raise ArithmeticError(f"division by 1 - t^{n} is not exact")
    return sums[:-n]


def alexander_oracle(p: int, q: int) -> tuple[tuple[int, int], ...]:
    """Alexander polynomial of T(p,q) as the classical rational-function
    quotient (1-t^{pq})(1-t) / ((1-t^p)(1-t^q)), computed by exact division
    of coefficient lists, in the same form as alexander_torus."""
    if _corner(p, q) == (0, 0):  # (p-1)(q-1) = 0: the unknot
        return ((0, 1),)
    num = [0] * (p * q + 2)
    num[0], num[1], num[p * q], num[p * q + 1] = 1, -1, -1, 1
    quot = _divide_one_minus(_divide_one_minus(num, p), q)
    return tuple((e, c) for e, c in enumerate(quot) if c)


def staircase_steps(p: int, q: int) -> list[int]:
    """Alternating horizontal/vertical step lengths of the staircase, read
    off consecutive whites: right a1 - a0, then down x0 - x1."""
    whites = build_staircase(p, q)
    return [step for (a0, x0), (a1, x1) in zip(whites, whites[1:])
            for step in (a1 - a0, x0 - x1)]


def build_staircase(p: int, q: int) -> tuple[tuple[int, int], ...]:
    """Staircase of T(p,q) in absolute coordinates, as its white dots
    (alg, alex) in walk order; the unknot gives a single white at the origin.

    Normalization: the least alg and the least alex over the whites are 0,
    so the first white sits at (0, genus).  The walk goes right by a step
    then down by a step, and the black dot between whites (a0, x0) and
    (a1, x1) sits at their corner (a1, x0).
    """
    starts, ends = semigroup_runs(p, q)
    genus = (p - 1) * (q - 1) // 2
    alpha = accumulate((e - s + 1 for s, e in zip(starts, ends)), initial=0)
    return tuple((a, a - s + genus) for a, s in zip(alpha, starts))


def upsilon_staircase(p: int, q: int) -> PLFunction:
    """Upsilon of T(p,q) by the staircase fast path.

    On a staircase every single white dot is a cycle generating H_0, so the
    minimal filtration level gamma(t) is the lower envelope over whites of
    t -> (t/2)*alex + (1-t/2)*alg, and upsilon is -2 times that envelope.
    The envelope is taken of the integer lines t -> (alex-alg)*t + 2*alg,
    which give 2*gamma, so upsilon is -1 times it.
    """
    lines = [(alex - alg, 2 * alg) for alg, alex in build_staircase(p, q)]
    return pl_neg(pl_lower_envelope(lines))
