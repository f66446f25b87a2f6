"""The k-norm, zero-pattern strata of F_q^d, spheres, and their transforms.

The k-norm of x is the ordinary sum of squares when x has at most k-1 zero
coordinates and 0 otherwise; spheres S_k^t are its level sets.  The Fourier
transform of a sphere indicator is available through two independent routes:
brute-force summation over the sphere, and the closed form
q^{-d-1} (A(m,t) + B(m)) assembled from Gauss sums, which is exposed only
for t != 0 (the derivation discards a term that vanishes only then).  The
closed form keeps no memo: each call evaluates m from its own coordinates,
so checking it against the brute route at every m also checks, rather than
assumes, that the transform is constant on square classes.  sphere_ft
takes the sphere as its radius t and its k, in the order of a_term.

Sums over coordinate subsets I of a fixed size are evaluated as elementary
symmetric functions of per-coordinate factors, since every factor depends
only on its own coordinate; this is exactly the subset expansion, just
computed in O(d^2) instead of O(2^d) products.

The brute routes (sphere_ft mode="brute", stratum_sum_brute) enumerate the
cached point sets and work on index tuples through Field.dot.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import List, Sequence

from .characters import TABLE, CharacterTable
from .cyclotomic import Cyclotomic
from .fourier import PointSet
from .gf import (ALPHA, DIM, ELEMENT, FIELD, K, POINT, Field, FieldElement, Point,
                 enumerate_vectors, takes)


@takes(x=POINT, k=K)
def k_norm(x: Point, k: int) -> FieldElement:
    """||x||_k: the sum of squares if Z(x) <= k-1, else 0."""
    return x.norm() if x.zero_count() <= k - 1 else x.field.zero


@takes(field=FIELD, d=DIM, alpha=ALPHA)  # so only checked ints reach the cache
@lru_cache(maxsize=None)
def stratum(field: Field, d: int, alpha: int) -> PointSet:
    """N_alpha: points with exactly alpha zero coordinates."""
    return PointSet(field, d, [x for x in enumerate_vectors(field, d) if x.zero_count() == alpha])


@takes(field=FIELD, d=DIM, k=K, t=ELEMENT)
@lru_cache(maxsize=None)
def sphere_points(field: Field, d: int, k: int, t: FieldElement) -> PointSet:
    return PointSet(field, d, [x for x in enumerate_vectors(field, d) if k_norm(x, k) == t])


# ---------------------------------------------------------------------------
# stratum character sums (Lemma-style closed form vs brute force)
# ---------------------------------------------------------------------------

def _elementary_symmetric(factors: Sequence) -> List:
    """[e_0, ..., e_n] of the given factors (ints or Cyclotomics)."""
    es: list = [1]
    for f in factors:
        es.append(f * es[-1])
        for j in range(len(es) - 2, 0, -1):
            es[j] = es[j] + f * es[j - 1]
    return es


def _zero_pattern_factors(field: Field, m: Point) -> list[int]:
    # per-coordinate factor of the s = 0 branch: (q-1) at a zero, -1 otherwise
    return [field.q - 1 if c == 0 else -1 for c in m.idx]


def _quadratic_factors(table: CharacterTable, s: FieldElement, m: Point) -> list[Cyclotomic]:
    # per-coordinate factor eta(s) G_1 chi(-m_i^2 / 4s) - 1 of the s != 0
    # branch: eta(s) G_1 rotated by Tr(-m_i^2 / 4s), less 1
    f = table.field
    g1 = table.gauss_standard()
    if f.quad_char(s) < 0:
        g1 = -g1
    mul, trace = f._mul, f._trace
    w = f._neg[f._inv[mul[4 % f.p][s.index]]]  # -1/4s
    return [g1.times_root(trace[mul[w][mul[c][c]]]) - 1 for c in m.idx]


@takes(table=TABLE, d=DIM, alpha=ALPHA, s=ELEMENT, m=POINT)
def stratum_sum_brute(table: CharacterTable, d: int, alpha: int, s: FieldElement,
                      m: Point) -> Cyclotomic:
    """sum over x in N_alpha of chi(s ||x|| - m.x), by direct enumeration."""
    f, mi = table.field, m.idx
    row, dot, add, neg, trace = f._mul[s.index], f.dot, f._add, f._neg, f._trace
    counts = Counter(trace[add[row[dot(x.idx, x.idx)]][neg[dot(mi, x.idx)]]]
                     for x in stratum(f, d, alpha))
    return Cyclotomic.from_counts(f.p, counts)


@takes(table=TABLE, d=DIM, alpha=ALPHA, s=ELEMENT, m=POINT)
def lemma31_sum(table: CharacterTable, d: int, alpha: int, s: FieldElement,
                m: Point) -> Cyclotomic:
    """The same stratum sum via the closed form.

    For s != 0 each subset contributes a product of Gauss-sum factors; for
    s = 0 it contributes (q-1)^{Z(m_I)} (-1)^{|I| - Z(m_I)}.  The empty
    subset (alpha = d) contributes 1 in both branches.
    """
    factors = (_zero_pattern_factors(table.field, m) if s.is_zero
               else _quadratic_factors(table, s, m))
    # e_j is an int for s = 0 and for the empty subset; adding zero makes
    # every e_j a Cyclotomic
    return Cyclotomic.zero(table.field.p) + _elementary_symmetric(factors)[d - alpha]


# ---------------------------------------------------------------------------
# the sphere transform: A(m, t) + B(m)
# ---------------------------------------------------------------------------

@takes(table=TABLE, m=POINT, t=ELEMENT, k=K)
def a_term(table: CharacterTable, m: Point, t: FieldElement, k: int) -> Cyclotomic:
    """A(m, t): the oscillatory part of the sphere transform (t != 0 only).

    Summed over s != 0: the subset sums over alpha < k of m's quadratic
    factors, rotated by Tr(-s t).  No memo: every call starts from m's own
    coordinates.
    """
    f, d = table.field, m.d
    if t.is_zero:
        raise ValueError("A(m, t) is defined only for t != 0")
    acc = Cyclotomic.zero(f.p)
    trace, mul, neg = f._trace, f._mul, f._neg
    for si in range(1, f.q):
        es = _elementary_symmetric(_quadratic_factors(table, f.elements[si], m))
        inner = sum((es[d - alpha] for alpha in range(k)), Cyclotomic.zero(f.p))
        acc = acc + inner.times_root(trace[neg[mul[si][t.index]]])
    return acc


@takes(field=FIELD, m=POINT, alpha_lo=ALPHA, alpha_hi=ALPHA)
def b_term_alpha_range(field: Field, m: Point, alpha_lo: int, alpha_hi: int) -> int:
    """sum over alpha in [alpha_lo, alpha_hi] of the s = 0 subset sums."""
    es = _elementary_symmetric(_zero_pattern_factors(field, m))
    return sum(es[m.d - alpha] for alpha in range(alpha_lo, alpha_hi + 1))


@takes(field=FIELD, m=POINT, k=K)
def b_term(field: Field, m: Point, k: int) -> int:
    """B(m): the combinatorial part of the sphere transform (an integer)."""
    return b_term_alpha_range(field, m, 0, k - 1)


@takes(table=TABLE, m=POINT, t=ELEMENT, k=K)
def sphere_ft(table: CharacterTable, m: Point, t: FieldElement, k: int,
              mode: str = "closed") -> Cyclotomic:
    """Fourier coefficient of the indicator of the sphere {x : ||x||_k = t}
    at frequency m.

    mode="brute" sums chi(-x.m) over the sphere; mode="closed" evaluates
    q^{-d-1} (A(m,t) + B(m)) and requires t != 0.
    """
    f, d, mi = table.field, m.d, m.idx
    if mode == "brute":
        dot, trace, neg = f.dot, f._trace, f._neg
        pts = sphere_points(f, d, k, t)
        counts = Counter(trace[neg[dot(x.idx, mi)]] for x in pts)
        return Cyclotomic.from_counts(f.p, counts) * Fraction(1, f.q**d)
    if mode != "closed":
        raise ValueError(f"mode must be 'closed' or 'brute', got {mode!r}")
    if t.is_zero:
        raise ValueError("the closed form is valid only for t != 0; use mode='brute'")
    total = a_term(table, m, t, k) + b_term(f, m, k)
    return total * Fraction(1, f.q ** (d + 1))
