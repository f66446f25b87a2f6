"""Additive characters and the classical character sums over GF(q).

The canonical additive character is chi_1(c) = zeta_p^{Tr(c)}; the general
chi_b(c) is evaluated as chi_1(b*c) rather than tabulated per b.  All sums
return exact Cyclotomic values.  |G_1| = sqrt(q) is checked exactly, as
G_1 conj(G_1) = q; the Weil bound for Kloosterman sums and the evaluated
Gauss sum (gauss_closed_form) are compared through the complex embedding.
gauss_sum and kloosterman run on element indices through the field's
tables, with no element object per term.  The three brute sums of
gauss_identities read the arguments of all the terms of one sum at once, by
C-level itemgetter passes over the field's add and mul rows (for the vector
sum, over the coordinate columns of all q^d vectors), and count their
traces; no Field.dot, no element and no Point is used per term.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import getitem, itemgetter
from typing import Optional

from .cyclotomic import Cyclotomic
from .gf import (ELEMENT, FIELD, POINT, ArgumentError, Field, FieldElement, Point,
                 index_vectors, takes)

SQRT_TOL = 1e-6


class CharacterTable:
    """Per-field character data shared by every downstream sum: the standard
    Gauss sum, spectral_cache and spectral_plans.

    spectral_cache holds the spectral summary of distance.nu_spectral and
    distance.bounds: one slot per d, serving every k and t, holding the
    summary of the last energy mapping seen there together with that
    mapping's exact contents, so it never holds more than one summary per d
    (its (d + 1)(q - 1) rows and, per t read, d + 1 transforms, of p ints
    each).

    spectral_plans holds the spectral plan of each d: what the spectral route
    over GF(q)^d reads that depends on no set, in two halves keyed by
    (kind, d), fourier._EnergyPlan and distance._SummaryPlan.  Each is built
    on first use and kept, for every later set, as long as the table.  A
    plan keeps nothing per line, point or (s, t) pair: its entries grow with
    the square classes of F_q^d and F_q^{d-1} (times 2^d and q), never with
    q^d.
    """

    @takes(field=FIELD)
    def __init__(self, field: Field) -> None:
        self.field = field
        self._gauss_standard: Optional[Cyclotomic] = None
        # used by the fourier and distance modules
        self.spectral_cache: dict = {}
        self.spectral_plans: dict[tuple[type, int], object] = {}

    def spectral_plan(self, kind: type, d: int):
        """The plan kind(field, d) of GF(q)^d, built on first use."""
        plan = self.spectral_plans.get((kind, d))
        if plan is None:
            plan = self.spectral_plans[kind, d] = kind(self.field, d)
        return plan

    def chi(self, a: FieldElement) -> Cyclotomic:
        """chi_1(a) = zeta_p^{Tr(a)}."""
        return Cyclotomic.root(self.field.p, self.field._trace[a.index])

    def gauss_standard(self) -> Cyclotomic:
        if self._gauss_standard is None:
            self._gauss_standard = gauss_sum(self, self.field.one)
        return self._gauss_standard


def TABLE(value, name, field, d):
    """A CharacterTable, of the field fixed so far if one is; it fixes its
    field.  A table of another field is refused as its elements are."""
    if not isinstance(value, CharacterTable):
        raise ArgumentError(f"{name}: {value!r} is not a CharacterTable")
    if field is not None:
        ELEMENT(value.field.zero, name, field, d)
    return value.field, d


@takes(field=FIELD)
@lru_cache(maxsize=None)
def character_table(field: Field) -> CharacterTable:
    """Shared per-field CharacterTable (its Gauss sum and spectral summary
    make sharing worthwhile)."""
    return CharacterTable(field)


@takes(table=TABLE, a=ELEMENT)
def gauss_sum(table: CharacterTable, a: FieldElement) -> Cyclotomic:
    """G_a = sum over c in F_q* of eta(c) chi_a(c); G_0 = 0 by orthogonality."""
    f = table.field
    acc = [0] * f.p
    row, trace, quad = f._mul[a.index], f._trace, f._quad
    for c in range(1, f.q):
        acc[trace[row[c]]] += quad[c]
    return Cyclotomic(f.p, acc)


@takes(field=FIELD)
def gauss_closed_form(field: Field) -> complex:
    """The evaluated standard Gauss sum: (-1)^{s-1} q^{1/2} for p = 1 mod 4,
    (-1)^{s-1} i^s q^{1/2} for p = 3 mod 4."""
    sign = (-1) ** (field.s - 1)
    root = math.sqrt(field.q)
    if field.p % 4 == 1:
        return complex(sign * root)
    return sign * (1j**field.s) * root


@dataclass(frozen=True)
class GaussIdentityReport:
    """Exact-equality flags for the three quadratic completion identities."""

    square_sum_ok: bool        # sum_s chi(a s^2) = eta(a) G_1
    completed_square_ok: bool  # sum_s chi(a s^2 + b s) = eta(a) G_1 chi(-b^2/4a)
    vector_ok: bool            # sum_u chi(a||u|| + v.u) = eta(a)^d G_1^d chi(||v||/(-4a))

    @property
    def all_hold(self) -> bool:
        return self.square_sum_ok and self.completed_square_ok and self.vector_ok


@takes(table=TABLE, a=ELEMENT, b=ELEMENT, v=POINT)
def gauss_identities(table: CharacterTable, a: FieldElement, b: FieldElement,
                     v: Point) -> GaussIdentityReport:
    """Verify the three Gauss-sum identities by brute summation vs closed form.

    The sums are table passes over element indices (_gauss_sums) over the
    coordinate columns of all q^d vectors u, which are built on each call
    (run_identity_checks builds them once).
    """
    if a.is_zero:
        raise ValueError("the quadratic coefficient a must be nonzero")
    return _gauss_report(table, a.index, b.index, v.idx, _gauss_tables(table, v.d))


def _gauss_tables(table: CharacterTable, d: int) -> tuple:
    """The tables that gauss_identities over GF(q)^d reads for every a, b
    and v: (coords, norms, squares, G_1^d).  coords holds one getter per
    coordinate i, reading a row at u_i for each u of index_vectors(f, d) in
    its order; norms reads a row at ||u|| for each u, and squares at s^2 for
    each s.  The norms are one add-row pass per coordinate over the squared
    columns."""
    f = table.field
    add, mul = f._add, f._mul
    columns = list(zip(*index_vectors(f, d)))
    squares = [mul[c][c] for c in range(f.q)]
    norms = itemgetter(*columns[0])(squares)
    for column in columns[1:]:
        norms = map(getitem, itemgetter(*norms)(add), itemgetter(*column)(squares))
    return ([itemgetter(*column) for column in columns], itemgetter(*norms),
            itemgetter(*squares), table.gauss_standard() ** d)


def _gauss_sums(f: Field, a: int, b: int, vi: tuple[int, ...],
                tables: tuple) -> tuple[Cyclotomic, Cyclotomic, Cyclotomic]:
    """The three brute sums of gauss_identities, for the indices a != 0 and b
    and the index tuple vi of v, over _gauss_tables(table, len(vi)).

    Every s and every u is visited, and chi is read at that term's own
    argument: the arguments of a whole sum are a few C-level lookup passes
    over the field's tables (a s^2 from a's mul row at the squares, plus
    b s from the add rows; a ||u|| from a's mul row at the norms, plus
    v_i u_i from the add rows, one pass per coordinate), and their traces
    are counted once.
    """
    add, mul, trace, p = f._add, f._mul, f._trace, f.p
    coords, norms, squares, _ = tables

    def chi_sum(args) -> Cyclotomic:
        return Cyclotomic.from_counts(p, Counter(itemgetter(*args)(trace)))

    a_s2 = squares(mul[a])
    lhs1 = chi_sum(a_s2)
    lhs2 = chi_sum(map(getitem, itemgetter(*a_s2)(add), mul[b]))
    total = norms(mul[a])
    for column, c in zip(coords, vi):
        total = map(getitem, itemgetter(*total)(add), column(mul[c]))
    return lhs1, lhs2, chi_sum(total)


def _gauss_report(table: CharacterTable, a: int, b: int, vi: tuple[int, ...],
                  tables: tuple) -> GaussIdentityReport:
    """gauss_identities on indices: each brute sum of _gauss_sums against its
    closed form, chi(c) applied as a rotation by Tr(c)."""
    f = table.field
    add, mul, trace = f._add, f._mul, f._trace
    lhs1, lhs2, lhs3 = _gauss_sums(f, a, b, vi, tables)
    w = f._neg[f._inv[mul[4 % f.p][a]]]  # -1/4a
    norm_v = 0
    for c in vi:
        norm_v = add[norm_v][mul[c][c]]
    eta_a, g1_d = f._quad[a], tables[-1]
    rhs1 = table.gauss_standard() * eta_a
    rhs2 = rhs1.times_root(trace[mul[w][mul[b][b]]])
    rhs3 = (g1_d * eta_a**len(vi)).times_root(trace[mul[w][norm_v]])
    return GaussIdentityReport(lhs1 == rhs1, lhs2 == rhs2, lhs3 == rhs3)


@takes(table=TABLE, a=ELEMENT, b=ELEMENT)
def kloosterman(table: CharacterTable, a: FieldElement, b: FieldElement) -> Cyclotomic:
    """K(chi; a, b) = sum over s in F_q* of chi(a s + b s^{-1})."""
    f = table.field
    if a.is_zero or b.is_zero:
        raise ValueError("Kloosterman sums require a != 0 and b != 0")
    acc = [0] * f.p
    mul_a, mul_b = f._mul[a.index], f._mul[b.index]
    add, inv, trace = f._add, f._inv, f._trace
    for s in range(1, f.q):
        acc[trace[add[mul_a[s]][mul_b[inv[s]]]]] += 1
    return Cyclotomic(f.p, acc)


# ---------------------------------------------------------------------------
# identity battery (CLI `verify-identities`)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@takes(field=FIELD)
def run_identity_checks(field: Field) -> list[CheckResult]:
    """Run the character/Gauss/Kloosterman invariant battery for one field."""
    table = CharacterTable(field)
    f = field
    q = f.q
    results: list[CheckResult] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        results.append(CheckResult(name, bool(ok), detail))

    ok = all(table.chi(a + b) == table.chi(a) * table.chi(b)
             for a in f.elements for b in f.elements)
    check("chi_homomorphism", ok)
    check("chi_nontrivial", any(table.chi(c) != 1 for c in f.elements))

    ok = True
    for b in f.elements:
        total = sum((table.chi(b * c) for c in f.elements), Cyclotomic.zero(f.p))
        want = q if b.is_zero else 0
        ok = ok and total == want
    check("additive_orthogonality", ok)

    check("eta_multiplicative",
          all(f._quad[f._mul[a][b]] == f._quad[a] * f._quad[b]
              for a in range(1, q) for b in range(1, q)))
    check("eta_square_count", sum(1 for a in range(1, q) if f._quad[a] == 1) == (q - 1) // 2)
    check("eta_orthogonality", sum(f._quad[a] for a in range(1, q)) == 0)

    fibers = Counter(f._trace)
    check("trace_fibers",
          set(fibers) == set(range(f.p)) and all(n == f.p ** (f.s - 1) for n in fibers.values()))

    g1 = table.gauss_standard()
    eta_minus1 = f.quad_char(-f.one)
    check("gauss_square", g1 * g1 == eta_minus1 * q, f"G1^2 vs eta(-1)q={eta_minus1 * q}")
    check("gauss_magnitude", g1 * g1.conjugate() == q)
    closed = gauss_closed_form(f)
    check("gauss_closed_form", abs(g1.to_complex() - closed) <= SQRT_TOL, f"closed={closed}")
    check("gauss_scaling",
          all(gauss_sum(table, a) == f.quad_char(a) * g1 for a in f.elements[1:]))
    check("gauss_at_zero", gauss_sum(table, f.zero) == 0)

    tables = _gauss_tables(table, 2)
    ok = all(_gauss_report(table, a, b, (b, a), tables).all_hold
             for a in range(1, q) for b in range(q))
    check("gauss_identities", ok)

    bound = 2 * math.sqrt(q) + SQRT_TOL
    check("weil_bound",
          all(abs(kloosterman(table, a, b)) <= bound
              for a in f.elements[1:] for b in f.elements[1:]))

    return results
