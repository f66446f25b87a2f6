"""Normalized discrete Fourier transform on F_q^d over exact cyclotomic values.

fhat(m) = q^{-d} sum_x f(x) chi(-x.m), evaluated directly over the support
for every m.  The character factors over the coordinates,
chi(-x.m) = prod_i chi(-x_i m_i), so a coordinate-at-a-time transform in
O(d q^{d+1}) products (the radix-q structure an FFT uses) exists; it is not
implemented here.  dft and inverse_dft are two calls of one loop that
carries the values on int coefficients over their common denominator and
differ only in the sign of the exponent and the scale.  dft_indicator
keeps its own loop, which only histograms trace residues over the support:
it is the oracle that spectral_energy and dft are checked against.

Transforms are plain dicts keyed by Point.  The keys of an input mapping
are checked once; the loops then run on index tuples and reach x.m through
Field.dot, so no Point or FieldElement is built per (x, m) term.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import combinations_with_replacement, product
from typing import Collection, Mapping, Optional, Union

from .characters import character_table
from .cyclotomic import Cyclotomic, common_denominator, conjugated, convolve, rotated_sum
from .gf import (DIM, FIELD, MAPPING, POINTS, ArgumentError, Field, Point, enumerate_vectors,
                 space_size, takes)

Value = Union[Cyclotomic, int, Fraction]


class PointSet:
    """A finite subset of F_q^d with deterministic (index-sorted) iteration."""

    __slots__ = ("field", "d", "points", "_index_set")

    @takes(field=FIELD, d=DIM, members=POINTS)
    def __init__(self, field: Field, d: int, members: Collection[Point]) -> None:
        seen = {pt.idx: pt for pt in members}
        self.field = field
        self.d = d
        self.points = tuple(sorted(seen.values(), key=lambda p: p.idx))
        self._index_set = frozenset(seen)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, pt: Point) -> bool:
        return isinstance(pt, Point) and pt.idx in self._index_set

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return (self.field is other.field and self.d == other.d
                and self._index_set == other._index_set)

    def __hash__(self) -> int:
        return hash((id(self.field), self.d, self._index_set))

    def __repr__(self) -> str:
        return f"PointSet(q={self.field.q}, d={self.d}, size={len(self)})"


def SET(value, name, field, d):
    """A PointSet; it fixes its field and d."""
    if not isinstance(value, PointSet):
        raise ArgumentError(f"{name}: {value!r} is not a PointSet")
    return value.field, value.d


def _transform(field: Field, d: int, f: Mapping[Point, Value], sign: int,
               scale: int) -> dict[Point, Cyclotomic]:
    """y -> sum_x f(x) zeta^{sign Tr(x.y)} / scale at every y of F_q^d, for
    sign = +-1; absent points are 0, and the keys of f are Points of F_q^d.

    The values are carried on int coefficients over their common
    denominator, so each sum is one rotated_sum over the support, divided
    once.
    """
    domain = enumerate_vectors(field, d)
    p = field.p
    nums, den = common_denominator(p, f.values())
    support = {x.idx: c for x, c in zip(f, nums) if any(c)}  # the keys are distinct
    dot = field.dot
    # Tr is additive, so Tr(-a) = -Tr(a) mod p
    power = [sign * j % p for j in field._trace]
    out: dict[Point, Cyclotomic] = {}
    for y in domain:
        acc = rotated_sum(p, support.values(), [power[dot(x, y.idx)] for x in support])
        out[y] = Cyclotomic._over(p, acc, den * scale)
    return out


@takes(field=FIELD, d=DIM, f=MAPPING)
def dft(field: Field, d: int, f: Mapping[Point, Value]) -> dict[Point, Cyclotomic]:
    """fhat(m) = q^{-d} sum_x f(x) chi(-x.m), of a function given by its
    support (absent points are 0)."""
    return _transform(field, d, f, -1, field.q**d)


@takes(E=SET)
def dft_indicator(E: PointSet) -> dict[Point, Cyclotomic]:
    """Ehat(m) = q^{-d} sum over x in E of chi(-x.m)."""
    field = E.field
    p = field.p
    scale = Fraction(1, field.q**E.d)
    dot, trace, neg = field.dot, field._trace, field._neg
    pts = [x.idx for x in E]
    values: dict[Point, Cyclotomic] = {}
    for m in enumerate_vectors(field, E.d):
        mi = m.idx
        # c[j] counts the x in E with Tr(-x.m) = j: q^d Ehat(m) = sum_j c[j] zeta^j
        c = [0] * p
        for x in pts:
            c[trace[neg[dot(x, mi)]]] += 1
        values[m] = Cyclotomic(p, c) * scale
    return values


@takes(field=FIELD, d=DIM, fhat=MAPPING)
def inverse_dft(field: Field, d: int,
                fhat: Mapping[Point, Value]) -> dict[Point, Cyclotomic]:
    """f(x) = sum_m chi(m.x) fhat(m); exact inverse of dft (absent
    frequencies are 0)."""
    return _transform(field, d, fhat, 1, 1)


class _EnergyPlan:
    """What spectral_energy over GF(q)^d reads that depends on no set.

    A square class is named by its sorted squares (its key) or by its id,
    its place in the lexicographic order of the classes' first members, so
    id 0 is the class of 0; firsts holds each first member as a Point, in
    that order.  scaled holds, for each a in F_p* below p/2, the map
    j -> a j of count-vector indices.  Filled on first use, per key read:
    line_ids(head) gives, for the sorted squares head of d-1 leading
    coordinates, the class id of the line ending in v at each v;
    targets(i) gives, for the class id i of a line representative m, the
    class id of a m at each a of scaled.
    """

    __slots__ = ("field", "keys", "ids", "firsts", "scaled", "_lines", "_targets")

    def __init__(self, f: Field, d: int) -> None:
        p, q, mul = f.p, f.q, f._mul
        # the first member of a class sorts the smallest square roots of its
        # squares
        root = [0] * q
        for x in range(q - 1, 0, -1):
            root[mul[x][x]] = x
        squares = sorted({mul[x][x] for x in range(q)})
        firsts = {key: tuple(sorted(root[r] for r in key))
                  for key in combinations_with_replacement(squares, d)}
        self.field = f
        self.keys = sorted(firsts, key=firsts.__getitem__)
        self.ids = {key: i for i, key in enumerate(self.keys)}
        self.firsts = [Point(f, firsts[key]) for key in self.keys]
        self.scaled = [[a * j % p for j in range(p)] for a in range(1, (p + 1) // 2)]
        self._lines: dict[tuple[int, ...], list[int]] = {}
        self._targets: dict[int, list[int]] = {}

    def line_ids(self, head: tuple[int, ...]) -> list[int]:
        ids = self._lines.get(head)
        if ids is None:
            mul, get = self.field._mul, self.ids.__getitem__
            ids = self._lines[head] = [get(tuple(sorted(head + (mul[v][v],))))
                                       for v in range(self.field.q)]
        return ids

    def targets(self, i: int) -> list[int]:
        out = self._targets.get(i)
        if out is None:
            key, get, f = self.keys[i], self.ids.__getitem__, self.field
            # a m has the squares a^2 m_i^2 (a has index a)
            rows = [f._mul[a * a % f.p] for a in range(1, (f.p + 1) // 2)]
            out = self._targets[i] = [get(tuple(sorted([row[r] for r in key])))
                                      for row in rows]
        return out


@takes(E=SET)
def spectral_energy(E: PointSet) -> dict[Point, Cyclotomic]:
    """|Ehat|^2 summed per square class: m -> sum of |Ehat(m')|^2 over the
    frequencies m' with m'.square_class() == m.square_class().

    Each key is the first frequency of its class in lexicographic order, and
    classes whose energy is zero are left out (a sum of |Ehat|^2 >= 0 is
    zero only when every term is).  The sphere transforms that nu_spectral
    and bounds multiply are constant on a class, so they need only these
    sums, which depend on neither t nor k and are formed once per E here.

    The walk visits one frequency per F_p*-line: the nonzero m whose first
    nonzero coordinate is one of the (q-1)/(p-1) powers g^e, e < (q-1)/(p-1),
    of the primitive element (a coset representative of F_p* in F_q*; 1 for
    a prime field).  Its unscaled count vector (q^d Ehat(m) on integer
    coefficients) is squared on ints.  For a in F_p*, Tr(-x.(a m)) =
    a Tr(-x.m), so |Ehat(a m)|^2 is that square with its index j moved to
    a j; and -a m has the class and the square of a m.  Each class sum is
    scaled once by q^{-2d}.

    Once per (field, d), in the shared character_table's plan (_EnergyPlan):
    the square classes, their order and first members, the class of each
    line representative (read per prefix, as the row of the prefix's
    squares at the last coordinate) and the class of each of its F_p*
    multiples.  Per E: the count vectors and their squares, their sums per
    line class, the scaled sums per class and the read-out.
    """
    f = E.field
    p, q, d = f.p, f.q, E.d
    space_size(q, d)
    plan = character_table(f).spectral_plan(_EnergyPlan, d)
    add, mul, dot, trace, neg = f._add, f._mul, f.dot, f._trace, f._neg
    # Tr(-x.m) = Tr((-x).m)
    pts = [[neg[c] for c in x.idx] for x in E]
    last = [x[-1] for x in pts]
    leads = f._exp[:(q - 1) // (p - 1)]
    # a line representative is a prefix of d-1 coordinates and a last one:
    # any last coordinate after a prefix that is itself a representative in
    # F_q^{d-1}, and one of the leads after the zero prefix
    prefixes = [((0,) * (d - 1), leads)]
    for lead in range(d - 1):
        for head in leads:
            for tail in product(range(q), repeat=d - lead - 2):
                prefixes.append(((0,) * lead + (head,) + tail, range(q)))
    # the squares of the line representatives, summed per line class id
    lines: dict[int, list[int]] = {}
    for prefix, values in prefixes:
        base = [dot(x, prefix) for x in pts]  # zip stops at the prefix
        ids = plan.line_ids(tuple(sorted([mul[x][x] for x in prefix])))
        for v in values:
            times_v = mul[v]
            c = [0] * p
            for b, x in zip(base, last):
                c[trace[add[b][times_v[x]]]] += 1
            # |sum_j c_j zeta^j|^2, the count vector times its conjugate
            sq = convolve(c, conjugated(c))
            i = ids[v]
            acc = lines.get(i)
            lines[i] = sq if acc is None else list(map(operator.add, acc, sq))
    # a m has the squares a^2 m_i^2 and the square of m with each index j
    # moved to a j; -a m has the class and the square of a m (a has index a)
    classes: list[Optional[list[int]]] = [None] * len(plan.firsts)
    classes[0] = [len(pts) ** 2] + [0] * (p - 1)  # q^d Ehat(0) = |E|
    for i, sq in lines.items():
        for c, scaled in zip(plan.targets(i), plan.scaled):
            acc = classes[c]
            if acc is None:
                acc = classes[c] = [0] * p
            for j, v in enumerate(sq):
                acc[scaled[j]] += 2 * v
    energy = {}
    for first, acc in zip(plan.firsts, classes):
        if acc is not None:
            e = Cyclotomic._over(p, acc, q ** (2 * d))
            if e:
                energy[first] = e
    return energy


@takes(E=SET)
def plancherel_check(E: PointSet) -> tuple[Fraction, Fraction]:
    """(sum_m |Ehat(m)|^2, q^{-d} |E|); the two must be equal exactly."""
    field = E.field
    total = Cyclotomic.zero(field.p)
    for v in spectral_energy(E).values():
        total = total + v
    return total.rational_value(), Fraction(len(E), field.q**E.d)
