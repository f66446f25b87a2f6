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
from itertools import product
from typing import Iterable, Mapping, Union

from .cyclotomic import Cyclotomic, common_denominator, conjugated, convolve, rotated_sum
from .gf import Field, Point, enumerate_vectors, point_indices, space_size

Value = Union[Cyclotomic, int, Fraction]


class PointSet:
    """A finite subset of F_q^d with deterministic (index-sorted) iteration."""

    __slots__ = ("field", "d", "points", "_index_set")

    def __init__(self, field: Field, d: int, members: Iterable[Point]) -> None:
        if type(d) is not int or d < 1:
            raise ValueError(f"dimension must be an int >= 1, got {d!r}")
        seen = {point_indices(field, d, pt): pt for pt in members}
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


def _check_set(E: PointSet) -> None:
    """Raise ValueError unless E is a PointSet."""
    if not isinstance(E, PointSet):
        raise ValueError(f"{E!r} is not a PointSet")


def _transform(field: Field, d: int, f: Mapping[Point, Value], sign: int,
               scale: int) -> dict[Point, Cyclotomic]:
    """y -> sum_x f(x) zeta^{sign Tr(x.y)} / scale at every y of F_q^d, for
    sign = +-1; absent points are 0.

    The values are carried on int coefficients over their common
    denominator, so each sum is one rotated_sum over the support, divided
    once.
    """
    domain = enumerate_vectors(field, d)
    p = field.p
    keys = [point_indices(field, d, x) for x in f]
    nums, den = common_denominator(p, f.values())
    support = {x: c for x, c in zip(keys, nums) if any(c)}  # the keys are distinct
    dot = field.dot
    # Tr is additive, so Tr(-a) = -Tr(a) mod p
    power = [sign * j % p for j in field._trace]
    out: dict[Point, Cyclotomic] = {}
    for y in domain:
        acc = rotated_sum(p, support.values(), [power[dot(x, y.idx)] for x in support])
        out[y] = Cyclotomic._over(p, acc, den * scale)
    return out


def dft(field: Field, d: int, f: Mapping[Point, Value]) -> dict[Point, Cyclotomic]:
    """fhat(m) = q^{-d} sum_x f(x) chi(-x.m), of a function given by its
    support (absent points are 0)."""
    return _transform(field, d, f, -1, field.q**d)


def dft_indicator(E: PointSet) -> dict[Point, Cyclotomic]:
    """Ehat(m) = q^{-d} sum over x in E of chi(-x.m)."""
    _check_set(E)
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


def inverse_dft(field: Field, d: int,
                fhat: Mapping[Point, Value]) -> dict[Point, Cyclotomic]:
    """f(x) = sum_m chi(m.x) fhat(m); exact inverse of dft (absent
    frequencies are 0)."""
    return _transform(field, d, fhat, 1, 1)


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
    """
    _check_set(E)
    f = E.field
    p, q, d = f.p, f.q, E.d
    space_size(q, d)
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
    # the squares of the line representatives, summed per class
    lines: dict[tuple[int, ...], list[int]] = {}
    for prefix, values in prefixes:
        base = [dot(x, prefix) for x in pts]  # zip stops at the prefix
        squares = [mul[x][x] for x in prefix]
        for v in values:
            times_v = mul[v]
            c = [0] * p
            for b, x in zip(base, last):
                c[trace[add[b][times_v[x]]]] += 1
            # |sum_j c_j zeta^j|^2, the count vector times its conjugate
            sq = convolve(c, conjugated(c))
            key = tuple(sorted(squares + [times_v[v]]))
            acc = lines.get(key)
            lines[key] = sq if acc is None else list(map(operator.add, acc, sq))
    # a m has the squares a^2 m_i^2 and the square of m with each index j
    # moved to a j; -a m has the class and the square of a m (a has index a)
    acc0 = [0] * p
    acc0[0] = len(pts) ** 2  # q^d Ehat(0) = |E|
    classes: dict[tuple[int, ...], list[int]] = {(0,) * d: acc0}
    for a in range(1, (p + 1) // 2):
        row, scaled = mul[a * a % p], [a * j % p for j in range(p)]
        for key, sq in lines.items():
            acc = classes.setdefault(tuple(sorted([row[r] for r in key])), [0] * p)
            for j, v in enumerate(sq):
                acc[scaled[j]] += 2 * v
    # the first member of a class sorts the smallest square roots of its
    # squares; classes are keyed by it, in lexicographic order
    root = [0] * q
    for x in range(q - 1, 0, -1):
        root[mul[x][x]] = x
    energy = {}
    for first, acc in sorted((tuple(sorted(root[r] for r in key)), acc)
                             for key, acc in classes.items()):
        e = Cyclotomic._over(p, acc, q ** (2 * d))
        if e:
            energy[Point(f, first)] = e
    return energy


def plancherel_check(E: PointSet) -> tuple[Fraction, Fraction]:
    """(sum_m |Ehat(m)|^2, q^{-d} |E|); the two must be equal exactly."""
    _check_set(E)
    field = E.field
    total = Cyclotomic.zero(field.p)
    for v in spectral_energy(E).values():
        total = total + v
    return total.rational_value(), Fraction(len(E), field.q**E.d)
