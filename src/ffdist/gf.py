"""Arithmetic in GF(p^s) for odd prime powers, plus vectors over it.

Elements are indexed 0..q-1 by the base-p value of their coefficient vector
(constant coefficient least significant), so the prime field embeds as
0..p-1 with index == value.  All field operations go through precomputed
dense tables, which is the right trade-off at desk scale (q <= 2048): every
downstream character sum is then a pair of list lookups.  The tables come
from one walk over the powers of a primitive element (exp/log lists, from
which products, inverses, negatives, the quadratic character and Frobenius
follow) plus digitwise addition rows cut from one shared list of ints, so a
build is O(q*s) polynomial work plus q^2 list copies.

Points of F_q^d are tuples of element indices.  Point is the checked public
type; the enumeration loops of the other modules run on the index tuples
themselves, either per term through Field.dot, which builds no object per
term, or as lookup passes over whole columns of indices at once.

The defining modulus is chosen deterministically (smallest monic irreducible
polynomial of degree s in base-p coefficient order) so that GF(9), GF(25),
GF(27), ... are identical across runs and platforms.

This module is also the one home of argument kinds.  Every public entry of
the package declares the kind of each argument once, with the takes
decorator (a field, an element, a point, a collection or a mapping of
points, a dimension, an int, k in [1, d], alpha in [0, d], and a field's
characteristic and degree); one checker per kind refuses a wrong argument
with an ArgumentError that names it, before the entry's body or cache
runs.  The kinds of a CharacterTable (TABLE), a PointSet (SET) and an
ExperimentConfig (CONFIG) sit beside their classes, in the modules above
this one.  DECLARED holds every declaration, for the tests to read.
"""

from __future__ import annotations

import inspect
import math
from collections.abc import Collection, Mapping
from functools import lru_cache, partial, wraps
from itertools import product
from typing import Iterable, Optional, Sequence

from .cyclotomic import check_odd_prime

CAP = 10**6  # the bound on q^d for every enumeration and sample
_MAX_Q = 2048  # table-based arithmetic; larger fields are out of scope


# ---------------------------------------------------------------------------
# dense polynomials over GF(p), coefficient lists in ascending degree
# ---------------------------------------------------------------------------

def _digits(n: int, p: int, s: int) -> list[int]:
    """The s base-p digits of n, least significant first."""
    out = []
    for _ in range(s):
        n, r = divmod(n, p)
        out.append(r)
    return out


def _poly_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mul(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _poly_trim(out)


def _poly_rem(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    """f mod g with g nonzero; g need not be monic."""
    f = list(f)
    dg = len(g) - 1
    inv_lead = pow(g[-1], -1, p)
    while len(f) - 1 >= dg and f:
        c = f[-1] * inv_lead % p
        shift = len(f) - 1 - dg
        for i, b in enumerate(g):
            f[shift + i] = (f[shift + i] - c * b) % p
        _poly_trim(f)
    return f


def _poly_powmod(base: Sequence[int], e: int, mod: Sequence[int], p: int) -> list[int]:
    out = [1]
    b = _poly_rem(base, mod, p)
    while e:
        if e & 1:
            out = _poly_rem(_poly_mul(out, b, p), mod, p)
        b = _poly_rem(_poly_mul(b, b, p), mod, p)
        e >>= 1
    return out


def poly_is_irreducible(f: Sequence[int], p: int) -> bool:
    """Irreducibility over GF(p) by trial division: f has degree >= 1 and no
    monic divisor of degree 1 to deg(f)/2 (cheap for every field in scope)."""
    f = _poly_trim(list(f))
    s = len(f) - 1
    return s >= 1 and all(_poly_rem(f, _digits(n, p, e) + [1], p)
                          for e in range(1, s // 2 + 1) for n in range(p**e))


def smallest_irreducible(p: int, s: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree s over GF(p).

    Candidates are scanned by increasing base-p value of the non-leading
    coefficients (constant coefficient least significant).
    """
    for n in range(p**s):
        cand = _digits(n, p, s) + [1]
        if poly_is_irreducible(cand, p):
            return tuple(cand)
    raise RuntimeError(f"no irreducible polynomial of degree {s} over GF({p})")


# ---------------------------------------------------------------------------
# argument kinds: the one place that decides what each argument must be
# ---------------------------------------------------------------------------

class ArgumentError(ValueError, TypeError):
    """An argument of the wrong kind: a ValueError, as every refused input
    is, and a TypeError, as Python's own refusal of a wrong type is."""


DECLARED: dict = {}  # each declared entry -> its {argument name: kind}


def takes(**kinds):
    """Declare the kind of each named argument of a public entry.

    A kind is a checker kind(value, name, field, d).  It raises
    ArgumentError naming the argument, or returns None or the (field, d)
    that the value fixes for the arguments after it: a field or a table
    fixes the field, a dimension fixes d, a point set both, and so does a
    point, whose own d (and field) serve while none is fixed.  The entry
    checks its declared arguments in their order, before its body or any
    cache runs; an argument left at its default is not checked.
    """
    def declare(fn):
        params = inspect.signature(fn).parameters.values()
        checks = [(i, p.name, kinds[p.name], p.default)
                  for i, p in enumerate(params) if p.name in kinds]

        @wraps(fn)
        def entry(*args, **kwargs):
            field = d = None
            for i, name, kind, default in checks:
                value = args[i] if i < len(args) else kwargs.get(name, default)
                if value is not default:
                    fixed = kind(value, name, field, d)
                    if fixed:
                        field, d = fixed
            return fn(*args, **kwargs)

        if hasattr(fn, "cache_info"):  # an lru_cache stays inspectable
            entry.cache_info, entry.cache_clear = fn.cache_info, fn.cache_clear
        DECLARED[entry] = kinds
        return entry
    return declare


def FIELD(value, name, field, d):
    """A Field; it fixes the field."""
    if not isinstance(value, Field):
        raise ArgumentError(f"{name} must be a Field, got {value!r}")
    return value, d


def ELEMENT(value, name, field, d):
    """An element of the field fixed so far."""
    if not isinstance(value, FieldElement):
        raise ArgumentError(f"{value!r} is not an element of GF({field.q})")
    if value.field is not field:
        raise ArgumentError("elements belong to different fields")


def POINT(value, name, field, d):
    """A Point of GF(q)^d.  While d is not fixed, a point of GF(q)^e for
    its own e, and while the field is not fixed, of any field; it fixes
    both.  A non-Point is refused before anything of it is read."""
    if not (isinstance(value, Point) and value.field is (field or value.field)
            and len(value.idx) == (d or len(value.idx))):
        space = f"GF({field.q})^{d or getattr(value, 'd', 'd')}" if field else "any GF(q)^d"
        raise ArgumentError(f"{name}: {value!r} does not belong to {space}")
    return value.field, len(value.idx)


def POINTS(value, name, field, d, container=Collection):
    """A collection (not a one-pass iterator) of Points of GF(q)^d, each
    checked with one isinstance and two comparisons; with container=Mapping
    (MAPPING), a mapping from them."""
    if not isinstance(value, (dict, container)):  # dict first: an ABC is slower
        raise ArgumentError(f"{name} must be a {container.__name__.lower()} of points, "
                            f"got {value!r}")
    for x in value:
        if not (isinstance(x, Point) and x.field is field and len(x.idx) == d):
            POINT(x, name, field, d)


MAPPING = partial(POINTS, container=Mapping)


def _int_kind(lo: Optional[int], label: Optional[str] = None):
    """The kind of an int (not a bool), in [lo, d] unless lo is None; its
    messages name label, or else the argument."""
    def kind(value, name, field, d):
        if type(value) is not int:
            raise ArgumentError(f"{label or name} must be an int, got {value!r}")
        if lo is not None and not lo <= value <= d:
            raise ArgumentError(f"{label or name} must lie in [{lo}, {d}], got {value}")
    return kind


INT, K, ALPHA = _int_kind(None), _int_kind(1), _int_kind(0, "alpha")


def DIM(value, name, field, d):
    """A dimension, an int >= 1; it fixes d."""
    if type(value) is not int or value < 1:
        raise ArgumentError(f"dimension must be an int >= 1, got {value!r}")
    return field, value


def PRIME(value, name, field, d):
    """A field's characteristic: an int, which Field tests for an odd prime
    once its size is known to be in scope."""
    if type(value) is not int:
        raise ArgumentError(f"{name} must be an odd prime, got {value!r}")


def DEGREE(value, name, field, d):
    """A field's extension degree, an int >= 1."""
    if type(value) is not int or value < 1:
        raise ArgumentError(f"extension degree must be >= 1, got {value!r}")


# ---------------------------------------------------------------------------
# the field
# ---------------------------------------------------------------------------

class FieldElement:
    """An element of a Field, identified by its enumeration index."""

    __slots__ = ("field", "index")

    def __init__(self, field: "Field", index: int) -> None:
        self.field = field
        self.index = index

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.index_to_coeffs(self.index)

    @property
    def is_zero(self) -> bool:
        return self.index == 0

    def _other(self, other) -> "FieldElement":
        if isinstance(other, int):
            return self.field.from_int(other)
        if not isinstance(other, FieldElement):
            raise TypeError(f"cannot combine FieldElement with {type(other).__name__}")
        ELEMENT(other, "other", self.field, None)
        return other

    def __add__(self, other):
        o = self._other(other)
        return self.field.elements[self.field._add[self.index][o.index]]

    __radd__ = __add__

    def __neg__(self):
        return self.field.elements[self.field._neg[self.index]]

    def __sub__(self, other):
        o = self._other(other)
        return self.field.elements[self.field._add[self.index][self.field._neg[o.index]]]

    def __mul__(self, other):
        o = self._other(other)
        return self.field.elements[self.field._mul[self.index][o.index]]

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        inv = self.field._inv[self.index]
        if inv is None:
            raise ZeroDivisionError("inverse of zero in GF(q)")
        return self.field.elements[inv]

    def trace(self) -> int:
        """Absolute trace, a residue in [0, p)."""
        return self.field._trace[self.index]

    def __eq__(self, other) -> bool:
        # no equality with int: one would then equal both 1 and 1 + p,
        # which hash differently
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field is other.field and self.index == other.index

    def __hash__(self) -> int:
        return hash((id(self.field), self.index))

    def __repr__(self) -> str:
        if self.field.s == 1:
            return f"GF({self.field.q}):{self.index}"
        return f"GF({self.field.q}):{self.coeffs}"


class Field:
    """GF(p^s) for an odd prime p, with dense arithmetic tables."""

    @takes(p=PRIME, s=DEGREE)
    def __init__(self, p: int, s: int) -> None:
        # the size check comes first: a huge p would cost O(sqrt p) in the
        # primality test, and a huge s a huge int in p**s (2^s > _MAX_Q
        # once s exceeds its bit length)
        if p >= 2 and (s > _MAX_Q.bit_length() or p**s > _MAX_Q):
            size = p if s == 1 else f"{p}^{s}"
            raise ValueError(f"field GF({size}) exceeds supported size {_MAX_Q}")
        check_odd_prime(p)
        q = p**s
        self.p = p
        self.s = s
        self.q = q
        self.modulus = smallest_irreducible(p, s)
        self._build_tables()
        self.elements = tuple(FieldElement(self, i) for i in range(q))
        self.zero = self.elements[0]
        self.one = self.elements[1]

    # -- construction helpers ---------------------------------------------

    def index_to_coeffs(self, i: int) -> tuple[int, ...]:
        return tuple(_digits(i, self.p, self.s))

    def coeffs_to_index(self, coeffs: Iterable[int]) -> int:
        i = 0
        for c in reversed(list(coeffs)):
            i = i * self.p + c % self.p
        return i

    def _build_tables(self) -> None:
        p, q = self.p, self.q
        n = q - 1

        # addition is digitwise mod p on base-p indices.  The row of i whose
        # top nonzero digit is a at place p^k is the row of i mod p^k with
        # each block of p^(k+1) entries rotated by a * p^k; every row is made
        # of slices of ints, so the rows share q int objects, not q^2 new ones.
        ints = list(range(q))
        add = [ints]
        for i in range(1, q):
            pk = 1
            while pk * p <= i:
                pk *= p
            low, shift, size = add[i % pk], i - i % pk, pk * p
            row: list[int] = []
            for b in range(0, q, size):
                row += low[b + shift:b + size]
                row += low[b:b + shift]
            add.append(row)
        self._add = add

        # the unit group is cyclic: one walk over the powers of a primitive
        # element g gives exp (power -> index) and log (index -> power)
        g = self._primitive_element()
        exp = [0] * n
        log: list[Optional[int]] = [None] * q
        cur = [1]
        for e in range(n):
            i = self.coeffs_to_index(cur)
            exp[e], log[i] = i, e
            cur = _poly_rem(_poly_mul(cur, g, p), self.modulus, p)
        self._exp = exp

        logs = log[1:]
        exp2 = exp + exp
        self._mul = [[0] * q] + [[0] + [exp2[li + lj] for lj in logs] for li in logs]
        self._inv = [None] + [exp[-li % n] for li in logs]
        self._neg = [0] + [exp2[li + n // 2] for li in logs]  # -1 = g^(n/2)
        self._quad = [0] + [1 if li % 2 == 0 else -1 for li in logs]

        # absolute trace Tr(a) = sum of a^(p^e) for e < s; lands in GF(p), where
        # an element's index equals its value
        frob = [0] + [exp[p * li % n] for li in logs]
        trace = []
        for a in range(q):
            acc = 0
            for _ in range(self.s):
                acc, a = add[acc][a], frob[a]
            trace.append(acc)
        self._trace = trace

    def _primitive_element(self) -> list[int]:
        """Coefficients of the smallest-index generator of GF(q)*.

        X need not be one (X^2 + 1 over GF(3) has order 4), so each candidate's
        order is tested against the prime factors of q - 1.
        """
        p, q, mod = self.p, self.q, self.modulus
        n = q - 1
        primes = [r for r in range(2, n + 1)
                  if n % r == 0 and all(r % d for d in range(2, math.isqrt(r) + 1))]
        for i in range(1, q):
            g = _poly_trim(list(self.index_to_coeffs(i)))
            if all(_poly_powmod(g, n // r, mod, p) != [1] for r in primes):
                return g
        raise RuntimeError(f"GF({q}) has no primitive element")

    # -- public operations -------------------------------------------------

    @takes(index=INT)
    def element(self, index: int) -> FieldElement:
        if not 0 <= index < self.q:
            raise ValueError(f"element index {index} outside [0, {self.q})")
        return self.elements[index]

    @takes(n=INT)
    def from_int(self, n: int) -> FieldElement:
        """Embed an integer through the prime subfield."""
        return self.elements[n % self.p]

    def quad_char(self, a: FieldElement) -> int:
        """Quadratic character: +1 on nonzero squares, -1 on nonsquares, 0 at 0."""
        return self._quad[a.index]

    def dot(self, a: Sequence[int], b: Sequence[int]) -> int:
        """Index of sum a_i b_i for index tuples a and b, unchecked."""
        add, mul = self._add, self._mul
        acc = 0
        for x, y in zip(a, b):
            acc = add[acc][mul[x][y]]
        return acc

    def __repr__(self) -> str:
        return f"Field(p={self.p}, s={self.s}, modulus={self.modulus})"

    # identity hashing: fields are shared singletons obtained via make_field
    __hash__ = object.__hash__
    __eq__ = object.__eq__


@takes(p=PRIME, s=DEGREE)  # so only ints reach the cache
@lru_cache(maxsize=None)
def make_field(p: int, s: int = 1) -> Field:
    """Construct (and cache) GF(p^s) with the deterministic modulus."""
    return Field(p, s)


@takes(q=INT)
def factor_prime_power(q: int) -> tuple[int, int]:
    """Split q = p^s with p an odd prime, or raise ValueError (also for q
    above the supported field size)."""
    if q < 3:
        raise ValueError(f"{q} is not an odd prime power")
    if q > _MAX_Q:  # before the O(sqrt q) trial division
        raise ValueError(f"field GF({q}) exceeds supported size {_MAX_Q}")
    p = q
    for c in range(2, math.isqrt(q) + 1):
        if q % c == 0:
            p = c
            break
    s = 0
    r = q
    while r % p == 0:
        r //= p
        s += 1
    if r != 1:
        raise ValueError(f"{q} is not a prime power")
    check_odd_prime(p)
    return p, s


# ---------------------------------------------------------------------------
# vectors over the field
# ---------------------------------------------------------------------------

class Point:
    """A d-tuple over GF(q), stored as a tuple of element indices."""

    __slots__ = ("field", "idx")

    def __init__(self, field: Field, coords) -> None:
        """A point from coordinates that are each an element of field or the
        int index of one; anything else raises ValueError."""
        idx = []
        for c in coords:
            if isinstance(c, FieldElement):
                ELEMENT(c, "coordinate", field, None)
                c = c.index
            elif type(c) is not int:
                raise ValueError(f"coordinate {c!r} is neither an element of GF({field.q}) "
                                 "nor an int index")
            idx.append(c)
        if not idx:
            raise ValueError("points must have dimension >= 1")
        if any(not 0 <= i < field.q for i in idx):
            raise ValueError(f"coordinate index out of range for GF({field.q})")
        self.field = field
        self.idx = tuple(idx)

    @property
    def d(self) -> int:
        return len(self.idx)

    def __sub__(self, other: "Point") -> "Point":
        POINT(other, "other", self.field, len(self.idx))
        add, neg = self.field._add, self.field._neg
        return Point(self.field, (add[a][neg[b]] for a, b in zip(self.idx, other.idx)))

    def dot(self, other: "Point") -> FieldElement:
        POINT(other, "other", self.field, len(self.idx))
        return self.field.elements[self.field.dot(self.idx, other.idx)]

    def norm(self) -> FieldElement:
        """Sum of squared coordinates."""
        return self.field.elements[self.field.dot(self.idx, self.idx)]

    def zero_count(self) -> int:
        """Number of zero coordinates."""
        return sum(1 for a in self.idx if a == 0)

    def square_class(self) -> tuple[int, ...]:
        """The sorted indices of the squared coordinates.

        Two points share it exactly when one is the other with coordinates
        permuted and signs flipped (c'^2 = c^2 only for c' = +-c), which
        preserves the k-norm and the dot product.
        """
        mul = self.field._mul
        return tuple(sorted(mul[c][c] for c in self.idx))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        return self.field is other.field and self.idx == other.idx

    def __hash__(self) -> int:
        return hash((id(self.field), self.idx))

    def __repr__(self) -> str:
        return f"Point{self.idx}"


@takes(field=FIELD, d=INT, index=INT)
def point_from_index(field: Field, d: int, index: int) -> Point:
    """The point whose coordinates are the d base-q digits of index, most
    significant first, for 0 <= index < q^d.

    The quotient left after d digits is 0 exactly for such an index (a
    negative one leaves -1), so the range is checked without forming q^d,
    and the digits are ints in range, so the point is built unchecked.
    """
    if d < 1:
        Point(field, ())  # refuses d < 1 as it refuses an empty point
    return _point_at(field, d, index)


def _point_at(field: Field, d: int, index: int) -> Point:
    """point_from_index for a field and a d >= 1 that are checked already."""
    q, n, idx = field.q, index, []
    for _ in range(d):
        n, r = divmod(n, q)
        idx.append(r)
    if n:
        raise ValueError(f"point index must lie in [0, {q}^{d})")
    pt = Point.__new__(Point)
    pt.field = field
    pt.idx = tuple(reversed(idx))
    return pt


def space_size(q: int, d: int) -> int:
    """|F_q^d| = q^d, refusing d < 1 and q^d > CAP.

    2^d > CAP once d exceeds CAP's bit length, so a huge d is refused
    before q**d is formed, and the message names q and d, not q^d.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if not within_cap(q, d):
        raise ValueError(f"q^d = {q}^{d} exceeds enumeration cap {CAP}")
    return q**d


def within_cap(q: int, d: int) -> bool:
    """q^d <= CAP, decided without forming q**d once 2^d > CAP."""
    return d <= CAP.bit_length() and q**d <= CAP


def index_vectors(field: Field, d: int) -> Iterable[tuple[int, ...]]:
    """The index tuples of all q^d points in lexicographic order (first
    coordinate most significant), once space_size has checked q^d <= CAP."""
    space_size(field.q, d)
    return product(range(field.q), repeat=d)


@takes(field=FIELD, d=DIM)
def enumerate_vectors(field: Field, d: int) -> list[Point]:
    """All q^d points in lexicographic order.

    index_vectors yields only in-range index tuples, so the points are built
    without the per-coordinate check of Point.__init__.
    """
    new = Point.__new__
    out = []
    for idx in index_vectors(field, d):
        pt = new(Point)
        pt.field = field
        pt.idx = idx
        out.append(pt)
    return out
