"""Exact arithmetic in the cyclotomic field Q(zeta_p) for an odd prime p.

A value is p integer coefficients num = (c_0, ..., c_{p-1}) of the powers
1, zeta, ..., zeta^{p-1} over one positive common denominator den: the
layout of FLINT's fmpq_poly.  The representation is redundant (the minimal
polynomial has degree p-1), so every value is kept in a canonical form:
c_{p-1} = 0, obtained by subtracting c_{p-1} from all coefficients via the
relation 1 + zeta + ... + zeta^{p-1} = 0, and gcd(den, c_0, ..., c_{p-1})
= 1.  Two canonical values are equal iff their (num, den) pairs are equal,
which makes all the character-sum identities downstream testable as exact
equalities.

The constructor takes int coefficients only (den = 1); other denominators
arise from arithmetic with rationals.  Ring arithmetic runs on ints.  A
Fraction appears only at the boundary: a rational value or scalar coming
in, and the coeffs view, rational_value and comparison with a rational
going out.  Floats appear only in the explicit complex embedding.

The coefficient arithmetic under zeta^p = 1 is written once, as module
kernels on int lists that every other module calls: rotated (times
zeta^j), rotated_sum (a sum of rotated lists, the inner step of every
additive-character transform), conjugated (zeta -> zeta^{-1}), convolve
(the product, before canonical reduction) and common_denominator
(Cyclotomic, int or Fraction values as int lists over their lcm, each
checked to have the prime p).
Cyclotomic's own ring operations are built on them.
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence, Union


@lru_cache(maxsize=None)
def check_odd_prime(p: int) -> None:
    """Raise ValueError unless p is an odd prime."""
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        raise ValueError(f"expected an odd prime, got {p!r}")
    if any(p % k == 0 for k in range(3, math.isqrt(p) + 1, 2)):
        raise ValueError(f"expected an odd prime, got {p!r}")


@lru_cache(maxsize=None)
def _roots(p: int) -> tuple[complex, ...]:
    """The embedded powers of zeta_p: exp(2 pi i j / p) for 0 <= j < p."""
    return tuple(cmath.exp(2j * math.pi * j / p) for j in range(p))


def rotated(c: Sequence[int], j: int) -> Sequence[int]:
    """The coefficients of zeta^j times sum_l c[l] zeta^l, for 0 <= j < p: c
    rotated j places (a list for a list, a tuple for a tuple)."""
    return c[-j:] + c[:-j]


def rotated_sum(p: int, cs: Iterable[Sequence[int]], shifts: Iterable[int]) -> list[int]:
    """The coefficients of sum_i zeta^{j_i} c_i, for the p-long int lists c_i
    of cs and the shifts 0 <= j_i < p taken pairwise; [0] * p for no terms."""
    acc = [0] * p
    for c, j in zip(cs, shifts):
        acc = list(map(operator.add, acc, rotated(c, j)))
    return acc


def conjugated(c: Sequence[int]) -> Sequence[int]:
    """The coefficients of the conjugate, zeta -> zeta^{-1}: c[-i mod p] at i."""
    return c[:1] + c[:0:-1]


def convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The coefficients of (sum a_i zeta^i)(sum b_j zeta^j) under zeta^p = 1,
    not canonically reduced."""
    p = len(a)
    # index j - p names the slot of j, so i + j - p needs no wrap test
    nonzero = [(j - p, bj) for j, bj in enumerate(b) if bj]
    out = [0] * p
    for i, ai in enumerate(a):
        if ai:
            for j, bj in nonzero:
                out[i + j] += ai * bj
    return out


def _coerce(p: int, value) -> "Cyclotomic | None":
    """value as a Cyclotomic of prime p; None for a type that is not a value."""
    if isinstance(value, Cyclotomic):
        if value.p != p:
            raise ValueError(f"mixed primes {p} and {value.p}")
        return value
    if isinstance(value, (int, Fraction)):
        return Cyclotomic.from_rational(p, value)
    return None


def common_denominator(p: int, values: Iterable) -> tuple[list[list[int]], int]:
    """(nums, den): each Cyclotomic, int or Fraction value is nums[i] / den,
    on int coefficients over the lcm of the denominators.

    A Cyclotomic of another prime raises ValueError, any other type
    TypeError.
    """
    vs = []
    for v in values:
        c = _coerce(p, v)
        if c is None:
            raise TypeError(f"expected a Cyclotomic, int or Fraction, got {type(v).__name__}")
        vs.append(c)
    den = math.lcm(*(v.den for v in vs))
    return [[c * (den // v.den) for c in v.num] for v in vs], den


class Cyclotomic:
    """An exact element of Q(zeta_p): canonical integer coefficients num over
    a positive denominator den, in lowest terms."""

    __slots__ = ("p", "num", "den")

    def __init__(self, p: int, coeffs: Iterable[int]) -> None:
        check_odd_prime(p)
        cs = list(coeffs)
        if len(cs) != p:
            raise ValueError(f"expected {p} coefficients, got {len(cs)}")
        last = cs[-1]
        if last:
            cs = [c - last for c in cs]
        math.gcd(*cs)  # raises TypeError unless every coefficient is an int
        self.p = p
        self.num = tuple(cs)
        self.den = 1

    @classmethod
    def _over(cls, p: int, num: Iterable[int], den: int) -> "Cyclotomic":
        """num / den in canonical form, for den > 0; built through __init__."""
        v = cls(p, num)
        g = math.gcd(den, *v.num)
        if g != 1:
            v.num = tuple(c // g for c in v.num)
        v.den = den // g
        return v

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "Cyclotomic":
        return cls(p, [0] * p)

    @classmethod
    def one(cls, p: int) -> "Cyclotomic":
        return cls.from_rational(p, 1)

    @classmethod
    def from_rational(cls, p: int, value: Union[int, Fraction]) -> "Cyclotomic":
        return cls._over(p, [value.numerator] + [0] * (p - 1), value.denominator)

    @classmethod
    def root(cls, p: int, j: int) -> "Cyclotomic":
        """zeta_p^j."""
        cs = [0] * p
        cs[j % p] = 1
        return cls(p, cs)

    @classmethod
    def from_counts(cls, p: int, counts: Mapping[int, int]) -> "Cyclotomic":
        """Sum of counts[j] * zeta^j over the given exponents (mod p)."""
        cs = [0] * p
        for j, c in counts.items():
            cs[j % p] += c
        return cls(p, cs)

    # -- ring operations ---------------------------------------------------

    def _plus(self, other, sign: int):
        o = _coerce(self.p, other)
        if o is None:
            return NotImplemented
        # over the lcm of the denominators: equal ones need no rescaling
        den = math.lcm(self.den, o.den)
        sa, sb = den // self.den, sign * (den // o.den)
        return Cyclotomic._over(self.p, [a * sa + b * sb for a, b in zip(self.num, o.num)], den)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic._over(self.p, [-c for c in self.num], self.den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic._over(self.p, [c * other.numerator for c in self.num],
                                    self.den * other.denominator)
        o = _coerce(self.p, other)
        if o is None:
            return NotImplemented
        return Cyclotomic._over(self.p, convolve(self.num, o.num), self.den * o.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Cyclotomic":
        if n < 0:
            raise ValueError("negative powers not supported")
        out = Cyclotomic.one(self.p)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def times_root(self, j: int) -> "Cyclotomic":
        """Multiplication by zeta^j, a rotation of the coefficients."""
        return Cyclotomic._over(self.p, rotated(self.num, j % self.p), self.den)

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugate, i.e. zeta |-> zeta^{-1}."""
        return Cyclotomic._over(self.p, conjugated(self.num), self.den)

    # -- queries -----------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The rational coefficients, read-only: ints where integral, else
        Fractions."""
        den = self.den
        return tuple(Fraction(c, den) if c % den else c // den for c in self.num)

    @property
    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def to_complex(self) -> complex:
        """Numeric embedding zeta_p |-> exp(2*pi*i/p)."""
        den, roots = self.den, _roots(self.p)
        # c / den is correctly rounded, as float(Fraction(c, den)) is
        return sum((c / den * roots[j] for j, c in enumerate(self.num) if c), complex(0.0))

    def __abs__(self) -> float:
        return abs(self.to_complex())

    def __bool__(self) -> bool:
        return any(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, Cyclotomic):
            return self.p == other.p and self.den == other.den and self.num == other.num
        if isinstance(other, (int, Fraction)):
            # num[0] / den == other, cross-multiplied: int-only for an int
            return self.is_rational and self.num[0] == other * self.den
        return NotImplemented

    def __hash__(self) -> int:
        # a rational value equals the int or Fraction it holds, so it must
        # hash like it too
        if self.is_rational:
            return hash(self.num[0] if self.den == 1 else self.rational_value())
        return hash((self.p, self.num, self.den))

    def __repr__(self) -> str:
        return f"Cyclotomic(p={self.p}, {list(self.coeffs)})"
