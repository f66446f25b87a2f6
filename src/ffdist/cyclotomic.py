"""Exact arithmetic in the cyclotomic field Q(zeta_p) for an odd prime p.

Elements are stored as p rational coefficients c_0..c_{p-1} of the powers
1, zeta, ..., zeta^{p-1}.  The representation is redundant (the minimal
polynomial has degree p-1), so every value is kept in a canonical form with
c_{p-1} = 0, obtained by subtracting c_{p-1} from all coefficients via the
relation 1 + zeta + ... + zeta^{p-1} = 0.  Two canonical values are equal
iff their coefficient tuples are equal, which makes all the character-sum
identities downstream testable as exact equalities.

Coefficients are ints whenever possible and Fractions otherwise; arithmetic
never touches floats except in the explicit complex embedding.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Union

Rational = Union[int, Fraction]


@lru_cache(maxsize=None)
def check_odd_prime(p: int) -> None:
    """Raise ValueError unless p is an odd prime."""
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        raise ValueError(f"expected an odd prime, got {p!r}")
    if any(p % k == 0 for k in range(3, math.isqrt(p) + 1, 2)):
        raise ValueError(f"expected an odd prime, got {p!r}")


def _norm_coeff(c: Rational) -> Rational:
    # keep integer-valued Fractions as plain ints so the fast int path applies
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


class Cyclotomic:
    """An exact element of Q(zeta_p), canonical form with last coefficient 0."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Iterable[Rational]) -> None:
        check_odd_prime(p)
        cs = list(coeffs)
        if len(cs) != p:
            raise ValueError(f"expected {p} coefficients, got {len(cs)}")
        last = cs[-1]
        if last:
            cs = [c - last for c in cs]
        self.p = p
        self.coeffs = tuple(_norm_coeff(c) for c in cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "Cyclotomic":
        return cls(p, [0] * p)

    @classmethod
    def one(cls, p: int) -> "Cyclotomic":
        return cls.from_rational(p, 1)

    @classmethod
    def from_rational(cls, p: int, value: Rational) -> "Cyclotomic":
        return cls(p, [value] + [0] * (p - 1))

    @classmethod
    def root(cls, p: int, j: int) -> "Cyclotomic":
        """zeta_p^j."""
        cs = [0] * p
        cs[j % p] = 1
        return cls(p, cs)

    @classmethod
    def from_counts(cls, p: int, counts: Mapping[int, Rational]) -> "Cyclotomic":
        """Sum of counts[j] * zeta^j over the given exponents (mod p)."""
        cs: list[Rational] = [0] * p
        for j, c in counts.items():
            cs[j % p] += c
        return cls(p, cs)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.p != self.p:
                raise ValueError(f"mixed primes {self.p} and {other.p}")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(self.p, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.p, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.p, [-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.p, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.p, [c * other for c in self.coeffs])
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if other.p != self.p:
            raise ValueError(f"mixed primes {self.p} and {other.p}")
        p = self.p
        a, b = self.coeffs, other.coeffs
        conv: list[Rational] = [0] * p
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    k = i + j
                    if k >= p:
                        k -= p
                    conv[k] += ai * bj
        return Cyclotomic(p, conv)

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
        """Fast multiplication by zeta^j (a cyclic rotation of coefficients)."""
        p = self.p
        j %= p
        if j == 0:
            return self
        c = self.coeffs
        return Cyclotomic(p, [c[(i - j) % p] for i in range(p)])

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugate, i.e. zeta |-> zeta^{-1}."""
        p = self.p
        c = self.coeffs
        return Cyclotomic(p, [c[(-i) % p] for i in range(p)])

    # -- queries -----------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.coeffs[0])

    def to_complex(self) -> complex:
        """Numeric embedding zeta_p |-> exp(2*pi*i/p)."""
        p = self.p
        return sum(
            (float(c) * cmath.exp(2j * math.pi * j / p) for j, c in enumerate(self.coeffs) if c),
            complex(0.0),
        )

    def __abs__(self) -> float:
        return abs(self.to_complex())

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.coeffs[0] == other
        if isinstance(other, Cyclotomic):
            return self.p == other.p and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        # a rational value equals the int or Fraction it holds, so it must
        # hash like it too
        if self.is_rational:
            return hash(self.coeffs[0])
        return hash((self.p, self.coeffs))

    def __repr__(self) -> str:
        return f"Cyclotomic(p={self.p}, {list(self.coeffs)})"
