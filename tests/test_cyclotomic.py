import cmath
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffdist.cyclotomic import (Cyclotomic, common_denominator, conjugated, convolve,
                               rotated, rotated_sum)


def cyclo(p):
    # int coefficients over a drawn denominator, so values are rational
    coeff = st.integers(min_value=-9, max_value=9)
    den = st.integers(min_value=1, max_value=12)
    return st.tuples(st.lists(coeff, min_size=p, max_size=p), den).map(
        lambda t: Cyclotomic(p, t[0]) * Fraction(1, t[1]))


def assert_canonical(v):
    assert len(v.num) == v.p
    assert all(type(c) is int for c in v.num)
    assert type(v.den) is int and v.den > 0
    assert math.gcd(v.den, *v.num) == 1
    assert v.num[-1] == 0


class TestCanonicalForm:
    def test_root_relation_p3(self):
        # zeta + zeta^2 = -1
        assert Cyclotomic(3, (0, 1, 1)) == Cyclotomic(3, (-1, 0, 0))
        assert Cyclotomic(3, (0, 1, 1)).coeffs == (-1, 0, 0)

    def test_vanishing_full_sum(self):
        assert Cyclotomic(3, (1, 1, 1)).coeffs == (0, 0, 0)

    def test_p5_top_power(self):
        assert Cyclotomic(5, (0, 0, 0, 0, 1)).coeffs == (-1, -1, -1, -1, 0)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            Cyclotomic(3, (1, 2))

    @pytest.mark.parametrize("p", [1, 2, 4, 9, 15])
    def test_bad_prime(self, p):
        with pytest.raises(ValueError):
            Cyclotomic(p, [0] * max(p, 1))

    def test_last_coefficient_always_zero(self):
        for p in (3, 5, 7):
            v = Cyclotomic(p, range(p)) * Cyclotomic(p, range(1, p + 1))
            assert v.coeffs[-1] == 0


class TestArithmetic:
    def test_square_of_root_difference(self):
        # (zeta - zeta^2)^2 = -3 in Q(zeta_3)
        v = Cyclotomic(3, (0, 1, -1))
        assert v * v == -3

    def test_identity(self):
        a = Cyclotomic(5, (1, 2, 3, 4, 0))
        assert a * Cyclotomic.one(5) == a

    def test_roots_multiply(self):
        assert Cyclotomic.root(3, 1) * Cyclotomic.root(3, 2) == 1

    def test_mixed_primes_rejected(self):
        with pytest.raises(ValueError):
            Cyclotomic.one(3) * Cyclotomic.one(5)
        with pytest.raises(ValueError):
            Cyclotomic.one(3) + Cyclotomic.one(5)

    def test_rational_scaling(self):
        a = Cyclotomic(3, (1, 2, 0))
        assert (a * Fraction(1, 2)).coeffs == (Fraction(1, 2), 1, 0)
        assert a * Fraction(2, 2) == a

    def test_times_root_matches_mul(self):
        a = Cyclotomic(7, (3, -1, 0, 2, 0, 5, 0))
        for j in range(7):
            assert a.times_root(j) == a * Cyclotomic.root(7, j)

    def test_hash_agrees_with_eq(self):
        assert Cyclotomic.one(5) == 1
        assert Cyclotomic.one(5) in {1}
        assert Cyclotomic.from_rational(7, Fraction(3, 4)) in {Fraction(3, 4)}
        assert Cyclotomic.zero(3) in {0}
        assert hash(Cyclotomic(3, (0, 1, 1))) == hash(-1)
        assert len({Cyclotomic.root(5, 1), Cyclotomic(5, (0, 1, 0, 0, 0))}) == 1

    def test_pow(self):
        g = Cyclotomic(3, (0, 1, -1))
        assert g**2 == -3
        assert g**0 == 1
        with pytest.raises(ValueError, match="^negative powers not supported$"):
            g ** -1

    def test_rational_value_of_irrational(self):
        with pytest.raises(ValueError, match=r"^Cyclotomic\(p=3, \[0, 1, 0\]\) is not rational$"):
            Cyclotomic.root(3, 1).rational_value()

    @pytest.mark.parametrize("op", [operator.add, operator.mul], ids=["add", "mul"])
    def test_str_operand_refused(self, op):
        g = Cyclotomic.root(5, 2)
        with pytest.raises(TypeError):
            op(g, "1")
        with pytest.raises(TypeError):
            op("1", g)


def coefficient_lists(p):
    # the zero list, a few nonzero slots, or every slot drawn
    small = st.integers(min_value=-9, max_value=9)
    sparse = st.dictionaries(st.integers(0, p - 1), small, max_size=3).map(
        lambda slots: [slots.get(i, 0) for i in range(p)])
    dense = st.lists(small, min_size=p, max_size=p)
    return st.one_of(st.just([0] * p), sparse, dense)


def rotated_reference(c, j):
    # zeta^j times c, slot by slot: slot i takes c[i - j mod p]
    p = len(c)
    return [c[(i - j) % p] for i in range(p)]


def convolve_reference(a, b):
    # the product as a double loop over every slot pair, with an explicit wrap
    p = len(a)
    conv = [0] * p
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                k = i + j
                if k >= p:
                    k -= p
                conv[k] += ai * bj
    return conv


@pytest.mark.parametrize("p", [3, 5, 7, 41])
class TestKernels:
    """The module kernels equal plain slot-by-slot reference loops."""

    @settings(max_examples=100)
    @given(data=st.data())
    def test_rotated_and_conjugated(self, p, data):
        c = data.draw(coefficient_lists(p))
        for j in (0, 1, p - 1):
            assert rotated(c, j) == rotated_reference(c, j)
            assert rotated(tuple(c), j) == tuple(rotated_reference(c, j))
        assert conjugated(c) == [c[-i % p] for i in range(p)]

    @settings(max_examples=100)
    @given(data=st.data())
    def test_convolve(self, p, data):
        a = data.draw(coefficient_lists(p))
        b = data.draw(coefficient_lists(p))
        assert convolve(a, b) == convolve_reference(a, b)
        assert convolve(a, conjugated(a)) == convolve_reference(a, conjugated(a))

    @settings(max_examples=100)
    @given(data=st.data())
    def test_rotated_sum(self, p, data):
        cs = data.draw(st.lists(coefficient_lists(p), max_size=6))
        shifts = data.draw(st.lists(st.sampled_from([0, 1, p - 1]),
                                    min_size=len(cs), max_size=len(cs)))
        # the sum of the rotated lists, slot by slot
        want = [sum(rotated_reference(c, j)[i] for c, j in zip(cs, shifts))
                for i in range(p)]
        assert rotated_sum(p, cs, shifts) == want
        assert rotated_sum(p, map(tuple, cs), iter(shifts)) == want
        assert rotated_sum(p, [], []) == [0] * p

    def test_common_denominator(self, p):
        root = Cyclotomic.root(p, 1) * Fraction(1, 6)
        values = [root, 2, Fraction(3, 4), Cyclotomic.zero(p)]
        nums, den = common_denominator(p, values)
        assert den == 12
        assert all(type(c) is int for num in nums for c in num)
        assert [Cyclotomic(p, num) * Fraction(1, den) for num in nums] == values
        assert common_denominator(p, []) == ([], 1)
        other = 3 if p != 3 else 5
        with pytest.raises(ValueError, match=f"mixed primes {p} and {other}"):
            common_denominator(p, [1, Cyclotomic.one(other)])
        with pytest.raises(TypeError):
            common_denominator(p, [0.5])


class TestComplexEmbedding:
    def test_p3_imaginary(self):
        v = Cyclotomic(3, (0, 1, -1))
        assert abs(v.to_complex() - 1j * math.sqrt(3)) < 1e-9

    def test_zero(self):
        assert Cyclotomic.zero(5).to_complex() == 0

    def test_p5_sqrt5(self):
        v = Cyclotomic(5, (0, 1, -1, -1, 1))
        assert abs(v.to_complex() - math.sqrt(5)) < 1e-9

    def test_embedding_multiplicative(self):
        a = Cyclotomic(5, (2, -1, 3, 0, 1))
        b = Cyclotomic(5, (0, 4, -2, 1, 0))
        lhs = (a * b).to_complex()
        rhs = a.to_complex() * b.to_complex()
        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(a) * abs(b))


@pytest.mark.parametrize("p", [3, 5, 7])
class TestRingLaws:
    @settings(max_examples=200)
    @given(data=st.data())
    def test_ring_axioms(self, p, data):
        a = data.draw(cyclo(p))
        b = data.draw(cyclo(p))
        c = data.draw(cyclo(p))
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=200)
    @given(data=st.data())
    def test_conjugation(self, p, data):
        a = data.draw(cyclo(p))
        b = data.draw(cyclo(p))
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert abs(a.conjugate().to_complex() - a.to_complex().conjugate()) <= 1e-9
        # a * conj(a) lies in the real subfield
        assert abs((a * a.conjugate()).to_complex().imag) <= 1e-9


@pytest.mark.parametrize("p", [3, 5, 7])
class TestRationalCoefficients:
    """Integer coefficients num over one denominator den, in lowest terms."""

    @settings(max_examples=200)
    @given(data=st.data())
    def test_results_are_canonical(self, p, data):
        a = data.draw(cyclo(p))
        b = data.draw(cyclo(p))
        for v in (a, b, a + b, a - b, a * b, -a, a.conjugate(), a.times_root(1),
                  a * 6, a * Fraction(-4, 9), a + Fraction(1, 3), 2 - a):
            assert_canonical(v)

    @settings(max_examples=200)
    @given(data=st.data())
    def test_equal_iff_pairs_equal(self, p, data):
        a = data.draw(cyclo(p))
        b = data.draw(cyclo(p))
        assert (a == b) == ((a.num, a.den) == (b.num, b.den)) == (not (a - b))
        # the same value reached another way has the same pair and hash
        c = (a + b) - b
        assert c == a and (c.num, c.den) == (a.num, a.den) and hash(c) == hash(a)

    @settings(max_examples=100)
    @given(cs=st.lists(st.integers(-9, 9), min_size=7, max_size=7),
           den=st.integers(1, 12), scale=st.integers(1, 6), shift=st.integers(-5, 5))
    def test_one_pair_per_value(self, p, cs, den, scale, shift):
        # scaling num and den together, or adding a multiple of
        # 1 + zeta + ... + zeta^{p-1}, does not change the value or its pair
        cs = cs[:p]
        a = Cyclotomic(p, cs) * Fraction(1, den)
        b = Cyclotomic(p, [scale * c + shift for c in cs]) * Fraction(1, scale * den)
        assert a == b
        assert (a.num, a.den) == (b.num, b.den)
        assert hash(a) == hash(b)

    @settings(max_examples=100)
    @given(r=st.fractions(min_value=-50, max_value=50, max_denominator=20))
    def test_rational_value_equals_its_fraction(self, p, r):
        for v in (Cyclotomic.from_rational(p, r),
                  Cyclotomic(p, [r.numerator] + [0] * (p - 1)) * Fraction(1, r.denominator)):
            assert v.is_rational
            assert v == r and r == v
            assert hash(v) == hash(r)
            assert v.rational_value() == r
            assert v.den == r.denominator
            if r.denominator == 1:
                assert v == r.numerator and hash(v) == hash(r.numerator)
            else:
                assert v != r.numerator

    @settings(max_examples=100)
    @given(data=st.data())
    def test_coeffs_view(self, p, data):
        cs = data.draw(st.lists(st.integers(-9, 9), min_size=p, max_size=p))
        den = data.draw(st.integers(1, 12))
        a = Cyclotomic(p, cs) * Fraction(1, den)
        assert a.coeffs == tuple(Fraction(c - cs[-1], den) for c in cs)
        assert a.coeffs == tuple(Fraction(c, a.den) for c in a.num)
        # integral coefficients read as ints, the others as Fractions
        assert all(type(c) is int if c.denominator == 1 else type(c) is Fraction
                   for c in a.coeffs)

    @settings(max_examples=100)
    @given(data=st.data())
    def test_to_complex_matches_fraction_floats(self, p, data):
        a = data.draw(cyclo(p))
        want = sum((float(c) * cmath.exp(2j * math.pi * j / p)
                    for j, c in enumerate(a.coeffs) if c), complex(0.0))
        assert a.to_complex() == want


class TestIntOnlyPath:
    def test_fraction_coefficient_rejected(self):
        with pytest.raises(TypeError):
            Cyclotomic(3, [Fraction(1, 2), 0, 0])
        with pytest.raises(TypeError):
            Cyclotomic(3, [0, 0, Fraction(2, 2)])
        with pytest.raises(TypeError):
            Cyclotomic(3, [0.5, 0, 0])

    def test_den_one_builds_no_fraction(self, monkeypatch):
        a = Cyclotomic(5, (2, -1, 3, 0, 1))
        b = Cyclotomic.one(5)

        def no_fraction(*args, **kwargs):
            raise AssertionError("a Fraction was built")

        monkeypatch.setattr(Fraction, "__new__", no_fraction)
        v = (a * 3 + b) * a - 7
        assert v.den == 1
        assert b == 1 and a != 1 and Cyclotomic.zero(5) == 0
        assert hash(b) == hash(1)
        assert v.conjugate().times_root(2) != 0
