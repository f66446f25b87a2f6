import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffdist.cyclotomic import Cyclotomic


def cyclo(p):
    coeff = st.integers(min_value=-9, max_value=9)
    return st.lists(coeff, min_size=p, max_size=p).map(lambda cs: Cyclotomic(p, cs))


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
