import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffdist import gf
from ffdist.cyclotomic import Cyclotomic
from ffdist.gf import (Field, FieldElement, Point, _poly_mul, _poly_powmod,
                       _poly_rem, _poly_trim, enumerate_vectors,
                       factor_prime_power, index_vectors, make_field,
                       point_from_index, poly_is_irreducible, space_size,
                       within_cap)

ODD_PRIME_POWERS_49 = [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49]
ODD_PRIME_POWERS_125 = ODD_PRIME_POWERS_49 + [
    53, 59, 61, 67, 71, 73, 79, 81, 83, 89, 97, 101, 103, 107, 109, 113, 121, 125]
TABLES = ("_add", "_mul", "_neg", "_inv", "_trace", "_quad")
# the default modulus of every extension field in scope (q <= 2048), in
# ascending coefficient order; every table and every output depends on it
DEFAULT_MODULI = {
    9: (1, 0, 1), 25: (2, 0, 1), 27: (1, 2, 0, 1), 49: (1, 0, 1),
    81: (2, 1, 0, 0, 1), 121: (1, 0, 1), 125: (1, 1, 0, 1), 169: (2, 0, 1),
    243: (1, 2, 0, 0, 0, 1), 289: (3, 0, 1), 343: (2, 0, 0, 1),
    361: (1, 0, 1), 529: (1, 0, 1), 625: (2, 0, 0, 0, 1),
    729: (2, 1, 0, 0, 0, 0, 1), 841: (2, 0, 1), 961: (1, 0, 1),
    1331: (4, 1, 0, 1), 1369: (2, 0, 1), 1681: (3, 0, 1), 1849: (1, 0, 1),
}


def field_for(q):
    return make_field(*factor_prime_power(q))


def _reference_tables(f):
    """The six tables built entry by entry from coefficient vectors: one
    polynomial product per pair, inverses by search, the trace by repeated
    p-th powers and the quadratic character by Euler's criterion."""
    p, s, q = f.p, f.s, f.q
    coeff = [f.index_to_coeffs(i) for i in range(q)]
    mod = list(f.modulus)
    neg = [f.coeffs_to_index((-c) % p for c in coeff[i]) for i in range(q)]
    add = [[f.coeffs_to_index((a + b) % p for a, b in zip(coeff[i], coeff[j]))
            for j in range(q)] for i in range(q)]
    mul = []
    for i in range(q):
        fi = _poly_trim(list(coeff[i]))
        row = []
        for j in range(q):
            prod = _poly_mul(fi, _poly_trim(list(coeff[j])), p)
            if s > 1:
                prod = _poly_rem(prod, mod, p)
            row.append(f.coeffs_to_index(prod))
        mul.append(row)

    def power(i, n):
        out = 1
        for _ in range(n):
            out = mul[out][i]
        return out

    inv = [None] + [next(j for j in range(1, q) if mul[i][j] == 1) for i in range(1, q)]
    trace = []
    for i in range(q):
        acc, frob = 0, i
        for _ in range(s):
            acc, frob = add[acc][frob], power(frob, p)
        trace.append(acc)
    quad = [0] + [1 if power(i, (q - 1) // 2) == 1 else -1 for i in range(1, q)]
    return add, mul, neg, inv, trace, quad


def _assert_tables_match_reference(f):
    for name, want in zip(TABLES, _reference_tables(f)):
        assert getattr(f, name) == want, name


class TestConstruction:
    def test_prime_field_modulus(self):
        f = make_field(3, 1)
        assert f.q == 3 and f.modulus == (0, 1)

    def test_gf9_modulus(self):
        # -1 is a nonsquare mod 3, so X^2 + 1 is the first irreducible hit
        assert make_field(3, 2).modulus == (1, 0, 1)

    def test_default_moduli_pinned(self):
        # Field, not make_field: the large tables stay out of the shared cache
        moduli = {}
        for q in range(3, gf._MAX_Q + 1, 2):
            try:
                p, s = factor_prime_power(q)
            except ValueError:
                continue
            if s > 1:
                moduli[q] = Field(p, s).modulus
        assert moduli == DEFAULT_MODULI

    def test_even_characteristic_rejected(self):
        with pytest.raises(ValueError):
            Field(2, 1)

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            Field(9, 1)

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            Field(3, 0)

    @pytest.mark.parametrize("p,s", [(10000000000000061, 1), (10000000000000061, 2),
                                     (3, 7), (3, 40), (3, 0)])
    def test_size_checked_before_primality(self, p, s, monkeypatch):
        # a field past the size cap is refused before any primality test
        seen = []
        real = gf.check_odd_prime
        monkeypatch.setattr(gf, "check_odd_prime", lambda p: seen.append(p) or real(p))
        for build in (make_field, Field):
            with pytest.raises(ValueError):
                build(p, s)
        assert all(p <= 2048 for p in seen)

    def test_factor_prime_power(self):
        assert factor_prime_power(27) == (3, 3)
        assert factor_prime_power(49) == (7, 2)
        for bad in (4, 8, 12, 15, 100):
            with pytest.raises(ValueError):
                factor_prime_power(bad)


class TestTablesAgainstReference:
    @pytest.mark.parametrize("q", ODD_PRIME_POWERS_125)
    def test_default_modulus(self, q):
        _assert_tables_match_reference(Field(*factor_prime_power(q)))

    @pytest.mark.parametrize("q", [243, 251, 257, 343, 361])
    def test_benchmark_orders(self, q):
        _assert_tables_match_reference(Field(*factor_prime_power(q)))


def _monic(p, n):
    """Every monic polynomial of degree n over GF(p), ascending coefficients."""
    return [tuple(c) + (1,) for c in itertools.product(range(p), repeat=n)]


@pytest.mark.parametrize("p,n", [(3, n) for n in range(1, 7)]
                         + [(p, n) for p in (5, 7) for n in range(1, 4)])
def test_irreducible_by_definition(p, n):
    """poly_is_irreducible accepts exactly the monic polynomials of degree n
    that are not a product of two monic factors of degree >= 1."""
    products = {tuple(_poly_mul(f, g, p))
                for a in range(1, n) for f in _monic(p, a) for g in _monic(p, n - a)}
    accepted = {f for f in _monic(p, n) if poly_is_irreducible(f, p)}
    assert accepted == set(_monic(p, n)) - products
    assert not poly_is_irreducible((p - 1,), p)


@pytest.mark.parametrize("p,s", [(2027, 1), (3, 6)])
def test_top_of_scope(p, s):
    """The largest fields in scope: inverses, squares and trace fibers."""
    f = Field(p, s)
    q, mul, inv, quad = f.q, f._mul, f._inv, f._quad
    assert all(mul[i][inv[i]] == 1 for i in range(1, q))
    assert sum(1 for i in range(1, q) if quad[i] == 1) == (q - 1) // 2
    rng = random.Random(f"euler:{q}")
    for i in rng.sample(range(1, q), 200):
        g = _poly_trim(list(f.index_to_coeffs(i)))
        euler = _poly_powmod(g, (q - 1) // 2, f.modulus, p)
        assert quad[i] == (1 if euler == [1] else -1)
    fibers = Counter(f._trace)
    assert set(fibers) == set(range(p))
    assert all(n == p ** (s - 1) for n in fibers.values())


class TestArithmetic:
    def test_inverse_gf5(self):
        f = make_field(5)
        assert f.element(2).inverse() == f.element(3)

    def test_gf9_generator_square(self):
        f = make_field(3, 2)
        x = f.element(f.coeffs_to_index((0, 1)))  # the class of X
        assert x * x == -f.one  # X^2 = -1 mod X^2 + 1

    def test_add_wraps(self):
        f = make_field(3)
        assert f.element(2) + f.element(2) == f.element(1)

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            make_field(3).zero.inverse()

    def test_int_arithmetic(self):
        f = make_field(5)
        assert f.one + 1 == f.element(2)
        assert 3 * f.element(2) == f.from_int(6) == f.one

    def test_element_index_out_of_range(self):
        f = make_field(5)
        for bad in (5, -1):
            with pytest.raises(ValueError, match=rf"^element index {bad} outside \[0, 5\)$"):
                f.element(bad)

    def test_reflected_sub_and_division(self):
        f = make_field(5)
        assert 1 - f.element(3) == f.element(3)  # 1 - 3 = -2
        assert f.element(2) / f.element(3) == f.element(4)  # 2 * 3^-1 = 2 * 2
        assert f.element(2) / 3 == f.element(4)
        with pytest.raises(ZeroDivisionError):
            f.one / f.zero

    @pytest.mark.parametrize("other,error,message", [
        (make_field(7).one, ValueError, "^elements belong to different fields$"),
        (make_field(5, 2).one, ValueError, "^elements belong to different fields$"),
        (1.5, TypeError, "^cannot combine FieldElement with float$"),
    ], ids=["GF(7)", "GF(25)", "float"])
    def test_foreign_operand_refused(self, other, error, message):
        a = make_field(5).element(2)
        for combine in (lambda: a + other, lambda: other + a, lambda: a - other,
                        lambda: other - a, lambda: a * other, lambda: other * a,
                        lambda: a / other):
            with pytest.raises(error, match=message):
                combine()

    def test_repr(self):
        assert repr(make_field(5).element(3)) == "GF(5):3"
        f = make_field(3, 2)
        assert repr(f.element(f.coeffs_to_index((1, 2)))) == "GF(9):(1, 2)"

    def test_no_equality_with_int(self):
        # an element equal to both 1 and 6 could not hash like both
        f = make_field(5)
        assert f.one != 6
        assert f.one != 1
        assert f.zero != 0
        assert f.one not in {1}

    def test_equal_elements_hash_equal(self):
        f = make_field(3, 2)
        for a in f.elements:
            twin = FieldElement(f, a.index)
            assert twin is not a and twin == a and hash(twin) == hash(a)
            assert twin != a + f.one

    def test_power_edge_cases(self):
        f = make_field(5, 2)
        a = f.element(7)
        assert f.zero ** 0 == f.one
        assert f.zero ** 3 == f.zero
        assert a ** 0 == f.one
        assert a ** -2 == (a * a).inverse()
        assert a ** -1 * a == f.one
        with pytest.raises(ZeroDivisionError):
            f.zero ** -1

    @pytest.mark.parametrize("q", [9, 25])
    def test_unit_order_divides_q_minus_1(self, q):
        f = field_for(q)
        assert all(a ** (q - 1) == f.one for a in f.elements[1:])
        assert all(a ** q == a for a in f.elements)

    def test_field_axioms_exhaustive_gf9(self):
        f = make_field(3, 2)
        for a in f.elements:
            for b in f.elements:
                assert a + b == b + a
                assert a * b == b * a
            if not a.is_zero:
                assert a.inverse() * a == f.one


class TestTraceAndCharacter:
    def test_trace_identity_on_prime_field(self):
        f = make_field(7)
        assert all(f.element(a).trace() == a for a in range(7))

    def test_trace_one_gf9(self):
        assert make_field(3, 2).one.trace() == 2

    def test_trace_zero(self):
        for q in (3, 9, 25):
            assert field_for(q).zero.trace() == 0

    def test_quad_char_examples(self):
        f3, f5 = make_field(3), make_field(5)
        assert f3.quad_char(f3.element(2)) == -1
        assert f5.quad_char(f5.element(4)) == 1
        assert f5.quad_char(-f5.one) == 1
        for q in (3, 5, 9, 25):
            f = field_for(q)
            assert f.quad_char(f.one) == 1
            assert f.quad_char(f.zero) == 0

    @pytest.mark.parametrize("q", ODD_PRIME_POWERS_49)
    def test_quad_char_multiplicative(self, q):
        f = field_for(q)
        for a in range(1, q):
            for b in range(1, q):
                assert f._quad[f._mul[a][b]] == f._quad[a] * f._quad[b]

    @pytest.mark.parametrize("q", ODD_PRIME_POWERS_49)
    def test_square_count(self, q):
        f = field_for(q)
        assert sum(1 for a in range(1, q) if f._quad[a] == 1) == (q - 1) // 2

    @pytest.mark.parametrize("q", ODD_PRIME_POWERS_49)
    def test_trace_fibers(self, q):
        f = field_for(q)
        fibers = Counter(f._trace)
        assert set(fibers) == set(range(f.p))
        assert all(n == f.p ** (f.s - 1) for n in fibers.values())

    @pytest.mark.parametrize("q", [3, 5, 9, 25, 27])
    def test_orthogonality(self, q):
        f = field_for(q)
        for b in f.elements:
            total = Cyclotomic.from_counts(f.p, _trace_counts(f, b))
            assert total == (f.q if b.is_zero else 0)
        assert sum(f._quad[a] for a in range(1, f.q)) == 0


def _trace_counts(f, b):
    counts = Counter()
    for c in range(f.q):
        counts[f._trace[f._mul[b.index][c]]] += 1
    return counts


class TestVectors:
    def test_norm_and_zeros(self):
        f = make_field(3)
        x = Point(f, (1, 2))
        assert x.norm() == f.element(2) and x.zero_count() == 0
        y = Point(f, (0, 2))
        assert y.zero_count() == 1 and y.norm() == f.element(1)
        z = Point(f, (0, 0))
        assert z.norm() == f.zero and z.zero_count() == 2

    def test_dot(self):
        f = make_field(5)
        assert Point(f, (1, 2)).dot(Point(f, (3, 4))) == f.element(1)  # 3 + 8 = 11 = 1

    def test_dimension_mismatch(self):
        f = make_field(3)
        with pytest.raises(ValueError):
            Point(f, (1, 2)).dot(Point(f, (1, 2, 0)))

    def test_enumeration_order(self):
        f = make_field(3)
        pts = enumerate_vectors(f, 1)
        assert [x.idx for x in pts] == [(0,), (1,), (2,)]
        pts = enumerate_vectors(f, 2)
        assert len(pts) == 9
        assert pts[0].idx == (0, 0) and pts[-1].idx == (2, 2)
        assert [x.idx for x in pts] == sorted(x.idx for x in pts)
        assert all(point_from_index(f, 2, i) == x for i, x in enumerate(pts))

    def test_enumeration_matches_checked_points(self):
        # the unchecked construction gives the same points, in the same
        # order, as the checked constructor; Point(...) still checks
        for f, d in ((make_field(3), 3), (make_field(3, 2), 2), (make_field(7), 2)):
            pts = enumerate_vectors(f, d)
            assert pts == [Point(f, idx) for idx in index_vectors(f, d)]
            assert all(type(x) is Point and x.field is f for x in pts)
        f = make_field(5)
        for bad in ((5, 0), (0, -1), ()):
            with pytest.raises(ValueError):
                Point(f, bad)

    def test_point_refuses_foreign_coordinates(self):
        # a float, a str or another field's element is refused, not read as
        # an int index
        f = make_field(5)
        assert Point(f, (f.element(4), 2)) == Point(f, (4, 2))
        for bad in (1.5, "3", None, True):
            with pytest.raises(ValueError, match=r"is neither an element of GF\(5\) nor an int"):
                Point(f, (bad, 2))
        for foreign in (make_field(7).elements[4], make_field(5, 2).elements[4]):
            with pytest.raises(ValueError, match="^elements belong to different fields$"):
                Point(f, (foreign, 2))

    def test_point_from_index_range(self):
        # index q^d used to wrap to the origin and -1 to (q-1, ..., q-1)
        f = make_field(5)
        assert point_from_index(f, 2, 24) == Point(f, (4, 4))
        assert point_from_index(f, 2, 0) == Point(f, (0, 0))
        for bad in (25, -1, 26, -25, 5**40, -(5**40)):
            with pytest.raises(ValueError, match=r"^point index must lie in \[0, 5\^2\)$"):
                point_from_index(f, 2, bad)
        with pytest.raises(ValueError, match="dimension >= 1"):
            point_from_index(f, 0, 0)
        with pytest.raises(TypeError):
            point_from_index(f, 2, 3.0)

    def test_point_from_index_round_trip(self):
        # the digits are read back as the index, and the unchecked point is
        # the checked one
        for f, d in ((make_field(3), 3), (make_field(3, 2), 2), (make_field(7), 2)):
            for i in range(f.q**d):
                x = point_from_index(f, d, i)
                assert type(x) is Point and x == Point(f, x.idx)
                assert sum(c * f.q ** j for j, c in enumerate(reversed(x.idx))) == i
        f = make_field(3)
        assert point_from_index(f, 30, 3**30 - 1).idx == (2,) * 30
        with pytest.raises(ValueError):
            point_from_index(f, 30, 3**30)

    def test_enumeration_cardinality_gf9(self):
        assert len(enumerate_vectors(make_field(3, 2), 3)) == 729

    def test_cap(self, monkeypatch):
        # refused by the size check, before any index tuple is produced
        monkeypatch.setattr(gf, "product", None)
        with pytest.raises(ValueError,
                           match=r"^q\^d = 3\^13 exceeds enumeration cap 1000000$"):
            enumerate_vectors(make_field(3), 13)

    def test_space_size(self):
        assert gf.CAP == 10**6
        assert space_size(997, 2) == 994_009
        assert space_size(3, 12) == 531_441
        for q, d in ((1009, 2), (3, 13)):
            with pytest.raises(ValueError,
                               match=rf"^q\^d = {q}\^{d} exceeds enumeration cap 1000000$"):
                space_size(q, d)
        # past the cap's bit length the message names q and d, not q^d
        with pytest.raises(ValueError, match=r"^q\^d = 3\^3000000 exceeds"):
            space_size(3, 3_000_000)
        for d in (0, -1):
            with pytest.raises(ValueError, match="dimension must be >= 1"):
                space_size(3, d)

    def test_square_class(self):
        # the class is the orbit under coordinate permutations and sign
        # flips: in GF(5), 1 and 4 square to 1, 2 and 3 to 4
        f = make_field(5)
        assert Point(f, (2, 0, 1)).square_class() == (0, 1, 4)
        orbit = {tuple(sign * c % 5 for sign, c in zip(signs, perm))
                 for perm in itertools.permutations((2, 0, 1))
                 for signs in itertools.product((1, -1), repeat=3)}
        assert {x.idx for x in enumerate_vectors(f, 3)
                if x.square_class() == (0, 1, 4)} == orbit

    def test_within_cap(self):
        # 997^2 = 994,009 and 3^12 = 531,441 lie within 10^6;
        # 1009^2 = 1,018,081 and 3^13 = 1,594,323 do not
        assert within_cap(997, 2) and within_cap(3, 12)
        assert not within_cap(1009, 2) and not within_cap(3, 13)
        assert not within_cap(3, 3_000_000)  # decided before 3**d
        assert list(index_vectors(make_field(3), 2)) == [
            x.idx for x in enumerate_vectors(make_field(3), 2)]
        with pytest.raises(ValueError, match="exceeds enumeration cap 1000000"):
            index_vectors(make_field(3), 13)


@st.composite
def index_pairs(draw):
    q = draw(st.sampled_from([3, 5, 9, 25, 27]))
    d = draw(st.integers(1, 4))
    coords = st.lists(st.integers(0, q - 1), min_size=d, max_size=d)
    return field_for(q), draw(coords), draw(coords)


class TestFieldDot:
    @settings(max_examples=300, deadline=None)
    @given(index_pairs())
    def test_dot_is_the_element_sum(self, case):
        f, a, b = case
        want = f.zero
        for x, y in zip(a, b):
            want = want + f.elements[x] * f.elements[y]
        assert f.dot(a, b) == want.index
        assert f.dot(tuple(a), tuple(b)) == f.dot(b, a)
        assert Point(f, a).dot(Point(f, b)) == want
        square = f.zero
        for x in a:
            square = square + f.elements[x] * f.elements[x]
        assert Point(f, a).norm() == square

    @settings(max_examples=100, deadline=None)
    @given(index_pairs())
    def test_point_dot_still_checks_the_space(self, case):
        f, a, b = case
        with pytest.raises(ValueError):
            Point(f, a).dot(Point(f, b + [0]))
        other = make_field(7)
        with pytest.raises(ValueError):
            Point(f, a).dot(Point(other, [c % 7 for c in b]))
        with pytest.raises(TypeError):
            Point(f, a).dot(tuple(b))
