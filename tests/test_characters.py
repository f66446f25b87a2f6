import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from ffdist import characters, distance, geometry
from ffdist.characters import (character_table, gauss_closed_form,
                               gauss_identities, gauss_sum, kloosterman,
                               run_identity_checks)
from ffdist.cyclotomic import Cyclotomic
from ffdist.fourier import PointSet
from ffdist.gf import Point, enumerate_vectors, factor_prime_power, make_field

SUM_ORDERS = [3, 5, 9, 25, 27, 49]


def table_for(q):
    return character_table(make_field(*factor_prime_power(q)))


def _reference_gauss_sum(table, a):
    """G_a summed over FieldElements: eta(c) chi(a c) for c != 0."""
    f = table.field
    counts = Counter()
    for c in f.elements[1:]:
        counts[(a * c).trace()] += f.quad_char(c)
    return Cyclotomic.from_counts(f.p, counts)


def _reference_kloosterman(table, a, b):
    """K(a, b) summed over FieldElements: chi(a s + b / s) for s != 0."""
    f = table.field
    counts = Counter()
    for s in f.elements[1:]:
        counts[(a * s + b * s.inverse()).trace()] += 1
    return Cyclotomic.from_counts(f.p, counts)


def _reference_gauss_sums(f, a, b, v):
    """The three sums of gauss_identities term by term on FieldElements and
    Points: chi(a s^2), chi(a s^2 + b s) over s, chi(a ||u|| + v.u) over u."""
    square, completed, vector = Counter(), Counter(), Counter()
    for s in f.elements:
        square[(a * s * s).trace()] += 1
        completed[(a * s * s + b * s).trace()] += 1
    for u in enumerate_vectors(f, v.d):
        vector[(a * u.norm() + v.dot(u)).trace()] += 1
    return tuple(Cyclotomic.from_counts(f.p, c) for c in (square, completed, vector))


def _oracle_cases(f, d):
    """(a, b, v): a = 1 with b = 0 and v = 0, a nonsquare a with a zero in
    v, and seeded draws with a != 0."""
    rng = random.Random(f.q * 10 + d)
    nonsquare = next(x for x in f.elements if f.quad_char(x) == -1)
    cases = [(f.one, f.zero, Point(f, [0] * d)),
             (nonsquare, f.elements[-1], Point(f, [0] + [f.q - 1] * (d - 1)))]
    for _ in range(4):
        cases.append((rng.choice(f.elements[1:]), rng.choice(f.elements),
                      Point(f, [rng.randrange(f.q) for _ in range(d)])))
    return cases


ORACLE_SPACES = [(q, d) for q in (3, 5, 7, 9, 25, 27) for d in (1, 2, 3)]


class TestCharacterTable:
    @pytest.mark.parametrize("q", [3, 5, 9])
    def test_homomorphism(self, q):
        t = table_for(q)
        f = t.field
        for a in f.elements:
            for b in f.elements:
                assert t.chi(a + b) == t.chi(a) * t.chi(b)

    def test_nontrivial(self):
        t = table_for(9)
        assert any(t.chi(c) != 1 for c in t.field.elements)


class TestGaussSums:
    def test_q3_standard(self):
        t = table_for(3)
        g = gauss_sum(t, t.field.one)
        assert g == Cyclotomic(3, (0, 1, -1))  # zeta - zeta^2
        assert abs(g.to_complex() - 1j * math.sqrt(3)) < 1e-9

    def test_q5_standard(self):
        t = table_for(5)
        g = gauss_sum(t, t.field.one)
        assert g == Cyclotomic(5, (0, 1, -1, -1, 1))
        assert abs(g.to_complex() - math.sqrt(5)) < 1e-9

    @pytest.mark.parametrize("q", [3, 5, 9, 25])
    def test_zero_argument(self, q):
        t = table_for(q)
        assert gauss_sum(t, t.field.zero) == 0

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 25])
    def test_scaling_and_square(self, q):
        t = table_for(q)
        f = t.field
        g1 = t.gauss_standard()
        assert g1 * g1 == f.quad_char(-f.one) * q
        for a in f.elements[1:]:
            assert gauss_sum(t, a) == f.quad_char(a) * g1

    def test_closed_form_values(self):
        assert abs(gauss_closed_form(make_field(3)) - 1j * math.sqrt(3)) < 1e-12
        assert abs(gauss_closed_form(make_field(5)) - math.sqrt(5)) < 1e-12
        assert abs(gauss_closed_form(make_field(3, 2)) - 3) < 1e-12

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27, 49])
    def test_closed_form_matches_sum(self, q):
        t = table_for(q)
        assert abs(t.gauss_standard().to_complex() - gauss_closed_form(t.field)) < 1e-6

    @pytest.mark.parametrize("q", SUM_ORDERS)
    def test_matches_reference(self, q):
        t = table_for(q)
        for a in t.field.elements:
            assert gauss_sum(t, a).coeffs == _reference_gauss_sum(t, a).coeffs

    def test_element_of_another_field_rejected(self):
        t = table_for(7)
        with pytest.raises(ValueError, match="different fields"):
            gauss_sum(t, make_field(11).element(10))  # index outside GF(7)
        with pytest.raises(ValueError, match="different fields"):
            gauss_sum(t, make_field(3, 2).element(5))  # index inside GF(7)


class TestGaussIdentities:
    def test_q3_hand_example(self):
        t = table_for(3)
        f = t.field
        rep = gauss_identities(t, f.one, f.zero, Point(f, (0, 0)))
        assert rep.all_hold

    def test_nonresidue_coefficient(self):
        t = table_for(3)
        f = t.field
        # direct: sum_s chi(2 s^2) = 1 + 2 zeta^2 = eta(2) G_1
        lhs = Cyclotomic.from_counts(3, {0: 1, 2: 2})
        assert lhs == -t.gauss_standard()
        assert gauss_identities(t, f.element(2), f.zero, Point(f, (1, 1))).all_hold

    def test_zero_a_rejected(self):
        t = table_for(3)
        with pytest.raises(ValueError):
            gauss_identities(t, t.field.zero, t.field.one, Point(t.field, (0, 0)))

    def test_vector_of_another_field_rejected(self):
        t = table_for(7)
        with pytest.raises(ValueError, match="does not belong"):
            gauss_identities(t, t.field.one, t.field.one, Point(make_field(5), (1, 2)))

    def test_non_point_vector_rejected(self):
        t = table_for(5)
        for bad in ((1, 2), None):
            with pytest.raises(ValueError, match="does not belong"):
                gauss_identities(t, t.field.one, t.field.one, bad)

    def test_element_of_another_field_rejected(self):
        # refused before any table is read: GF(7):6 has no row in GF(5)'s
        # tables, and GF(9):2 has one that means something else
        t = table_for(5)
        one, v = t.field.one, Point(t.field, (1, 2))
        for other in (make_field(7).element(6), make_field(3, 2).element(2)):
            with pytest.raises(ValueError, match="different fields"):
                gauss_identities(t, other, one, v)
            with pytest.raises(ValueError, match="different fields"):
                gauss_identities(t, one, other, v)

    @pytest.mark.parametrize("q,d", ORACLE_SPACES)
    def test_sums_match_reference(self, q, d):
        # the table passes against the per-term loop, sum by sum, under ==
        t = table_for(q)
        f = t.field
        tables = characters._gauss_tables(t, d)
        for a, b, v in _oracle_cases(f, d):
            want = _reference_gauss_sums(f, a, b, v)
            assert characters._gauss_sums(f, a.index, b.index, v.idx, tables) == want
            assert gauss_identities(t, a, b, v).all_hold

    @pytest.mark.parametrize("q", [3, 5])
    def test_exhaustive_small(self, q):
        t = table_for(q)
        f = t.field
        for a in f.elements[1:]:
            for b in f.elements:
                assert gauss_identities(t, a, b, Point(f, (b, a))).all_hold


class TestKloosterman:
    def test_q3_hand_sum(self):
        t = table_for(3)
        f = t.field
        k = kloosterman(t, f.one, f.one)
        assert k == -1
        assert abs(k) <= 2 * math.sqrt(3)

    def test_q5_hand_sum(self):
        t = table_for(5)
        f = t.field
        k = kloosterman(t, f.one, f.one)
        assert k == Cyclotomic(5, (2, 0, 1, 1, 0))

    def test_zero_arguments_rejected(self):
        t = table_for(3)
        with pytest.raises(ValueError):
            kloosterman(t, t.field.one, t.field.zero)
        with pytest.raises(ValueError):
            kloosterman(t, t.field.zero, t.field.one)

    @pytest.mark.parametrize("q", SUM_ORDERS)
    def test_matches_reference(self, q):
        t = table_for(q)
        units = t.field.elements[1:]
        for a in units:
            for b in units:
                assert kloosterman(t, a, b).coeffs == _reference_kloosterman(t, a, b).coeffs

    def test_element_of_another_field_rejected(self):
        t = table_for(7)
        one, other = t.field.one, make_field(3, 2).element(5)
        with pytest.raises(ValueError, match="different fields"):
            kloosterman(t, other, one)
        with pytest.raises(ValueError, match="different fields"):
            kloosterman(t, one, other)

    @pytest.mark.parametrize("q", [3, 5, 9, 25])
    def test_weil_bound(self, q):
        t = table_for(q)
        f = t.field
        bound = 2 * math.sqrt(q) + 1e-6
        for a in f.elements[1:]:
            for b in f.elements[1:]:
                assert abs(kloosterman(t, a, b)) <= bound


def test_identity_battery_passes():
    checks = run_identity_checks(make_field(3, 2))
    assert all(c.passed for c in checks)
    names = {c.name for c in checks}
    assert {"gauss_square", "weil_bound", "gauss_identities"} <= names


_GF5 = table_for(5)
_F5 = _GF5.field
_M = Point(_F5, (1, 2))
_E = PointSet(_F5, 2, [_M, Point(_F5, (0, 1))])


@pytest.mark.parametrize("call,bad", [
    (lambda: gauss_sum(_GF5, 2), 2),
    (lambda: gauss_sum(_GF5, None), None),
    (lambda: kloosterman(_GF5, 2, 3), 2),
    (lambda: kloosterman(_GF5, _F5.one, 3), 3),
    (lambda: gauss_identities(_GF5, 2, _F5.one, _M), 2),
    (lambda: gauss_identities(_GF5, _F5.one, 2, _M), 2),
    (lambda: geometry.a_term(_GF5, _M, 2, 1), 2),
    (lambda: geometry.stratum_sum_brute(_GF5, 2, 0, 2, _M), 2),
    (lambda: geometry.lemma31_sum(_GF5, 2, 0, 2, _M), 2),
    (lambda: geometry.sphere_ft(_GF5, _M, 2, 1, "closed"), 2),
    (lambda: geometry.sphere_ft(_GF5, _M, 2, 1, "brute"), 2),
    (lambda: distance.nu_spectral(_E, 2, 1), 2),
    (lambda: distance.bounds(_E, 2, 1), 2),
], ids=["gauss_sum-int", "gauss_sum-None", "kloosterman-a", "kloosterman-b",
        "gauss_identities-a", "gauss_identities-b", "a_term", "stratum_sum_brute",
        "lemma31_sum", "sphere_ft-closed", "sphere_ft-brute", "nu_spectral", "bounds"])
def test_non_element_refused(call, bad):
    # _check_field is the one test of an element argument; these used to
    # raise AttributeError on bad.field or bad.is_zero
    with pytest.raises(ValueError, match=rf"^{bad} is not an element of GF\(5\)$"):
        call()


@pytest.mark.parametrize("call", [
    lambda: gauss_sum(None, _F5.one),
    lambda: kloosterman(None, _F5.one, _F5.one),
    lambda: gauss_identities(_F5, _F5.one, _F5.one, _M),
    lambda: geometry.a_term(None, _M, _F5.one, 1),
    lambda: geometry.stratum_sum_brute(None, 2, 0, _F5.one, _M),
    lambda: geometry.lemma31_sum(None, 2, 0, _F5.one, _M),
    lambda: geometry.sphere_ft(None, _M, _F5.one, 1, "closed"),
    lambda: geometry.sphere_ft(None, _M, _F5.one, 1, "brute"),
    lambda: distance.nu_spectral(_E, _F5.one, 1, 3),
    lambda: distance.bounds(_E, _F5.one, 1, 3),
], ids=["gauss_sum", "kloosterman", "gauss_identities-field", "a_term",
        "stratum_sum_brute", "lemma31_sum", "sphere_ft-closed", "sphere_ft-brute",
        "nu_spectral-int", "bounds-int"])
def test_non_table_refused(call):
    # the table is checked before its field is read; these used to raise
    # AttributeError on table.field
    with pytest.raises(ValueError, match=r" is not a CharacterTable$"):
        call()


@pytest.mark.parametrize("shift", [1, Fraction(1, 10**9)])
def test_gauss_magnitude_is_exact(shift, monkeypatch):
    # G_1 conj(G_1) == q on exact values: a shift far below the float
    # tolerance fails the check as a large one does
    real = characters.CharacterTable.gauss_standard
    monkeypatch.setattr(characters.CharacterTable, "gauss_standard",
                        lambda self: real(self) + shift)
    checks = {c.name: c for c in run_identity_checks(make_field(5))}
    assert checks["gauss_magnitude"] == characters.CheckResult("gauss_magnitude", False)
