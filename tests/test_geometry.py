import random
from fractions import Fraction

import pytest

from ffdist import distance, geometry
from ffdist.characters import character_table
from ffdist.cyclotomic import Cyclotomic
from ffdist.fourier import PointSet
from ffdist.geometry import (a_term, b_term, k_norm, lemma31_sum, sphere_ft,
                             sphere_points, stratum, stratum_sum_brute)
from ffdist.gf import (Point, enumerate_vectors, factor_prime_power,
                       make_field, point_from_index)
from ffdist.harness import ExperimentConfig


def setup_q(q):
    f = make_field(*factor_prime_power(q))
    return f, character_table(f)


class TestKNorm:
    def test_no_zeros(self):
        f = make_field(3)
        assert k_norm(Point(f, (1, 2)), 1) == f.element(2)

    def test_deformed_to_zero(self):
        f = make_field(3)
        assert k_norm(Point(f, (0, 2)), 1) == f.zero

    def test_within_tolerance(self):
        f = make_field(3)
        assert k_norm(Point(f, (0, 2)), 2) == f.element(1)

    def test_k_equals_d_is_plain_norm(self):
        f = make_field(5)
        for x in enumerate_vectors(f, 2):
            assert k_norm(x, 2) == x.norm()

    def test_k_out_of_range(self):
        f = make_field(3)
        with pytest.raises(ValueError):
            k_norm(Point(f, (1, 2)), 3)
        with pytest.raises(ValueError):
            k_norm(Point(f, (1, 2)), 0)

    @pytest.mark.parametrize("k", [0, 3])
    def test_one_k_range_message(self, k):
        # every entry that takes k refuses it with the same message at d = 2
        f, table = setup_q(3)
        m = Point(f, (1, 2))
        E = PointSet(f, 2, [m])
        calls = [
            lambda: k_norm(m, k),
            lambda: b_term(f, m, k),
            lambda: a_term(table, m, f.one, k),
            lambda: sphere_points(f, 2, k, f.one),
            lambda: sphere_ft(table, m, f.one, k, "brute"),
            lambda: distance.distance_set(E, k),
            lambda: distance.nu_spectral(E, f.one, k),
            lambda: distance.sharpness_example(f, 2, k),
            lambda: ExperimentConfig(d=2, k=k),
        ]
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"k must lie in [1, 2], got {k}"

    @pytest.mark.parametrize("k", [1.0, 2.0, "1", None])
    def test_non_int_k_refused(self, k):
        # a float k used to raise TypeError on the direct routes and return a
        # count on the spectral one; sphere_points refuses it on a warm cache
        f, table = setup_q(3)
        m = Point(f, (1, 2))
        E = PointSet(f, 2, [m, Point(f, (0, 1))])
        sphere_points(f, 2, 1, f.one)
        calls = [
            lambda: k_norm(m, k),
            lambda: b_term(f, m, k),
            lambda: a_term(table, m, f.one, k),
            lambda: sphere_points(f, 2, k, f.one),
            lambda: sphere_ft(table, m, f.one, k, "brute"),
            lambda: distance.distance_set(E, k),
            lambda: distance.nu_direct_all(E, k),
            lambda: distance.nu_spectral(E, f.one, k),
            lambda: distance.bounds(E, f.one, k),
            lambda: distance.sharpness_example(f, 2, k),
            lambda: ExperimentConfig(d=2, k=k),
        ]
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"k must be an int, got {k!r}"


class TestStrataAndSlices:
    def test_stratum_sizes(self):
        f = make_field(3)
        assert len(stratum(f, 2, 0)) == 4
        assert len(stratum(f, 2, 1)) == 4
        assert [x.idx for x in stratum(f, 2, 2)] == [(0, 0)]

    def test_stratum_counts_formula(self):
        import math
        f = make_field(5)
        for d in (2, 3):
            for alpha in range(d + 1):
                assert len(stratum(f, d, alpha)) == math.comb(d, alpha) * 4 ** (d - alpha)

    def test_alpha_out_of_range(self):
        f = make_field(3)
        with pytest.raises(ValueError):
            stratum(f, 2, 3)

    def test_non_int_alpha_refused(self):
        # a float alpha used to be answered as its int by stratum (and its
        # cache), and to raise TypeError in lemma31_sum and range()
        f, table = setup_q(5)
        m = Point(f, (1, 2))
        assert len(stratum(f, 2, 1)) == 8  # cached under the int 1
        for alpha in (1.0, 0.5, "1", None):
            msg = rf"^alpha must be an int, got {alpha!r}$"
            with pytest.raises(ValueError, match=msg):
                stratum(f, 2, alpha)
            with pytest.raises(ValueError, match=msg):
                lemma31_sum(table, 2, alpha, f.one, m)
            with pytest.raises(ValueError, match=msg):
                geometry.b_term_alpha_range(f, m, alpha, 1)
            with pytest.raises(ValueError, match=msg):
                geometry.b_term_alpha_range(f, m, 0, alpha)

    def test_alpha_range_bounds_checked(self):
        # an alpha past d used to index the subset sums from the end
        f = make_field(5)
        m = Point(f, (1, 2))
        for lo, hi in ((0, 3), (-1, 1)):
            with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 2\]"):
                geometry.b_term_alpha_range(f, m, lo, hi)
        assert geometry.b_term_alpha_range(f, m, 1, 0) == 0


class TestSpheres:
    def test_circle_q3(self):
        f = make_field(3)
        pts = sphere_points(f, 2, 2, f.element(1))
        assert {x.idx for x in pts} == {(0, 1), (0, 2), (1, 0), (2, 0)}

    def test_empty_deformed_sphere(self):
        f = make_field(3)
        assert len(sphere_points(f, 2, 1, f.element(1))) == 0

    def test_degenerate_radius_zero(self):
        f = make_field(3)
        assert len(sphere_points(f, 2, 1, f.zero)) == 5

    def test_foreign_radius_refused_and_not_cached(self):
        # an int or a GF(7) radius used to give an empty sphere, kept in the cache
        f = make_field(5)
        size = sphere_points.cache_info().currsize
        with pytest.raises(ValueError, match=r"^3 is not an element of GF\(5\)$"):
            sphere_points(f, 2, 1, 3)
        with pytest.raises(ValueError, match="^elements belong to different fields$"):
            sphere_points(f, 2, 1, make_field(7).element(3))
        assert sphere_points.cache_info().currsize == size

    @pytest.mark.parametrize("q,d", [(3, 2), (3, 3), (5, 2), (9, 2)])
    def test_spheres_partition_space(self, q, d):
        f, _ = setup_q(q)
        for k in range(1, d + 1):
            total = sum(len(sphere_points(f, d, k, t)) for t in f.elements)
            assert total == q**d

    @pytest.mark.parametrize("q,d", [(3, 3), (5, 2)])
    def test_sphere_monotone_in_k(self, q, d):
        f, _ = setup_q(q)
        for t in f.elements[1:]:
            for k in range(1, d):
                small = set(x.idx for x in sphere_points(f, d, k, t))
                large = set(x.idx for x in sphere_points(f, d, k + 1, t))
                assert small <= large


class TestStratumSums:
    def test_hand_example_s1(self):
        f, table = setup_q(3)
        m = Point(f, (0, 0))
        closed = lemma31_sum(table, 2, 0, f.one, m)
        # (G_1 - 1)^2 = 4 zeta^2, and every point of N_0 has norm 2
        assert closed == 4 * Cyclotomic.root(3, 2)
        assert closed == stratum_sum_brute(table, 2, 0, f.one, m)

    def test_origin_stratum(self):
        f, table = setup_q(3)
        for m in enumerate_vectors(f, 2):
            assert lemma31_sum(table, 2, 2, f.one, m) == 1

    def test_s_zero_hand_example(self):
        f, table = setup_q(3)
        m = Point(f, (1, 1))
        assert lemma31_sum(table, 2, 1, f.zero, m) == -2
        assert stratum_sum_brute(table, 2, 1, f.zero, m) == -2

    @pytest.mark.parametrize("q,d", [(3, 2), (5, 2)])
    def test_exhaustive_small(self, q, d):
        f, table = setup_q(q)
        for alpha in range(d + 1):
            for s in f.elements:
                for m in enumerate_vectors(f, d):
                    assert lemma31_sum(table, d, alpha, s, m) == \
                        stratum_sum_brute(table, d, alpha, s, m)

    def test_foreign_inputs_rejected(self):
        # the brute loops read raw indices and the closed form reads m's
        # coordinates, so both check s and m first
        f, table = setup_q(7)
        m = Point(f, (1, 2))
        other = Point(make_field(5), (1, 2))
        for stratum_sum in (stratum_sum_brute, lemma31_sum):
            for s in (make_field(3, 2).element(5), make_field(5).zero):
                with pytest.raises(ValueError, match="different fields"):
                    stratum_sum(table, 2, 0, s, m)
            for bad in (Point(f, (1, 2, 0)), other):
                with pytest.raises(ValueError, match="does not belong"):
                    stratum_sum(table, 2, 0, f.one, bad)
            # an m of another dimension than d, either side
            for d in (1, 3):
                with pytest.raises(ValueError, match="does not belong"):
                    stratum_sum(table, d, 0, f.one, m)
        with pytest.raises(ValueError, match="does not belong"):
            sphere_ft(table, other, f.one, 1, "brute")

    def test_seeded_larger_field(self):
        f, table = setup_q(9)
        rng = random.Random(99)
        for _ in range(10):
            s = f.element(rng.randrange(f.q))
            m = point_from_index(f, 2, rng.randrange(f.q**2))
            for alpha in range(3):
                assert lemma31_sum(table, 2, alpha, s, m) == \
                    stratum_sum_brute(table, 2, alpha, s, m)


class TestSphereTransform:
    def test_b_term_examples(self):
        for q in (3, 5, 7):
            f, _ = setup_q(q)
            assert b_term(f, Point(f, (0, 0)), 1) == (q - 1) ** 2
            assert b_term(f, Point(f, (1, 1)), 1) == 1
            assert b_term(f, Point(f, (0, 0)), 2) == (q - 1) ** 2 + 2 * (q - 1)

    def test_a_term_rejects_zero_radius(self):
        f, table = setup_q(3)
        with pytest.raises(ValueError):
            a_term(table, Point(f, (0, 0)), f.zero, 1)

    def test_closed_rejects_zero_radius(self):
        f, table = setup_q(3)
        with pytest.raises(ValueError):
            sphere_ft(table, Point(f, (0, 0)), f.zero, 2, "closed")

    def test_foreign_m_and_t_rejected(self):
        # both routes read m's coordinates and t's index as ones of the
        # table's field, so a GF(7) m or t is refused before either runs
        f, table = setup_q(5)
        f7 = make_field(7)
        m, foreign_m = Point(f, (1, 2)), Point(f7, (1, 2))
        for mode in ("closed", "brute"):
            with pytest.raises(ValueError, match=r"does not belong to GF\(5\)\^2$"):
                sphere_ft(table, foreign_m, f.one, 1, mode)
            for t in (f7.zero, f7.one, f7.element(6)):
                with pytest.raises(ValueError, match="^elements belong to different fields$"):
                    sphere_ft(table, m, t, 1, mode)
        for bad in (foreign_m, Point(f7, (6, 5))):
            with pytest.raises(ValueError, match=r"does not belong to GF\(5\)\^2$"):
                a_term(table, bad, f.one, 1)
            with pytest.raises(ValueError, match=r"does not belong to GF\(5\)\^2$"):
                b_term(f, bad, 1)
        for t in (f7.zero, f7.one):
            with pytest.raises(ValueError, match="^elements belong to different fields$"):
                a_term(table, m, t, 1)

    def test_non_point_m_rejected(self):
        # a plain tuple m used to raise AttributeError on m.d
        f, table = setup_q(5)
        for bad in ((1, 2), [1, 2], None):
            for mode in ("closed", "brute"):
                with pytest.raises(ValueError, match=r"does not belong to GF\(5\)\^d$"):
                    sphere_ft(table, bad, f.one, 1, mode)
            with pytest.raises(ValueError, match=r"does not belong to GF\(5\)\^d$"):
                a_term(table, bad, f.one, 1)
            with pytest.raises(ValueError, match=r"does not belong to GF\(5\)\^d$"):
                b_term(f, bad, 1)

    def test_non_point_x_or_m_rejected_by_k_norm_and_alpha_range(self):
        # a plain tuple used to raise AttributeError on x.d / m.d
        f, _ = setup_q(5)
        for bad in ((1, 2), [1, 2], None):
            with pytest.raises(ValueError, match=r"does not belong to any GF\(q\)\^d$"):
                k_norm(bad, 1)
            with pytest.raises(ValueError, match=r"does not belong to GF\(5\)\^d$"):
                geometry.b_term_alpha_range(f, bad, 0, 1)
        with pytest.raises(ValueError, match=r"does not belong to GF\(5\)\^2$"):
            geometry.b_term_alpha_range(f, Point(make_field(7), (1, 2)), 0, 1)
        m = Point(f, (0, 2))
        assert geometry.b_term_alpha_range(f, m, 0, 1) == b_term(f, m, 2)

    def test_brute_dc_value(self):
        f, table = setup_q(3)
        m = Point(f, (0, 0))
        assert sphere_ft(table, m, f.element(1), 2, "brute") == Fraction(4, 9)
        assert sphere_ft(table, m, f.element(1), 1, "brute") == 0

    def test_closed_matches_brute_examples(self):
        f, table = setup_q(3)
        m = Point(f, (0, 0))
        for k in (1, 2):
            t = f.element(1)
            assert sphere_ft(table, m, t, k, "closed") == sphere_ft(table, m, t, k, "brute")

    def test_bad_mode(self):
        f, table = setup_q(3)
        with pytest.raises(ValueError):
            sphere_ft(table, Point(f, (0, 0)), f.element(1), 2, "fast")

    @pytest.mark.parametrize("q,d", [(3, 2), (3, 3), (5, 2)])
    def test_closed_equals_brute_exhaustive(self, q, d):
        f, table = setup_q(q)
        for k in range(1, d + 1):
            for t in f.elements[1:]:
                for m in enumerate_vectors(f, d):
                    assert sphere_ft(table, m, t, k, "closed") == \
                        sphere_ft(table, m, t, k, "brute")

    def test_closed_consistent_with_transform_definition(self):
        # q^{-d-1}(A + B) against the generic DFT of the sphere indicator
        from ffdist.fourier import dft_indicator
        f, table = setup_q(5)
        pts = sphere_points(f, 2, 2, f.element(2))
        ft = dft_indicator(pts)
        for m in enumerate_vectors(f, 2):
            assert sphere_ft(table, m, f.element(2), 2, "closed") == ft[m]


class TestSquareClassInvariance:
    """The transform is constant on square classes, which is what lets
    nu_spectral and bounds sum |Ehat|^2 per class before multiplying."""

    @pytest.mark.parametrize("q,d", [(3, 3), (5, 2), (9, 2)])
    def test_constant_on_each_class(self, q, d):
        f, table = setup_q(q)
        first = {}
        for m in enumerate_vectors(f, d):
            first.setdefault(m.square_class(), m)
        for k in range(1, d + 1):
            for t in f.elements:
                for m in enumerate_vectors(f, d):
                    rep = first[m.square_class()]
                    assert sphere_ft(table, m, t, k, "brute") == \
                        sphere_ft(table, rep, t, k, "brute")
                    if t.is_zero:
                        continue
                    assert sphere_ft(table, m, t, k, "closed") == \
                        sphere_ft(table, rep, t, k, "closed")

    def test_each_member_evaluated_from_its_own_coordinates(self, monkeypatch):
        # on a shared table, a class member gets its own evaluation, not the
        # value of its class representative
        f, table = setup_q(5)
        seen = []
        quadratic = geometry._quadratic_factors

        def recording(table, s, m):
            seen.append(m.idx)
            return quadratic(table, s, m)
        monkeypatch.setattr(geometry, "_quadratic_factors", recording)
        rep, other = Point(f, (1, 2)), Point(f, (4, 3))
        assert rep.square_class() == other.square_class()
        value = sphere_ft(table, rep, f.one, 2, "closed")
        assert seen == [rep.idx] * (f.q - 1)
        seen.clear()
        assert sphere_ft(table, other, f.one, 2, "closed") == value
        assert seen == [other.idx] * (f.q - 1)
