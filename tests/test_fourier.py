import random
from fractions import Fraction

import pytest

from ffdist.cyclotomic import Cyclotomic
from ffdist.fourier import (PointSet, dft, dft_indicator, inverse_dft,
                            plancherel_check, spectral_energy)
from ffdist.gf import (Point, enumerate_vectors, factor_prime_power,
                       make_field, point_from_index)


def field_for(q):
    return make_field(*factor_prime_power(q))


def random_subset(field, d, size, seed):
    rng = random.Random(seed)
    indices = sorted(rng.sample(range(field.q**d), size))
    return PointSet(field, d, [point_from_index(field, d, i) for i in indices])


class TestPointSet:
    def test_dedupe_and_order(self):
        f = make_field(3)
        E = PointSet(f, 2, [Point(f, (2, 2)), Point(f, (0, 1)), Point(f, (2, 2))])
        assert len(E) == 2
        assert [x.idx for x in E] == [(0, 1), (2, 2)]

    def test_membership(self):
        f = make_field(3)
        E = PointSet(f, 2, [Point(f, (1, 0))])
        assert Point(f, (1, 0)) in E
        assert Point(f, (0, 1)) not in E

    def test_wrong_space_rejected(self):
        f = make_field(3)
        with pytest.raises(ValueError):
            PointSet(f, 2, [Point(f, (1,))])

    @pytest.mark.parametrize("field", [None, 3])
    def test_field_required(self, field):
        f = make_field(3)
        with pytest.raises(ValueError, match="field must be a Field"):
            PointSet(field, 2, [Point(f, (1, 0))])


class TestDft:
    def test_point_mass(self):
        f = make_field(3)
        E = PointSet(f, 2, [Point(f, (0, 0))])
        table = dft_indicator(E)
        assert all(v == Fraction(1, 9) for v in table.values())

    def test_full_space(self):
        f = make_field(3)
        E = PointSet(f, 2, enumerate_vectors(f, 2))
        table = dft_indicator(E)
        zero = Point(f, (0, 0))
        assert table[zero] == 1
        assert all(v == 0 for m, v in table.items() if m != zero)

    @pytest.mark.parametrize("q,d,size", [(3, 2, 4), (5, 2, 7), (9, 2, 10)])
    def test_dc_coefficient(self, q, d, size):
        f = field_for(q)
        E = random_subset(f, d, size, seed=13)
        table = dft_indicator(E)
        assert table[point_from_index(f, d, 0)] == Fraction(len(E), q**d)

    def test_dft_of_mapping_matches_indicator(self):
        f = make_field(3)
        E = random_subset(f, 2, 5, seed=7)
        t1 = dft_indicator(E)
        t2 = dft(f, 2, {x: 1 for x in E})
        assert t1 == t2

    def test_dft_cyclotomic_values(self):
        f = make_field(3)
        x0 = Point(f, (1, 2))
        t = dft(f, 2, {x0: Cyclotomic.root(3, 1)})
        rt = inverse_dft(f, 2, t)
        assert rt[x0] == Cyclotomic.root(3, 1)
        assert all(v == 0 for x, v in rt.items() if x != x0)


class TestInversionAndPlancherel:
    def test_round_trip_seeded_fixture(self):
        f = make_field(3)
        E = random_subset(f, 2, 5, seed=7)
        recovered = inverse_dft(f, 2, dft_indicator(E))
        for x, v in recovered.items():
            assert v == int(x in E)

    def test_zero_function(self):
        f = make_field(3)
        t = dft(f, 2, {})
        assert all(v == 0 for v in inverse_dft(f, 2, t).values())

    def test_constant_function(self):
        f = make_field(3)
        t = dft(f, 2, {x: 1 for x in enumerate_vectors(f, 2)})
        assert all(v == 1 for v in inverse_dft(f, 2, t).values())

    @pytest.mark.parametrize("q,d", [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (7, 3), (9, 2)])
    def test_inversion_and_plancherel_random(self, q, d):
        f = field_for(q)
        n = q**d
        for trial in range(20):
            size = 1 + (trial * 7) % min(n - 1, 40)
            E = random_subset(f, d, size, seed=1000 * q + 10 * d + trial)
            lhs, rhs = plancherel_check(E)
            assert lhs == rhs == Fraction(len(E), n)
            recovered = inverse_dft(f, d, dft_indicator(E))
            assert all(v == int(x in E) for x, v in recovered.items())

    def test_plancherel_edge_cases(self):
        f = make_field(3)
        assert plancherel_check(PointSet(f, 2, [])) == (0, 0)
        full = PointSet(f, 2, enumerate_vectors(f, 2))
        assert plancherel_check(full) == (1, 1)

    @pytest.mark.parametrize("q,d,size", [(3, 2, 2), (5, 2, 6), (7, 2, 10)])
    def test_tail_energy(self, q, d, size):
        # sum over m != 0 of |Ehat|^2 = q^{-d}|E| - q^{-2d}|E|^2
        f = field_for(q)
        E = random_subset(f, d, size, seed=21)
        energy = spectral_energy(E)
        zero = point_from_index(f, d, 0)
        total = Cyclotomic.zero(f.p)
        for m, v in energy.items():
            if m != zero:
                total = total + v
        n = q**d
        assert total.rational_value() == Fraction(size, n) - Fraction(size**2, n**2)

    def test_energy_is_real(self):
        f = make_field(5)
        E = random_subset(f, 2, 6, seed=3)
        for v in spectral_energy(E).values():
            assert abs(v.to_complex().imag) <= 1e-9


class TestPlainDicts:
    """dft, dft_indicator and inverse_dft return plain dicts keyed by Point,
    and inverse_dft(field, d, .) mirrors dft(field, d, .)."""

    def test_transforms_cover_every_frequency_in_order(self):
        f = make_field(3)
        E = random_subset(f, 2, 4, seed=5)
        for table in (dft_indicator(E), dft(f, 2, {x: 1 for x in E})):
            assert type(table) is dict
            assert list(table) == enumerate_vectors(f, 2)

    @pytest.mark.parametrize("q,d", [(3, 2), (3, 3), (5, 2), (9, 2)])
    def test_round_trip_general_values(self, q, d):
        f = field_for(q)
        rng = random.Random(100 * q + d)
        pts = enumerate_vectors(f, d)
        g = {}
        for x in rng.sample(pts, 6):
            g[x] = rng.choice([
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                Cyclotomic(f.p, [rng.randint(-3, 3) for _ in range(f.p)]),
            ])
        back = inverse_dft(f, d, dft(f, d, g))
        assert list(back) == pts
        assert all(back[x] == g.get(x, 0) for x in pts)

    def test_absent_frequencies_are_zero(self):
        f = make_field(5)
        for c in (Cyclotomic.root(5, 2), 3, Fraction(-2, 7)):
            assert all(v == c for v in inverse_dft(f, 2, {Point(f, (0, 0)): c}).values())

    def test_values_of_another_prime_rejected(self):
        # both directions check the prime of every value, and name both primes
        f = make_field(3)
        g = {Point(f, (0,)): Cyclotomic(5, [0, 0, 0, 1, 0])}
        for transform in (dft, inverse_dft):
            with pytest.raises(ValueError, match="mixed primes 3 and 5"):
                transform(f, 1, g)

    def test_keys_outside_the_space_rejected(self):
        f = make_field(3)
        with pytest.raises(ValueError):
            dft(f, 2, {Point(f, (1, 2, 0)): 1})
        with pytest.raises(ValueError):
            dft(f, 2, {Point(make_field(5), (1, 2)): 1})
        with pytest.raises(ValueError):
            inverse_dft(f, 2, {Point(f, (1,)): Cyclotomic.root(3, 1)})
