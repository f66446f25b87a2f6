import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ffdist.characters import CharacterTable, character_table
from ffdist.cyclotomic import Cyclotomic
from ffdist import distance, fourier, geometry, gf
from ffdist.distance import (BoundReport, _distance_indices,
                             alternating_binomial_sum, bounds, distance_set,
                             nu_direct_all, nu_spectral, sharpness_example)
from ffdist.fourier import (PointSet, dft_indicator, plancherel_check,
                            spectral_energy)
from ffdist.geometry import (a_term, b_term, b_term_alpha_range, k_norm,
                             sphere_ft)
from ffdist.gf import (Point, enumerate_vectors, factor_prime_power, make_field,
                       point_from_index)


def field_for(q):
    return make_field(*factor_prime_power(q))


def random_subset(field, d, size, seed):
    rng = random.Random(seed)
    indices = sorted(rng.sample(range(field.q**d), size))
    return PointSet(field, d, [point_from_index(field, d, i) for i in indices])


class TestDistanceSet:
    def test_two_points(self):
        f = make_field(3)
        E = PointSet(f, 2, [Point(f, (0, 0)), Point(f, (1, 0))])
        # ||(1,0)||_2 = 1 but ||(1,0)||_1 = 0 (one zero coordinate)
        assert [t.index for t in distance_set(E, 2)] == [0, 1]
        assert [t.index for t in distance_set(E, 1)] == [0]

    def test_axis_line(self):
        f = make_field(5)
        E = PointSet(f, 2, [Point(f, (a, 0)) for a in range(5)])
        assert [t.index for t in distance_set(E, 1)] == [0]
        assert [t.index for t in distance_set(E, 2)] == [0, 1, 4]  # squares in F_5

    def test_empty_rejected(self):
        f = make_field(3)
        with pytest.raises(ValueError):
            distance_set(PointSet(f, 2, []), 1)

    def test_bad_k(self):
        f = make_field(3)
        E = PointSet(f, 2, [Point(f, (0, 0))])
        with pytest.raises(ValueError):
            distance_set(E, 0)

    @pytest.mark.parametrize("q,d", [(3, 2), (5, 2), (7, 2), (9, 2), (3, 3)])
    def test_nested_in_k(self, q, d):
        f = field_for(q)
        E = random_subset(f, d, min(8, q**d - 1), seed=5)
        for k in range(1, d):
            a = set(t.index for t in distance_set(E, k))
            b = set(t.index for t in distance_set(E, k + 1))
            assert a <= b | {0}
            assert 0 in a  # the diagonal pair always contributes 0

    def test_full_space_sees_everything(self):
        f = make_field(3)
        from ffdist.gf import enumerate_vectors
        E = PointSet(f, 2, enumerate_vectors(f, 2))
        assert len(distance_set(E, 2)) == 3


class TestNu:
    def test_direct_two_points(self):
        f = make_field(3)
        E = PointSet(f, 2, [Point(f, (0, 0)), Point(f, (1, 1))])
        counts = nu_direct_all(E, 2)
        assert counts[0] == 2  # the diagonal
        assert counts[2] == 2  # ||(1,1)|| = 2, both orientations
        assert counts[1] == 0

    @pytest.mark.parametrize("q,d", [(3, 2), (3, 3), (5, 2), (9, 2)])
    def test_total_mass(self, q, d):
        f = field_for(q)
        E = random_subset(f, d, min(10, q**d - 1), seed=17)
        for k in range(1, d + 1):
            counts = nu_direct_all(E, k)
            assert sum(counts.values()) == len(E) ** 2

    @pytest.mark.parametrize("q,d", [(3, 2), (3, 3), (5, 2), (7, 2), (9, 2),
                                     (5, 3), (25, 2), (27, 2)])
    def test_spectral_matches_direct(self, q, d):
        f = field_for(q)
        table = character_table(f)
        for trial in range(4):
            size = 2 + (trial * 5) % (q**d - 2)
            E = random_subset(f, d, size, seed=100 * trial + 1)
            energy = spectral_energy(E)
            for k in range(1, d + 1):
                direct = nu_direct_all(E, k)
                for t in f.elements:
                    got = nu_spectral(E, t, k, table, energy)
                    assert got == direct[t.index]

    def test_positive_iff_distance(self):
        f = make_field(5)
        E = random_subset(f, 2, 7, seed=31)
        for k in (1, 2):
            D = {t.index for t in distance_set(E, k)}
            counts = nu_direct_all(E, k)
            for t in f.elements:
                assert (counts[t.index] > 0) == (t.index in D)


class TestAlternatingBinomial:
    def test_kernel(self):
        assert alternating_binomial_sum(0) == 1
        for n in range(1, 12):
            assert alternating_binomial_sum(n) == 0


class TestBounds:
    @pytest.mark.parametrize("q,d", [(3, 2), (5, 2), (3, 3), (9, 2)])
    def test_decomposition_exact(self, q, d):
        f = field_for(q)
        table = character_table(f)
        E = random_subset(f, d, min(9, q**d - 1), seed=41)
        energy = spectral_energy(E)
        for k in range(1, d + 1):
            for t in f.elements[1:3]:
                rep = bounds(E, t, k, table, energy)
                assert rep.b_sum == rep.b_main + rep.b_aux
                assert rep.b_main == rep.b_m1 + rep.b_m2 + rep.b_m3
                assert rep.b_m2 == 0
                assert rep.a_sum_abs <= rep.a_bound + 1e-9

    def test_reassembled_count(self):
        # q^{d-1} (A-part + B-part) recovers nu exactly
        f = make_field(5)
        table = character_table(f)
        E = random_subset(f, 2, 8, seed=4)
        energy = spectral_energy(E)
        direct = nu_direct_all(E, 1)
        for t in f.elements[1:]:
            rep = bounds(E, t, 1, table, energy)
            spectral = nu_spectral(E, t, 1, table, energy)
            assert spectral == direct[t.index]
            # b components enter the count through the same q^{d-1} scaling
            a_part = spectral - f.q ** (2 - 1) * rep.b_sum
            assert abs(float(a_part) - f.q * _a_contrib(table, E, t, 1, energy)) < 1e-6

    def test_m3_reference_value(self):
        # for m = 0 the m3 piece is |Ehat(0)|^2 sum_beta C(d,beta)(q-1)^beta
        # = (|E|/q^d)^2 q^d when E has no other spectrum, e.g. the full space
        f = make_field(3)
        from ffdist.gf import enumerate_vectors
        E = PointSet(f, 2, enumerate_vectors(f, 2))
        rep = bounds(E, f.element(1), 2)
        assert rep.b_m1 == 0 and rep.b_m2 == 0
        assert rep.b_m3 == 9  # 1^2 * (1 + 2*2 + 4)
        assert rep.refs["b_m3_ref"] == pytest.approx(9.0)

    def test_zero_radius_rejected(self):
        f = make_field(3)
        E = random_subset(f, 2, 3, seed=1)
        with pytest.raises(ValueError):
            bounds(E, f.zero, 1)

    def test_components_dict(self):
        f = make_field(3)
        E = random_subset(f, 2, 4, seed=8)
        rep = bounds(E, f.element(1), 1)
        comp = rep.components()
        assert set(comp) == {"a_sum_abs", "a_bound", "b_sum", "b_main",
                             "b_aux", "b_m1", "b_m2", "b_m3", "refs"}
        assert comp["b_m2"] == "0"


def _a_contrib(table, E, t, k, energy):
    from ffdist.geometry import a_term
    total = 0.0
    for m, e in energy.items():
        if e:
            total += (e * a_term(table, m, t, k)).to_complex().real
    return total


# ---------------------------------------------------------------------------
# per-frequency reference loops: nu_spectral and bounds visit the spectrum
# one square class / zero pattern at a time, and must agree with these
# straightforward sums over every frequency as exact values
# ---------------------------------------------------------------------------

def _reference_nu_spectral(E, t, k, table, energy):
    f = E.field
    mode = "brute" if t.is_zero else "closed"
    total = Cyclotomic.zero(f.p)
    for m, e in energy.items():
        if e:
            total = total + sphere_ft(table, m, t, k, mode) * e
    return (total * (f.q ** (2 * E.d))).rational_value()


def _reference_bounds(E, t, k, table, energy):
    f = E.field
    d = E.d
    q = f.q
    zero = Cyclotomic.zero(f.p)
    a_total = b_sum = b_main = b_aux = m1 = m2 = m3 = zero
    for m, e in energy.items():
        if not e:
            continue
        a_total = a_total + e * a_term(table, m, t, k)
        b_sum = b_sum + e * b_term(f, m, k)
        b_main = b_main + e * b_term_alpha_range(f, m, 0, d)
        b_aux = b_aux - e * b_term_alpha_range(f, m, k, d)
        w = m.zero_count()
        if w == d:
            for beta in range(d + 1):
                for _ in combinations(range(d), beta):
                    m3 = m3 + e * (q - 1) ** beta
            continue
        zero_pos = {i for i, c in enumerate(m.idx) if c == 0}
        for beta in range(w + 1):
            weight = (q - 1) ** beta
            for r in range(d - w + 1):
                sign = (-1) ** r
                for subset in combinations(range(d), beta + r):
                    if len(zero_pos.intersection(subset)) == beta:
                        if beta < w:
                            m1 = m1 + e * (weight * sign)
                        else:
                            m2 = m2 + e * (weight * sign)
    return BoundReport(
        t=t, k=k, size=len(E),
        a_sum_abs=abs(a_total.to_complex()),
        a_bound=2 * 3**d * q ** (-(d - 1) / 2) * len(E),
        b_sum=b_sum.rational_value(), b_main=b_main.rational_value(),
        b_aux=b_aux.rational_value(), b_m1=m1.rational_value(),
        b_m2=m2.rational_value(), b_m3=m3.rational_value(),
        refs={
            "b_aux_ref": q ** (-k) * len(E),
            "b_m1_ref": q ** (-d - 1) * len(E) ** 2,
            "b_m3_ref": q ** (-d) * len(E) ** 2,
            "b_lower_ref": q ** (-d) * len(E) ** 2 - q ** (-k) * len(E),
        },
    )


# (9, 3) is left out: its 729 frequencies make one example take seconds
REFERENCE_SHAPES = [(3, 2), (3, 3), (5, 2), (5, 3), (9, 2)]


@st.composite
def small_sets(draw):
    q, d = draw(st.sampled_from(REFERENCE_SHAPES))
    n = q**d
    indices = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                            unique=True))
    f = field_for(q)
    return PointSet(f, d, [point_from_index(f, d, i) for i in indices])


def _reference_nu_direct(E, k):
    # the pair count through Point and k_norm objects, one pair at a time
    counts = Counter({i: 0 for i in range(E.field.q)})
    for x in E:
        for y in E:
            counts[k_norm(x - y, k).index] += 1
    return counts


def _full_space(q, d):
    f = field_for(q)
    return PointSet(f, d, enumerate_vectors(f, d))


class TestDirectRoute:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(E=small_sets())
    @example(E=_full_space(3, 2))
    @example(E=_full_space(5, 2))
    def test_matches_reference_loop(self, E):
        for k in range(1, E.d + 1):
            counts = _reference_nu_direct(E, k)
            assert nu_direct_all(E, k) == counts
            assert _distance_indices(E, k) == {t for t, n in counts.items() if n}

    def test_early_exit_fires(self, monkeypatch):
        # the full space sees every distance long before its last row
        E = _full_space(5, 2)
        rows = []

        def counted(E, k):
            for row in loop(E, k):
                rows.append(row)
                yield row

        loop = distance._k_norm_rows
        monkeypatch.setattr(distance, "_k_norm_rows", counted)
        assert _distance_indices(E, 2) == set(range(5))
        assert len(rows) < len(E)


class TestStateMachine:
    """The table-driven pair loop against the Point/k_norm oracle.

    (7, 3) and (3, 4) run up to 2 and 3 zero levels before the dead state;
    (25, 2), (27, 2) and (41, 2) run k = d, where only d zero differences
    reach the dead state, and the one zero level of k = 1 over extension and
    larger prime fields.
    """

    @staticmethod
    def _check(E, k):
        counts = _reference_nu_direct(E, k)
        assert nu_direct_all(E, k) == counts
        assert _distance_indices(E, k) == {t for t, n in counts.items() if n}

    @pytest.mark.parametrize("q,d,size", [(7, 3, 100), (3, 4, 60), (25, 2, 100),
                                          (27, 2, 100), (41, 2, 100)])
    def test_every_k_matches_the_oracle(self, q, d, size):
        f = field_for(q)
        pts = list(random_subset(f, d, size, seed=q * d))
        # differences with zeros ahead of and behind a nonzero coordinate, so
        # each zero level is entered and left, and the dead state is entered
        # before a nonzero coordinate
        extra = (Point(f, (0,) * d), Point(f, (0,) * (d - 1) + (1,)),
                 Point(f, (1,) + (0,) * (d - 1)))
        E = PointSet(f, d, pts + [x for x in extra if x not in set(pts)])
        for k in range(1, d + 1):
            self._check(E, k)

    @pytest.mark.parametrize("q,d", [(7, 3), (3, 4), (25, 2)])
    def test_tiny_sets(self, q, d):
        f = field_for(q)
        for size in (0, 1, 2):
            E = random_subset(f, d, size, seed=size)
            for k in range(1, d + 1):
                self._check(E, k)
                assert list(distance._k_norm_rows(E, k)) == \
                    [[k_norm(x - y, k).index for y in E] for x in E]

    @pytest.mark.parametrize("q,d,k", [(23, 3, 1), (5, 4, 2)])
    def test_sharpness_sets(self, q, d, k):
        f = field_for(q)
        E = sharpness_example(f, d, k)
        assert [t.index for t in distance_set(E, k)] == [0]
        assert nu_direct_all(E, k) == Counter({0: len(E) ** 2, **{t: 0 for t in range(1, q)}})


def _per_frequency_energy(E):
    # |Ehat(m)|^2 at every frequency, ungrouped
    return {m: v * v.conjugate() for m, v in dft_indicator(E).items()}


class TestGroupedSpectrum:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(E=small_sets())
    def test_matches_per_frequency_loops(self, E):
        # the reference loops see every frequency; nu_spectral and bounds
        # give the same values on the per-class sums and on the
        # per-frequency dict
        f = E.field
        table = character_table(f)
        grouped = spectral_energy(E)
        per_freq = _per_frequency_energy(E)
        for k in range(1, E.d + 1):
            for t in f.elements:
                want = _reference_nu_spectral(E, t, k, table, per_freq)
                assert nu_spectral(E, t, k, table, grouped) == want
                assert nu_spectral(E, t, k, table, per_freq) == want
                if not t.is_zero:
                    want = _reference_bounds(E, t, k, table, per_freq)
                    assert bounds(E, t, k, table, grouped) == want
                    assert bounds(E, t, k, table, per_freq) == want


def _classes(f, d):
    # square class -> its frequencies, each list in lexicographic order
    out = {}
    for m in enumerate_vectors(f, d):
        out.setdefault(m.square_class(), []).append(m)
    return out


class TestSpectralEnergy:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(E=small_sets())
    @example(E=_full_space(3, 2))
    def test_one_key_per_class_with_its_sum(self, E):
        per_freq = _per_frequency_energy(E)
        sums = {}
        for members in _classes(E.field, E.d).values():
            total = Cyclotomic.zero(E.field.p)
            for m in members:
                total = total + per_freq[m]
            if total:
                sums[min(members, key=lambda m: m.idx)] = total
        assert spectral_energy(E) == sums
        total, expected = plancherel_check(E)
        assert total == expected

    def test_every_class_of_a_point(self):
        # a one-point set has |Ehat(m)|^2 = q^{-2d} at every m
        f = make_field(5)
        E = PointSet(f, 3, [point_from_index(f, 3, 7)])
        classes = _classes(f, 3)
        assert len(classes) == 10
        assert spectral_energy(E) == {members[0]: Fraction(len(members), 5**6)
                                      for members in classes.values()}


class TestWorkCounts:
    """Per E, one spectral summary serves every k and t, t = 0 included:
    one _elementary_symmetric and one _m_weights per zero count present
    among the keys, and no b_term, a_term or sphere_ft of either mode."""

    def test_one_call_per_key(self, monkeypatch):
        f = make_field(5)
        calls = Counter()

        def counting(module, name):
            fn = getattr(module, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapped)

        for name in ("_SpectralSummary", "_elementary_symmetric", "_m_weights"):
            counting(distance, name)
        for name in ("b_term", "a_term", "sphere_ft"):
            counting(geometry, name)
        for name in ("b_term", "a_term", "sphere_ft"):
            assert not hasattr(distance, name)
        nonzero = f.elements[1:]
        for size in (1, 3, 5, 25, 125):
            E = random_subset(f, 3, size, seed=size)
            energy = spectral_energy(E)
            assert len(energy) <= 10  # the square classes of F_5^3
            zeros = len({m.zero_count() for m in energy})
            for ts in ([f.zero, *nonzero], [*nonzero, f.zero]):
                table = CharacterTable(f)  # an empty summary memo
                calls.clear()
                for k in range(1, 4):
                    for t in ts:
                        nu_spectral(E, t, k, table, energy)
                        if not t.is_zero:
                            bounds(E, t, k, table, energy)
                assert calls == {"_SpectralSummary": 1,
                                 "_elementary_symmetric": zeros,
                                 "_m_weights": zeros}


def _memo_results(E, k, table, energy):
    # every nu_spectral value and bound report of (E, k) through one table
    f = E.field
    return ([nu_spectral(E, t, k, table, energy) for t in f.elements],
            [bounds(E, t, k, table, energy) for t in f.elements[1:]])


class TestSpectralSummary:
    """The summary memo on CharacterTable: one slot per d, serving every k,
    keyed by the exact contents of the energy mapping."""

    def test_memo_follows_contents(self):
        f = make_field(5)
        d = 3
        table = CharacterTable(f)
        sets = {name: random_subset(f, d, size, seed=seed)
                for name, size, seed in (("A", 4, 1), ("B", 9, 2), ("C", 6, 3))}
        energy = {name: spectral_energy(E) for name, E in sets.items()}
        a = energy["A"]
        E_of = {"A": sets["A"], "B": sets["B"]}

        def double():  # the same keys, every value changed
            for m in a:
                a[m] = a[m] * 2

        def become_c():  # other keys and values, the same mapping object
            a.clear()
            a.update(energy["C"])
            E_of["A"] = sets["C"]

        # k interleaved; the one d = 3 slot is reused for a different
        # mapping, and for A after it is mutated in place
        steps = [("A", 1), ("B", 2), ("B", 1), ("A", 2), double, ("A", 2),
                 ("A", 1), ("B", 1), become_c, ("A", 1), ("A", 3)]
        for step in steps:
            if callable(step):
                step()
                continue
            name, k = step
            E, e = E_of[name], energy[name]
            got = _memo_results(E, k, table, e)
            assert got == _memo_results(E, k, CharacterTable(f), e)
            nus, reports = got
            assert nus == [_reference_nu_spectral(E, t, k, table, e) for t in f.elements]
            assert reports == [_reference_bounds(E, t, k, table, e) for t in f.elements[1:]]
        assert set(table.spectral_cache) == {3}

    def test_warm_plan_changes_no_value(self, monkeypatch):
        # one shared table per field, its plans warm after the first set and
        # d interleaved on GF(5); every value equals the one read through
        # fresh tables (cold plans) and the direct count
        for q, ds in ((5, (3, 2)), (9, (2,)), (7, (3,)), (25, (2,))):
            f = field_for(q)
            table = character_table(f)
            for i in range(20):
                for d in ds:
                    sizes = (1, 3, q, q ** (d - 1))
                    E = random_subset(f, d, sizes[i % 4], seed=f"{q}:{d}:{i}")
                    energy = spectral_energy(E)
                    with monkeypatch.context() as m:
                        m.setattr(fourier, "character_table", CharacterTable)
                        assert list(spectral_energy(E).items()) == list(energy.items())
                    for k in range(1, d + 1):
                        direct, cold = nu_direct_all(E, k), CharacterTable(f)
                        for t in f.elements:
                            got = nu_spectral(E, t, k, table, energy)
                            assert got == nu_spectral(E, t, k, cold, energy) == direct[t.index]
                            if not t.is_zero:
                                assert (bounds(E, t, k, table, energy)
                                        == bounds(E, t, k, cold, energy))

    @pytest.mark.parametrize("q,d", [(3, 2), (5, 3), (9, 2), (25, 2)])
    def test_a_part_is_the_a_term_sum(self, q, d):
        # A_k(t) from the subset-norm tables equals sum_C e_C A(C, t)
        f = field_for(q)
        table = character_table(f)
        E = random_subset(f, d, 7, seed=q)
        energy = spectral_energy(E)
        for k in range(1, d + 1):
            summary = distance._spectral_summary(E, table, energy)
            for t in f.elements[1:]:
                want = Cyclotomic.zero(f.p)
                for m, e in energy.items():
                    want = want + e * a_term(table, m, t, k)
                assert summary.a_part(t, k) == want


def _entries(x):
    """The entries a spectral plan stores: one per scalar slot of a list or
    tuple and per dict item with a scalar value, nested containers and the
    plan objects' slots walked (their field left out); a Point is one."""
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, (list, tuple)):
        return sum(_entries(v) for v in x)
    slots = getattr(type(x), "__slots__", ())
    if slots and not isinstance(x, Point):
        return sum(_entries(getattr(x, name)) for name in slots if name != "field")
    return 1


class TestSpectralPlan:
    """The set-independent half of the spectral route: one plan per
    (field, d) on the table, filled on first use and read by every set."""

    def test_weights_once_per_zero_count(self, monkeypatch):
        f = make_field(5)
        table = CharacterTable(f)
        calls = Counter()
        m_weights, symmetric = distance._m_weights, distance._elementary_symmetric

        def counted_m_weights(q, m):
            calls["_m_weights", m.zero_count()] += 1
            return m_weights(q, m)

        def counted_symmetric(factors):
            calls["_elementary_symmetric", factors.count(f.q - 1)] += 1
            return symmetric(factors)

        monkeypatch.setattr(distance, "_m_weights", counted_m_weights)
        monkeypatch.setattr(distance, "_elementary_symmetric", counted_symmetric)
        zeros = set()
        for i in range(20):
            E = random_subset(f, 3, (1, 3, 5, 25)[i % 4], seed=f"weights:{i}")
            energy = spectral_energy(E)
            zeros.update(m.zero_count() for m in energy)
            for k in range(1, 4):
                for t in f.elements:
                    nu_spectral(E, t, k, table, energy)
                    if not t.is_zero:
                        bounds(E, t, k, table, energy)
        assert zeros == {0, 1, 2, 3}
        assert calls == {(name, w): 1 for name in ("_m_weights", "_elementary_symmetric")
                         for w in zeros}

    @pytest.mark.parametrize("q,d", [(3, 8), (5, 4)])
    def test_size_within_class_bound(self, q, d):
        # a one-point set visits every square class; a second set adds no
        # entry, and the plan stays within the square classes of F_q^d and
        # F_q^(d-1) times (2^d + q), here below the q^d points
        f = field_for(q)
        table = character_table(f)
        squares = (q + 1) // 2

        def classes(n):
            return math.comb(squares + n - 1, n)

        point = PointSet(f, d, [point_from_index(f, d, 0)])
        assert len(spectral_energy(point)) == classes(d)
        sizes = []
        for E in (point, random_subset(f, d, q * q, seed=q)):
            energy = spectral_energy(E)
            for k in range(1, d + 1):
                nu_spectral(E, f.zero, k, table, energy)
                bounds(E, f.one, k, table, energy)
            plan = {kind: v for (kind, e), v in table.spectral_plans.items() if e == d}
            assert set(plan) == {fourier._EnergyPlan, distance._SummaryPlan}
            sizes.append(_entries(plan))
        assert sizes[0] == sizes[1] <= (classes(d) + classes(d - 1)) * (2 ** d + q) < q ** d


class TestFieldChecks:
    """t, the table and the energy keys must belong to E's field, and the
    keys to E's d: the summary reads each key's coordinates through the
    table's field, so a foreign key would be misread, not refused."""

    def test_t_from_another_field(self):
        f5, f7 = make_field(5), make_field(7)
        E = random_subset(f5, 2, 4, seed=3)
        for t in (f7.zero, f7.element(3), f7.element(6)):
            with pytest.raises(ValueError, match="^elements belong to different fields$"):
                nu_spectral(E, t, 1)
            with pytest.raises(ValueError, match="^elements belong to different fields$"):
                bounds(E, t, 1)

    def test_table_from_another_field(self):
        f5, f25 = make_field(5), field_for(25)
        table25 = character_table(f25)
        # warm every memo of the GF(25) table at (d, k) = (2, 1) first
        E25 = random_subset(f25, 2, 5, seed=7)
        energy25 = spectral_energy(E25)
        for t in f25.elements[:3]:
            nu_spectral(E25, t, 1, table25, energy25)
        bounds(E25, f25.element(1), 1, table25, energy25)
        E5 = random_subset(f5, 2, 5, seed=7)
        for t in (f5.zero, f5.element(1), f5.element(4)):
            with pytest.raises(ValueError, match="^elements belong to different fields$"):
                nu_spectral(E5, t, 1, table25)
            with pytest.raises(ValueError, match="^elements belong to different fields$"):
                nu_spectral(E5, t, 1, table25, spectral_energy(E5))
            if not t.is_zero:
                with pytest.raises(ValueError, match="^elements belong to different fields$"):
                    bounds(E5, t, 1, table25, spectral_energy(E5))
        # a GF(25) element is not a GF(5) radius either
        with pytest.raises(ValueError, match="^elements belong to different fields$"):
            nu_spectral(E5, f25.element(1), 1)

    def test_energy_keys_from_another_space(self):
        f5 = make_field(5)
        table = CharacterTable(f5)
        E = random_subset(f5, 2, 6, seed=11)
        foreign = (
            spectral_energy(random_subset(f5, 3, 6, seed=11)),
            # GF(25) has the same p, so no mixed-primes error can catch it
            spectral_energy(random_subset(field_for(25), 2, 6, seed=11)),
        )
        for k in (1, 2):
            for energy in foreign:
                for t in (f5.zero, f5.one):
                    with pytest.raises(ValueError, match=r"does not belong to GF\(5\)\^2$"):
                        nu_spectral(E, t, k, table, energy)
                with pytest.raises(ValueError, match=r"does not belong to GF\(5\)\^2$"):
                    bounds(E, f5.one, k, table, energy)
            # a slot warmed with a valid mapping does not admit a foreign one
            direct = nu_direct_all(E, k)
            assert nu_spectral(E, f5.zero, k, table) == direct[0]
            for energy in foreign:
                with pytest.raises(ValueError, match=r"does not belong to GF\(5\)\^2$"):
                    nu_spectral(E, f5.one, k, table, energy)
            # a per-frequency dict keys every frequency of the right space
            per_freq = _per_frequency_energy(E)
            for t in f5.elements:
                assert nu_spectral(E, t, k, table, per_freq) == direct[t.index]


class TestSetChecks:
    """E must be a PointSet; anything else is refused before E.field is read."""

    @pytest.mark.parametrize("call", [
        lambda E, f: distance_set(E, 1),
        lambda E, f: nu_direct_all(E, 1),
        lambda E, f: nu_spectral(E, f.one, 1),
        lambda E, f: bounds(E, f.one, 1),
        lambda E, f: spectral_energy(E),
        lambda E, f: dft_indicator(E),
        lambda E, f: plancherel_check(E),
    ], ids=["distance_set", "nu_direct_all", "nu_spectral", "bounds",
            "spectral_energy", "dft_indicator", "plancherel_check"])
    def test_list_refused(self, call):
        f = make_field(5)
        m = Point(f, (1, 2))
        for bad in ([m], (m, m), None):
            with pytest.raises(ValueError, match=r" is not a PointSet$"):
                call(bad, f)

    @pytest.mark.parametrize("d", [2.0, 0, -1, True])
    def test_dimension_refused(self, d):
        # d must be an int: 2.0 and True are refused, not read as 2 and 1
        f = make_field(5)
        with pytest.raises(ValueError, match=r"^dimension must be an int >= 1, got "):
            PointSet(f, d, [Point(f, (0, 1))])


class TestSharpness:
    def test_shape(self):
        f = make_field(3)
        E = sharpness_example(f, 3, 1)
        assert len(E) == 9
        assert all(x.idx[-1] == 0 for x in E)

    def test_k_equals_d(self):
        f = make_field(5)
        E = sharpness_example(f, 2, 2)
        assert len(E) == 1

    @pytest.mark.parametrize("q,d,k", [(3, 2, 1), (3, 3, 1), (3, 3, 2),
                                       (5, 2, 1), (5, 3, 2), (9, 2, 1)])
    def test_only_zero_distance(self, q, d, k):
        f = field_for(q)
        E = sharpness_example(f, d, k)
        assert len(E) == q ** (d - k)
        assert [t.index for t in distance_set(E, k)] == [0]
        counts = nu_direct_all(E, k)
        assert counts[0] == len(E) ** 2

    def test_bad_k(self):
        with pytest.raises(ValueError):
            sharpness_example(make_field(3), 2, 3)

    def test_cap(self, monkeypatch):
        # q^(d-k) = 3^13 is refused before any point is built
        monkeypatch.setattr(gf, "product", None)
        with pytest.raises(ValueError,
                           match=r"^q\^d = 3\^13 exceeds enumeration cap 1000000$"):
            sharpness_example(make_field(3), 14, 1)
