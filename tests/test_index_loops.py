"""The enumeration loops run on index tuples, not on Point.

Every call below sums over q^d points or over a cached sphere or stratum.
Point.dot, Point.norm and point_from_index are wrapped with a counter, and
each call may make at most one such call in total (gauss_identities takes
the norm of its vector v once for the closed form), however many terms it
sums.  The sphere and stratum caches are built once per set, not per term,
so they are warmed before counting.
"""

import pytest

from ffdist import characters, distance, fourier, geometry, gf, harness
from ffdist.cyclotomic import Cyclotomic
from ffdist.gf import Point, factor_prime_power, make_field


@pytest.fixture
def counted(monkeypatch):
    seen = []

    def wrap(name, real):
        def counter(*args, **kwargs):
            seen.append(name)
            return real(*args, **kwargs)
        return counter

    for name in ("dot", "norm"):
        monkeypatch.setattr(Point, name, wrap(name, getattr(Point, name)))
    counter = wrap("point_from_index", gf.point_from_index)
    for module in (gf, fourier, geometry, characters, distance, harness):
        if hasattr(module, "point_from_index"):
            monkeypatch.setattr(module, "point_from_index", counter)
    return seen


@pytest.mark.parametrize("q,d", [(3, 3), (5, 2)])
def test_at_most_one_point_call_per_sum(q, d, counted):
    f = make_field(*factor_prime_power(q))
    table = characters.CharacterTable(f)
    pts = gf.enumerate_vectors(f, d)
    E = fourier.PointSet(f, d, pts[1::3])
    g = {x: Cyclotomic.root(f.p, 1) for x in pts[::4]}
    ms = pts[::5]
    specs = [(t, k) for k in range(1, d + 1) for t in f.elements]
    s = f.elements[2]
    # warm the per-set caches: sphere_points and stratum
    for t, k in specs:
        geometry.sphere_ft(table, ms[0], t, k, "brute")
    for alpha in range(d + 1):
        geometry.stratum_sum_brute(table, d, alpha, s, ms[0])
    fhat = fourier.dft(f, d, g)
    counted.clear()

    calls = [
        lambda: fourier.spectral_energy(E),
        lambda: fourier.dft_indicator(E),
        lambda: fourier.dft(f, d, g),
        lambda: fourier.inverse_dft(f, d, fhat),
        *(lambda m=m, t=t, k=k: geometry.sphere_ft(table, m, t, k, "brute")
          for m in ms for t, k in specs),
        *(lambda m=m, alpha=alpha: geometry.stratum_sum_brute(table, d, alpha, s, m)
          for m in ms for alpha in range(d + 1)),
        *(lambda a=a, b=b: characters.gauss_identities(
            table, a, b, Point(f, [b.index] + [a.index] * (d - 1)))
          for a in f.elements[1:3] for b in f.elements[:3]),
    ]
    for call in calls:
        counted.clear()
        call()
        assert len(counted) <= 1, counted[:5]


def test_guard_sees_per_term_calls(counted):
    # the counter does see a loop that goes through Point
    f = make_field(3)
    pts = gf.enumerate_vectors(f, 2)
    counted.clear()
    for x in pts:
        x.dot(pts[1])
        x.norm()
    gf.point_from_index(f, 2, 4)
    assert len(counted) == 2 * len(pts) + 1


@pytest.mark.parametrize("q,d", [(5, 3), (9, 2)])
def test_direct_pair_loop_works_on_tables(q, d, monkeypatch):
    # one transition-table build per call, however many rows, and no
    # Field.dot, Point.__sub__ or k_norm inside the pair loop
    seen = []

    def wrap(owner, name):
        real = getattr(owner, name)

        def counter(*args, **kwargs):
            seen.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counter)

    for owner, name in ((distance, "_k_norm_states"), (gf.Field, "dot"),
                        (Point, "__sub__"), (geometry, "k_norm")):
        wrap(owner, name)
    f = make_field(*factor_prime_power(q))
    E = harness.sample_set(f, d, 30, seed=3, trial=0)
    for k in range(1, d + 1):
        for call in (distance.nu_direct_all, distance._distance_indices):
            seen.clear()
            call(E, k)
            assert seen == ["_k_norm_states"]


def _count_calls(monkeypatch, seen, owner, name):
    real = getattr(owner, name)

    def counter(*args, **kwargs):
        seen.append(name)
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, counter)


@pytest.mark.parametrize("q", [3, 9, 19])
def test_identity_battery_works_on_tables(q, monkeypatch):
    # the brute Gauss sums of verify-identities are table passes: no
    # Field.dot anywhere in the battery, and the columns of every u are
    # built once per battery, not once per (a, b)
    seen = []
    for owner, name in ((gf.Field, "dot"), (characters, "index_vectors")):
        _count_calls(monkeypatch, seen, owner, name)
    checks = characters.run_identity_checks(make_field(*factor_prime_power(q)))
    assert all(c.passed for c in checks)
    assert seen == ["index_vectors"]


def test_gauss_identities_multiplies_no_element_per_term(monkeypatch):
    # the closed forms take a fixed number of element products; the sums
    # over q values of s and q^d vectors u take none
    seen = []
    _count_calls(monkeypatch, seen, gf.FieldElement, "__mul__")
    counts = []
    for q in (5, 9):
        f = make_field(*factor_prime_power(q))
        table = characters.CharacterTable(f)
        seen.clear()
        report = characters.gauss_identities(table, f.elements[2], f.elements[3],
                                             Point(f, (1, 2, 0)))
        assert report.all_hold
        counts.append(len(seen))
    assert counts[0] == counts[1]
