"""== and hash agree: equal values hash equal, across every value type that
is used as a dict key or set member, and across int and Fraction for the
rational Cyclotomic values."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ffdist.cyclotomic import Cyclotomic
from ffdist.fourier import PointSet
from ffdist.gf import Point, make_field

FIELDS = [(3, 1), (5, 1), (3, 2)]
small = st.integers(min_value=-3, max_value=3)
dens = st.integers(min_value=1, max_value=4)


@st.composite
def rational_pairs(draw):
    # a Cyclotomic with a rational value, built two ways, and the value as
    # an int or a Fraction
    p = draw(st.sampled_from([3, 5]))
    n, den, shift = draw(small), draw(dens), draw(small)
    r = Fraction(n, den)
    plain = r.numerator if r.denominator == 1 else r
    # (shift, ..., shift) is 0: the p-th roots of unity sum to zero
    shifted = Cyclotomic(p, [n + shift] + [shift] * (p - 1)) * Fraction(1, den)
    return draw(st.sampled_from([(Cyclotomic.from_rational(p, r), plain),
                                 (shifted, plain),
                                 (shifted, Cyclotomic.from_rational(p, r))]))


@st.composite
def cyclotomic_pairs(draw):
    p = draw(st.sampled_from([3, 5]))
    cs = draw(st.lists(small, min_size=p, max_size=p))
    den, scale, shift = draw(dens), draw(st.integers(1, 3)), draw(small)
    a = Cyclotomic(p, cs) * Fraction(1, den)
    b = Cyclotomic(p, [c * scale + shift for c in cs]) * Fraction(1, den * scale)
    return a, b


@st.composite
def element_pairs(draw):
    f = make_field(*draw(st.sampled_from(FIELDS)))
    i, j = draw(st.integers(0, f.q - 1)), draw(st.integers(0, f.q - 1))
    a, b = f.elements[i], f.elements[j]
    return a, a - b + b


@st.composite
def point_pairs(draw):
    f = make_field(*draw(st.sampled_from(FIELDS)))
    d = draw(st.integers(1, 2))
    idx = draw(st.lists(st.integers(0, f.q - 1), min_size=d, max_size=d))
    other = draw(st.lists(st.integers(0, f.q - 1), min_size=d, max_size=d))
    x, y = Point(f, idx), Point(f, other)
    return draw(st.sampled_from([(x, Point(f, [f.elements[c] for c in idx])),
                                 (x, (x - y) - (Point(f, [0] * d) - y))]))


@st.composite
def pointset_pairs(draw):
    f = make_field(*draw(st.sampled_from(FIELDS)))
    d = draw(st.integers(1, 2))
    pts = [Point(f, idx) for idx in draw(st.lists(
        st.lists(st.integers(0, f.q - 1), min_size=d, max_size=d), max_size=4))]
    return PointSet(f, d, pts), PointSet(f, d, pts[::-1] + pts)


equal_pairs = st.one_of(rational_pairs(), cyclotomic_pairs(), element_pairs(),
                        point_pairs(), pointset_pairs())
values = equal_pairs.flatmap(st.sampled_from)


@settings(max_examples=300)
@given(pair=equal_pairs)
def test_equal_routes_hash_equal(pair):
    a, b = pair
    assert a == b and b == a
    assert hash(a) == hash(b)


@settings(max_examples=200)
@given(vs=st.lists(values, min_size=2, max_size=8))
def test_eq_symmetric_and_hash_consistent(vs):
    for a in vs:
        for b in vs:
            assert (a == b) == (b == a)
            if a == b:
                assert hash(a) == hash(b)
