"""k-distance sets, the pair-count nu_E(t), and the B-decomposition checks.

nu_E(t) counts ordered pairs at k-distance t.  It is computed two ways:
directly over E x E, and spectrally as q^{2d} sum_m Shat(m) |Ehat(m)|^2 with
the sphere transform in closed form for every t.  Both are exact, so their
agreement is asserted as equality of integers, not a tolerance check.

bounds() reproduces the full decomposition of the spectral B-part
(main/auxiliary, then m1 + m2 + m3) term by term, with the m2 piece
enumerated over explicit coordinate subsets so that its vanishing is an
observed cancellation rather than a consequence of how we count subsets.

Neither sum visits the spectrum one frequency at a time.  Shat_k^t(m),
A(m, t) and B(m) depend on m only through its square class
(Point.square_class: the orbit of m under coordinate permutations and sign
flips, which preserve both the sphere and the dot product).  B and its
m1/m2/m3 split depend on m only through its zero count, which the square
class fixes (a squared coordinate is 0 exactly when the coordinate is).
spectral_energy sums |Ehat|^2 per square class once per E, and both sums
read that mapping as it is: the result is the sum over its keys m of the
transform at m times energy[m].  By distributivity this is the
per-frequency sum, equal as an exact value, for any mapping whose sums per
class equal those of |Ehat|^2; a per-frequency dict gives the same values,
only more slowly.

Neither sum is redone for each t either.  The A-part factors as
A(m, t) = sum_{s != 0} inner_k(m, s) zeta^{Tr(-s t)}, so
sum_m e_m A(m, t) = sum_s W_k(s) zeta^{Tr(-s t)} with
W_k(s) = sum_m e_m inner_k(m, s): a 1-D character transform over F_q of a
weight that does not depend on t, and for t != 0
nu_E(t) = q^{d-1} (A(t) + B_k).  At t = 0 the k-sphere also holds every x
with at least k zero coordinates (their k-norm is 0), and the s = 0 subset
sums of those strata are the b_aux weights, so
nu_E(0) = q^{d-1} (A(0) + B_k) - q^d b_aux from the same sums.  W_k, B_k
and the b_main/b_aux/m1/m2/m3 sums are formed once per (energy, d, k), one
_a_inner, b_term and _m_weights per key, and kept in the table's
spectral_cache (one slot per (d, k), matched against the mapping's exact
contents).  The brute and closed sphere_ft and a_term stay as oracles for
the tests and the sphere-ft command.

The direct count and the distance set read the same index loop over
E x E, which works on element indices and builds no objects per pair.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .characters import CharacterTable, character_table
from .cyclotomic import Cyclotomic
from .fourier import PointSet, spectral_energy
from .gf import Field, FieldElement, Point, enumerate_vectors, point_indices
from .geometry import SphereSpec, _a_inner, b_term, b_term_alpha_range


def distance_set(E: PointSet, k: int) -> list[FieldElement]:
    """D_k(E) = {||x - y||_k : x, y in E}, sorted by element index."""
    if len(E) == 0:
        raise ValueError("distance set of an empty set is undefined")
    found = _distance_indices(E, k)
    return [E.field.elements[i] for i in sorted(found)]


def _k_norm_rows(E: PointSet, k: int):
    """For each x in E, the list of k-norm indices of x - y over every y in E.

    The one direct pair loop: it works on element indices through the
    field's tables and builds no Point or FieldElement per pair.
    """
    f = E.field
    if not 1 <= k <= E.d:
        raise ValueError(f"k must lie in [1, {E.d}], got {k}")
    add, mul, neg = f._add, f._mul, f._neg
    pts = [x.idx for x in E]
    negs = [[neg[b] for b in y] for y in pts]
    for xi in pts:
        row = []
        for yn in negs:
            zeros = 0
            acc = 0
            for a, b in zip(xi, yn):
                c = add[a][b]
                if c == 0:
                    zeros += 1
                else:
                    acc = add[acc][mul[c][c]]
            row.append(acc if zeros < k else 0)
        yield row


def _distance_indices(E: PointSet, k: int) -> set[int]:
    q = E.field.q
    found: set[int] = set()
    for row in _k_norm_rows(E, k):
        found.update(row)
        if len(found) == q:
            break
    return found


def nu_direct_all(E: PointSet, k: int) -> Counter:
    """nu_E(t) for every t at once, by direct pair counting (index -> count)."""
    counts: Counter = Counter({i: 0 for i in range(E.field.q)})
    for row in _k_norm_rows(E, k):
        counts.update(row)
    return counts


def nu_spectral(E: PointSet, t: FieldElement, k: int,
                table: Optional[CharacterTable] = None,
                energy: Optional[dict[Point, Cyclotomic]] = None) -> Fraction:
    """nu_E(t) via q^{2d} sum_m Shat_k^t(m) |Ehat(m)|^2 (exact rational).

    energy defaults to spectral_energy(E), |Ehat|^2 summed per square
    class.  The sum is read from the spectral summary of (energy, d, k):
    nu_E(t) = q^{d-1} (A(t) + B_k) for t != 0, and
    nu_E(0) = q^{d-1} (A(0) + B_k - q b_aux).  The sphere S_k^0 is the
    t = 0 sphere equation on the x with Z(x) < k, plus every x with
    Z(x) >= k; the transform of those strata at m is q^{-d} times the s = 0
    subset sums over alpha in [k, d], and their energy-weighted sum over
    the keys is -b_aux.
    """
    summary = _spectral_summary(E, t, k, table, energy)
    q, d = E.field.q, E.d
    b = summary.b_sum - q * summary.b_aux if t.is_zero else summary.b_sum
    return ((summary.a_part(t) + b) * q ** (d - 1)).rational_value()


# ---------------------------------------------------------------------------
# the bound machinery
# ---------------------------------------------------------------------------

def alternating_binomial_sum(n: int) -> int:
    """sum over r of (-1)^r C(n, r); 1 for n = 0 and 0 for n >= 1."""
    return sum((-1) ** r * math.comb(n, r) for r in range(n + 1))


@dataclass(frozen=True)
class BoundReport:
    """Exact components of the spectral count's A/B split for one (E, t, k).

    a_sum_abs is compared against the explicit constant 2 * 3^d extracted
    from the term count of the Kloosterman estimate (at most 3^d nested
    subset pairs, each at most 2 q^{(d+1)/2}); the B components are exact
    rationals reported alongside their reference magnitudes.
    """

    t: FieldElement
    k: int
    size: int
    a_sum_abs: float
    a_bound: float
    b_sum: Fraction
    b_main: Fraction
    b_aux: Fraction
    b_m1: Fraction
    b_m2: Fraction
    b_m3: Fraction
    refs: dict = dataclass_field(default_factory=dict)

    def components(self) -> dict:
        return {
            "a_sum_abs": self.a_sum_abs,
            "a_bound": self.a_bound,
            "b_sum": str(self.b_sum),
            "b_main": str(self.b_main),
            "b_aux": str(self.b_aux),
            "b_m1": str(self.b_m1),
            "b_m2": str(self.b_m2),
            "b_m3": str(self.b_m3),
            "refs": {name: value for name, value in sorted(self.refs.items())},
        }


def _m_weights(q: int, m: Point) -> tuple[int, int, int]:
    """The integer weight of frequency m in each of m1, m2 and m3.

    Subsets are enumerated explicitly, so that the m2 weight is seen to
    cancel to zero rather than assumed to.
    """
    d = m.d
    w = m.zero_count()
    c1 = c2 = c3 = 0
    if w == d:
        # m = 0: every subset I has Z(m_I) = |I|
        for beta in range(d + 1):
            for _ in combinations(range(d), beta):
                c3 += (q - 1) ** beta
        return c1, c2, c3
    zero_pos = {i for i, c in enumerate(m.idx) if c == 0}
    for beta in range(w + 1):
        weight = (q - 1) ** beta
        for r in range(d - w + 1):
            sign = (-1) ** r
            for subset in combinations(range(d), beta + r):
                if len(zero_pos.intersection(subset)) == beta:
                    if beta < w:
                        c1 += weight * sign
                    else:
                        c2 += weight * sign
    return c1, c2, c3


class _SpectralSummary:
    """The t-independent parts of nu_spectral and bounds for one
    (energy, d, k).

    W_k(s) = sum_C e_C inner_k(C, s) for s in F_q* (inner_k is the cached
    _a_inner), kept as int rows over one common denominator; B_k and the
    b_main/b_aux/m1/m2/m3 sums, as rationals.  Each key of the energy gets
    one _a_inner, b_term and _m_weights.  The A-part
    A(t) = sum_C e_C A(C, t) = sum_s W_k(s) zeta^{Tr(-s t)} is a 1-D
    character transform over F_q, formed once per t on first use.
    """

    def __init__(self, table: CharacterTable, d: int, k: int, contents: tuple) -> None:
        f = table.field
        p, q = f.p, f.q
        self.field = f
        self.contents = contents
        # adding zero checks the prime and makes every value a Cyclotomic
        energies = [Cyclotomic.zero(p) + e for _, e in contents]
        inners = [_a_inner(table, m, k) for m, _ in contents]
        # every sum runs on int coefficients over one common denominator
        e_den = math.lcm(*(e.den for e in energies))
        w_den = math.lcm(*(v.den for inner in inners for v in inner))
        self.den = e_den * w_den
        self.rows = [[0] * p for _ in range(q - 1)]
        sums = [[0] * p for _ in range(6)]  # b_sum, b_main, b_aux, m1, m2, m3
        for (m, _), e, inner in zip(contents, energies, inners):
            num = [(i, c * (e_den // e.den)) for i, c in enumerate(e.num) if c]
            weights = (b_term(f, m, k), b_term_alpha_range(f, m, 0, d),
                       -b_term_alpha_range(f, m, k, d), *_m_weights(q, m))
            for acc, w in zip(sums, weights):
                for i, c in num:
                    acc[i] += w * c
            for row, v in zip(self.rows, inner):
                scale = w_den // v.den
                for j, b in enumerate(v.num):
                    if b:
                        b *= scale
                        for i, c in num:
                            row[(i + j) % p] += b * c
        scale = Fraction(1, e_den)
        (self.b_sum, self.b_main, self.b_aux, self.m1, self.m2, self.m3) = (
            (Cyclotomic(p, acc) * scale).rational_value() for acc in sums)
        self._a: dict[int, Cyclotomic] = {}

    def a_part(self, t: FieldElement) -> Cyclotomic:
        """A(t): each row W_k(s) rotated by Tr(-s t), summed on ints and
        divided once; Tr(0) = 0, so A(0) is the unrotated sum."""
        a = self._a.get(t.index)
        if a is None:
            f = self.field
            p = f.p
            acc = [0] * p
            row, trace, neg = f._mul[t.index], f._trace, f._neg
            for si, w in enumerate(self.rows, 1):
                j = trace[neg[row[si]]]
                for i, c in enumerate(w):
                    if c:
                        acc[(i + j) % p] += c
            a = self._a[t.index] = Cyclotomic(p, acc) * Fraction(1, self.den)
        return a


def _spectral_summary(E: PointSet, t: FieldElement, k: int,
                      table: Optional[CharacterTable] = None,
                      energy: Optional[dict[Point, Cyclotomic]] = None, *,
                      nonzero_t: bool = False) -> _SpectralSummary:
    """The summary of energy at (E.d, k), the one entry of nu_spectral and
    bounds (nonzero_t refuses t = 0).

    t and the table must belong to E's field, and so must every key of a
    mapping that is built anew: the memo is keyed by square class, which
    names neither the field nor d.  table.spectral_cache holds one slot per
    (d, k), reused when it was built from equal contents; Point equality
    implies the same field and d, so a reused slot needs no key check.
    """
    f = E.field
    if table is None:
        table = character_table(f)
    if t.field is not f or table.field is not f:
        raise ValueError("elements belong to different fields")
    if nonzero_t and t.is_zero:
        raise ValueError("bounds are defined for t != 0")
    d = E.d
    SphereSpec(k, t).validate(d)
    if energy is None:
        energy = spectral_energy(E)
    contents = tuple(energy.items())
    summary = table.spectral_cache.get((d, k))
    if summary is None or summary.contents != contents:
        for m, _ in contents:
            point_indices(f, d, m)
        summary = table.spectral_cache[(d, k)] = _SpectralSummary(table, d, k, contents)
    return summary


def bounds(E: PointSet, t: FieldElement, k: int,
           table: Optional[CharacterTable] = None,
           energy: Optional[dict[Point, Cyclotomic]] = None) -> BoundReport:
    """Evaluate the A-part bound and the full B-decomposition for (E, t, k).

    energy is read as in nu_spectral: A(t), the B sums and the m1/m2/m3
    weights all come from the spectral summary of (energy, d, k).
    """
    summary = _spectral_summary(E, t, k, table, energy, nonzero_t=True)
    q, d = E.field.q, E.d
    a_bound = 2 * 3**d * q ** (-(d - 1) / 2) * len(E)

    refs = {
        "b_aux_ref": q ** (-k) * len(E),
        "b_m1_ref": q ** (-d - 1) * len(E) ** 2,
        "b_m3_ref": q ** (-d) * len(E) ** 2,
        "b_lower_ref": q ** (-d) * len(E) ** 2 - q ** (-k) * len(E),
    }
    return BoundReport(
        t=t, k=k, size=len(E),
        a_sum_abs=abs(summary.a_part(t).to_complex()), a_bound=a_bound,
        b_sum=summary.b_sum,
        b_main=summary.b_main,
        b_aux=summary.b_aux,
        b_m1=summary.m1,
        b_m2=summary.m2,
        b_m3=summary.m3,
        refs=refs,
    )


def sharpness_example(field: Field, d: int, k: int) -> PointSet:
    """E = F_q^{d-k} x {0}^k: a set of size q^{d-k} with D_k(E) = {0}."""
    if not 1 <= k <= d:
        raise ValueError(f"k must lie in [1, {d}], got {k}")
    if k == d:
        pts = [Point(field, (0,) * d)]
    else:
        # enumerate_vectors refuses q^(d-k) > gf.CAP before forming it
        pts = [Point(field, head.idx + (0,) * k)
               for head in enumerate_vectors(field, d - k)]
    return PointSet(field, d, pts)
