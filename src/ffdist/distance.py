"""k-distance sets, the pair-count nu_E(t), and the B-decomposition checks.

nu_E(t) counts ordered pairs at k-distance t.  It is computed two ways:
directly over E x E, and spectrally as q^{2d} sum_m Shat(m) |Ehat(m)|^2 with
the sphere transform in closed form for t != 0.  Both are exact, so their
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
from .gf import DEFAULT_CAP, Field, FieldElement, Point, enumerate_vectors
from .geometry import (SphereSpec, a_term, b_term, b_term_alpha_range,
                       sphere_ft)


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
                energy: Optional[dict[Point, Cyclotomic]] = None,
                cap: int = DEFAULT_CAP) -> Fraction:
    """nu_E(t) via q^{2d} sum_m Shat_k^t(m) |Ehat(m)|^2 (exact rational).

    energy defaults to spectral_energy(E, cap), |Ehat|^2 summed per square
    class; the sum runs over its keys, one sphere_ft per key.
    """
    f = E.field
    d = E.d
    if table is None:
        table = character_table(f)
    if energy is None:
        energy = spectral_energy(E, cap)
    spec = SphereSpec(k, t)
    mode = "brute" if t.is_zero else "closed"
    total = Cyclotomic.zero(f.p)
    for m, e in energy.items():
        total = total + sphere_ft(table, m, spec, mode, cap) * e
    return (total * (f.q ** (2 * d))).rational_value()


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


def bounds(E: PointSet, t: FieldElement, k: int,
           table: Optional[CharacterTable] = None,
           energy: Optional[dict[Point, Cyclotomic]] = None,
           cap: int = DEFAULT_CAP) -> BoundReport:
    """Evaluate the A-part bound and the full B-decomposition for (E, t, k).

    energy is read as in nu_spectral: one a_term, B value and weight triple
    per key of spectral_energy's per-class sums.
    """
    if t.is_zero:
        raise ValueError("bounds are defined for t != 0")
    f = E.field
    d = E.d
    q = f.q
    if table is None:
        table = character_table(f)
    if energy is None:
        energy = spectral_energy(E, cap)

    zero = Cyclotomic.zero(f.p)
    a_total = b_sum = b_main = b_aux = m1 = m2 = m3 = zero
    for m, e in energy.items():
        a_total = a_total + e * a_term(table, m, t, k)
        b_sum = b_sum + e * b_term(f, m, k)
        b_main = b_main + e * b_term_alpha_range(f, m, 0, d)
        b_aux = b_aux - e * b_term_alpha_range(f, m, k, d)
        c1, c2, c3 = _m_weights(q, m)
        m1 = m1 + e * c1
        m2 = m2 + e * c2
        m3 = m3 + e * c3
    a_sum_abs = abs(a_total.to_complex())
    a_bound = 2 * 3**d * q ** (-(d - 1) / 2) * len(E)

    refs = {
        "b_aux_ref": q ** (-k) * len(E),
        "b_m1_ref": q ** (-d - 1) * len(E) ** 2,
        "b_m3_ref": q ** (-d) * len(E) ** 2,
        "b_lower_ref": q ** (-d) * len(E) ** 2 - q ** (-k) * len(E),
    }
    return BoundReport(
        t=t, k=k, size=len(E),
        a_sum_abs=a_sum_abs, a_bound=a_bound,
        b_sum=b_sum.rational_value(),
        b_main=b_main.rational_value(),
        b_aux=b_aux.rational_value(),
        b_m1=m1.rational_value(),
        b_m2=m2.rational_value(),
        b_m3=m3.rational_value(),
        refs=refs,
    )


def sharpness_example(field: Field, d: int, k: int, cap: int = DEFAULT_CAP) -> PointSet:
    """E = F_q^{d-k} x {0}^k: a set of size q^{d-k} with D_k(E) = {0}."""
    if not 1 <= k <= d:
        raise ValueError(f"k must lie in [1, {d}], got {k}")
    if k == d:
        pts = [Point(field, (0,) * d)]
    else:
        # enumerate_vectors refuses q^(d-k) > cap before forming it
        pts = [Point(field, head.idx + (0,) * k)
               for head in enumerate_vectors(field, d - k, cap)]
    return PointSet(field, d, pts)
