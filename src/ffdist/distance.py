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

Neither sum is redone for each t or k either.  The A-part factors as
A(m, t) = sum_{s != 0} inner_k(m, s) zeta^{Tr(-s t)}, and inner_k(m, s)
expands over coordinate subsets I into c_k(|I|) (eta(s) G_1)^{|I|}
zeta^{Tr(-u_I / 4s)}, u_I the sum of the squared coordinates over I.  So
sum_m e_m A(m, t) is read from subset-norm tables
F_i[u] = sum_m e_m #{I : |I| = i, u_I = u}, formed once per energy, and
their character transforms over s and t, which depend on neither k nor
the key; k enters only as the scalar c_k(i).  For t != 0
nu_E(t) = q^{d-1} (A_k(t) + B_k).  At t = 0 the k-sphere also holds every
x with at least k zero coordinates (their k-norm is 0), and the s = 0
subset sums of those strata are the b_aux weights, so
nu_E(0) = q^{d-1} (A_k(0) + B_k) - q^d b_aux(k) from the same sums.  The
tables, B_k and b_aux(k) for every k, and the b_main/m1/m2/m3 sums form one
summary per (energy, d), kept in the table's spectral_cache (one slot per
d, matched against the mapping's exact contents).  The brute and closed
sphere_ft and a_term stay as oracles for the tests and the sphere-ft
command.

What depends on no energy runs once per (field, d), in the table's
spectral plan (_SummaryPlan): the subset-norm counts of each square class,
the weights of each zero count (its one _elementary_symmetric and one
_m_weights), the scalars c_k(i) (eta(-1) q)^{floor(i/2)} and the row
shifts Tr(-u/4s).  Per energy run the sums over its keys: the tables F_i,
their rows and transforms, the B sums and the rational read-outs.
spectral_energy keeps its own set-independent half in the same plan.

The direct count and the distance set read the same pair loop over
E x E, _k_norm_rows.  It runs the k-norm as a state machine on element
indices (the running sum of squares and the zero count so far, one
absorbing state for k or more zeros), with its tables built once per
call from the field's add and mul tables.  A row is a few C-level lookup
passes per coordinate over all y at once; no object is built per pair, and
no spectral code is shared with the spectral route.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from itertools import accumulate, combinations, repeat
from typing import Optional

from .characters import TABLE, CharacterTable, character_table
from .cyclotomic import Cyclotomic, common_denominator, convolve, rotated_sum
from .fourier import SET, PointSet, spectral_energy
from .gf import (DIM, ELEMENT, FIELD, INT, K, MAPPING, Field, FieldElement, Point,
                 enumerate_vectors, takes)
from .geometry import _elementary_symmetric, _zero_pattern_factors


@takes(E=SET, k=K)
def distance_set(E: PointSet, k: int) -> list[FieldElement]:
    """D_k(E) = {||x - y||_k : x, y in E}, sorted by element index."""
    if len(E) == 0:
        raise ValueError("distance set of an empty set is undefined")
    found = _distance_indices(E, k)
    return [E.field.elements[i] for i in sorted(found)]


def _k_norm_states(field: Field, k: int) -> tuple[list, list[int]]:
    """The transition table step and the read-out final of the k-norm state
    machine over GF(q) (see _k_norm_rows), built from the field's tables; it
    serves every d >= k.

    State acc + q z holds the running sum of squares acc while z < k of the
    coordinates seen so far are zero; the one dead state q k means at least
    k zeros, k-norm 0, and is absorbing.  step[c][state] is the state after
    one more coordinate difference of index c: for c != 0 the column is the
    add row of c^2 (add is symmetric) shifted by q z on each level, and for
    c = 0 it moves one level up, or to the dead state from the last level.
    At k = d the dead state holds exactly the pairs with d zero differences,
    and its read-out 0 is their sum of squares.
    """
    q, add, mul = field.q, field._add, field._mul
    dead = q * k
    step = [list(range(q, dead)) + [dead] * (q + 1)]
    for c in range(1, q):
        row = add[mul[c][c]]
        column = list(row)
        for z in range(1, k):
            column += map(operator.add, row, repeat(q * z))
        column.append(dead)
        step.append(column)
    return step, list(range(q)) * k + [0]


def _k_norm_rows(E: PointSet, k: int):
    """For each x in E, the list of k-norm indices of x - y over every y in E.

    The one direct pair loop, run as a state machine on element indices:
    every pair (x, y) starts in state 0 and takes one step per coordinate,
    step[c][state] for the difference c = x_i - y_i, and its k-norm is
    final[state] (_k_norm_states).  A row is a few C-level lookup passes
    per coordinate over all y at once: the differences are read from the
    add row of x_i at the columns -y_i, then the step columns of those
    differences at the current states.  No Point or FieldElement is built
    per pair, and the tables are built once per call.
    """
    f = E.field
    pts = [x.idx for x in E]
    if len(pts) < 2:  # itemgetter of one key returns a scalar; x - x = 0
        yield from [[0]] * len(pts)
        return
    add, neg, get = f._add, f._neg, operator.itemgetter
    step, final = _k_norm_states(f, k)
    first = [column[0] for column in step]
    # per coordinate i, one getter that reads a row at -y_i for every y
    minus_y0, *minus_y = [get(*[neg[y[i]] for y in pts]) for i in range(E.d)]
    for x in pts:
        states = get(*minus_y0(add[x[0]]))(first)
        for ys, xi in zip(minus_y, x[1:]):
            states = map(operator.getitem, get(*ys(add[xi]))(step), states)
        yield list(get(*states)(final))


def _distance_indices(E: PointSet, k: int) -> set[int]:
    q = E.field.q
    found: set[int] = set()
    for row in _k_norm_rows(E, k):
        found.update(row)
        if len(found) == q:
            break
    return found


@takes(E=SET, k=K)
def nu_direct_all(E: PointSet, k: int) -> Counter:
    """nu_E(t) for every t at once, by direct pair counting (index -> count)."""
    counts: Counter = Counter({i: 0 for i in range(E.field.q)})
    for row in _k_norm_rows(E, k):
        counts.update(row)
    return counts


@takes(E=SET, t=ELEMENT, k=K, table=TABLE, energy=MAPPING)
def nu_spectral(E: PointSet, t: FieldElement, k: int,
                table: Optional[CharacterTable] = None,
                energy: Optional[dict[Point, Cyclotomic]] = None) -> Fraction:
    """nu_E(t) via q^{2d} sum_m Shat_k^t(m) |Ehat(m)|^2 (exact rational).

    energy defaults to spectral_energy(E), |Ehat|^2 summed per square
    class.  The sum is read from the spectral summary of (energy, d):
    nu_E(t) = q^{d-1} (A_k(t) + B_k) for t != 0, and
    nu_E(0) = q^{d-1} (A_k(0) + B_k - q b_aux(k)).  The sphere S_k^0 is the
    t = 0 sphere equation on the x with Z(x) < k, plus every x with
    Z(x) >= k; the transform of those strata at m is q^{-d} times the s = 0
    subset sums over alpha in [k, d], and their energy-weighted sum over
    the keys is -b_aux(k).
    """
    return _spectral_summary(E, table, energy).count(t, k).rational_value()


# ---------------------------------------------------------------------------
# the bound machinery
# ---------------------------------------------------------------------------

@takes(n=INT)
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
        exact = ("b_sum", "b_main", "b_aux", "b_m1", "b_m2", "b_m3")
        return {"a_sum_abs": self.a_sum_abs, "a_bound": self.a_bound,
                **{name: str(getattr(self, name)) for name in exact},
                "refs": dict(sorted(self.refs.items()))}


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


def _c_k(d: int, k: int, i: int) -> int:
    """c_k(i) = sum_{j=max(i, d-k+1)}^{d} (-1)^{j-i} C(d-i, j-i): the weight
    of a subset of i squared coordinates in inner_k."""
    return sum((-1) ** (j - i) * math.comb(d - i, j - i)
               for j in range(max(i, d - k + 1), d + 1))


class _SummaryPlan:
    """What _SpectralSummary over GF(q)^d reads that depends on no energy.

    scalars[k][i] = c_k(i) (eta(-1) q)^{floor(i/2)}, the scalar of T_i(t)
    in A_k(t), and shifts[s - 1][u] = Tr(-u/4s) for s in F_q*, the
    rotation of F_i[u] in the row R_i(s).  Filled on first use, per key
    read: levels(m) gives, for m's square class, its zero count and its
    subset-norm counts levels[i][u] = #{I : |I| = i, u_I = u}; weights(w, m)
    gives, for the zero count w of m, the weights of the energy of the keys
    with that count in b_main, m1, m2, m3, B_k and b_aux(k) for each k
    (one _elementary_symmetric and one _m_weights per zero count).
    """

    __slots__ = ("field", "d", "scalars", "shifts", "_levels", "_weights")

    def __init__(self, f: Field, d: int) -> None:
        p, q = f.p, f.q
        self.field, self.d = f, d
        eta_q = f._quad[f._neg[1]] * q  # G_1^2
        self.scalars = {k: [_c_k(d, k, i) * eta_q ** (i // 2) for i in range(d + 1)]
                        for k in range(1, d + 1)}
        trace, neg, inv, mul = f._trace, f._neg, f._inv, f._mul
        self.shifts = []
        for s in range(1, q):
            w = neg[inv[mul[4 % p][s]]]  # -1/4s
            self.shifts.append([trace[mul[u][w]] for u in range(q)])
        self._levels: dict[tuple[int, ...], tuple[int, list[dict[int, int]]]] = {}
        self._weights: dict[int, tuple[int, ...]] = {}

    def levels(self, m: Point) -> tuple[int, list[dict[int, int]]]:
        key = m.square_class()
        out = self._levels.get(key)
        if out is None:
            add = self.field._add
            # one squared coordinate at a time
            levels: list[dict[int, int]] = [{0: 1}]
            for r in key:
                levels.append({})
                for i in range(len(levels) - 1, 0, -1):
                    dst = levels[i]
                    for u, n in levels[i - 1].items():
                        v = add[u][r]
                        dst[v] = dst.get(v, 0) + n
            out = self._levels[key] = (key.count(0), levels)
        return out

    def weights(self, w: int, m: Point) -> tuple[int, ...]:
        out = self._weights.get(w)
        if out is None:
            d = self.d
            # strata[alpha] = e_{d - alpha}, the s = 0 subset sum of the
            # stratum alpha
            strata = _elementary_symmetric(_zero_pattern_factors(self.field, m))[::-1]
            below = list(accumulate(strata))  # below[k - 1]: alpha < k
            above = list(accumulate(strata[::-1]))[::-1]  # above[k]: alpha >= k
            out = self._weights[w] = (sum(strata), *_m_weights(self.field.q, m),
                                      *below[:d], *(-a for a in above[1:]))
        return out


class _SpectralSummary:
    """The t- and k-independent parts of nu_spectral and bounds for one
    (energy, d).

    inner_k(C, s), the sum over alpha < k of the subset sums of the factors
    eta(s) G_1 zeta^{Tr(-c_i^2 / 4s)} - 1, expands (G_1^2 = eta(-1) q) into
    sum_I c_k(|I|) (eta(s) G_1)^{|I|} zeta^{Tr(-u_I / 4s)}, u_I the sum of
    the squared coordinates of C over I.  So everything but the scalar
    c_k(i) is read from the subset-norm tables
    F_i[u] = G_1^{i mod 2} sum_C e_C #{I : |I| = i, u_I = u}, formed once on
    ints over one common denominator (G_1 commutes with the rotations below,
    so it multiplies the finished tables); the rows
    R_i(s) = eta(s)^i sum_u F_i[u] zeta^{Tr(-u/4s)} for s in F_q*; and, per t
    on first use, the transforms T_i(t) = sum_s R_i(s) zeta^{Tr(-s t)}.  Then
    A_k(t) = sum_C e_C A(C, t) = sum_i c_k(i) (eta(-1) q)^{floor(i/2)} T_i(t).

    B_k, b_aux(k) (for every k), b_main and m1/m2/m3 depend on a key only
    through its zero count, so they are read from the energy summed per zero
    count, times that count's weights.

    The subset-norm counts of each square class, the weights of each zero
    count, the scalars and the row shifts come from the table's plan of
    GF(q)^d (_SummaryPlan), built once per (field, d); the sums over the
    energy are formed here, per summary.
    """

    def __init__(self, table: CharacterTable, d: int, contents: tuple) -> None:
        f = table.field
        p, q = f.p, f.q
        plan = table.spectral_plan(_SummaryPlan, d)
        self.field, self.d, self.contents = f, d, contents
        self.scalars = plan.scalars
        g1 = table.gauss_standard().num
        # every sum runs on int coefficients over one common denominator
        nums, self.den = common_denominator(p, (e for _, e in contents))
        tables: list[dict[int, list[int]]] = [{} for _ in range(d + 1)]
        # zero count -> (a key with it, the energy summed over those keys)
        by_zeros: dict[int, tuple[Point, list[int]]] = {}
        for (m, _), num in zip(contents, nums):
            w, levels = plan.levels(m)
            entry = by_zeros.get(w)
            by_zeros[w] = (m, num) if entry is None else (
                entry[0], list(map(operator.add, entry[1], num)))
            for table_i, level in zip(tables, levels):
                for u, n in level.items():
                    row = table_i.get(u)
                    table_i[u] = ([n * c for c in num] if row is None
                                  else [a + n * c for a, c in zip(row, num)])
        for table_i in tables[1::2]:
            for u, c in table_i.items():
                table_i[u] = convolve(c, g1)
        quad = f._quad
        self.rows = []
        for i, table_i in enumerate(tables):
            rows_i = []
            for s, shift in enumerate(plan.shifts, 1):
                row = rotated_sum(p, table_i.values(), map(shift.__getitem__, table_i))
                rows_i.append([-c for c in row] if i % 2 and quad[s] < 0 else row)
            self.rows.append(rows_i)
        # per zero count: b_main, m1, m2, m3, then B_k and b_aux(k) for each k
        sums = [[0] * p for _ in range(4 + 2 * d)]
        for w, (m, acc) in by_zeros.items():
            sums = [[a + x * c for a, c in zip(total, acc)]
                    for total, x in zip(sums, plan.weights(w, m))]
        values = [Cyclotomic._over(p, total, self.den).rational_value() for total in sums]
        self.b_main, self.m1, self.m2, self.m3 = values[:4]
        self.b_sum = dict(enumerate(values[4:4 + d], 1))
        self.b_aux = dict(enumerate(values[4 + d:], 1))
        # count's B part over den, by k: (t != 0, t = 0)
        self._b = {k: (b, [c - q * x for c, x in zip(b, aux)])
                   for k, b, aux in zip(range(1, d + 1), sums[4:4 + d], sums[4 + d:])}
        self._t: dict[int, list[list[int]]] = {}

    def _transforms(self, ti: int) -> list[list[int]]:
        """[T_0(t), ..., T_d(t)] for t of index ti: each row R_i(s) rotated
        by Tr(-s t) and summed; Tr(0) = 0, so T_i(0) is the unrotated sum."""
        out = self._t.get(ti)
        if out is None:
            f = self.field
            row, trace, neg = f._mul[ti], f._trace, f._neg
            shifts = [trace[neg[row[s]]] for s in range(1, f.q)]
            out = self._t[ti] = [rotated_sum(f.p, rows_i, shifts) for rows_i in self.rows]
        return out

    def _a_num(self, t: FieldElement, k: int) -> list[int]:
        """The coefficients of A_k(t) = sum_C e_C A(C, t) over den: the
        transforms T_i(t), each scaled by c_k(i) (eta(-1) q)^{floor(i/2)}."""
        acc = [0] * self.field.p
        for c, ti in zip(self.scalars[k], self._transforms(t.index)):
            if c:
                acc = [a + c * v for a, v in zip(acc, ti)]
        return acc

    def a_part(self, t: FieldElement, k: int) -> Cyclotomic:
        """A_k(t), exact."""
        return Cyclotomic._over(self.field.p, self._a_num(t, k), self.den)

    def count(self, t: FieldElement, k: int) -> Cyclotomic:
        """q^{2d} sum_m Shat_k^t(m) e_m, exact: q^{d-1} (A_k(t) + B_k), less
        q^d b_aux(k) at t = 0.  nu_E(t) when e is |Ehat|^2."""
        s, b = self.field.q ** (self.d - 1), self._b[k][t.is_zero]
        return Cyclotomic._over(self.field.p, [(x + y) * s for x, y in zip(self._a_num(t, k), b)],
                                self.den)


def _spectral_summary(E: PointSet, table: Optional[CharacterTable],
                      energy: Optional[dict[Point, Cyclotomic]]) -> _SpectralSummary:
    """The summary of energy at E.d, the one route of nu_spectral and
    bounds; it serves every k and t.

    Their declarations check that the table belongs to E's field and every
    key of the mapping to GF(q)^d: the summary reads each key's coordinates
    through this field's tables, so a key of another field or d would be
    misread, not refused.  table.spectral_cache holds one slot per d,
    reused when it was built from equal contents.
    """
    table = table or character_table(E.field)
    contents = tuple((energy if energy is not None else spectral_energy(E)).items())
    summary = table.spectral_cache.get(E.d)
    if summary is None or summary.contents != contents:
        summary = table.spectral_cache[E.d] = _SpectralSummary(table, E.d, contents)
    return summary


@takes(E=SET, t=ELEMENT, k=K, table=TABLE, energy=MAPPING)
def bounds(E: PointSet, t: FieldElement, k: int,
           table: Optional[CharacterTable] = None,
           energy: Optional[dict[Point, Cyclotomic]] = None) -> BoundReport:
    """Evaluate the A-part bound and the full B-decomposition for (E, t, k).

    energy is read as in nu_spectral: A_k(t), the B sums and the m1/m2/m3
    weights all come from the spectral summary of (energy, d).
    """
    if t.is_zero:
        raise ValueError("bounds are defined for t != 0")
    summary = _spectral_summary(E, table, energy)
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
        a_sum_abs=abs(summary.a_part(t, k).to_complex()), a_bound=a_bound,
        b_sum=summary.b_sum[k],
        b_main=summary.b_main,
        b_aux=summary.b_aux[k],
        b_m1=summary.m1,
        b_m2=summary.m2,
        b_m3=summary.m3,
        refs=refs,
    )


@takes(field=FIELD, d=DIM, k=K)
def sharpness_example(field: Field, d: int, k: int) -> PointSet:
    """E = F_q^{d-k} x {0}^k: a set of size q^{d-k} with D_k(E) = {0}."""
    if k == d:
        pts = [Point(field, (0,) * d)]
    else:
        # enumerate_vectors refuses q^(d-k) > gf.CAP before forming it
        pts = [Point(field, head.idx + (0,) * k)
               for head in enumerate_vectors(field, d - k)]
    return PointSet(field, d, pts)
