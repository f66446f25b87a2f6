"""End-to-end acceptance battery.

Each test prints a single pass/fail line for its criterion and enforces a
wall-clock budget.  Criteria 6 through 8 share one cached spectral battery
(30 seeded point sets per (q, d)) so the expensive transforms are computed
once and inspected three ways.
"""

import math
import random
import sys
import time
from fractions import Fraction

import pytest

from ffdist.characters import (character_table, gauss_closed_form,
                               gauss_identities, gauss_sum)
from ffdist.characters import kloosterman
from ffdist.distance import (_SpectralSummary, _m_weights,
                             alternating_binomial_sum, bounds, distance_set,
                             nu_direct_all, nu_spectral, sharpness_example)
from ffdist.fourier import PointSet, spectral_energy
from ffdist.geometry import (lemma31_sum, sphere_ft,
                             stratum_sum_brute)
from ffdist.gf import (Point, enumerate_vectors, factor_prime_power,
                       make_field, point_from_index)
from ffdist.harness import ExperimentConfig, main, threshold_sweep

ODD_PRIME_POWERS_49 = [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37,
                       41, 43, 47, 49]


def field_for(q):
    return make_field(*factor_prime_power(q))


_capsys = None


@pytest.fixture(autouse=True)
def _expose_capsys(capsys):
    global _capsys
    _capsys = capsys
    yield
    _capsys = None


def report(num, name, ok):
    line = f"\n[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if _capsys is not None:
        with _capsys.disabled():
            print(line, file=sys.stderr)
    else:
        print(line, file=sys.stderr)
    assert ok, f"criterion {num} ({name}) failed"


def elapsed_ok(start, limit):
    return time.perf_counter() - start < limit


# ---------------------------------------------------------------------------
# shared spectral battery for criteria 6-8
# ---------------------------------------------------------------------------

BATTERY_QD = [(q, d) for q in (3, 5, 7) for d in (2, 3)]
_battery_cache = {}


def battery(q, d):
    """30 seeded point sets with their spectra, direct counts, and bounds."""
    key = (q, d)
    if key in _battery_cache:
        return _battery_cache[key]
    f = field_for(q)
    table = character_table(f)
    n = q**d
    sizes = [1, 3, q, q ** (d - 1)]
    entries = []
    for i in range(30):
        size = min(sizes[i % 4], n)
        rng = random.Random(10_000 * q + 100 * d + i)
        E_pts = [point_from_index(f, d, j)
                 for j in sorted(rng.sample(range(n), size))]
        E = PointSet(f, d, E_pts)
        energy = spectral_energy(E)
        per_k = {}
        for k in range(1, d + 1):
            direct = nu_direct_all(E, k)
            spectral = {t.index: nu_spectral(E, t, k, table, energy)
                        for t in f.elements}
            reports = {t.index: bounds(E, t, k, table, energy)
                       for t in f.elements[1:]}
            per_k[k] = (direct, spectral, reports)
        entries.append((E, per_k))
    _battery_cache[key] = entries
    return entries


# ---------------------------------------------------------------------------
# the criteria
# ---------------------------------------------------------------------------

def test_criterion_1_gauss_suite():
    start = time.perf_counter()
    ok = True
    for q in ODD_PRIME_POWERS_49:
        f = field_for(q)
        t = character_table(f)
        g1 = t.gauss_standard()
        ok &= g1 * g1 == f.quad_char(-f.one) * q
        ok &= abs(abs(g1.to_complex()) - math.sqrt(q)) < 1e-6
        ok &= abs(g1.to_complex() - gauss_closed_form(f)) < 1e-6
    ok &= elapsed_ok(start, 5)
    report(1, "gauss suite", ok)


def test_criterion_2_gauss_identities():
    start = time.perf_counter()
    ok = True
    for q in (3, 5, 7, 9):
        f = field_for(q)
        t = character_table(f)
        for a in f.elements[1:]:
            for b in f.elements:
                ok &= gauss_identities(t, a, b, Point(f, (b, a))).all_hold
    for q in (3, 5):
        f = field_for(q)
        t = character_table(f)
        a = f.one
        for v in enumerate_vectors(f, 2):
            ok &= gauss_identities(t, a, f.element(2), v).all_hold
    ok &= elapsed_ok(start, 30)
    report(2, "completing-the-square identities", ok)


def test_criterion_3_weil_bound():
    start = time.perf_counter()
    ok = True
    for q in ODD_PRIME_POWERS_49:
        t = character_table(field_for(q))
        f = t.field
        limit = 2 * math.sqrt(q) + 1e-6
        for a in f.elements[1:]:
            for b in f.elements[1:]:
                ok &= abs(kloosterman(t, a, b)) <= limit
    ok &= elapsed_ok(start, 60)
    report(3, "Weil bound", ok)


def test_criterion_4_stratum_sums():
    start = time.perf_counter()
    ok = True
    for q in (3, 5):
        f = field_for(q)
        t = character_table(f)
        for d in (2, 3):
            for alpha in range(d + 1):
                for s in f.elements:
                    for m in enumerate_vectors(f, d):
                        ok &= lemma31_sum(t, d, alpha, s, m) == \
                            stratum_sum_brute(t, d, alpha, s, m)
    for q, d in ((7, 3), (9, 2)):
        f = field_for(q)
        t = character_table(f)
        rng = random.Random(4_000 + q)
        for _ in range(50):
            alpha = rng.randrange(d + 1)
            s = f.element(rng.randrange(q))
            m = point_from_index(f, d, rng.randrange(q**d))
            ok &= lemma31_sum(t, d, alpha, s, m) == \
                stratum_sum_brute(t, d, alpha, s, m)
    ok &= elapsed_ok(start, 180)
    report(4, "stratum sum closed form", ok)


def test_criterion_5_sphere_transform():
    start = time.perf_counter()
    ok = True
    for q, d in BATTERY_QD + [(9, 2)]:
        f = field_for(q)
        t = character_table(f)
        ms = enumerate_vectors(f, d)
        for k in range(1, d + 1):
            for radius in f.elements[1:]:
                for m in ms:
                    ok &= sphere_ft(t, m, radius, k, "closed") == \
                        sphere_ft(t, m, radius, k, "brute")
    ok &= elapsed_ok(start, 600)
    report(5, "sphere transform closed form", ok)


def test_criterion_6_spectral_counting():
    start = time.perf_counter()
    ok = True
    for q, d in BATTERY_QD:
        for E, per_k in battery(q, d):
            for k, (direct, spectral, _) in per_k.items():
                for ti, count in spectral.items():
                    ok &= count == direct[ti]
                ok &= sum(direct.values()) == len(E) ** 2
                ok &= sum(spectral.values()) == len(E) ** 2
    ok &= elapsed_ok(start, 600)
    report(6, "spectral pair counting", ok)


def test_criterion_7_b_cancellation():
    ok = all(alternating_binomial_sum(n) == 0 for n in range(1, 9))
    for q, d in BATTERY_QD:
        for _, per_k in battery(q, d):
            for _, (_, _, reports) in per_k.items():
                for rep in reports.values():
                    ok &= rep.b_m2 == 0
                    ok &= rep.b_sum == rep.b_main + rep.b_aux
                    ok &= rep.b_main == rep.b_m1 + rep.b_m2 + rep.b_m3
    report(7, "B-part cancellation", ok)


def test_criterion_8_a_bound():
    ok = True
    for q, d in BATTERY_QD:
        for _, per_k in battery(q, d):
            for _, (_, _, reports) in per_k.items():
                for rep in reports.values():
                    ok &= rep.a_sum_abs <= rep.a_bound * (1 + 1e-6)
    report(8, "oscillatory term bound", ok)


def test_criterion_9_sharpness():
    ok = True
    for q in (3, 5):
        f = field_for(q)
        for d in (2, 3):
            for k in range(1, d + 1):
                E = sharpness_example(f, d, k)
                ok &= len(E) == q ** (d - k)
                ok &= [t.index for t in distance_set(E, k)] == [0]
    report(9, "sharpness fixture", ok)


def test_criterion_10_threshold_fixture():
    start = time.perf_counter()
    ok = True
    for q, d, ks, C in [(5, 3, (1, 2, 3), 4), (7, 2, (1, 2), 2)]:
        f = field_for(q)
        for k in ks:
            cfg = ExperimentConfig(d=d, k=k, C=Fraction(C),
                                   seed=42, trials=50)
            _, summaries = threshold_sweep(f, cfg)
            threshold = cfg.threshold_size(q)
            at_or_above = [s for s in summaries if s["size"] >= threshold]
            ok &= bool(at_or_above)
            ok &= all(s["coverage_fraction"] == 1.0 for s in at_or_above)
    ok &= elapsed_ok(start, 300)
    report(10, "coverage at threshold", ok)


def test_criterion_11_determinism(tmp_path):
    commands = [
        ["verify-identities", "--q", "9"],
        ["sphere-ft", "--q", "5", "--d", "2", "--k", "2", "--t", "1"],
        ["distance-set", "--q", "5", "--d", "2", "--k", "1", "--size", "10",
         "--seed", "42"],
        ["nu", "--q", "5", "--d", "2", "--k", "2", "--size", "8", "--seed", "42"],
        ["bounds", "--q", "5", "--d", "2", "--k", "1", "--size", "8",
         "--seed", "42", "--t", "2"],
        ["sharpness", "--q", "5", "--d", "3", "--k", "2"],
        ["threshold-sweep", "--q", "5", "--d", "2", "--k", "1", "--trials", "5",
         "--seed", "42"],
    ]
    ok = True
    for argv in commands:
        for fmt in ("json", "csv"):
            outputs = []
            for run in (0, 1):
                target = tmp_path / f"out-{run}.{fmt}"
                code = main(argv + ["--format", fmt, "--out", str(target)])
                ok &= code == 0
                outputs.append(target.read_bytes())
            ok &= outputs[0] == outputs[1]
    report(11, "byte-identical reruns", ok)


# prime and extension fields, and the p where sampled sets are thin
CERTIFICATE_QD = BATTERY_QD + [(9, 2), (25, 2), (27, 2), (31, 2), (41, 2)]


def test_criterion_12_square_class_certificate():
    # The spectral summary is linear in the energy mapping and reads a key
    # only through its square class, so it suffices that the summary of
    # {m: 1} is q^{2d} Shat_k^t(m) for one m per class, every k and every
    # t (t = 0 with its - q^d b_aux term): by Fourier inversion
    # nu_spectral(E) == nu_direct_all(E) then holds for every E in F_q^d.
    # c2 = 0 on every class gives b_m2 = 0 for every E.
    start = time.perf_counter()
    ok = True
    for q, d in CERTIFICATE_QD:
        f = field_for(q)
        table = character_table(f)
        reps = {}
        for m in enumerate_vectors(f, d):
            reps.setdefault(m.square_class(), m)
        for m in reps.values():
            summary = _SpectralSummary(table, d, ((m, 1),))
            for k in range(1, d + 1):
                for t in f.elements:
                    brute = sphere_ft(table, m, t, k, "brute")
                    ok &= summary.count(t, k) == brute * q ** (2 * d)
            ok &= _m_weights(q, m)[1] == 0
    ok &= elapsed_ok(start, 120)
    report(12, "square-class certificate", ok)
