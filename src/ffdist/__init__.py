"""Exact-arithmetic toolkit for k-distance sets over finite fields.

Character sums, the closed-form sphere Fourier transform, spectral pair
counting, and seeded coverage sweeps, all over exact cyclotomic rationals.
"""

from .characters import (CharacterTable, character_table, gauss_closed_form,
                         gauss_identities, gauss_sum, kloosterman,
                         run_identity_checks)
from .cyclotomic import Cyclotomic
from .distance import (BoundReport, alternating_binomial_sum, bounds,
                       distance_set, nu_direct_all, nu_spectral,
                       sharpness_example)
from .fourier import (PointSet, dft, dft_indicator, inverse_dft, plancherel_check,
                      spectral_energy)
from .geometry import (a_term, b_term, k_norm, lemma31_sum, sphere_ft,
                       sphere_points, stratum, stratum_sum_brute)
from .gf import (Field, FieldElement, Point, enumerate_vectors,
                 factor_prime_power, make_field, point_from_index)
from .harness import ExperimentConfig, main, sample_set, threshold_sweep

__all__ = [
    "BoundReport", "CharacterTable", "Cyclotomic", "ExperimentConfig",
    "Field", "FieldElement", "Point", "PointSet",
    "a_term", "alternating_binomial_sum", "b_term", "bounds",
    "character_table", "dft", "dft_indicator", "distance_set",
    "enumerate_vectors", "factor_prime_power", "gauss_closed_form",
    "gauss_identities", "gauss_sum", "inverse_dft", "k_norm", "kloosterman",
    "lemma31_sum", "main", "make_field", "nu_direct_all", "nu_spectral",
    "plancherel_check", "point_from_index", "run_identity_checks",
    "sample_set", "sharpness_example", "spectral_energy",
    "sphere_ft", "sphere_points", "stratum", "stratum_sum_brute",
    "threshold_sweep",
]

__version__ = "0.1.0"
