"""The public names and the layer functions the benchmark tracer wraps.

A deletion that leaves a name in ffdist.__all__, or removes a function that
perfbench/spans.py wraps by name, fails here rather than in a traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import ffdist
from ffdist import characters, distance, fourier, geometry, gf
from ffdist.cyclotomic import Cyclotomic

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    # spans.py imports only the stdlib at top level, so it loads on its own
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _traced_functions():
    return [(home, attr) for home, attr, _ in _load_spans().FUNCTIONS]


@pytest.mark.parametrize("name", ffdist.__all__)
def test_exported_name_resolves(name):
    assert getattr(ffdist, name) is not None


@pytest.mark.parametrize("home,attr", _traced_functions())
def test_traced_function_resolves(home, attr):
    assert callable(getattr(importlib.import_module("ffdist." + home), attr))


def test_cyclotomic_constructor():
    # the tracer wraps Cyclotomic.__init__ with this (p, coeffs) signature
    z = Cyclotomic(5, [1, 0, 0, 0, 0])
    assert z == 1


def test_tracer_runs_the_spectral_layers():
    # the tracer's counting wrappers stand in for Cyclotomic.__init__ and
    # __mul__, so every value the layers build must go through (p, coeffs)
    tracer = _load_spans().Tracer()
    init = Cyclotomic.__init__
    tracer.install()
    try:
        f = gf.make_field(3)
        table = characters.CharacterTable(f)  # fresh: no cached transforms
        E = fourier.PointSet(f, 2, [gf.point_from_index(f, 2, i) for i in (0, 1, 4, 5, 7)])
        energy = fourier.spectral_energy(E)
        for t in f.elements:
            distance.nu_spectral(E, t, 1, table, energy)
        distance.bounds(E, f.one, 2, table, energy)
        m = gf.Point(f, (1, 2))
        spec = geometry.SphereSpec(2, f.one)
        assert (geometry.sphere_ft(table, m, spec, "closed")
                == geometry.sphere_ft(table, m, spec, "brute"))
        fourier.inverse_dft(f, 2, fourier.dft_indicator(E))
        characters.gauss_sum(table, f.one)
        characters.kloosterman(table, f.one, f.elements[2])
    finally:
        tracer.uninstall()
    assert Cyclotomic.__init__ is init
    assert tracer.counts["cyclotomic.values_built"] > 0
    assert tracer.counts["cyclotomic.mul_calls"] > 0
    names = {span[0] for span in tracer.spans}
    assert {"distance.nu_spectral", "distance.bounds", "geometry.sphere_ft",
            "fourier.spectral_energy"} <= names
