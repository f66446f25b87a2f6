"""The public names and the layer functions the benchmark tracer wraps.

A deletion that leaves a name in ffdist.__all__, or removes a function that
perfbench/spans.py wraps by name, fails here rather than in a traced run.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import ffdist
from ffdist import characters, distance, fourier, geometry, gf, harness
from ffdist.cyclotomic import Cyclotomic

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
SRC = Path(__file__).resolve().parents[1] / "src" / "ffdist"


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
        assert (geometry.sphere_ft(table, m, f.one, 2, "closed")
                == geometry.sphere_ft(table, m, f.one, 2, "brute"))
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


def _own_routines():
    """(qualified name, routine) for every function, lru_cache wrapper and
    method defined in an ffdist module."""
    for info in pkgutil.iter_modules(ffdist.__path__):
        if info.name == "__main__":  # runs the CLI on import
            continue
        module = importlib.import_module("ffdist." + info.name)
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # static/class
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member
            elif inspect.isroutine(obj):
                yield f"{module.__name__}.{name}", obj


def test_one_enumeration_bound():
    # the bound on q^d is the constant gf.CAP: no function takes a cap, no
    # config carries one and no subcommand accepts --cap
    routines = dict(_own_routines())
    assert {"ffdist.gf.enumerate_vectors", "ffdist.geometry.stratum",
            "ffdist.harness.ExperimentConfig.resolve_sizes"} <= routines.keys()
    takes_cap = [name for name, fn in routines.items()
                 if "cap" in inspect.signature(fn).parameters]
    assert takes_cap == []
    assert "cap" not in {f.name for f in dataclasses.fields(harness.ExperimentConfig)}
    subcommands = next(a for a in harness.build_parser()._actions
                       if a.dest == "command")
    assert len(subcommands.choices) == 7
    for sub in subcommands.choices.values():
        assert "--cap" not in sub._option_string_actions


def test_rotation_kernel_has_one_home():
    # every sum of rotated coefficient lists goes through
    # cyclotomic.rotated_sum, so rotated itself is called only in its module
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name == "rotated":
                    callers.add(path.name)
    assert callers == {"cyclotomic.py"}
