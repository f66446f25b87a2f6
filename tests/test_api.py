"""The public names and the layer functions the benchmark tracer wraps.

A deletion that leaves a name in ffdist.__all__, or removes a function that
perfbench/spans.py wraps by name, fails here rather than in a traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import ffdist
from ffdist.cyclotomic import Cyclotomic

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced_functions():
    # spans.py imports only the stdlib at top level, so it loads on its own
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(home, attr) for home, attr, _ in spans.FUNCTIONS]


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
