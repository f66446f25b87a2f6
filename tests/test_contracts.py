"""Argument kinds: every public entry declares the kind of each argument
once (gf.takes), and the declarations are what these tests read.

The property: a valid call of each declared entry at q = 5, d = 2, then
each declared argument in turn replaced by each of eleven foreign values.
Every such call raises ValueError or TypeError, before the entry's body
or cache runs, with a message that names the argument (or one of the
messages that tests pin elsewhere, which name none); none returns.
"""

import ast
import inspect
import re
import sys
from pathlib import Path

import pytest

import ffdist
from ffdist import fourier, geometry, gf, harness
from ffdist.characters import TABLE, character_table
from ffdist.fourier import SET, PointSet, dft
from ffdist.gf import DECLARED, DIM, FIELD, INT, MAPPING, POINT, POINTS, Point, make_field

SRC = Path(__file__).resolve().parents[1] / "src" / "ffdist"

F, F7, F25 = make_field(5), make_field(7), make_field(5, 2)
TABLE5 = character_table(F)
M = Point(F, (1, 2))
E = PointSet(F, 2, [Point(F, (0, 0)), M, Point(F, (3, 4))])
ENERGY = fourier.spectral_energy(E)
CONFIG = harness.ExperimentConfig(d=2, k=1, size_grid=(3,))

# one valid call per declared entry, by qualified name; a method's first
# argument is its instance, and a class's __init__ is called through the class
VALID = {
    "Field.__init__": (5, 1),
    "Field.element": (F, 3),
    "Field.from_int": (F, 7),
    "make_field": (5, 1),
    "factor_prime_power": (25,),
    "point_from_index": (F, 2, 7),
    "enumerate_vectors": (F, 2),
    "CharacterTable.__init__": (F,),
    "character_table": (F,),
    "gauss_sum": (TABLE5, F.one),
    "gauss_closed_form": (F,),
    "gauss_identities": (TABLE5, F.one, F.one, M),
    "kloosterman": (TABLE5, F.one, F.one),
    "run_identity_checks": (F,),
    "PointSet.__init__": (F, 2, [M]),
    "dft": (F, 2, {M: 1}),
    "dft_indicator": (E,),
    "inverse_dft": (F, 2, {M: 1}),
    "spectral_energy": (E,),
    "plancherel_check": (E,),
    "k_norm": (M, 1),
    "stratum": (F, 2, 1),
    "sphere_points": (F, 2, 1, F.one),
    "stratum_sum_brute": (TABLE5, 2, 1, F.one, M),
    "lemma31_sum": (TABLE5, 2, 1, F.one, M),
    "a_term": (TABLE5, M, F.one, 1),
    "b_term_alpha_range": (F, M, 0, 1),
    "b_term": (F, M, 1),
    "sphere_ft": (TABLE5, M, F.one, 1),
    "distance_set": (E, 1),
    "nu_direct_all": (E, 1),
    "nu_spectral": (E, F.one, 1, TABLE5, ENERGY),
    "alternating_binomial_sum": (3,),
    "bounds": (E, F.one, 1, TABLE5, ENERGY),
    "sharpness_example": (F, 2, 1),
    "sample_set": (F, 2, 3, 0, 0),
    "threshold_sweep": (F, CONFIG),
}

FOREIGN = {
    "GF(7) element": F7.element(3),
    "GF(25) element": F25.element(7),
    "GF(7) point": Point(F7, (1, 2)),
    "point of d = 3": Point(F, (1, 2, 3)),
    "tuple": (1, 2),
    "list": [1, 2],
    "int": 7,
    "float": 2.0,
    "None": None,
    "GF(7) table": character_table(F7),
    "str": "3",
}

# messages that tests pin verbatim; they name no argument, or name it other
# than by its parameter name
PINNED = (r"^elements belong to different fields$", r" is not an element of GF\(\d+\)$",
          r"^dimension must be an int >= 1, got ", r"^alpha must (be an int|lie in)\b",
          r"^extension degree must be >= 1, got ")


def _entries():
    return sorted(DECLARED.items(), key=lambda item: item[0].__qualname__)


def _caller(entry):
    """entry as a callable of its VALID arguments."""
    owner, _, method = entry.__qualname__.rpartition(".")
    if method == "__init__":
        return getattr(sys.modules[entry.__module__], owner)
    return entry


def _cached(entry):
    """The size of the lru_cache behind entry (0 if it has none)."""
    info = getattr(entry, "cache_info", None)
    return info().currsize if info else 0


def _valid_foreign(kinds, name, default, value):
    """Whether value is, after all, a valid value of the argument name: an
    int where the kind takes any int, None at a None default, or a point of
    another d (and field) where the point's own d (and field) serve."""
    before = [kinds[n] for n in list(kinds)[:list(kinds).index(name)]]
    kind = kinds[name]
    if kind in (INT, DIM, gf.PRIME, gf.DEGREE):
        return type(value) is int
    if value is None:
        return default is None
    if kind is POINT and isinstance(value, Point):
        field_fixed = any(k in (FIELD, TABLE, SET) for k in before)
        d_fixed = any(k in (DIM, SET) for k in before)
        return not d_fixed and (value.field is F or not field_fixed)
    return False


def test_every_declared_entry_has_a_valid_call():
    assert sorted(VALID) == sorted(entry.__qualname__ for entry in DECLARED)


def test_every_argument_is_declared():
    # but self, and the two parameters that are not of a kind: sphere_ft's
    # mode (checked in its body) and threshold_sweep's force_sharpness
    undeclared = {(entry.__qualname__, p) for entry, kinds in DECLARED.items()
                  for p in inspect.signature(entry).parameters if p not in kinds}
    assert {(q, p) for q, p in undeclared if p != "self"} == {
        ("sphere_ft", "mode"), ("threshold_sweep", "force_sharpness")}


@pytest.mark.parametrize("entry,kinds", _entries(), ids=lambda x: getattr(x, "__qualname__", ""))
def test_foreign_arguments_refused_by_name(entry, kinds):
    call, args = _caller(entry), VALID[entry.__qualname__]
    params = list(inspect.signature(entry).parameters.values())
    if call is not entry:  # a class: its __init__ less self
        params = params[1:]
    result = call(*args)
    if call is entry:  # the check layer changes no result
        assert result == entry.__wrapped__(*args)
    cached = _cached(entry)
    for name in kinds:
        i = [p.name for p in params].index(name)
        for label, value in FOREIGN.items():
            if _valid_foreign(kinds, name, params[i].default, value):
                continue
            bad = args[:i] + (value,) + args[i + 1:]
            with pytest.raises((ValueError, TypeError)) as caught:
                call(*bad)
            message = str(caught.value)
            assert not isinstance(caught.value, (AttributeError, IndexError, KeyError))
            # another field's table is a table: the later argument that
            # disagrees with its field is the one refused
            named = [name]
            if kinds[name] is TABLE and label == "GF(7) table":
                named = list(kinds)[list(kinds).index(name):]
            assert (any(re.match(rf"{re.escape(n)}\b", message) for n in named)
                    or any(re.search(p, message) for p in PINNED)), (name, label, message)
    assert _cached(entry) == cached  # nothing foreign reached the cache


@pytest.mark.parametrize("call,pattern", [
    (lambda: F.element(2.0), r"^index must be an int, got 2\.0$"),
    (lambda: F.from_int(1.5), r"^n must be an int, got 1\.5$"),
    (lambda: dft(F, 2, [M]), r"^f must be a mapping of points, got \[Point\(1, 2\)\]$"),
    (lambda: dft(None, 2, {M: 1}), r"^field must be a Field, got None$"),
    (lambda: dft(F, 2.0, {M: 1}), r"^dimension must be an int >= 1, got 2\.0$"),
    (lambda: geometry.lemma31_sum(TABLE5, 2.0, 0, F.one, M),
     r"^dimension must be an int >= 1, got 2\.0$"),
    (lambda: geometry.stratum(F, 2, [1]), r"^alpha must be an int, got \[1\]$"),
    (lambda: geometry.sphere_points(F, 2, 1, [1]), r"^\[1\] is not an element of GF\(5\)$"),
], ids=["element", "from_int", "dft-list", "dft-None", "dft-float-d", "lemma31_sum-float-d",
        "stratum-list", "sphere_points-list"])
def test_recorded_holes_refused(call, pattern):
    # each used to raise TypeError or AttributeError from deep inside, or
    # (lemma31_sum) to answer a float d
    sizes = geometry.stratum.cache_info().currsize, geometry.sphere_points.cache_info().currsize
    with pytest.raises(ValueError, match=pattern):
        call()
    assert (geometry.stratum.cache_info().currsize,
            geometry.sphere_points.cache_info().currsize) == sizes


def test_every_public_function_is_declared():
    undeclared = [name for name in ffdist.__all__
                  if inspect.isfunction(getattr(ffdist, name)) and name != "main"
                  and getattr(ffdist, name) not in DECLARED]
    assert undeclared == []


def test_the_replaced_helpers_are_gone():
    # one checker per kind replaces these; none is defined again
    gone = {"_check_field", "_table_field", "_check_set", "point_indices",
            "point_dim_indices", "check_k", "_check_range"}
    defined = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.Assign)):
                names = ([node.name] if isinstance(node, ast.FunctionDef)
                         else [t.id for t in node.targets if isinstance(t, ast.Name)])
                defined.update(gone.intersection(names))
    assert defined == set()


def test_collection_and_mapping_kinds():
    # members may be any collection of points, a mapping only a mapping
    assert PointSet(F, 2, {M, Point(F, (0, 0))}) == PointSet(F, 2, (Point(F, (0, 0)), M))
    with pytest.raises(ValueError, match=r"^members must be a collection of points, got <gen"):
        PointSet(F, 2, (x for x in [M]))
    with pytest.raises(ValueError,
                       match=r"^members: Point\(1, 2, 3\) does not belong to GF\(5\)\^2$"):
        PointSet(F, 2, [M, Point(F, (1, 2, 3))])
    with pytest.raises(ValueError, match=r"^fhat must be a mapping of points, got "):
        fourier.inverse_dft(F, 2, E)
    assert POINTS([M], "x", F, 2) is None and MAPPING({M: 1}, "x", F, 2) is None
