"""Span recording for the traced benchmark run.

A Tracer keeps spans in memory and writes them out when the run ends.  Each
span is a tuple (name, start, end, parent, op, work): parent is the index of
the enclosing span (None at top level), op the id of the benchmark op that
caused it, and work a count computed from the call's input sizes (or None).

install() swaps the ffdist module attributes through which callers reach a
layer for span-recording wrappers.  Every ffdist module that holds the same
function object gets the wrapper, so the benchmark's own calls and the calls
between layers (distance -> geometry, harness -> distance, ...) are both
seen.  It also counts Cyclotomic construction and multiplication.
uninstall() restores the originals; nothing under src/ is edited.

Times come from time.monotonic (CLOCK_MONOTONIC on Linux), which all
processes on a machine share, so spans written by cli child processes line
up with the parent's.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

CLOCK = time.monotonic

MODULES = ("ffdist", "ffdist.cyclotomic", "ffdist.gf", "ffdist.characters",
           "ffdist.fourier", "ffdist.geometry", "ffdist.distance",
           "ffdist.harness")

SUBCOMMANDS = ("verify-identities", "sphere-ft", "distance-set", "nu",
               "bounds", "sharpness", "threshold-sweep")

COUNTERS = ("cyclotomic.values_built", "cyclotomic.mul_calls")


def _pairs(E, *args, **kwargs) -> int:
    # computed, not observed: the direct loops visit |E|^2 ordered pairs
    # (_distance_indices may stop early once every distance is found)
    return len(E) ** 2


def _dots(E, *args, **kwargs) -> int:
    # computed: dft_indicator takes one dot product per (frequency, point)
    return E.field.q ** E.d * len(E)


# (module, attribute, work count) of every layer function the traced run wraps
FUNCTIONS = (
    ("gf", "make_field", None),
    ("characters", "character_table", None),
    ("characters", "gauss_sum", None),
    ("characters", "kloosterman", None),
    ("characters", "run_identity_checks", None),
    ("fourier", "spectral_energy", _dots),
    ("geometry", "sphere_ft", None),
    ("geometry", "a_term", None),
    ("distance", "nu_direct_all", _pairs),
    ("distance", "_distance_indices", _pairs),
    ("distance", "nu_spectral", None),
    ("distance", "bounds", None),
    ("harness", "main", None),
    *(("harness", "cmd_" + c.replace("-", "_"), None) for c in SUBCOMMANDS),
)

# per-layer metric -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "cyclotomic.values_built": "count/op",
    "cyclotomic.mul_calls": "count/op",
    "gf.build_s": "s/op",
    "gf.builds": "count/op",
    "distance.direct_s": "s/op",
    "distance.pairs": "count/op",
    "distance.pairs_per_s": "1/s",
    "characters.gauss_sum_s": "s/op",
    "characters.kloosterman_s": "s/op",
    "characters.identity_checks_s": "s/op",
    "fourier.spectral_energy_s": "s/op",
    "fourier.dots": "count/op",
    "fourier.dots_per_s": "1/s",
    "geometry.sphere_ft_s": "s/op",
    "geometry.sphere_ft_calls": "count/op",
    "geometry.a_term_s": "s/op",
    "geometry.a_term_calls": "count/op",
    "distance.bounds_s": "s/op",
    "distance.nu_spectral_s": "s/op",
    "harness.main_self_s": "s/op",
    "harness.process_start_s": "s/op",
    **{f"harness.cmd.{c}.p50_ms": "ms" for c in SUBCOMMANDS},
    "trace.overhead_ratio": "1",
}


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[tuple] = []
        self.op = None
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.op_counts: dict = {}
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, work=None) -> None:
        parent = self.stack[-1][0] if self.stack else None
        self.stack.append((len(self.spans), name, CLOCK(), parent, self.op, work))
        self.spans.append(None)  # end() fills it in

    def end(self) -> None:
        # a finished span is a tuple of plain values, which the cyclic garbage
        # collector stops tracking, so a long trace does not slow collections
        index, name, start, parent, op, work = self.stack.pop()
        self.spans[index] = (name, start, CLOCK(), parent, op, work)

    @contextlib.contextmanager
    def op_span(self, op, name: str):
        """Root span of one benchmark op; keeps the op's counter deltas."""
        before = dict(self.counts)
        self.op = op
        self.begin(name)
        try:
            yield
        finally:
            self.end()
            self.op = None
            self.op_counts[op] = {k: self.counts[k] - before[k] for k in COUNTERS}

    def _wrap(self, fn, name: str, work):
        def traced(*args, **kwargs):
            self.begin(name, work(*args, **kwargs) if work else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
        return functools.update_wrapper(traced, fn)

    # -- installing the wrappers -------------------------------------------

    def _swap(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for home, attr, work in FUNCTIONS:
            original = getattr(importlib.import_module("ffdist." + home), attr)
            wrapper = self._wrap(original, f"{home}.{attr}", work)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._swap(module, key, wrapper)

        from ffdist.cyclotomic import Cyclotomic
        from ffdist.gf import Field

        self._swap(Field, "_build_tables",
                   self._wrap(Field._build_tables, "gf.Field._build_tables", None))
        counts = self.counts
        init, mul = Cyclotomic.__init__, Cyclotomic.__mul__

        def counted_init(obj, p, coeffs):
            counts["cyclotomic.values_built"] += 1
            init(obj, p, coeffs)

        def counted_mul(a, b):
            counts["cyclotomic.mul_calls"] += 1
            return mul(a, b)

        self._swap(Cyclotomic, "__init__", counted_init)
        self._swap(Cyclotomic, "__mul__", counted_mul)
        self._swap(Cyclotomic, "__rmul__", counted_mul)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- moving spans between processes ------------------------------------

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

    def merge(self, path, op) -> None:
        """Adopt a child process's spans under the currently open span."""
        with open(path, encoding="utf-8") as fh:
            child = json.load(fh)
        offset = len(self.spans)
        parent = self.stack[-1][0] if self.stack else None
        for name, start, end, up, _, work in child["spans"]:
            self.spans.append((name, start, end,
                               parent if up is None else up + offset, op, work))
        for key in COUNTERS:
            self.counts[key] += child["counts"][key]


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [(s[2] - s[1]) - covered[i] for i, s in enumerate(spans)]


def summarize(spans: list, selves: list[float], keep) -> dict:
    """name -> calls, total and self seconds, computed work, over kept spans."""
    out: dict = {}
    for span, self_s in zip(spans, selves):
        if not keep(span[4]):
            continue
        row = out.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
        row["calls"] += 1
        row["total_s"] += span[2] - span[1]
        row["self_s"] += self_s
        row["work"] += span[5] or 0
    return out


def layer_metrics(tracer: Tracer, by_name: dict, ops: int, overhead_ratio: float,
                  cmd_p50_ms: dict) -> dict:
    """The per-layer metrics, per timed op, from the traced phase's spans."""
    def get(name: str, field: str = "total_s"):
        return by_name.get(name, {}).get(field, 0)

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds else 0.0

    timed = [c for op, c in tracer.op_counts.items() if op != "setup"]
    direct_s = get("distance.nu_direct_all") + get("distance._distance_indices")
    pairs = get("distance.nu_direct_all", "work") + get("distance._distance_indices", "work")
    # process start: from the parent spawning a cli child to the child calling main
    starts = [start - tracer.spans[parent][1]
              for name, start, _, parent, _, _ in tracer.spans
              if name == "harness.main" and parent is not None
              and tracer.spans[parent][0] == "cli.op"]
    return {
        "cyclotomic.values_built": sum(c["cyclotomic.values_built"] for c in timed) / ops,
        "cyclotomic.mul_calls": sum(c["cyclotomic.mul_calls"] for c in timed) / ops,
        "gf.build_s": get("gf.Field._build_tables") / ops,
        "gf.builds": get("gf.Field._build_tables", "calls") / ops,
        "distance.direct_s": direct_s / ops,
        "distance.pairs": pairs / ops,
        "distance.pairs_per_s": rate(pairs, direct_s),
        "characters.gauss_sum_s": get("characters.gauss_sum") / ops,
        "characters.kloosterman_s": get("characters.kloosterman") / ops,
        "characters.identity_checks_s": get("characters.run_identity_checks") / ops,
        "fourier.spectral_energy_s": get("fourier.spectral_energy") / ops,
        "fourier.dots": get("fourier.spectral_energy", "work") / ops,
        "fourier.dots_per_s": rate(get("fourier.spectral_energy", "work"),
                                   get("fourier.spectral_energy")),
        "geometry.sphere_ft_s": get("geometry.sphere_ft") / ops,
        "geometry.sphere_ft_calls": get("geometry.sphere_ft", "calls") / ops,
        "geometry.a_term_s": get("geometry.a_term") / ops,
        "geometry.a_term_calls": get("geometry.a_term", "calls") / ops,
        "distance.bounds_s": get("distance.bounds") / ops,
        "distance.nu_spectral_s": get("distance.nu_spectral") / ops,
        "harness.main_self_s": get("harness.main", "self_s") / ops,
        "harness.process_start_s": sum(starts) / ops,
        **{f"harness.cmd.{c}.p50_ms": cmd_p50_ms.get(c, 0.0) for c in SUBCOMMANDS},
        "trace.overhead_ratio": overhead_ratio,
    }
