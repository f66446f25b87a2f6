"""The benchmark's three workloads: battery, cli and fields.

Each workload makes its op inputs from the workload seed, runs one op
through the public ffdist API (or the CLI, in a fresh process) and checks
the op's result exactly.  Ops come in fixed cycles (battery: the four set
sizes; cli: the seven subcommands; fields: the field orders), and run.py
ends every timed phase on a cycle boundary, so each run sees the same mix.

Library functions are called through their module attributes
(`distance.bounds`, ...), so the wrappers that the traced run swaps in see
the benchmark's own calls as well as the calls between layers.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from ffdist import characters, distance, fourier, gf

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden_cli.json"
DEFAULT_SEED = 0
OP_TIMEOUT_S = 60  # the slowest op takes about a second


def child_env() -> dict:
    """Environment for child processes: ffdist imported from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


# ---------------------------------------------------------------------------
# battery: entries shaped like acceptance criteria 6-8
# ---------------------------------------------------------------------------

class Battery:
    """Spectral vs direct pair counts and the bound decomposition at one (q, d).

    Set sizes cycle through 1, 3, q, q^{d-1}, the acceptance battery's rule.
    The character-table caches are shared across ops, as the battery shares
    them, and are filled during set-up.
    """

    name = "battery"
    rss_scope = "self"

    def __init__(self, seed: int, q: int = 5, d: int = 3) -> None:
        self.seed, self.q, self.d = seed, q, d
        self.params = {"q": q, "d": d}
        self.sizes = (1, 3, q, q ** (d - 1))
        self.cycle = len(self.sizes)
        self.tracer = None

    def setup(self) -> None:
        self.field = gf.make_field(*gf.factor_prime_power(self.q))
        self.table = characters.character_table(self.field)
        # a one-point set has |Ehat(m)|^2 != 0 at every m, so this visits every
        # square class for t != 0 and the brute sphere points for t = 0
        origin = fourier.PointSet(self.field, self.d,
                                  [gf.point_from_index(self.field, self.d, 0)])
        energy = fourier.spectral_energy(origin)
        for k in range(1, self.d + 1):
            for t in self.field.elements:
                distance.nu_spectral(origin, t, k, self.table, energy)

    def close(self) -> None:
        pass

    def kind(self, i: int) -> str:
        return f"size={self.sizes[i % self.cycle]}"

    def make_input(self, i: int):
        n = self.q ** self.d
        size = min(self.sizes[i % self.cycle], n)
        rng = random.Random(f"battery:{self.seed}:{i}")
        points = [gf.point_from_index(self.field, self.d, j)
                  for j in sorted(rng.sample(range(n), size))]
        return fourier.PointSet(self.field, self.d, points)

    def run_op(self, i: int, E) -> dict:
        elements, table = self.field.elements, self.table
        energy = fourier.spectral_energy(E)
        per_k = {}
        for k in range(1, self.d + 1):
            direct = distance.nu_direct_all(E, k)
            spectral = {t.index: distance.nu_spectral(E, t, k, table, energy)
                        for t in elements}
            reports = [distance.bounds(E, t, k, table, energy) for t in elements[1:]]
            per_k[k] = (direct, spectral, reports)
        return per_k

    def check(self, E, per_k: dict) -> list[str]:
        problems = []
        pairs = len(E) ** 2
        for k in range(1, self.d + 1):
            direct, spectral, reports = per_k[k]
            if sorted(spectral) != list(range(self.q)):
                problems.append(f"k={k}: spectral counts do not cover every t")
            elif any(spectral[t] != direct[t] for t in spectral):
                problems.append(f"k={k}: spectral != direct")
            if sum(direct.values()) != pairs or sum(spectral.values()) != pairs:
                problems.append(f"k={k}: counts do not sum to |E|^2")
            if len(reports) != self.q - 1:
                problems.append(f"k={k}: missing bound reports")
            for r in reports:
                if r.b_m2 != 0:
                    problems.append(f"k={k} t={r.t.index}: b_m2 != 0")
                if r.b_sum != r.b_main + r.b_aux:
                    problems.append(f"k={k} t={r.t.index}: b_sum != b_main + b_aux")
                if r.b_main != r.b_m1 + r.b_m2 + r.b_m3:
                    problems.append(f"k={k} t={r.t.index}: b_main != b_m1 + b_m2 + b_m3")
                if not r.a_sum_abs <= r.a_bound * (1 + 1e-6):
                    problems.append(f"k={k} t={r.t.index}: A-bound fails")
        return problems


# ---------------------------------------------------------------------------
# cli: the seven subcommands, one fresh process per op
# ---------------------------------------------------------------------------

CLI_COMMANDS = (
    ("verify-identities", "--q", "19"),
    ("sphere-ft", "--q", "5", "--d", "3", "--k", "2", "--t", "1"),
    ("distance-set", "--q", "23", "--d", "3", "--k", "1", "--use-sharpness"),
    ("nu", "--q", "5", "--d", "3", "--k", "2", "--size", "25"),
    ("bounds", "--q", "5", "--d", "3", "--k", "2", "--size", "25", "--t", "1"),
    ("sharpness", "--q", "31", "--d", "3", "--k", "1"),
    ("threshold-sweep", "--q", "5", "--d", "2", "--k", "1", "--trials", "250"),
)
SEEDED = frozenset({"distance-set", "nu", "bounds", "threshold-sweep"})
# verdict fields each subcommand must print, all true
VERDICTS = {
    "verify-identities": ("all_passed",),
    "sphere-ft": ("all_equal",),
    "distance-set": (),
    "nu": ("all_equal",),
    "bounds": ("b_m2_zero", "a_bound_ok"),
    "sharpness": ("degenerate",),
    "threshold-sweep": (),
}
ALL_VERDICTS = frozenset(v for vs in VERDICTS.values() for v in vs)


@dataclass(frozen=True)
class CliResult:
    returncode: int
    output: bytes
    stderr: str


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


class Cli:
    """Each op runs one subcommand through cli_child.py in a fresh process,
    so caches start cold as they do for a CLI user.

    Seeded subcommands take --seed = workload seed + cycle index.  At the
    default seed every output must also match its golden SHA-256 digest.
    """

    name = "cli"
    rss_scope = "children"

    def __init__(self, seed: int, commands=CLI_COMMANDS, golden=None) -> None:
        self.seed = seed
        self.commands = tuple(tuple(c) for c in commands)
        self.params = {"commands": commands, "golden": golden}
        self.golden = golden  # None: load golden_cli.json on first check
        self.cycle = len(self.commands)
        self.tmp = OUT / f"tmp-{os.getpid()}"
        self.tracer = None

    def setup(self) -> None:
        self.tmp.mkdir(parents=True, exist_ok=True)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def kind(self, i: int) -> str:
        return self.commands[i % self.cycle][0]

    def make_input(self, i: int) -> list[str]:
        argv = list(self.commands[i % self.cycle])
        if argv[0] in SEEDED:
            argv += ["--seed", str(self.seed + i // self.cycle)]
        return argv

    def run_op(self, i: int, argv: list[str]) -> CliResult:
        out = self.tmp / "out.json"
        spans = self.tmp / "spans.json"
        out.unlink(missing_ok=True)
        spans.unlink(missing_ok=True)
        trace_arg = str(spans) if self.tracer else "-"
        proc = subprocess.run(
            [sys.executable, str(BENCH / "cli_child.py"), trace_arg, str(i),
             *argv, "--out", str(out)],
            env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=OP_TIMEOUT_S)
        if self.tracer:
            self.tracer.merge(spans, i)
        output = out.read_bytes() if out.exists() else b""
        return CliResult(proc.returncode, output, proc.stderr)

    def check(self, argv: list[str], r: CliResult) -> list[str]:
        if r.returncode != 0:
            return [f"exit code {r.returncode}: {r.stderr.strip()[-300:]}"]
        problems = []
        if self.golden is None:
            self.golden = load_golden() if self.seed == DEFAULT_SEED else {}
        want = self.golden.get(" ".join(argv))
        if want is not None and hashlib.sha256(r.output).hexdigest() != want:
            problems.append("output differs from its golden digest")
        try:
            payload = json.loads(r.output)
        except ValueError:
            return problems + ["output is not JSON"]
        for verdict in sorted(ALL_VERDICTS):
            if verdict in payload or verdict in VERDICTS[argv[0]]:
                if payload.get(verdict) is not True:
                    problems.append(f"{verdict} is not true")
        if argv[0] == "distance-set" and "--use-sharpness" in argv \
                and payload.get("distances") != [0]:
            problems.append("the sharpness set's distance set is not {0}")
        return problems


# ---------------------------------------------------------------------------
# fields: field construction plus character sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldsResult:
    field: object
    gauss: list
    kloosterman: list


class Fields:
    """Build a fresh Field (bypassing make_field's cache), then every Gauss sum
    over F_q* and a batch of seeded Kloosterman sums.

    The orders cycle through primes and proper prime powers.
    """

    name = "fields"
    rss_scope = "self"

    def __init__(self, seed: int, orders=(243, 251, 257, 343, 361), sums: int = 100) -> None:
        self.seed, self.orders, self.sums = seed, tuple(orders), sums
        self.params = {"orders": list(orders), "sums": sums}
        self.cycle = len(self.orders)
        self.tracer = None

    def setup(self) -> None:
        pass

    def close(self) -> None:
        pass

    def kind(self, i: int) -> str:
        return f"q={self.orders[i % self.cycle]}"

    def make_input(self, i: int):
        q = self.orders[i % self.cycle]
        rng = random.Random(f"fields:{self.seed}:{i}")
        return q, [(rng.randrange(1, q), rng.randrange(1, q)) for _ in range(self.sums)]

    def run_op(self, i: int, inp) -> FieldsResult:
        q, pairs = inp
        field = gf.Field(*gf.factor_prime_power(q))
        table = characters.CharacterTable(field)
        el = field.elements
        gauss = [characters.gauss_sum(table, a) for a in el[1:]]
        sums = [characters.kloosterman(table, el[a], el[b]) for a, b in pairs]
        return FieldsResult(field, gauss, sums)

    def check(self, inp, r: FieldsResult) -> list[str]:
        q = inp[0]
        f = r.field
        problems = []
        if len(r.gauss) != q - 1 or len(r.kloosterman) != self.sums:
            return ["missing sums"]
        g1 = r.gauss[0]  # elements[1] is the identity
        if g1 * g1 != f.quad_char(-f.one) * q:
            problems.append("G_1^2 != eta(-1) q")
        if any(g != f.quad_char(a) * g1 for a, g in zip(f.elements[1:], r.gauss)):
            problems.append("G_a != eta(a) G_1")
        bound = 2 * math.sqrt(q) + 1e-6
        if any(abs(k) > bound for k in r.kloosterman):
            problems.append("a Kloosterman sum exceeds the Weil bound")
        return problems


WORKLOADS = {"battery": Battery, "cli": Cli, "fields": Fields}


def make(name: str, seed: int, **params):
    return WORKLOADS[name](seed, **params)
