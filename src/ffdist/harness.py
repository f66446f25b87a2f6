"""CLI entry point and reproducible experiment sweeps.

Every subcommand is deterministic given its flags: randomness is derived
from (seed, trial) through SHA-256 substreams, iteration orders are fixed,
and serialized output carries no timestamps or timings, so re-running a
command with the same configuration produces byte-identical files.

Exit codes: 0 all checks pass, 1 an identity/equality check failed,
2 invalid parameters.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .characters import character_table, run_identity_checks
from .cyclotomic import Cyclotomic
from .distance import (_distance_indices, bounds, distance_set, nu_direct_all,
                       nu_spectral, sharpness_example)
from .fourier import PointSet, spectral_energy
from .geometry import check_k, sphere_ft
from .gf import (Field, Point, enumerate_vectors, factor_prime_power, make_field,
                 point_from_index, space_size, within_cap)

CSV_COLUMNS = ("q", "p", "s", "d", "k", "t", "size", "trial", "metric", "value")


# ---------------------------------------------------------------------------
# sampling and sweeps
# ---------------------------------------------------------------------------

def substream_id(seed: int, trial: int, label: str = "sample") -> int:
    digest = hashlib.sha256(f"{label}:{seed}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def sample_set(field: Field, d: int, size: int, seed: int, trial: int) -> PointSet:
    """Uniform without-replacement sample of F_q^d, deterministic in (seed, trial)."""
    n = space_size(field.q, d)
    if not 0 <= size <= n:
        raise ValueError(f"sample size {size} must lie in [0, {n}]")
    rng = random.Random(substream_id(seed, trial))
    indices = sorted(rng.sample(range(n), size))
    return PointSet(field, d, [point_from_index(field, d, i) for i in indices])


@dataclass(frozen=True)
class ExperimentConfig:
    d: int
    k: int
    C: Fraction = Fraction(4)
    seed: int = 0
    trials: int = 1
    size_grid: Optional[tuple[int, ...]] = None  # None = auto geometric grid

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        check_k(self.k, self.d)
        if self.C <= 0:
            raise ValueError(f"C must be > 0, got {self.C}")

    @property
    def threshold_exponent(self) -> float:
        return max((self.d + 1) / 2, self.d - self.k)

    def threshold_size(self, q: int) -> int:
        try:
            return math.ceil(float(self.C) * q**self.threshold_exponent)
        except OverflowError:
            raise ValueError(f"threshold size C * {q}^{self.threshold_exponent} "
                             "is out of range") from None

    def resolve_sizes(self, q: int) -> tuple[int, ...]:
        n = space_size(q, self.d)  # before any size arithmetic
        if self.size_grid is not None:
            sizes = self.size_grid
            if any(not 1 <= s <= n for s in sizes):
                raise ValueError(f"sizes must lie in [1, {n}]")
            return tuple(sorted(set(sizes)))
        base = self.threshold_size(q)
        grid = {max(1, min(n, math.ceil(base * f))) for f in (0.25, 0.5, 1.0, 2.0)}
        return tuple(sorted(grid))


def threshold_sweep(field: Field, config: ExperimentConfig,
                    force_sharpness: bool = False) -> tuple[list[dict], list[dict]]:
    """Sample E at each grid size and record whether D_k(E) = F_q.

    Returns one record per trial, as the dict that is serialized, and one
    coverage summary per size, in size order.

    With force_sharpness the sampled set is replaced by the axis-aligned
    example of size q^{d-k}, whose k-distance set is {0}.

    Checks: every sharpness trial checks that its direct distance set is
    exactly {0}, and every trial draws the 5% spectral cross-check if
    q^d <= gf.CAP.  Only the sharpness example can lie past that bound,
    where the spectral route cannot enumerate the frequencies and nothing
    is drawn.
    """
    q = field.q
    records: list[dict] = []
    summaries: list[dict] = []
    # the example is built (and its size checked) once, before any q^(d-k)
    sharp = (sharpness_example(field, config.d, config.k)
             if force_sharpness else None)
    sizes = (len(sharp),) if sharp is not None else config.resolve_sizes(q)
    spectral = within_cap(q, config.d)
    for size in sizes:
        covered = 0
        for trial in range(config.trials):
            E = sharp if sharp is not None else sample_set(
                field, config.d, size, config.seed, trial)
            found = _distance_indices(E, config.k)
            missing = sorted(set(range(q)) - found)
            if sharp is not None and found != {0}:
                raise CheckFailed(f"sharpness example has distances {sorted(found)}, not [0]")
            xcheck = random.Random(substream_id(config.seed, trial, f"xcheck:{size}"))
            if spectral and xcheck.random() < 0.05:
                _cross_check_coverage(field, E, config.k, found)
            covered += not missing
            records.append({
                "q": q, "d": config.d, "k": config.k, "size": size, "trial": trial,
                "substream": substream_id(config.seed, trial),
                "full_coverage": not missing, "missing_radii": missing,
            })
        summaries.append({
            "size": size, "trials": config.trials, "covered_trials": covered,
            "coverage_fraction": covered / config.trials,
        })
    return records, summaries


class CheckFailed(Exception):
    """An exact cross-check disagreed; main() reports it and exits 1."""


def _cross_check_coverage(field: Field, E: PointSet, k: int, found: set[int]) -> None:
    # the spectral pair count must agree with direct coverage membership
    table = character_table(field)
    energy = spectral_energy(E)
    for t in field.elements:
        count = nu_spectral(E, t, k, table, energy)
        if (count > 0) != (t.index in found):
            raise CheckFailed(
                f"spectral/direct coverage mismatch at t={t.index}: nu={count}")


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def cyclo_strings(v: Cyclotomic) -> list[str]:
    return [str(c) for c in v.coeffs]


def _field_meta(field: Field, d: Optional[int] = None, k: Optional[int] = None) -> dict:
    meta = {"q": field.q, "p": field.p, "s": field.s,
            "modulus": list(field.modulus)}
    if d is not None:
        meta["d"] = d
    if k is not None:
        meta["k"] = k
    return meta


def _row(field: Field, metric: str, value, *, d="", k="", t="", size="", trial="") -> dict:
    return {"q": field.q, "p": field.p, "s": field.s, "d": d, "k": k, "t": t,
            "size": size, "trial": trial, "metric": metric, "value": value}


def write_output(payload: dict, rows: Iterable[dict], fmt: str, fh) -> None:
    """Encode payload (json) or rows (csv) into fh as it is written."""
    if fmt == "json":
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    else:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _parse_flag(name: str, text: str, parse, what: str):
    """parse(text) for the flag --name; a text it refuses raises ValueError
    naming the flag, what it takes and the text."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--{name} must be {what}, got {text!r}") from None


def _sample_or_sharpness(field: Field, args) -> PointSet:
    if getattr(args, "use_sharpness", False):
        return sharpness_example(field, args.d, args.k)
    if args.size is None:
        raise ValueError("--size is required unless --use-sharpness is given")
    return sample_set(field, args.d, args.size, args.seed, args.trial)


def cmd_verify_identities(field: Field, args) -> tuple[dict, Iterable[dict], int]:
    checks = run_identity_checks(field)
    payload = {
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                   for c in checks],
        "all_passed": all(c.passed for c in checks),
    }
    rows = (_row(field, c.name, int(c.passed)) for c in checks)
    return payload, rows, 0 if payload["all_passed"] else 1


def cmd_sphere_ft(field: Field, args) -> tuple[dict, Iterable[dict], int]:
    table = character_table(field)
    t = field.element(args.t)
    if args.mode != "brute" and t.is_zero:
        raise ValueError(f"--mode {args.mode} requires t != 0; use --mode brute")
    if args.m is not None:
        ms = [Point(field, _parse_flag("m", args.m, _ints, "comma-separated element indices"))]
        if ms[0].d != args.d:
            raise ValueError(f"--m must have {args.d} coordinates")
    else:
        ms = enumerate_vectors(field, args.d)
    records = []
    # the transform is constant on square classes: one closed value per class
    closed: dict = {}
    for m in ms:
        rec: dict = {"m": list(m.idx)}
        if args.mode in ("closed", "both"):
            key = m.square_class()
            if key not in closed:
                closed[key] = cyclo_strings(sphere_ft(table, m, t, args.k, "closed"))
            rec["closed"] = closed[key]
        if args.mode in ("brute", "both"):
            rec["brute"] = cyclo_strings(sphere_ft(table, m, t, args.k, "brute"))
        if args.mode == "both":
            rec["equal"] = rec["closed"] == rec["brute"]
        records.append(rec)
    payload = {
        "t": args.t, "mode": args.mode,
        "records": records,
    }
    both = args.mode == "both"
    if both:
        payload["all_equal"] = all(rec["equal"] for rec in records)
    metric = "sphere_ft_" + ("equal" if both else args.mode)
    rows = (_row(field, f"{metric}[{','.join(map(str, rec['m']))}]",
                 int(rec["equal"]) if both else "|".join(rec[args.mode]),
                 d=args.d, k=args.k, t=args.t)
            for rec in records)
    return payload, rows, 0 if payload.get("all_equal", True) else 1


def cmd_distance_set(field: Field, args) -> tuple[dict, Iterable[dict], int]:
    E = _sample_or_sharpness(field, args)
    dset = [e.index for e in distance_set(E, args.k)]
    payload = {
        "size": len(E), "seed": args.seed, "trial": args.trial,
        "distances": dset,
        "full": len(dset) == field.q,
    }
    rows = (_row(field, metric, value, d=args.d, k=args.k, size=len(E),
                 trial=args.trial)
            for metric, value in (("distance_count", len(dset)),
                                  ("distances", "|".join(map(str, dset)))))
    return payload, rows, 0


def cmd_nu(field: Field, args) -> tuple[dict, Iterable[dict], int]:
    E = _sample_or_sharpness(field, args)
    table = character_table(field)
    energy = spectral_energy(E)
    direct_all = nu_direct_all(E, args.k)
    ts = [field.element(args.t)] if args.t is not None else list(field.elements)
    records = []
    for t in ts:
        direct = direct_all[t.index]
        spectral = nu_spectral(E, t, args.k, table, energy)
        records.append({"q": field.q, "p": field.p, "s": field.s, "d": args.d,
                        "k": args.k, "t": t.index, "size": len(E),
                        "direct": direct, "spectral": str(spectral),
                        "equal": spectral == direct})
    payload = {"seed": args.seed, "trial": args.trial, "records": records,
               "all_equal": all(rec["equal"] for rec in records)}
    rows = (_row(field, metric, value, d=args.d, k=args.k, t=rec["t"],
                 size=rec["size"], trial=args.trial)
            for rec in records
            for metric, value in (("nu_direct", rec["direct"]),
                                  ("nu_spectral", rec["spectral"]),
                                  ("nu_equal", int(rec["equal"]))))
    return payload, rows, 0 if payload["all_equal"] else 1


def cmd_bounds(field: Field, args) -> tuple[dict, Iterable[dict], int]:
    if args.t == 0:
        raise ValueError("bounds require t != 0")
    E = _sample_or_sharpness(field, args)
    t = field.element(args.t)
    report = bounds(E, t, args.k)
    payload = {
        "t": args.t, "size": len(E), "seed": args.seed, "trial": args.trial,
        "components": report.components(),
        "b_m2_zero": report.b_m2 == 0,
        "a_bound_ok": report.a_sum_abs <= report.a_bound * (1 + 1e-6),
    }
    rows = (_row(field, metric, value, d=args.d, k=args.k, t=args.t,
                 size=len(E), trial=args.trial)
            for metric, value in (("a_sum_abs", repr(report.a_sum_abs)),
                                  ("a_bound", repr(report.a_bound)),
                                  ("b_sum", str(report.b_sum)),
                                  ("b_m2", str(report.b_m2))))
    return payload, rows, 0 if payload["b_m2_zero"] and payload["a_bound_ok"] else 1


def cmd_sharpness(field: Field, args) -> tuple[dict, Iterable[dict], int]:
    E = sharpness_example(field, args.d, args.k)
    dset = [e.index for e in distance_set(E, args.k)]
    ok = len(E) == field.q ** (args.d - args.k) and dset == [0]
    payload = {
        "size": len(E), "distances": dset, "degenerate": dset == [0],
    }
    rows = (_row(field, metric, value, d=args.d, k=args.k)
            for metric, value in (("sharpness_size", len(E)),
                                  ("sharpness_distances", "|".join(map(str, dset)))))
    return payload, rows, 0 if ok else 1


def cmd_threshold_sweep(field: Field, args) -> tuple[dict, Iterable[dict], int]:
    sizes = None
    if args.sizes and args.sizes != "auto":
        sizes = tuple(_parse_flag("sizes", args.sizes, _ints, '"auto" or comma-separated ints'))
    C = _parse_flag("C", args.C, Fraction, "a rational number")
    config = ExperimentConfig(
        d=args.d, k=args.k, C=C, seed=args.seed, trials=args.trials, size_grid=sizes,
    )
    records, summaries = threshold_sweep(field, config, args.use_sharpness)
    payload = {
        "config": {
            "C": str(config.C), "seed": config.seed, "trials": config.trials,
            "threshold_exponent": config.threshold_exponent,
            "threshold_size": config.threshold_size(field.q),
            "sizes": [summ["size"] for summ in summaries],
            "conjectural": args.d % 2 == 0,
        },
        "records": records,
        "summary": summaries,
    }

    def rows():
        for r in records:
            keys = {"d": r["d"], "k": r["k"], "size": r["size"], "trial": r["trial"]}
            yield _row(field, "full_coverage", int(r["full_coverage"]), **keys)
            if r["missing_radii"]:
                yield _row(field, "missing_radii",
                           "|".join(map(str, r["missing_radii"])), **keys)
        for summ in summaries:
            yield _row(field, "coverage_fraction", repr(summ["coverage_fraction"]),
                       d=args.d, k=args.k, size=summ["size"])

    return payload, rows(), 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, *, need_dk: bool = False,
                sampled: bool = False) -> None:
    sub.add_argument("--q", type=int)
    sub.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    sub.add_argument("--out", type=str, default=None)
    sub.add_argument("--config", type=str, default=None,
                     help="JSON file supplying any of the flags by name")
    if need_dk:
        sub.add_argument("--d", type=int, required=False)
        sub.add_argument("--k", type=int, required=False)
    if sampled:
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--size", type=int, default=None)
        sub.add_argument("--trial", type=int, default=0)
        sub.add_argument("--use-sharpness", action="store_true")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, so main() reports them in one line and
    returns 2; add_subparsers makes every subcommand parser one too."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ffdist",
        description="Exact-arithmetic toolkit for k-distance sets over finite fields",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("verify-identities", help="run the character-sum identity battery")
    _add_common(sp)
    sp.set_defaults(func=cmd_verify_identities)

    sp = subs.add_parser("sphere-ft", help="sphere Fourier transform, closed and/or brute")
    _add_common(sp, need_dk=True)
    sp.add_argument("--t", type=int, required=False)
    sp.add_argument("--m", type=str, default=None, help='frequency "c1,...,cd" (element indices)')
    sp.add_argument("--mode", choices=("closed", "brute", "both"), default="both")
    sp.set_defaults(func=cmd_sphere_ft)

    sp = subs.add_parser("distance-set", help="k-distance set of a sampled point set")
    _add_common(sp, need_dk=True, sampled=True)
    sp.set_defaults(func=cmd_distance_set)

    sp = subs.add_parser("nu", help="pair counts, direct vs spectral")
    _add_common(sp, need_dk=True, sampled=True)
    sp.add_argument("--t", type=int, default=None)
    sp.set_defaults(func=cmd_nu)

    sp = subs.add_parser("bounds", help="A-part bound and B-decomposition diagnostics")
    _add_common(sp, need_dk=True, sampled=True)
    sp.add_argument("--t", type=int, default=1)
    sp.set_defaults(func=cmd_bounds)

    sp = subs.add_parser("sharpness", help="the degenerate axis-aligned example")
    _add_common(sp, need_dk=True)
    sp.set_defaults(func=cmd_sharpness)

    sp = subs.add_parser("threshold-sweep", help="coverage sweep over |E| sizes")
    _add_common(sp, need_dk=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--C", type=str, default="4", help="threshold multiplier (rational)")
    sp.add_argument("--trials", type=int, default=1)
    sp.add_argument("--sizes", type=str, default="auto",
                    help='"auto" or a comma-separated list of |E| values')
    sp.add_argument("--use-sharpness", action="store_true")
    sp.set_defaults(func=cmd_threshold_sweep)

    return parser


def _apply_config_file(args: argparse.Namespace, parser: argparse.ArgumentParser,
                       argv: Sequence[str]) -> argparse.Namespace:
    """args with the --config values as the subcommand's defaults.

    argv is parsed again over those defaults, so argparse itself lets every
    flag on the command line win, under any spelling it accepts.
    """
    if not getattr(args, "config", None):
        return args
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            overrides = json.load(fh)
        except RecursionError:  # the decoder recurses once per nesting level
            raise ValueError("--config nests too deeply to parse") from None
    if not isinstance(overrides, dict):
        raise ValueError("--config must contain a JSON object")
    subcommands = next(a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction))
    sub = subcommands.choices[args.command]
    actions = {a.dest: a for a in sub._actions
               if a.default is not argparse.SUPPRESS}  # all but --help
    defaults = {}
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if attr == "format":
            attr = "fmt"
        action = actions.get(attr)
        if action is None:
            raise ValueError(f"unknown config field {key!r}")
        # the type the flag would have after argparse: its converter, or
        # bool for a switch; JSON true/false are not accepted as ints
        expected = action.type or (bool if action.nargs == 0 else str)
        if type(value) is not expected:
            raise ValueError(f"config field {key!r} must be {expected.__name__}, "
                             f"got {json.dumps(value)}")
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"config field {key!r} must be one of "
                             f"{', '.join(map(str, action.choices))}, got {value!r}")
        defaults[attr] = value
    sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _apply_config_file(parser.parse_args(argv), parser, argv)
        for required in ("q", "d", "k"):
            if hasattr(args, required) and getattr(args, required) is None:
                raise ValueError(f"--{required} is required for this subcommand")
        if hasattr(args, "t") and args.t is None and args.command == "sphere-ft":
            raise ValueError("--t is required for sphere-ft")
        field = make_field(*factor_prime_power(args.q))
        payload, rows, code = args.func(field, args)
        payload.update(command=args.command, field=_field_meta(
            field, getattr(args, "d", None), getattr(args, "k", None)))
        # the file is opened only once the command has succeeded
        with (open(args.out, "w", encoding="utf-8", newline="") if args.out
              else contextlib.nullcontext(sys.stdout)) as fh:
            write_output(payload, rows, args.fmt, fh)
    except (OSError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
