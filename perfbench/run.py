"""ffdist benchmark: three seeded workloads, exact checks, one command.

usage, from the root of an ffdist checkout:

    python3 perfbench/run.py --workload {battery,cli,fields} --seed N \\
        --seconds S --trace {0,1}

--trace 0 measures the workload untraced for S seconds and prints the
end-to-end metrics.  --trace 1 runs it untraced and then traced, S/2
seconds each, and prints the per-layer metrics; spans go to
perfbench/out/trace-<workload>-seed<N>.json.  Every timed phase ends on a
cycle boundary (see workloads.py).  Human-readable lines come first; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The full result, with provenance, is written to
perfbench/out/result-<workload>-seed<N>-trace<T>.json.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
HELDOUT_SEED = 20261  # kept back for confirming later claims; never used while tuning
SETUP_PROBES = 9
TAIL_BEYOND = 10  # op_tail_ms: the highest percentile with this many samples beyond it

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
}


@dataclass
class Phase:
    """One timed phase: per-op latency and kind, failures, wall time per cycle."""

    cycle: int
    latencies: list
    kinds: list
    failures: list
    cycle_walls: list

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def wall(self) -> float:
        return sum(self.cycle_walls)

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.wall

    def p50_ms_by_kind(self) -> dict:
        groups: dict = {}
        for value, kind in zip(self.latencies, self.kinds):
            groups.setdefault(kind, []).append(value)
        return {k: statistics.median(v) * 1e3 for k, v in groups.items()}


def measure(wl, seconds: float, tracer=None, corrupt=None, between=None) -> Phase:
    """Closed loop, one client: whole cycles of ops until `seconds` have passed.

    An op fails if it raises or its result fails the workload's exact check.
    `corrupt`, if given, is applied to each result before the check.
    `between`, if given, runs after each cycle, outside the timed cycles.
    """
    latencies, kinds, failures, cycle_walls = [], [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        cycle_start = time.perf_counter()
        for _ in range(wl.cycle):
            inp = wl.make_input(i)
            t0 = time.perf_counter()
            try:
                with tracer.op_span(i, f"{wl.name}.op") if tracer else contextlib.nullcontext():
                    result = wl.run_op(i, inp)
            except Exception as exc:  # a failed op is counted; the run goes on
                result, problems = None, [f"{type(exc).__name__}: {exc}"]
            latencies.append(time.perf_counter() - t0)
            if result is not None:
                try:
                    problems = wl.check(inp, corrupt(result) if corrupt else result)
                except Exception as exc:  # a check that cannot run is a failure
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            kinds.append(wl.kind(i))
            if problems:
                failures.append({"op": i, "kind": wl.kind(i), "problems": problems[:5]})
            i += 1
            # free this op's garbage (fields hold reference cycles) so that peak
            # RSS is one op's, not however many the collector let pile up
            gc.collect()
        cycle_walls.append(time.perf_counter() - cycle_start)
        if between is not None:
            paused = time.perf_counter()
            between()
            deadline += time.perf_counter() - paused
    return Phase(wl.cycle, latencies, kinds, failures, cycle_walls)


def tail(latencies: list) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples beyond.

    With too few samples it falls back to the maximum (percentile 100).
    """
    s = sorted(latencies)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def probe_setup(wl) -> float:
    """Set-up seconds of one fresh process (see setup_probe.py)."""
    import workloads

    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), wl.name, json.dumps(wl.params)],
        env=workloads.child_env(), stdin=subprocess.DEVNULL, capture_output=True,
        text=True, timeout=60, check=True)
    return float(proc.stdout.split()[-1])


def peak_rss_mb(scope: str) -> float:
    who = resource.RUSAGE_CHILDREN if scope == "children" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_commit():
    if not (ROOT / ".git").exists():
        return None  # the benchmark also runs from plain exported trees
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ffdist").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, phase: Phase, tail_percentile: float) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "ops": phase.attempted,
        "cycles": len(phase.cycle_walls),
        "cycle_length": phase.cycle,
        "tail_percentile": tail_percentile,
        "tail_samples": phase.attempted,
        "tail_samples_beyond": TAIL_BEYOND if phase.attempted > TAIL_BEYOND else 0,
    }


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def run_untraced(wl, args, corrupt) -> tuple[Phase, dict, dict]:
    wl.setup()
    setup: list[float] = []

    def probe() -> None:
        # probes are spread over the run, so one burst of load skews few of them
        if len(setup) < SETUP_PROBES:
            setup.append(probe_setup(wl))

    phase = measure(wl, args.seconds, corrupt=corrupt, between=probe)
    while len(setup) < SETUP_PROBES:
        probe()
    tail_s, tail_p = tail(phase.latencies)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": phase.ops_per_s,
        "op_p50_ms": statistics.median(phase.latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak_rss_mb(wl.rss_scope),
        "ok_ratio": (phase.attempted - phase.failed) / phase.attempted,
    }
    extra = {"provenance": provenance(args, phase, tail_p),
             "setup_samples_s": setup, "p50_ms_by_kind": phase.p50_ms_by_kind(),
             "cycle_walls_s": phase.cycle_walls, "latencies_s": phase.latencies}
    return phase, {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, extra


def run_traced(wl, args, corrupt) -> tuple[Phase, dict, dict]:
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.op_span("setup", f"{wl.name}.setup"):
            wl.setup()
    finally:
        tracer.uninstall()
    plain = measure(wl, args.seconds / 2, corrupt=corrupt)
    tracer.install()
    wl.tracer = tracer
    try:
        traced = measure(wl, args.seconds / 2, tracer, corrupt)
    finally:
        wl.tracer = None
        tracer.uninstall()

    selves = spans.self_times(tracer.spans)
    by_name = spans.summarize(tracer.spans, selves, lambda op: isinstance(op, int))
    values = spans.layer_metrics(
        tracer, by_name, traced.attempted,
        overhead_ratio=traced.ops_per_s / plain.ops_per_s,
        cmd_p50_ms=plain.p50_ms_by_kind() if wl.name == "cli" else {})
    _, tail_p = tail(traced.latencies)
    prov = provenance(args, traced, tail_p)
    trace_file = BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.json"
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({
            "provenance": prov,
            "metrics": values,
            "by_name": by_name,
            "setup_by_name": spans.summarize(tracer.spans, selves, lambda op: op == "setup"),
            "op_counts": {str(k): v for k, v in tracer.op_counts.items()},
            "columns": ["name", "start", "end", "parent", "op", "work", "self_s"],
            "spans": [[*s, self_s] for s, self_s in zip(tracer.spans, selves)],
        }, fh)
    extra = {"provenance": prov, "trace_file": str(trace_file.relative_to(ROOT)),
             "untraced_ops": plain.attempted, "untraced_failed": plain.failed}
    return traced, {k: (v, spans.LAYER_UNITS[k]) for k, v in values.items()}, extra


def main(argv=None, params=None, corrupt=None) -> int:
    """Run one workload and print its metrics; `params` and `corrupt` serve the self-tests."""
    parser = argparse.ArgumentParser(description="ffdist benchmark")
    parser.add_argument("--workload", required=True, choices=("battery", "cli", "fields"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ffdist" / "__init__.py").is_file():
        print(f"error: no ffdist source at {SRC}; run from the root of an ffdist checkout",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ffdist
    import workloads

    if not Path(ffdist.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported ffdist from {ffdist.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    (BENCH / "out").mkdir(exist_ok=True)
    wl = workloads.make(args.workload, args.seed, **(params or {}))
    try:
        run = run_traced if args.trace else run_untraced
        phase, metrics, extra = run(wl, args, corrupt)
    finally:
        wl.close()

    failed_ratio = phase.failed / phase.attempted
    prov = extra["provenance"]
    print(f"ffdist benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={phase.attempted} (cycles of {wl.cycle}) wall={phase.wall:.3f}s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value!r} {unit}")
    print(f"  {'failed_ratio':40s} {failed_ratio!r} 1 ({phase.failed} of {phase.attempted})")
    if not args.trace:
        print(f"  (op_tail_ms is p{prov['tail_percentile']:.2f} of {phase.attempted} samples)")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for failure in phase.failures[:10]:
        print(f"failed op {failure['op']} ({failure['kind']}): {failure['problems']}",
              file=sys.stderr)

    record = {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failed_ratio": failed_ratio,
        "failures": phase.failures,
        **extra,
    }
    result_file = BENCH / "out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
