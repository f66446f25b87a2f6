"""Self-tests for the benchmark, at tiny sizes.

Run from the root of the checkout:  python3 -m pytest perfbench -q
"""

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = ("battery", "cli", "fields")

TINY_CLI = [
    ["verify-identities", "--q", "3"],
    ["sphere-ft", "--q", "3", "--d", "2", "--k", "1", "--t", "1"],
    ["distance-set", "--q", "3", "--d", "2", "--k", "1", "--use-sharpness"],
    ["nu", "--q", "3", "--d", "2", "--k", "1", "--size", "4"],
    ["bounds", "--q", "3", "--d", "2", "--k", "1", "--size", "4", "--t", "1"],
    ["sharpness", "--q", "3", "--d", "2", "--k", "1"],
    ["threshold-sweep", "--q", "3", "--d", "2", "--k", "1", "--trials", "2"],
]
TINY = {
    "battery": {"q": 3, "d": 2},
    "cli": {"commands": TINY_CLI, "golden": {}},
    "fields": {"orders": [9, 11], "sums": 5},
}


def run_tiny(capsys, name, trace=0, params=None, corrupt=None):
    argv = ["--workload", name, "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    code = run.main(argv, params=params or TINY[name], corrupt=corrupt)
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    return lines[:-1], json.loads(lines[-1])


def printed(lines):
    """metric name -> unit, from the human-readable lines."""
    return {p[0]: p[2] for p in (line.split() for line in lines) if len(p) >= 3}


def tiny_cli_golden():
    cli = workloads.Cli(0, TINY_CLI, golden={})
    cli.setup()
    try:
        return {" ".join(argv): hashlib.sha256(cli.run_op(i, argv).output).hexdigest()
                for i, argv in ((i, cli.make_input(i)) for i in range(cli.cycle))}
    finally:
        cli.close()


@pytest.mark.parametrize("name", NAMES)
def test_prints_every_end_to_end_metric_with_its_unit(capsys, name):
    lines, result = run_tiny(capsys, name)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == workloads.make(name, 0, **TINY[name]).cycle
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    shown = printed(lines)
    assert {k: shown[k] for k in want} == want
    assert shown["failed_ratio"] == "1"


def _off_by_one(per_k):
    direct, spectral, reports = per_k[1]
    return {**per_k, 1: (direct, {**spectral, 0: spectral[0] + 1}, reports)}


CORRUPT = {
    "battery": _off_by_one,
    "cli": lambda r: dataclasses.replace(r, returncode=1),
    "fields": lambda r: dataclasses.replace(r, gauss=[r.gauss[0] + 1] + r.gauss[1:]),
}


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_results_count_as_failed(capsys, name):
    lines, result = run_tiny(capsys, name, corrupt=CORRUPT[name])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["ok_ratio"]["value"] == 0
    assert any(line.split()[:2] == ["failed_ratio", "1.0"] for line in lines)


def test_cli_verdicts_are_checked(capsys):
    flip = lambda r: dataclasses.replace(r, output=r.output.replace(b"true", b"false"))
    _, result = run_tiny(capsys, "cli", corrupt=flip)
    # every subcommand that prints a verdict field fails
    assert result["failed"] == sum(1 for v in workloads.VERDICTS.values() if v)


def test_cli_golden_digests_are_checked(capsys):
    params = {"commands": TINY_CLI, "golden": tiny_cli_golden()}
    _, clean = run_tiny(capsys, "cli", params=params)
    assert clean["failed"] == 0
    pad = lambda r: dataclasses.replace(r, output=r.output + b"\n")
    _, result = run_tiny(capsys, "cli", params=params, corrupt=pad)
    assert result["failed"] == result["attempted"]


def test_golden_file_covers_default_commands():
    golden = json.loads(workloads.GOLDEN.read_text(encoding="utf-8"))
    cli = workloads.Cli(golden["seed"])
    keys = {" ".join(cli.make_input(i)) for i in range(golden["cycles"] * cli.cycle)}
    assert golden["seed"] == workloads.DEFAULT_SEED
    assert set(golden["digests"]) == keys


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_metric(capsys, name):
    lines, result = run_tiny(capsys, name, trace=1)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert printed(lines).items() >= want.items()
    trace = json.loads((BENCH / "out" / f"trace-{name}-seed0.json").read_text(encoding="utf-8"))
    assert trace["spans"] and all(len(s) == len(trace["columns"]) for s in trace["spans"])
    assert f"{name}.op" in trace["by_name"]


def test_trace_reaches_calls_between_layers(capsys):
    _, result = run_tiny(capsys, "cli", trace=1)
    m = result["metrics"]
    # the cli process calls only harness.main; every other layer is reached from inside it
    for key in ("distance.direct_s", "geometry.sphere_ft_calls", "fourier.dots",
                "characters.identity_checks_s", "harness.process_start_s",
                "cyclotomic.values_built"):
        assert m[key]["value"] > 0, key


def test_self_time_subtracts_children():
    tree = [["a", 0.0, 10.0, None, 0, None], ["b", 1.0, 4.0, 0, 0, None],
            ["c", 5.0, 6.0, 0, 0, None], ["d", 2.0, 3.0, 1, 0, None]]
    assert spans.self_times(tree) == [6.0, 2.0, 1.0, 1.0]


def test_tail_keeps_ten_samples_beyond():
    values = [float(i) for i in range(30)]
    assert run.tail(values) == (19.0, 100.0 * 20 / 30)
    assert run.tail(values[:5]) == (4.0, 100.0)


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "battery", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
