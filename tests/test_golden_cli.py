"""The CLI output, pinned byte for byte at seed 0.

For each of the benchmark's seven cli commands, the SHA-256 of its --out
file must equal a recorded digest: JSON digests from
perfbench/golden_cli.json (read only here), CSV digests from
golden_cli_csv.json next to this file.  stdout carries the same bytes as
the file.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ffdist import harness
from ffdist.harness import main

HERE = Path(__file__).resolve().parent


def _digests(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["digests"]


JSON_DIGESTS = _digests(HERE.parent / "perfbench" / "golden_cli.json")
CSV_DIGESTS = _digests(HERE / "golden_cli_csv.json")


def test_seven_commands():
    assert len(CSV_DIGESTS) == 7
    assert len({command.split()[0] for command in CSV_DIGESTS}) == 7
    assert set(CSV_DIGESTS) <= set(JSON_DIGESTS)


@pytest.mark.parametrize("command", sorted(CSV_DIGESTS))
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_output_matches_golden_digest(command, fmt, tmp_path, monkeypatch):
    if fmt == "json":  # a JSON run builds no CSV row
        def unreachable(*args, **kwargs):
            raise AssertionError("harness._row called in a JSON run")
        monkeypatch.setattr(harness, "_row", unreachable)
    out = tmp_path / "out"
    argv = command.split() + (["--format", "csv"] if fmt == "csv" else [])
    assert main(argv + ["--out", str(out)]) == 0
    want = (CSV_DIGESTS if fmt == "csv" else JSON_DIGESTS)[command]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


@pytest.mark.parametrize("command", sorted(CSV_DIGESTS))
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_stdout_matches_out_file(command, fmt, tmp_path, capsys):
    # one writer serves both destinations
    out = tmp_path / "out"
    argv = command.split() + ["--format", fmt]
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()
