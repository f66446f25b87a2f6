import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ffdist import gf, harness
from ffdist.gf import make_field
from ffdist.harness import (ExperimentConfig, build_parser, main, sample_set,
                            substream_id, threshold_sweep)


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestSampling:
    def test_substream_deterministic(self):
        assert substream_id(42, 0) == substream_id(42, 0)
        assert substream_id(42, 0) != substream_id(42, 1)
        assert substream_id(42, 0) != substream_id(43, 0)
        assert substream_id(42, 0, "xcheck") != substream_id(42, 0)

    def test_sample_reproducible(self):
        f = make_field(5)
        a = sample_set(f, 2, 7, seed=1, trial=0)
        b = sample_set(f, 2, 7, seed=1, trial=0)
        assert [x.idx for x in a] == [x.idx for x in b]
        c = sample_set(f, 2, 7, seed=1, trial=1)
        assert [x.idx for x in a] != [x.idx for x in c]

    def test_sample_full_space(self):
        f = make_field(3)
        E = sample_set(f, 2, 9, seed=0, trial=0)
        assert len(E) == 9

    def test_sample_too_large(self):
        f = make_field(3)
        with pytest.raises(ValueError):
            sample_set(f, 2, 10, seed=0, trial=0)

    def test_sample_negative_size_named(self):
        # one message gives the size and its range; size 0 stays allowed
        f = make_field(5)
        with pytest.raises(ValueError, match=r"^sample size -1 must lie in \[0, 25\]$"):
            sample_set(f, 2, -1, 0, 0)
        assert len(sample_set(f, 2, 0, 0, 0)) == 0


class TestConfig:
    def test_threshold_exponent(self):
        assert ExperimentConfig(d=3, k=1).threshold_exponent == 2
        assert ExperimentConfig(d=2, k=1).threshold_exponent == 1.5
        assert ExperimentConfig(d=2, k=2).threshold_exponent == 1.5
        assert ExperimentConfig(d=5, k=1).threshold_exponent == 4

    def test_threshold_size(self):
        cfg = ExperimentConfig(d=2, k=1, C=Fraction(2))
        assert cfg.threshold_size(7) == 38

    def test_auto_grid(self):
        cfg = ExperimentConfig(d=3, k=1, C=Fraction(4))
        assert cfg.resolve_sizes(5) == (25, 50, 100, 125)

    def test_explicit_grid_validated(self):
        cfg = ExperimentConfig(d=2, k=1, size_grid=(3, 9, 3))
        assert cfg.resolve_sizes(3) == (3, 9)
        bad = ExperimentConfig(d=2, k=1, size_grid=(10,))
        with pytest.raises(ValueError):
            bad.resolve_sizes(3)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ExperimentConfig(d=2, k=3)
        with pytest.raises(ValueError):
            ExperimentConfig(d=2, k=1, trials=0)

    @pytest.mark.parametrize("C", [Fraction(0), Fraction(-1)])
    def test_non_positive_C_refused(self, C):
        with pytest.raises(ValueError, match=r"^C must be > 0"):
            ExperimentConfig(d=2, k=1, C=C)


class TestSweep:
    def test_forced_sharpness_misses_everything(self):
        f = make_field(3)
        cfg = ExperimentConfig(d=3, k=1, seed=0, trials=2)
        records, summaries = threshold_sweep(f, cfg, force_sharpness=True)
        assert all(r["size"] == 9 for r in records)
        assert all(not r["full_coverage"] for r in records)
        assert all(r["missing_radii"] == [1, 2] for r in records)
        assert summaries == [{"size": 9, "trials": 2, "covered_trials": 0,
                              "coverage_fraction": 0.0}]

    def test_records_are_the_serialized_keys(self):
        f = make_field(3)
        cfg = ExperimentConfig(d=2, k=1, trials=1)
        records, _ = threshold_sweep(f, cfg)
        assert all(set(r) == {"q", "d", "k", "size", "trial", "substream",
                              "full_coverage", "missing_radii"} for r in records)

    def test_records_deterministic(self):
        f = make_field(5)
        cfg = ExperimentConfig(d=2, k=2, seed=11, trials=3)
        a = threshold_sweep(f, cfg)[0]
        b = threshold_sweep(f, cfg)[0]
        assert a == b

    @pytest.mark.parametrize("k,size_grid,force_sharpness", [
        (1, None, False),
        (2, (6, 3, 4, 3), False),
        (1, None, True),
    ])
    def test_summaries_regroup_the_records(self, k, size_grid, force_sharpness):
        # the summaries are counted as the trials run; they must equal the
        # records regrouped by size afterwards, in size order.  At k = 1 no
        # trial covers F_5 (radii 1 and 4 are never sums of two nonzero
        # squares); at k = 2 size 6 covers 16 of the 20 trials at seed 4
        f = make_field(5)
        cfg = ExperimentConfig(d=2, k=k, seed=4, trials=20, size_grid=size_grid)
        records, summaries = threshold_sweep(f, cfg, force_sharpness)
        regrouped = []
        for size in sorted({r["size"] for r in records}):
            hits = [r for r in records if r["size"] == size]
            covered = sum(1 for r in hits if r["full_coverage"])
            regrouped.append({"size": size, "trials": len(hits),
                              "covered_trials": covered,
                              "coverage_fraction": covered / len(hits)})
        assert summaries == regrouped
        assert [r["size"] for r in records] == sorted(r["size"] for r in records)


class TestCli:
    def test_verify_identities_json(self, capsys):
        code, out = run_cli(["verify-identities", "--q", "3"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert payload["field"]["q"] == 3

    def test_verify_identities_csv(self, capsys):
        code, out = run_cli(["verify-identities", "--q", "9", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "q,p,s,d,k,t,size,trial,metric,value"
        assert all(line.startswith("9,3,2,") for line in lines[1:])

    def test_sphere_ft_both(self, capsys):
        code, out = run_cli(["sphere-ft", "--q", "3", "--d", "2", "--k", "2",
                             "--t", "1"], capsys)
        assert code == 0
        assert json.loads(out)["all_equal"] is True

    def test_sphere_ft_single_m(self, capsys):
        code, out = run_cli(["sphere-ft", "--q", "5", "--d", "2", "--k", "1",
                             "--t", "2", "--m", "1,3", "--mode", "closed"], capsys)
        assert code == 0
        assert len(json.loads(out)["records"]) == 1

    def test_distance_set(self, capsys):
        code, out = run_cli(["distance-set", "--q", "5", "--d", "2", "--k", "2",
                             "--size", "12", "--seed", "3"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 12
        assert set(payload["distances"]) <= set(range(5))

    def test_nu(self, capsys):
        code, out = run_cli(["nu", "--q", "3", "--d", "2", "--k", "1",
                             "--size", "4", "--seed", "7"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["all_equal"] is True
        assert len(payload["records"]) == 3

    def test_bounds(self, capsys):
        code, out = run_cli(["bounds", "--q", "5", "--d", "2", "--k", "1",
                             "--size", "6", "--t", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["b_m2_zero"] is True
        assert payload["a_bound_ok"] is True

    def test_sharpness(self, capsys):
        code, out = run_cli(["sharpness", "--q", "3", "--d", "3", "--k", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 9
        assert payload["distances"] == [0]

    def test_threshold_sweep_sharpness(self, capsys):
        code, out = run_cli(["threshold-sweep", "--q", "3", "--d", "2", "--k", "1",
                             "--trials", "2", "--use-sharpness"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert all(r["missing_radii"] == [1, 2] for r in payload["records"])
        assert payload["summary"][0]["coverage_fraction"] == 0.0

    @pytest.mark.parametrize("argv,sizes", [
        (["--sizes", "4,2,4", "--trials", "2"], [2, 4]),
        (["--use-sharpness"], [3]),
    ])
    def test_threshold_sweep_reports_the_swept_sizes(self, argv, sizes, capsys):
        code, out = run_cli(["threshold-sweep", "--q", "3", "--d", "2", "--k", "1"] + argv,
                            capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["sizes"] == sizes
        assert [summ["size"] for summ in payload["summary"]] == sizes

    @pytest.mark.parametrize("argv,code", [
        (["sharpness", "--q", "3", "--d", "2", "--k", "1"], 0),
        (["verify-identities", "--q", "12"], 2),
        (["verify-identities", "--q", "3", "--cap", "5"], 2),
    ])
    def test_python_m_ffdist(self, argv, code, capsys):
        # python -m ffdist runs main once, without the double-import warning
        # that python -m ffdist.harness prints
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-m", "ffdist", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == code
        if code == 0:
            assert proc.stderr == ""
            assert proc.stdout == run_cli(argv, capsys)[1]
        else:
            assert proc.stdout == ""
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["verify-identities", "--q", "9", "--p", "3"],
        ["verify-identities", "--q", "9", "--s", "2"],
        ["sharpness", "--p", "3", "--s", "2", "--d", "2", "--k", "1"],
    ])
    def test_p_s_flags_refused(self, argv, capsys):
        # --q is the one field flag
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["verify-identities", "--q", "12"],
        ["verify-identities"],
        ["sphere-ft", "--q", "3", "--d", "2", "--k", "2"],
        ["sphere-ft", "--q", "3", "--d", "2", "--k", "2", "--t", "0",
         "--mode", "closed"],
        ["sphere-ft", "--q", "3", "--d", "2", "--k", "2", "--t", "0"],
        ["nu", "--q", "3", "--d", "2", "--k", "3", "--size", "4"],
        ["nu", "--q", "3", "--d", "2", "--k", "1"],
        ["bounds", "--q", "3", "--d", "2", "--k", "1", "--size", "4", "--t", "0"],
        ["distance-set", "--q", "3", "--d", "2", "--k", "1", "--size", "99"],
        ["sphere-ft", "--q", "3", "--d", "2", "--k", "2", "--t", "1", "--m", "1,2,0"],
    ])
    def test_invalid_parameters_exit_2(self, argv, capsys):
        code, _ = run_cli(argv, capsys)
        assert code == 2

    @pytest.mark.parametrize("mode", [[], ["--mode", "closed"]])
    def test_sphere_ft_t_zero_names_brute_mode(self, mode, capsys, monkeypatch):
        # the closed form needs t != 0: refused before any transform, in one
        # line that names the mode which works
        def unreachable(*args, **kwargs):
            raise AssertionError("sphere_ft called")
        monkeypatch.setattr(harness, "sphere_ft", unreachable)
        code = main(["sphere-ft", "--q", "3", "--d", "2", "--k", "2", "--t", "0", *mode])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "--mode brute" in captured.err
        assert "mode='brute'" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["verify-identities", "--q", "3", "--cap", "5"],
        ["verify-identities", "--q", "x"],
        ["sphere-ft", "--q", "3", "--d", "2", "--k", "1", "--t", "1",
         "--mode", "sideways"],
        [],
    ])
    def test_usage_error_one_line(self, argv, capsys):
        # argparse's errors are returned as exit 2 with one line, not raised
        # as SystemExit after a usage block
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv,config", [
        (["--C", "0"], None),
        (["--C", "-1"], None),
        ([], {"C": "0"}),
    ])
    def test_non_positive_C_names_C(self, argv, config, tmp_path, capsys):
        # a size grid from C <= 0 would hold 0 or a negative sample size
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = ["--config", str(cfg)]
        code = main(["threshold-sweep", "--q", "5", "--d", "2", "--k", "1",
                     "--trials", "1", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: C must be > 0")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv,flag,text", [
        (["threshold-sweep", "--C", "1/0"], "--C", "1/0"),
        (["threshold-sweep", "--C", "abc"], "--C", "abc"),
        (["threshold-sweep", "--sizes", "1,,2"], "--sizes", "1,,2"),
        (["sphere-ft", "--t", "1", "--m", "1,x"], "--m", "1,x"),
    ])
    def test_unreadable_flag_names_itself(self, argv, flag, text, capsys):
        # Fraction's and int()'s own messages name neither the flag nor
        # always the text (Fraction(1, 0) reports "Fraction(1, 0)")
        code = main([*argv[:1], "--q", "5", "--d", "2", "--k", "1", *argv[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} ")
        assert repr(text) in captured.err
        assert captured.err.count("\n") == 1

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["sharpness", "--q", "3", "--d", "2", "--k", "1",
                     "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["size"] == 3


    def test_out_dir_missing_exit_2(self, tmp_path, capsys):
        target = tmp_path / "nodir" / "x.json"
        code = main(["sharpness", "--q", "3", "--d", "2", "--k", "1",
                     "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert not target.exists()


class TestOutOfRange:
    """Sizes past a cap end in exit 2 and one error line, checked before any
    work that grows with the size."""

    @pytest.mark.parametrize("argv", [
        ["threshold-sweep", "--q", "5", "--d", "1000", "--k", "1"],
        ["threshold-sweep", "--q", "5", "--d", "1000", "--k", "999", "--use-sharpness"],
        ["threshold-sweep", "--q", "5", "--d", "2", "--k", "1", "--C", "1e400"],
        ["verify-identities", "--q", "10000000000000061"],
        ["verify-identities", "--q", str(10000000000000061**2)],
        ["verify-identities", "--q", str(3**7)],
        ["verify-identities", "--q", str(3**40)],
        ["verify-identities", "--q", "1"],
    ])
    def test_exit_2_one_line(self, argv, monkeypatch, capsys):
        # a field past the size cap is refused before any primality test
        # (gf's tests check the same of make_field and Field)
        seen = []
        real = gf.check_odd_prime
        monkeypatch.setattr(gf, "check_odd_prime", lambda p: seen.append(p) or real(p))
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert all(p <= 2048 for p in seen)

    @pytest.mark.parametrize("argv", [
        ["nu", "--q", "3", "--d", "3000000", "--k", "1", "--size", "1"],
        ["sphere-ft", "--q", "3", "--d", "3000000", "--k", "1", "--t", "1"],
        ["distance-set", "--q", "3", "--d", "3000000", "--k", "1", "--size", "1"],
        ["sharpness", "--q", "3", "--d", "3000000", "--k", "1"],
        ["threshold-sweep", "--q", "3", "--d", "3000000", "--k", "1",
         "--use-sharpness"],
        ["nu", "--q", "3", "--d", "-1", "--k", "1", "--size", "0"],
        ["distance-set", "--q", "3", "--d", "-1", "--k", "1", "--size", "0"],
    ])
    def test_dimension_refused_before_q_to_the_d(self, argv, capsys):
        # a huge or negative d is refused before q**d is formed, with a
        # message naming the cap or the dimension (not a 4300-digit limit
        # or a float passed to range)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "enumeration cap" in captured.err or "dimension" in captured.err

    def test_sweep_names_the_cap(self, capsys):
        assert main(["threshold-sweep", "--q", "5", "--d", "1000", "--k", "1"]) == 2
        assert capsys.readouterr().err == \
            "error: q^d = 5^1000 exceeds enumeration cap 1000000\n"

    def test_sharpness_runs_past_the_enumeration_cap(self, capsys):
        # the forced example has q^(d-k) points, so q^d may exceed the cap
        code, out = run_cli(["threshold-sweep", "--q", "5", "--d", "10", "--k", "9",
                             "--use-sharpness"], capsys)
        assert code == 0
        assert json.loads(out)["records"][0]["missing_radii"] == [1, 2, 3, 4]

class TestConfigFile:
    def test_missing_config_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code = main(["verify-identities", "--q", "3", "--config", str(missing)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_deeply_nested_config_exit_2(self, tmp_path, capsys):
        # written as raw text: json.dumps recurses at this depth too
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 200_000 + "]" * 200_000)
        code = main(["verify-identities", "--q", "3", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_array_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text(json.dumps([{"q": 3}]))
        assert main(["verify-identities", "--q", "3", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --config must contain a JSON object\n"

    def test_config_supplies_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q": 3, "d": 2, "k": 1, "size": 4, "seed": 5}))
        code, out = run_cli(["nu", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["field"]["q"] == 3

    def test_explicit_flag_wins(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q": 3, "d": 2, "k": 1}))
        code, out = run_cli(["sharpness", "--config", str(cfg), "--q", "5"], capsys)
        assert code == 0
        assert json.loads(out)["field"]["q"] == 5

    def test_explicit_format_wins(self, tmp_path, capsys):
        cfg = tmp_path / "f.json"
        cfg.write_text(json.dumps({"format": "json"}))
        code, out = run_cli(["verify-identities", "--q", "3", "--format", "csv",
                             "--config", str(cfg)], capsys)
        assert code == 0
        assert out.startswith("q,p,s,d,k,t,size,trial,metric,value")

    def test_abbreviated_flag_wins(self, tmp_path, capsys):
        cfg = tmp_path / "t.json"
        cfg.write_text(json.dumps({"trials": 1}))
        code, out = run_cli(["threshold-sweep", "--q", "3", "--d", "2", "--k", "1",
                             "--tri", "3", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["config"]["trials"] == 3

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q": 3, "bogus": 1}))
        code, _ = run_cli(["verify-identities", "--config", str(cfg)], capsys)
        assert code == 2

    def test_p_field_refused(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 3}))
        assert main(["verify-identities", "--q", "9", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown config field 'p'\n"

    def test_q_required_after_config(self, tmp_path, capsys):
        # the config may supply q, like d and k; without it the run stops
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": 2, "k": 1}))
        assert main(["sharpness", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --q is required for this subcommand\n"
        cfg.write_text(json.dumps({"q": 9, "d": 2, "k": 1}))
        code, out = run_cli(["sharpness", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["field"] == {"q": 9, "p": 3, "s": 2, "d": 2, "k": 1,
                                            "modulus": [1, 0, 1]}

    @pytest.mark.parametrize("overrides", [
        {"d": "2", "k": 1, "size": 3},
        {"d": 2, "k": True, "size": 3},
        {"d": 2, "k": 1, "size": 3.0},
        {"d": 2, "k": 1, "size": 3, "format": "xml"},
        {"d": 2, "k": 1, "size": 3, "use-sharpness": 1},
        {"d": 2, "k": 1, "size": 3, "func": "x"},
    ])
    def test_mistyped_field_rejected(self, overrides, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        code = main(["distance-set", "--q", "5", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_format_alias(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q": 3, "format": "csv"}))
        code, out = run_cli(["verify-identities", "--config", str(cfg)], capsys)
        assert code == 0
        assert out.startswith("q,p,s,d,k,t,size,trial,metric,value")


class TestSeedFlag:
    """--seed belongs to the four subcommands that read it."""

    UNSEEDED = [
        ["verify-identities", "--q", "3"],
        ["sphere-ft", "--q", "3", "--d", "2", "--k", "1", "--t", "1"],
        ["sharpness", "--q", "3", "--d", "2", "--k", "1"],
    ]
    SEEDED = [
        ["distance-set", "--q", "5", "--d", "2", "--k", "1", "--size", "8"],
        ["nu", "--q", "3", "--d", "2", "--k", "2", "--size", "5"],
        ["bounds", "--q", "5", "--d", "2", "--k", "2", "--size", "6", "--t", "2"],
        ["threshold-sweep", "--q", "3", "--d", "2", "--k", "1", "--trials", "3"],
    ]

    @pytest.mark.parametrize("argv", UNSEEDED)
    def test_seed_flag_refused(self, argv, capsys):
        assert main(argv + ["--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", UNSEEDED)
    def test_seed_config_field_refused(self, argv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1}))
        assert main(argv + ["--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown config field 'seed'\n"

    @pytest.mark.parametrize("argv", SEEDED)
    def test_seed_read_from_argv_and_config(self, argv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7}))
        code, out = run_cli(argv + ["--seed", "7"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload.get("seed", payload.get("config", {}).get("seed")) == 7
        assert run_cli(argv + ["--config", str(cfg)], capsys) == (code, out)
        assert run_cli(argv, capsys)[1] != out


class TestCrossCheck:
    # at seed 3 the 5% spectral cross-check fires on the one trial of size 4
    ARGV = ["threshold-sweep", "--q", "3", "--d", "2", "--k", "1",
            "--sizes", "4", "--trials", "1", "--seed", "3"]

    def test_agreement_exits_0(self, monkeypatch, capsys):
        calls = []
        real = harness.nu_spectral

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "nu_spectral", counted)
        code, _ = run_cli(self.ARGV, capsys)
        assert code == 0
        assert len(calls) == 3

    def test_mismatch_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(harness, "nu_spectral", lambda *args, **kwargs: Fraction(0))
        code = main(self.ARGV)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: spectral/direct coverage mismatch at t=0: nu=0\n"


class TestSharpnessChecks:
    """Every sharpness trial checks D_k(E) = {0}; the 5% spectral draw is made
    only where q^d <= cap, so past the cap the exit code does not depend on
    the trial count."""

    PAST_CAP = ["threshold-sweep", "--q", "5", "--d", "10", "--k", "9",
                "--use-sharpness"]

    @pytest.mark.parametrize("trials", [1, 2, 3, 4])
    def test_past_the_cap_any_trial_count(self, trials, monkeypatch, capsys):
        drawn = []
        monkeypatch.setattr(harness, "_cross_check_coverage",
                            lambda *args: drawn.append(args))
        code, out = run_cli(self.PAST_CAP + ["--trials", str(trials)], capsys)
        assert code == 0
        assert len(json.loads(out)["records"]) == trials
        assert drawn == []

    @pytest.mark.parametrize("argv", [
        PAST_CAP + ["--trials", "3"],
        ["threshold-sweep", "--q", "3", "--d", "2", "--k", "1", "--use-sharpness"],
    ])
    def test_wrong_distance_set_exits_1(self, argv, monkeypatch, capsys):
        # the sweep reaches the pair loop through harness's own binding
        monkeypatch.setattr(harness, "_distance_indices", lambda E, k: {0, 1})
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: sharpness example has distances [0, 1], not [0]\n"


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["verify-identities", "--q", "5"],
        ["sphere-ft", "--q", "3", "--d", "2", "--k", "2", "--t", "1"],
        ["distance-set", "--q", "5", "--d", "2", "--k", "1", "--size", "8",
         "--seed", "3"],
        ["nu", "--q", "3", "--d", "2", "--k", "2", "--size", "5", "--seed", "1"],
        ["bounds", "--q", "5", "--d", "2", "--k", "2", "--size", "6",
         "--seed", "2", "--t", "2"],
        ["sharpness", "--q", "3", "--d", "2", "--k", "1"],
        ["threshold-sweep", "--q", "3", "--d", "2", "--k", "1", "--trials", "3",
         "--seed", "9"],
    ])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_byte_identical_reruns(self, argv, fmt, capsys):
        first = run_cli(argv + ["--format", fmt], capsys)
        second = run_cli(argv + ["--format", fmt], capsys)
        assert first == second
        assert first[0] == 0
