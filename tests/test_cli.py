import contextlib
import csv
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import randode
from randode import DomainError, cli, noise
from randode.cli import main


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture()
def refargs(ref_B_cache, ref_B):
    # reuse the session-built reference so CLI runs never rebuild it
    return ["--ref-cache", str(ref_B_cache), "--ref-steps", "2000000"]


class TestSolve:
    def test_trajectory_csv_shape(self, tmp_path):
        rc = run_cli("solve", "--problem", "A", "--scheme", "ee", "--n", "10",
                     "--noise", "exact", "--seed", "7", "--out", str(tmp_path))
        assert rc == 0
        rows = read_csv(tmp_path / "trajectory.csv")
        assert len(rows) == 12  # header + 11 knots
        assert float(rows[1][1]) == 1.0

    def test_invalid_scheme_exits_2(self, tmp_path, capsys):
        rc = run_cli("solve", "--problem", "A", "--scheme", "nope", "--out", str(tmp_path))
        assert rc == 2
        assert "unknown scheme" in capsys.readouterr().err

    def test_invalid_problem_exits_2(self, tmp_path):
        assert run_cli("solve", "--problem", "Q", "--out", str(tmp_path)) == 2

    def test_dense_output(self, tmp_path):
        rc = run_cli("solve", "--problem", "A", "--n", "4", "--dense", "33",
                     "--out", str(tmp_path))
        assert rc == 0
        assert len(read_csv(tmp_path / "trajectory_dense.csv")) == 34

    def test_manifest_written(self, tmp_path):
        run_cli("solve", "--problem", "A", "--n", "5", "--out", str(tmp_path))
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["command"] == "solve"
        assert "trajectory.csv" in doc["outputs"]

    def test_implicit_scheme(self, tmp_path):
        rc = run_cli("solve", "--problem", "A", "--scheme", "ie", "--n", "10",
                     "--out", str(tmp_path))
        assert rc == 0
        rows = read_csv(tmp_path / "trajectory.csv")
        assert len(rows) == 12

    def test_reference_flags_not_offered(self, tmp_path, capsys):
        # solve never builds a reference, so it has no flag for one
        with pytest.raises(SystemExit) as info:
            run_cli("solve", "--problem", "A", "--ref-steps", "10", "--out", str(tmp_path))
        assert info.value.code == 2
        assert "--ref-steps" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_implicit_scheme_rejects_fresh_noise(self, tmp_path, capsys):
        rc = run_cli("solve", "--problem", "A", "--scheme", "ie", "--noise", "ee",
                     "--delta", "1e-3", "--n", "10", "--out", str(tmp_path))
        assert rc == 2
        assert "implicit Euler needs exact or ie noise" in capsys.readouterr().err


class TestTable:
    def test_small_table_values_and_rerun_determinism(self, tmp_path):
        args = ["table", "--problem", "A", "--scheme", "ee",
                "--n-list", "10 20", "--delta-rules", "0 n^-1",
                "--N", "2000", "--seed", "5", "--epsilon", "0.05"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli(*args, "--out", str(out2)) == 0
        t1 = (out1 / "table_ee_A.csv").read_bytes()
        t2 = (out2 / "table_ee_A.csv").read_bytes()
        assert t1 == t2
        rows = read_csv(out1 / "table_ee_A.csv")
        assert rows[0] == ["n", "delta=0", "delta=n^-1"]
        # coarse check against the published magnitudes at this cell
        assert float(rows[1][1]) == pytest.approx(2.29, abs=0.15)
        assert float(rows[1][2]) > float(rows[1][1])

        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["outputs"] == m2["outputs"]

    def test_equal_delta_columns_tie_exactly(self, tmp_path):
        # at n = 500 the rule n^-1 equals the literal 2e-3: the cells share
        # draws by construction and must coincide bitwise
        rc = run_cli("table", "--problem", "A", "--scheme", "ee",
                     "--n-list", "500", "--delta-rules", "n^-1 2e-3",
                     "--N", "400", "--seed", "3", "--out", str(tmp_path))
        assert rc == 0
        rows = read_csv(tmp_path / "table_ee_A.csv")
        assert rows[1][1] == rows[1][2]

    def test_delta_rule_evaluation(self, tmp_path):
        assert math.isclose(10.0 ** -1.1, float(10) ** -1.1)
        rc = run_cli("table", "--problem", "A", "--scheme", "ee", "--n-list", "10",
                     "--delta-rules", "n^-1.1", "--N", "200", "--seed", "1",
                     "--out", str(tmp_path))
        assert rc == 0
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["config"]["delta_rules"] == ["n^-1.1"]

    def test_small_N_rejected(self, tmp_path):
        rc = run_cli("table", "--problem", "A", "--n-list", "10",
                     "--delta-rules", "0", "--N", "50", "--out", str(tmp_path))
        assert rc == 2

    def test_failed_cell_marked_NA_and_exit_1(self, tmp_path, refargs, capsys):
        # implicit Euler on B violates its contraction margin at n=10
        # (h * L = 5); the row must carry NA while n=100 still computes
        rc = run_cli("table", "--problem", "B", "--scheme", "ie",
                     "--n-list", "10 100", "--delta-rules", "0", "--N", "200",
                     "--seed", "5", "--out", str(tmp_path), *refargs)
        assert rc == 1
        rows = read_csv(tmp_path / "table_ie_B.csv")
        assert rows[1] == ["10", "NA"]
        assert rows[2][0] == "100" and float(rows[2][1]) > 0.0
        assert "contraction margin" in capsys.readouterr().err

    def test_implicit_euler_fresh_noise_cell_is_NA(self, tmp_path, capsys):
        rc = run_cli("table", "--problem", "A", "--scheme", "ie", "--noise", "ee",
                     "--n-list", "10", "--delta-rules", "0 1e-3", "--N", "100",
                     "--out", str(tmp_path))
        assert rc == 1
        rows = read_csv(tmp_path / "table_ie_A.csv")
        assert rows[1][0] == "10" and float(rows[1][1]) > 0.0 and rows[1][2] == "NA"
        assert ("cell (n=10, delta=1e-3) failed: implicit Euler needs exact or ie noise, "
                "not fresh ee") in capsys.readouterr().err

    def test_manifest_records_each_cell(self, tmp_path):
        # the fresh-noise cell is refused and the delta 0 cell computes; the
        # NA cell's reason is in the manifest, not only on stderr
        rc = run_cli("table", "--problem", "A", "--scheme", "ie", "--noise", "ee",
                     "--n-list", "10 20", "--delta-rules", "0 1e-3", "--N", "100",
                     "--out", str(tmp_path / "ie"))
        assert rc == 1
        cells = json.loads((tmp_path / "ie" / "manifest.json").read_text())["cells"]
        reason = "implicit Euler needs exact or ie noise, not fresh ee"
        assert cells == [
            {"n": n, "N": 100, "delta": label, "na_reason": na}
            for n in (10, 20) for label, na in (("0", None), ("1e-3", reason))]
        # a row without a failure
        assert run_cli("table", "--problem", "A", "--scheme", "ee", "--n-list", "10",
                       "--delta-rules", "0 1e-3", "--N", "100",
                       "--out", str(tmp_path / "ee")) == 0
        cells = json.loads((tmp_path / "ee" / "manifest.json").read_text())["cells"]
        assert [c["na_reason"] for c in cells] == [None] * 2

    def test_each_row_checks_and_records_its_own_N(self, tmp_path, monkeypatch, capsys):
        # no --N: 1e5 replications below n = 1000 and 1e4 from there, each row's N
        # warned about against 10/epsilon and recorded with the row's cells
        seen = []

        def no_run(problem, reference, scheme, rows, **kwargs):
            for n, noises, N, _ in rows:
                seen.append((n, N))
                yield [DomainError("not run")] * len(noises)

        monkeypatch.setattr(cli, "run_rows", no_run)
        assert run_cli("table", "--problem", "A", "--n-list", "10 20 1000", "--delta-rules",
                       "0", "--epsilon", "1e-6", "--out", str(tmp_path)) == 1
        assert seen == [(10, 100_000), (20, 100_000), (1000, 10_000)]
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert len(warnings) == 2
        assert "N = 100000 is below" in warnings[0] and "N = 10000 is below" in warnings[1]
        cells = json.loads((tmp_path / "manifest.json").read_text())["cells"]
        assert [(c["n"], c["N"]) for c in cells] == seen

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\n"
            "problem = A\n"
            "scheme = ee\n"
            "n_list = 10\n"
            "delta_rules = 0\n"
            "N = 200\n"
            "seed = 9\n"
            f"out = {tmp_path / 'cfg_out'}\n")
        assert run_cli("--config", str(cfg), "table") == 0
        assert (tmp_path / "cfg_out" / "table_ee_A.csv").exists()
        doc = json.loads((tmp_path / "cfg_out" / "manifest.json").read_text())
        assert doc["config"]["N"] == 200
        # flag overrides the config seed: different draws, same shape
        assert run_cli("--config", str(cfg), "table", "--seed", "10",
                       "--out", str(tmp_path / "cfg_out2")) == 0
        a = read_csv(tmp_path / "cfg_out" / "table_ee_A.csv")
        b = read_csv(tmp_path / "cfg_out2" / "table_ee_A.csv")
        assert a[0] == b[0] and a[1][1] != b[1][1]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[experiment]\nproblem = A\nreplications = 200\n")
        assert run_cli("--config", str(cfg), "table", "--out", str(tmp_path)) == 2
        assert "replications" in capsys.readouterr().err
        # a key that only another command reads is not silently ignored either
        cfg.write_text("[experiment]\nproblem = A\nxi = 3\n")
        assert run_cli("--config", str(cfg), "table", "--out", str(tmp_path)) == 2
        assert "xi" in capsys.readouterr().err
        # a value its flag would refuse, even where delta 0 would make it exact
        cfg.write_text("[experiment]\nnoise = fresh\n")
        assert run_cli("--config", str(cfg), "solve", "--out", str(tmp_path)) == 2
        assert "noise = 'fresh'" in capsys.readouterr().err
        # and a value outside its setting's range, as its flag would be
        cfg.write_text("[experiment]\nn = 10\nN = 100\nxi_max = nan\n")
        assert run_cli("--config", str(cfg), "tail", "--out", str(tmp_path / "o")) == 2
        assert "--xi-max must be finite and >= 0, got nan" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("keys", [("seed = 1", "master_seed = 2"),
                                      ("n_list = 10", "n-list = 20"),
                                      ("seed = 1", "seed = 2")],
                             ids=["alias", "dash", "repeated"])
    def test_one_setting_twice_rejected(self, tmp_path, capsys, keys):
        cfg = tmp_path / "exp.ini"
        body = "\n".join(("[experiment]", "delta_rules = 0", "N = 100") + keys)
        cfg.write_text(body + "\n")
        out = tmp_path / "out"
        assert run_cli("--config", str(cfg), "table", "--n-list", "10",
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and keys[1].split()[0] in err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        assert run_cli("--config", str(tmp_path / "nope.ini"), "table") == 2

    @pytest.mark.parametrize("body", [None, "[experiments]\nseed = 7\n",
                                      "[experiment]\nseed = 7\n[extra]\nN = 200\n"],
                             ids=["directory", "misspelt-section", "second-section"])
    def test_unread_config_rejected(self, tmp_path, capsys, body):
        # a directory, or values under a section no command reads, are not silently ignored
        cfg = tmp_path / "exp.ini"
        if body is None:
            cfg.mkdir()
        else:
            cfg.write_text(body)
        out = tmp_path / "out"
        assert run_cli("--config", str(cfg), "solve", "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_default_section_config(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[DEFAULT]\nseed = 7\n")
        assert run_cli("--config", str(cfg), "solve", "--out", str(tmp_path / "out")) == 0
        doc = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert doc["config"]["seed"] == 7

    def test_config_long_key_aliases(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\n"
            "problem = A\n"
            "n_list = 10\n"
            "delta_rules = 0\n"
            "N = 200\n"
            "master_seed = 11\n"
            "subsamples_per_step = 4\n"
            f"output_dir = {tmp_path / 'aliased'}\n")
        assert run_cli("--config", str(cfg), "table") == 0
        doc = json.loads((tmp_path / "aliased" / "manifest.json").read_text())
        assert doc["config"]["seed"] == 11
        assert doc["config"]["subsamples"] == 4


# every setting each command reads, with a config value and a different flag
# value for it, each written so that str() of the converted value gives it back
READS = {
    "solve": "problem scheme n noise delta seed out dense",
    "table": "problem scheme n_list noise delta_rules epsilon N seed out parallelism "
             "subsamples ref_cache ref_steps",
    "band": "problem scheme n noise delta xi epsilon grid_points seed out ref_cache ref_steps",
    "tail": "problem scheme n noise delta epsilon N seed out parallelism subsamples "
            "xi_max xi_points ref_cache ref_steps",
    "diagnose": "problem N reps seed out ref_cache ref_steps",
    "build-ref": "ref_cache ref_steps",
}
VALUES = {
    "problem": ("B", "A"), "scheme": ("rk", "ie"), "n": ("7", "9"),
    "n_list": ("10 20", "30"), "noise": ("ee", "rk"), "delta": ("1e-3", "n^-1"),
    "delta_rules": ("0 1e-3", "n^-1"), "epsilon": ("0.1", "0.2"), "N": ("300", "400"),
    "seed": ("3", "4"), "out": ("o1", "o2"), "parallelism": ("2", "3"),
    "subsamples": ("4", "5"), "ref_cache": ("r1.bin", "r2.bin"),
    "ref_steps": ("200000", "300000"), "dense": ("5", "6"), "xi": ("1.5", "2.5"),
    "grid_points": ("11", "12"), "xi_max": ("3.5", "4.5"), "xi_points": ("13", "14"),
    "reps": ("500", "600"),
}


@pytest.mark.parametrize("command,name", [(c, name) for c, names in READS.items()
                                          for name in names.split()])
def test_every_setting_is_a_config_key_and_its_flag_wins(tmp_path, monkeypatch,
                                                          command, name):
    seen = []
    monkeypatch.setitem(cli.COMMANDS, command,
                        (lambda args: seen.append(args) or 0, *cli.COMMANDS[command][1:]))
    in_file, on_flag = VALUES[name]
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[experiment]\n{name} = {in_file}\n")
    assert main(["--config", str(cfg), command]) == 0
    assert main(["--config", str(cfg), command, "--" + name.replace("_", "-"), on_flag]) == 0
    from_file, from_flag = (getattr(args, name) for args in seen)
    assert (str(from_file), str(from_flag)) == (in_file, on_flag)
    assert type(from_file) is type(from_flag)


@pytest.mark.parametrize("command,args", [
    ("solve", ["--n", "5", "--dense", "3"]),
    ("table", ["--n-list", "10", "--delta-rules", "0 1e-3", "--N", "100"]),
    ("band", ["--n", "10", "--xi", "3"]),
    ("tail", ["--n", "10", "--N", "100", "--xi-points", "5"]),
])
def test_manifest_records_every_setting_read(tmp_path, command, args):
    # every input that can change an output, so the paths alone are left out
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli(command, "--problem", "A", *args, "--out", str(tmp_path)) == 0
    config = json.loads((tmp_path / "manifest.json").read_text())["config"]
    assert set(READS[command].split()) - {"out", "ref_cache"} <= set(config)
    assert "out" not in config and "ref_cache" not in config


def test_manifest_tells_noise_classes_apart(tmp_path):
    # --noise ie and --noise auto (ee for the ee scheme) give different tables
    docs = []
    for kind in ("ie", "auto"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli("table", "--problem", "A", "--n-list", "10", "--N", "100",
                           "--delta-rules", "0 1e-3", "--noise", kind,
                           "--out", str(tmp_path / kind)) == 0
        docs.append(json.loads((tmp_path / kind / "manifest.json").read_text()))
    assert docs[0]["outputs"] != docs[1]["outputs"]
    assert docs[0]["config"] != docs[1]["config"]
    assert (docs[0]["config"]["noise"], docs[1]["config"]["noise"]) == ("ie", "auto")


@pytest.mark.parametrize("command", list(READS))
def test_help_lists_every_setting_with_its_default(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    text = capsys.readouterr().out
    for name in READS[command].split():
        assert "--" + name.replace("_", "-") in text
    assert "(default: " in text


class TestBand:
    def test_band_radius_and_outputs(self, tmp_path, capsys):
        rc = run_cli("band", "--problem", "A", "--scheme", "ee", "--n", "25",
                     "--xi", "3", "--seed", "2", "--out", str(tmp_path))
        assert rc == 0
        rows = read_csv(tmp_path / "band_ee_A.csv")
        assert rows[0] == ["t", "lower", "upper", "center"]
        lo, hi, mid = (float(rows[5][k]) for k in (1, 2, 3))
        assert hi - mid == pytest.approx(0.12, abs=1e-12)  # 3 * max(25^-1, 25^-1)
        assert mid - lo == pytest.approx(0.12, abs=1e-12)
        svg = (tmp_path / "band_ee_A.svg").read_text()
        assert svg.startswith("<svg") and "polygon" in svg
        assert "reference inside band on the grid: True" in capsys.readouterr().out

    def test_band_on_B_builds_reference(self, tmp_path, refargs):
        rc = run_cli("band", "--problem", "B", "--scheme", "rk", "--n", "25",
                     "--xi", "0.6", "--seed", "2", "--out", str(tmp_path), *refargs)
        assert rc == 0
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["config"]["delta"] == pytest.approx(25.0 ** -1.5)
        rows = read_csv(tmp_path / "band_rk_B.csv")
        hi, mid = float(rows[3][2]), float(rows[3][3])
        assert hi - mid == pytest.approx(0.6 * 25.0 ** -1.5, abs=1e-12)

    def test_zero_xi_rejected(self, tmp_path):
        assert run_cli("band", "--problem", "A", "--xi", "0",
                       "--out", str(tmp_path)) == 2

    def test_missing_xi_rejected(self, tmp_path):
        assert run_cli("band", "--problem", "A", "--out", str(tmp_path)) == 2


# sha256 of single-run outputs: solve and band draw through one NoisyOracle,
# and no benchmark workload runs them, so these pin its draws and arithmetic
@pytest.mark.parametrize("problem,scheme,delta,digest", [
    ("A", "ee", "0",
     "6d0f256d623cb2e0d2b7ac3f154452519090364947aff75c5fd6a2302378dda8"),
    ("A", "ee", "1e-2",
     "6046802705fe9b92cbe43ca7bed9c2b859620b783a35759bcb02a7db3df9e6a3"),
    ("A", "rk", "0",
     "a91f574e8b41f7974321f0f93bc70304bbe254cc24845f16a219a7fd14744ee5"),
    ("A", "rk", "1e-2",
     "15ebd5387778a8c053806f994555c15d837c4d43e9040bb991bfe4d16fba573f"),
    ("A", "ie", "0",
     "44ce68240856af626aa54b944eda87a538d86e5881529fc4e2d47b43db3b7ce1"),
    ("A", "ie", "1e-2",
     "a174b538200c145c1d89755a53d5816b557cc700d23a812aa5e6f7a44224288b"),
    ("B", "ee", "0",
     "d8bc98d5fcf5d3a481904e53b515f949b08bc66eaa247a4d0f670fea67303577"),
    ("B", "ee", "1e-2",
     "75ad9fff9096cdd7dd65ffcae0c3e0ad492adb96ff82bbd3e2f3349e335f70d8"),
    ("B", "rk", "0",
     "9dcce2c6126341295cce70cb608b04b59f6b236043f7e9f065a937a1dc08d761"),
    ("B", "rk", "1e-2",
     "1e6cf7a01b7858125e1e8ed3e2dc694c52230a5accba7fc35ac99a122420f775"),
    ("B", "ie", "0",
     "ae7a84da31fe5fdbcfd9ce0a587a52d9153d0c5495a829fa476570c9c71933fa"),
    ("B", "ie", "1e-2",
     "424c2497139acfa929fd8aef242201ffac2777654dea16ddbda9d2ae3c1e7d6b"),
])
def test_solve_trajectory_is_pinned(tmp_path, problem, scheme, delta, digest):
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli("solve", "--problem", problem, "--scheme", scheme, "--n", "64",
                       "--delta", delta, "--seed", "7", "--out", str(tmp_path)) == 0
    assert hashlib.sha256((tmp_path / "trajectory.csv").read_bytes()).hexdigest() == digest


def test_band_csv_is_pinned(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli("band", "--problem", "A", "--scheme", "rk", "--n", "30", "--xi", "2",
                       "--grid-points", "21", "--seed", "7", "--out", str(tmp_path)) == 0
    digest = hashlib.sha256((tmp_path / "band_rk_A.csv").read_bytes()).hexdigest()
    assert digest == "eab6db37cbc5100fb382d3b5c18e6785c818a3f99c32e0960a260a2ff6f797e0"


class TestTail:
    def test_tail_csv(self, tmp_path):
        rc = run_cli("tail", "--problem", "A", "--scheme", "ee", "--n", "20",
                     "--N", "500", "--seed", "4", "--xi-points", "11",
                     "--out", str(tmp_path))
        assert rc == 0
        rows = read_csv(tmp_path / "tail_ee_A_n20.csv")
        assert rows[0] == ["xi", "prob", "wilson_low", "wilson_high"]
        probs = [float(r[1]) for r in rows[1:]]
        assert probs[0] == 1.0 and probs[-1] == 0.0
        assert all(a >= b for a, b in zip(probs, probs[1:]))


    def test_implicit_euler_rejects_fresh_noise(self, tmp_path):
        assert run_cli("tail", "--problem", "A", "--scheme", "ie", "--noise", "ee",
                       "--delta", "1e-3", "--n", "10", "--N", "100",
                       "--out", str(tmp_path)) == 2


@pytest.mark.parametrize("command,setting,value", [
    ("table", "epsilon", "0"),
    ("table", "epsilon", "1.5"),
    ("table", "subsamples", "0"),
    ("table", "parallelism", "0"),
    ("table", "parallelism", "-3"),
    ("tail", "epsilon", "0"),
    ("tail", "subsamples", "0"),
    ("tail", "parallelism", "0"),
    ("band", "epsilon", "0"),
    ("band", "epsilon", "1"),
    ("table", "n-list", "0"),
    ("tail", "n", "0"),
    ("tail", "xi-points", "0"),
    ("tail", "xi-max", "-1"),
    ("band", "grid-points", "1"),
    ("band", "xi", "nan"),  # non-finite floats are out of every range
    ("band", "xi", "inf"),
    ("tail", "xi-max", "nan"),
    ("tail", "xi-max", "inf"),
    ("table", "epsilon", "nan"),
    ("diagnose", "ref-steps", "10"),  # problem A reads no reference, but the value is bad
    ("table", "ref-steps", "10"),
    ("table", "noise", "exact"),  # exact information with the 1e-3 column
    ("tail", "delta", "1e-320"),  # subnormal
    ("table", "delta-rules", "0 1e-320"),
    ("table", "delta-rules", ""),  # no delta column
    ("table", "delta-rules", " , "),
])
def test_bad_run_setting_rejected_before_output(tmp_path, capsys, command, setting, value):
    sizes = {"table": ["--n-list", "10", "--delta-rules", "0 1e-3", "--N", "100"],
             "tail": ["--n", "10", "--N", "100"], "band": ["--n", "10", "--xi", "3"],
             "diagnose": ["--N", "8", "--reps", "200"]}
    out = tmp_path / "out"
    assert run_cli(command, "--problem", "A", *sizes[command], f"--{setting}", value,
                   "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command,args", [
    ("solve", []),
    ("table", ["--n-list", "10", "--N", "100"]),
    ("band", ["--xi", "3"]),
    ("tail", ["--N", "100"]),
    ("diagnose", ["--N", "8", "--reps", "100"]),
])
def test_negative_seed_rejected_before_output(tmp_path, capsys, command, args):
    out = tmp_path / "out"
    assert run_cli(command, "--problem", "A", *args, "--seed", "-1", "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# small runs of each command that writes files
WRITERS = {"solve": [], "table": ["--n-list", "10", "--delta-rules", "0", "--N", "200"],
           "band": ["--xi", "3"], "tail": ["--n", "10", "--N", "200"],
           "diagnose": ["--N", "8", "--reps", "200"]}


@pytest.mark.parametrize("where", ["a file", "under a file"])
@pytest.mark.parametrize("command", list(WRITERS))
def test_out_that_cannot_be_a_directory_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                        command, where):
    # found before any work: the command does not even make its problem
    made = []
    monkeypatch.setattr(cli, "make_problem", made.append)
    (tmp_path / "file").write_text("kept\n")
    out = tmp_path / "file" / ("out" if where == "under a file" else "")
    assert run_cli(command, "--problem", "A", *WRITERS[command], "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: --out must be a directory or a path under one, got {str(out)!r}"]
    assert captured.out == "" and made == []
    assert (tmp_path / "file").read_text() == "kept\n"


@pytest.mark.parametrize("command", list(WRITERS))
def test_output_that_cannot_be_written_fails_the_run_with_one_line(tmp_path, capsys, command):
    # a directory where the manifest goes: writing it fails, and the run says so in one line
    out = tmp_path / "out"
    (out / "manifest.json").mkdir(parents=True)
    assert run_cli(command, "--problem", "A", *WRITERS[command], "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("run failed: [Errno 21] Is a directory: ")


def test_negative_dense_rejected_before_output(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("solve", "--dense", "-3", "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command,args", [
    ("band", ["--n", "10", "--xi", "3", "--grid-points", "1"]),
    ("diagnose", ["--N", "0"]),
    ("diagnose", ["--reps", "1"]),
    ("table", ["--n-list", "10", "--delta-rules", "", "--N", "100"]),
])
def test_bad_setting_rejected_before_reference_build(tmp_path, capsys, command, args):
    # problem B with a fresh cache: a bad setting must not cost a reference build
    cache, out = tmp_path / "refB.bin", tmp_path / "out"
    assert run_cli(command, "--problem", "B", *args, "--ref-steps", "100000",
                   "--ref-cache", str(cache), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not cache.exists()
    assert not out.exists()


class TestDiagnose:
    def test_passes_on_defaults(self, tmp_path):
        rc = run_cli("diagnose", "--problem", "A", "--seed", "6",
                     "--reps", "20000", "--N", "64", "--out", str(tmp_path))
        assert rc == 0
        doc = json.loads((tmp_path / "diagnose.json").read_text())
        assert doc["passed"] is True
        names = {c["name"] for c in doc["checks"]}
        assert {"martingale_mean_zero", "order_slope_ee", "order_slope_rk",
                "noise_bound_ee", "noise_bound_ie", "noise_bound_rk"} <= names

    def test_tampered_noise_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr("randode.cli.verify_noise_bound", lambda noise, samples: False)
        rc = run_cli("diagnose", "--problem", "A", "--seed", "6",
                     "--reps", "5000", "--N", "64", "--out", str(tmp_path))
        assert rc == 1
        doc = json.loads((tmp_path / "diagnose.json").read_text())
        failed = [c for c in doc["checks"] if not c["passed"]]
        assert failed and all(c["name"].startswith("noise_bound") for c in failed)

    def test_non_lipschitz_ie_noise_fails(self, tmp_path, monkeypatch):
        # within the ie growth bound |e0| (1 + |x|) at every state, but not
        # delta-Lipschitz in x: only a pair of states at one t can show it
        perturb = noise._perturb

        def tampered(kind, e, direction, x):
            pert = perturb(kind, e, direction, x)
            return pert * np.cos(50.0 * x) if kind == "ie" else pert

        monkeypatch.setattr(noise, "_perturb", tampered)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = run_cli("diagnose", "--problem", "A", "--seed", "6",
                         "--reps", "5000", "--N", "64", "--out", str(tmp_path))
        assert rc == 1
        doc = json.loads((tmp_path / "diagnose.json").read_text())
        assert [c["name"] for c in doc["checks"] if not c["passed"]] == ["noise_bound_ie"]

    def test_failed_run_leaves_no_output(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("diagnose", "--problem", "B", "--ref-steps", "10", "--reps", "1000",
                       "--out", str(out)) == 2
        assert not out.exists()

    def test_manifest_lists_the_report(self, tmp_path, capsys):
        rc = run_cli("diagnose", "--problem", "A", "--seed", "6", "--reps", "2000", "--N", "8",
                     "--out", str(tmp_path))
        report = (tmp_path / "diagnose.json").read_bytes()
        assert capsys.readouterr().out.encode() == report  # stdout is the report, byte for byte
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["command"] == "diagnose" and rc in (0, 1)
        assert doc["outputs"] == {"diagnose.json": hashlib.sha256(report).hexdigest()}
        assert doc["config"] == {"problem": "A", "seed": 6, "reps": 2000, "N": 8,
                                 "ref_steps": cli.DEFAULT_REF_STEPS}


class TestBuildRef:
    def test_build_and_reuse(self, tmp_path, capsys):
        cache = tmp_path / "ref.bin"
        assert run_cli("build-ref", "--ref-steps", "100000",
                       "--ref-cache", str(cache)) == 0
        assert cache.exists()
        out1 = capsys.readouterr().out
        assert "100001 grid values" in out1

    @pytest.mark.parametrize("where", ["directory", "under-a-file"])
    @pytest.mark.parametrize("command", ["build-ref", "table"])
    def test_unusable_cache_path_fails_with_one_line(self, tmp_path, capsys, monkeypatch,
                                                     command, where):
        # a directory in the file's place, or a parent that cannot be made: one
        # "run failed" line naming the path, exit 1, and no temporary file left,
        # before the reference is computed
        from randode import analysis
        build, calls = analysis._rk4_dense_B, []
        monkeypatch.setattr(analysis, "_rk4_dense_B",
                            lambda n_ref: calls.append(n_ref) or build(n_ref))
        (tmp_path / "file").write_bytes(b"")
        cache = tmp_path / ("ref.bin" if where == "directory" else "file/ref.bin")
        if where == "directory":
            cache.mkdir()
        args = {"build-ref": [], "table": ["--problem", "B", "--scheme", "rk", "--n-list", "10",
                                           "--delta-rules", "0", "--N", "200",
                                           "--out", str(tmp_path / "out")]}[command]
        assert run_cli(command, *args, "--ref-steps", "100000", "--ref-cache", str(cache)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"run failed: cannot use the reference cache {cache}: [Errno ")
        assert not list(tmp_path.rglob("*.tmp")) and not (tmp_path / "out").exists()
        assert calls == []


def test_table_starts_one_pool_for_all_its_rows(tmp_path, forks):
    # two rows of two chunks each through one pool of 2 forked workers, which
    # writes the serial table byte for byte
    args = ["table", "--problem", "A", "--scheme", "ee", "--n-list", "10 20", "--N", "9000"]
    assert run_cli(*args, "--parallelism", "2", "--out", str(tmp_path / "p2")) == 0
    assert len(forks) == 2
    assert run_cli(*args, "--parallelism", "1", "--out", str(tmp_path / "p1")) == 0
    assert len(forks) == 2
    assert ((tmp_path / "p2" / "table_ee_A.csv").read_bytes()
            == (tmp_path / "p1" / "table_ee_A.csv").read_bytes())


def test_dead_worker_fails_the_run_with_one_line(tmp_path, monkeypatch, capsys):
    # a real pool of 2 forked workers, one of which dies on the row's first chunk: the
    # table names the row and the chunk in one line, exits 1 and writes no output
    from randode import analysis

    untraced = analysis._batch_task

    def dying(task):
        if task[5] == 0:
            os._exit(1)
        return untraced(task)

    monkeypatch.setattr(analysis, "_batch_task", dying)
    assert run_cli("table", "--problem", "A", "--scheme", "ee", "--n-list", "10", "--N",
                   "9000", "--parallelism", "2", "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["run failed: a pool worker died running replications [0, 4500) of the "
                   "n = 10 row"]
    assert not (tmp_path / "out").exists()


def test_interrupt_ends_a_pooled_table_and_its_workers(tmp_path):
    # SIGINT to the parent only: it drops the queued chunks, waits for the running
    # ones and exits by the signal, and none of its workers outlives it
    src = os.path.dirname(os.path.dirname(randode.__file__))
    code = "import sys; from randode.cli import main; main(sys.argv[1:])"
    argv = ["table", "--n-list", "1000 1000 1000", "--N", "20000", "--delta-rules", "0",
            "--parallelism", "2", "--out", str(tmp_path)]
    proc = subprocess.Popen([sys.executable, "-c", code, *argv], stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, env={**os.environ, "PYTHONPATH": src})
    try:
        deadline = time.monotonic() + 60
        with open(f"/proc/{proc.pid}/task/{proc.pid}/children") as fh:
            while len(workers := fh.read().split()) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
                fh.seek(0)
        assert len(workers) == 2
        time.sleep(0.3)
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=60) == -signal.SIGINT
    finally:
        proc.kill()
        proc.wait()
    for pid in workers:
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid), 0)


def test_serial_table_leaves_the_process_pool_out(tmp_path):
    src = os.path.dirname(os.path.dirname(randode.__file__))
    code = ("import sys; from randode.cli import main; "
            "rc = main(['table', '--n-list', '10 20', '--N', '200', '--out', sys.argv[1]]); "
            "print(rc, 'concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.splitlines()[-1] == "0 False"


def test_pooled_table_imports_no_pool_library_and_leaves_no_child(tmp_path):
    # the forked workers need neither concurrent.futures nor multiprocessing, and the
    # command reaps every one of them before it returns
    src = os.path.dirname(os.path.dirname(randode.__file__))
    code = ("import os, sys; from randode.cli import main; "
            "rc = main(['table', '--n-list', '10 20', '--N', '9000', '--parallelism', '2', "
            "'--out', sys.argv[1]]); "
            "print(rc, 'concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules, "
            "open(f'/proc/self/task/{os.getpid()}/children').read().split())")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.splitlines()[-1] == "0 False False []"


def test_import_leaves_the_process_pool_out():
    # importing the CLI brings in no pool library
    src = os.path.dirname(os.path.dirname(randode.__file__))
    code = "import sys, randode.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "False\n"


def run_fresh(*args, **env):
    """Standard output of a fresh interpreter on this checkout run with args, with
    OPENBLAS_NUM_THREADS unset (importing randode.cli here has set it) unless env sets it."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = os.path.dirname(os.path.dirname(randode.__file__))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, check=True,
                          env={**base, "PYTHONPATH": src, **env}).stdout


# every name the package exports, by the submodule that defines it
EXPORTS = {
    "analysis": ["BatchCell", "ConfidenceBand", "ErrorBatch", "QuantileEstimate",
                 "ReferenceSolution", "SlopeFit", "TailCurve", "build_reference_B",
                 "confidence_band", "convergence_slope", "derive_cell_seed",
                 "fit_loglog_slope", "reference_for", "run_batch", "run_rows", "sup_error",
                 "tail_curve", "xi_hat"],
    "exceptions": ["ConvergenceError", "DomainError", "NumericalError",
                   "ReferenceSolutionError", "WorkerError"],
    "noise": ["DeltaRule", "NoiseModel", "NoisyOracle", "exact_info", "parse_delta_rule",
              "verify_noise_bound"],
    "problems": ["ClassParams", "IvpSpec", "check_class_membership", "eval_rhs",
                 "exact_solution_A", "make_problem", "one_norm", "radius_ee", "radius_rk"],
    "schemes": ["Grid", "SchemeKind", "Trajectory", "gamma_of", "martingale_diagnostic",
                "run_explicit_euler", "run_implicit_euler", "run_rk2", "run_scheme",
                "scheme_from_name"],
}


def test_import_leaves_numpy_and_blas_threading_alone():
    # the library imports its submodules, and so numpy, on first use, and sets no BLAS
    # thread count even then
    code = ("import os, sys, randode; print('numpy' in sys.modules, randode.__version__); "
            "randode.run_rows; print('numpy' in sys.modules, "
            "'OPENBLAS_NUM_THREADS' in os.environ)")
    assert run_fresh("-c", code) == f"False {randode.__version__}\nTrue False\n"


def test_every_export_resolves_to_its_submodule():
    names = [name for names in EXPORTS.values() for name in names]
    assert randode.__all__ == sorted([*EXPORTS, *names])
    code = ("import json, sys, randode\n"
            "from randode import *\n"
            "from randode import cli\n"
            "exports = json.loads(sys.argv[1])\n"
            "print(all(globals()[name] is getattr(randode, name)"
            " is getattr(sys.modules[f'randode.{module}'], name)"
            " for module, names in exports.items() for name in names))\n"
            "print(all(globals()[m] is getattr(randode, m) is sys.modules[f'randode.{m}']"
            " for m in [*exports, 'cli']), set(randode.__all__) < set(dir(randode)))\n")
    assert run_fresh("-c", code, json.dumps(EXPORTS)) == "True\nTrue True\n"


@pytest.mark.parametrize("preset", [None, "3"])
def test_cli_import_sets_one_blas_thread_by_default(preset):
    env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    code = "import os, randode.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_fresh("-c", code, **env) == f"{preset or 1}\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_cli_process_runs_one_os_thread():
    # numpy's OpenBLAS would start a thread per further CPU at import
    code = "import os, randode.cli; print(len(os.listdir('/proc/self/task')))"
    assert run_fresh("-c", code) == "1\n"


@pytest.mark.parametrize("before, enabled", [("", True), ("gc.disable(); ", False)])
def test_cli_import_freezes_its_heap_and_keeps_the_collector_setting(before, enabled):
    # no cyclic collection scans the import-time heap, and the collector comes back on
    # only if it was on before the import
    code = (f"import gc; {before}import randode.cli; "
            "print(gc.isenabled(), gc.get_freeze_count() > 0)")
    assert run_fresh("-c", code) == f"{enabled} True\n"


def test_table_run_leaves_the_config_reader_out(tmp_path):
    code = ("import sys; from randode.cli import main; "
            "rc = main(['table', '--n-list', '10', '--delta-rules', '0', '--N', '100', "
            "'--out', sys.argv[1]]); print(rc, 'configparser' in sys.modules)")
    assert run_fresh("-c", code, str(tmp_path)).splitlines()[-1] == "0 False"


def test_help_texts_are_those_of_the_full_parser(monkeypatch):
    # main builds only the settings of the command its arguments name
    code = ("import contextlib, io, json, sys\n"
            "from randode.cli import COMMANDS, main\n"
            "texts = {}\n"
            "for argv in [[], *[[c] for c in COMMANDS]]:\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):\n"
            "        main([*argv, '--help'])\n"
            "    texts[' '.join(argv)] = out.getvalue()\n"
            "print(json.dumps(texts))\n")
    got = json.loads(run_fresh("-c", code, COLUMNS="80"))
    monkeypatch.setenv("COLUMNS", "80")
    ap, parsers = cli.build_parser(None)
    assert got == {"": ap.format_help(),
                   **{c: parsers[c].format_help() for c in cli.COMMANDS}}


def test_config_file_named_as_another_command(tmp_path, monkeypatch):
    # every command that an argument names gets its settings, the config path's too
    monkeypatch.chdir(tmp_path)
    (tmp_path / "solve").write_text("[experiment]\nn_list = 10\ndelta_rules = 0\nN = 100\n")
    assert run_cli("--config", "solve", "table", "--seed", "7", "--out", "o") == 0
    config = json.loads((tmp_path / "o" / "manifest.json").read_text())["config"]
    assert (config["n_list"], config["N"], config["seed"]) == ([10], 100, 7)


def test_table_holds_no_row_while_the_next_one_runs(tmp_path):
    # six default ee columns at n = 10: four equal rows peak as one does, within less
    # than a row's k N doubles
    def traced_peak(n_list, N):
        tracemalloc.start()
        try:
            assert run_cli("table", "--n-list", n_list, "--N", str(N), "--out",
                           str(tmp_path / n_list)) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak("10", 100)  # first-call imports
    one, four = traced_peak("10", 20_000), traced_peak("10 10 10 10", 20_000)
    assert four < one + 6 * 20_000 * 8 / 2


def test_module_run_writes_the_pinned_table(tmp_path):
    # python -m randode.cli, as the benchmark runs it, with runpy's warnings as errors
    run_fresh("-W", "error::RuntimeWarning", "-m", "randode.cli", "table", "--problem", "A",
              "--scheme", "ee", "--n-list", "10 40", "--delta-rules", "0 2e-3", "--N", "500",
              "--seed", "7", "--out", str(tmp_path))
    digest = hashlib.sha256((tmp_path / "table_ee_A.csv").read_bytes()).hexdigest()
    assert digest == "fb9cf6c82a05193ee2849474a0b5c3390cfb80e872f5e5b251fdcd3592d35bd0"


@pytest.mark.slow
def test_cross_column_coherence_at_n1000(tmp_path, problem_A, ref_A):
    # small-budget columns track the noise-free column once n is large
    from randode import NoiseModel, SchemeKind, derive_cell_seed, exact_info, run_batch, xi_hat
    n, N = 1000, 10_000
    seed = derive_cell_seed(123, SchemeKind.EXPLICIT_EULER, "A", n)
    base = xi_hat(run_batch(problem_A, ref_A, SchemeKind.EXPLICIT_EULER, n,
                            exact_info(), N, seed, parallelism=2), 0.05, 1.0).xi_hat
    for delta in (n**-1.1, n**-1.0, 1e-4):
        v = xi_hat(run_batch(problem_A, ref_A, SchemeKind.EXPLICIT_EULER, n,
                             NoiseModel("ee", delta), N, seed, parallelism=2), 0.05, 1.0).xi_hat
        assert abs(v - base) <= 0.15
