import csv
import json
import math

import pytest

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

    def test_forced_tau_matches_hand_value(self, tmp_path):
        rc = run_cli("solve", "--problem", "A", "--scheme", "rk", "--n", "1",
                     "--noise", "exact", "--force-tau", "0.5", "--out", str(tmp_path))
        assert rc == 0
        rows = read_csv(tmp_path / "trajectory.csv")
        assert float(rows[-1][1]) == pytest.approx(2.0, abs=1e-14)

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
        # the fresh-noise row cannot run as one, so each cell reruns alone;
        # the NA cell's reason is in the manifest, not only on stderr
        rc = run_cli("table", "--problem", "A", "--scheme", "ie", "--noise", "ee",
                     "--n-list", "10 20", "--delta-rules", "0 1e-3", "--N", "100",
                     "--out", str(tmp_path / "ie"))
        assert rc == 1
        cells = json.loads((tmp_path / "ie" / "manifest.json").read_text())["cells"]
        reason = "implicit Euler needs exact or ie noise, not fresh ee"
        assert cells == [
            {"n": n, "delta": label, "route": "per-cell", "na_reason": na}
            for n in (10, 20) for label, na in (("0", None), ("1e-3", reason))]
        # a row that runs as one
        assert run_cli("table", "--problem", "A", "--scheme", "ee", "--n-list", "10",
                       "--delta-rules", "0 1e-3", "--N", "100",
                       "--out", str(tmp_path / "ee")) == 0
        cells = json.loads((tmp_path / "ee" / "manifest.json").read_text())["cells"]
        assert [(c["route"], c["na_reason"]) for c in cells] == [("row", None)] * 2

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

    def test_missing_config_file(self, tmp_path):
        assert run_cli("--config", str(tmp_path / "nope.ini"), "table") == 2

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
    ("table", "ref-steps", "10"),
    ("table", "noise", "exact"),  # exact information with the 1e-3 column
    ("tail", "delta", "1e-320"),  # subnormal
    ("table", "delta-rules", "0 1e-320"),
])
def test_bad_run_setting_rejected_before_output(tmp_path, capsys, command, setting, value):
    sizes = {"table": ["--n-list", "10", "--delta-rules", "0 1e-3", "--N", "100"],
             "tail": ["--n", "10", "--N", "100"], "band": ["--n", "10", "--xi", "3"]}
    out = tmp_path / "out"
    assert run_cli(command, "--problem", "A", *sizes[command], f"--{setting}", value,
                   "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command,args", [
    ("band", ["--n", "10", "--xi", "3", "--grid-points", "1"]),
    ("diagnose", ["--N", "0"]),
    ("diagnose", ["--reps", "1"]),
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

    def test_tampered_noise_fails(self, tmp_path):
        rc = run_cli("diagnose", "--problem", "A", "--seed", "6",
                     "--reps", "5000", "--N", "64", "--tamper-noise",
                     "--out", str(tmp_path))
        assert rc == 1
        doc = json.loads((tmp_path / "diagnose.json").read_text())
        failed = [c for c in doc["checks"] if not c["passed"]]
        assert failed and all(c["name"].startswith("noise_bound") for c in failed)

    def test_failed_run_leaves_no_output(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("diagnose", "--problem", "B", "--ref-steps", "10", "--reps", "1000",
                       "--out", str(out)) == 2
        assert not out.exists()


class TestBuildRef:
    def test_build_and_reuse(self, tmp_path, capsys):
        cache = tmp_path / "ref.bin"
        assert run_cli("build-ref", "--ref-steps", "100000",
                       "--ref-cache", str(cache)) == 0
        assert cache.exists()
        out1 = capsys.readouterr().out
        assert "100001 grid values" in out1


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
