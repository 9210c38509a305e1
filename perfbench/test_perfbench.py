"""Tests of the benchmark itself:  python3 -m pytest perfbench -q

They run the real CLI on the smallest workload, so they take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

SMALL = bench.WORKLOADS["table-A-ee-smalln"]


def run_bench(*args, cwd=bench.ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", SMALL.name,
                           "--seed", "0", "--seconds", "0", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == bench.PER_LAYER
    assert spec["paths"] == ["perfbench"]


def test_golden_covers_every_workload_and_seed():
    golden = json.loads(bench.GOLDEN.read_text())
    for wl in bench.WORKLOADS.values():
        for s in range(bench.SEED_COUNT):
            cells = golden[wl.name][str(bench.cli_seed(s))]
            assert sorted(cells) == sorted(wl.cells())
            assert "NA" not in cells.values()


def write_table(out: Path, cells: dict, config: dict):
    """A table CSV and manifest as the CLI writes them."""
    out.mkdir()
    header = ["n"] + [f"delta={d}" for d in SMALL.deltas]
    rows = [",".join(header)]
    for n in SMALL.ns:
        rows.append(",".join([str(n)] + [cells[f"n={n} delta={d}"] for d in SMALL.deltas]))
    csv = out / "table_ee_A.csv"
    csv.write_text("\n".join(rows) + "\n")
    manifest = {"command": "table", "config": config, "wall_seconds": 1.0,
                "outputs": {csv.name: bench.sha256_file(csv)}}
    (out / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("key,value", [("N", 100_000), ("seed", 1), ("parallelism", 2),
                                       ("n_list", [10])])
def test_config_guard_fails_every_cell(tmp_path, key, value):
    seed = bench.cli_seed(0)
    want = json.loads(bench.GOLDEN.read_text())[SMALL.name][str(seed)]
    config = SMALL.expected_config(seed)
    write_table(tmp_path / "ok", want, config)
    assert bench.check_command(SMALL, seed, tmp_path / "ok", 0, want)[0] == 0

    write_table(tmp_path / "bad", want, dict(config, **{key: value}))
    failed, reasons, _ = bench.check_command(SMALL, seed, tmp_path / "bad", 0, want)
    assert failed == len(SMALL.cells())
    assert any(f"manifest config {key}" in r for r in reasons)


def test_altered_golden_value_counts_as_failed(tmp_path):
    seed = bench.cli_seed(0)
    golden = json.loads(bench.GOLDEN.read_text())
    cell = "n=100 delta=2e-3"
    value = golden[SMALL.name][str(seed)][cell]
    golden[SMALL.name][str(seed)][cell] = repr(float(value) * (1 + 1e-15))

    res = bench.bench(SMALL, seed, 0, False, golden, tmp_path)
    commands = res["attempted"] // len(SMALL.cells())
    assert res["correct"] is False
    assert res["failed"] == commands
    ok = res["metrics"]["ok_frac"]["value"]
    assert ok == pytest.approx(1 - 1 / len(SMALL.cells()))
    # every command failed a cell, so no timing is taken from them
    assert res["metrics"]["wall_s"]["value"] == 0.0


def test_untraced_run_reports_every_end_to_end_metric():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    res = result_of(run_bench("--trace", "0"))
    assert res["correct"] is True and res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_is_bit_identical_and_counts_exactly():
    res = result_of(run_bench("--trace", "1"))
    assert res["correct"] is True and res["failed"] == 0  # both runs match golden
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert set(m) == set(bench.PER_LAYER)
    assert m["noise.derive_streams.calls"] == SMALL.replications
    assert m["analysis.run_batch.calls"] == len(SMALL.cells())
    assert m["analysis.batched_cells_frac"] == 1.0
    assert m["noise.noisy_eval.calls"] == 0


def test_fails_without_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
