"""Benchmark of the randode command line: end-to-end and per-layer numbers.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Run it from the root of a source checkout; it runs the package under
``src/`` (no install needed) and fails with exit code 2 when that is missing.

Each workload is one ``randode table`` or ``randode tail`` command, driven by
flags only, run in a closed loop: one fresh process at a time, the next one
starting after the previous one exits, for T seconds.  Every command gets a
private ``RANDODE_CACHE_DIR``, ``--ref-cache``, working directory and HOME
inside a temporary directory of the checkout, so no user cache is read or
written.  Fresh set-up processes, each obtaining the reference from an empty
cache, are spread over the run, the first before the first command, so the
timed commands find the reference cached.

Every output cell is checked digit for digit against ``golden.json``, and
every manifest must record the requested configuration; a cell that fails
either check, or comes out ``NA``, counts as failed.

A machine-speed probe (``PROBE_CODE``, numpy only) runs before every
untraced command.  ``--trace 0`` reports the end-to-end metrics: the
geometric means of the wall time, CPU time and replication rate of the run's
passing commands and of the set-up time, each divided by the geometric mean
of the run's probes and scaled to the speed at which the probe takes
``PROBE_REF_S``, and the median peak RSS.  ``--trace 1`` alternates
untraced commands with commands run under ``traced.py`` and reports the
per-layer metrics, medians over the traced commands.  The last line of
standard output is the result object.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"
TRACED = BENCH_DIR / "traced.py"
WORK_PARENT = ROOT / ".bench_build"

REF_STEPS = 2_000_000
COMMAND_TIMEOUT_S = 150
SEED_BASE, SEED_STRIDE, SEED_COUNT = 12345, 1000, 16

SETUP_CODE = ("import sys, randode; randode.reference_for("
              "randode.make_problem(sys.argv[1]), cache_path=sys.argv[2])")

# The machine-speed probe: a fresh interpreter that imports numpy, derives
# Philox streams and does vector arithmetic on freshly allocated arrays, as a
# randode command does.  It uses numpy only, never the sources under test.
# One probe runs before every command of an untraced run; the timings are
# reported at the speed where the probe takes PROBE_REF_S (see README.md).
PROBE_CODE = """
import numpy as np
for k in range(400):
    np.random.Generator(np.random.Philox(np.random.SeedSequence([12345, k]))).standard_normal(8)
x = np.linspace(0.0, 1.0, 1 << 22)
for _ in range(6):
    np.abs(x * (1.0 - x) - 0.2).max()
"""
PROBE_REF_S = 0.4


def cli_seed(seed: int) -> int:
    """The CLI --seed for a benchmark seed; golden.json covers all SEED_COUNT of them.

    Benchmark seed 0 maps to 12345, the CLI's default seed.
    """
    return SEED_BASE + SEED_STRIDE * (seed % SEED_COUNT)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    command: str        # "table" or "tail"
    problem: str
    scheme: str
    ns: tuple           # table: the n list; tail: the single n
    deltas: tuple       # table: the delta rules; tail: the single delta
    N: int
    parallelism: int
    setup_reps: int     # fresh set-up processes per run

    def argv(self, seed: int, out, ref_cache) -> list:
        args = [self.command, "--problem", self.problem, "--scheme", self.scheme,
                "--N", str(self.N), "--seed", str(seed),
                "--parallelism", str(self.parallelism),
                "--out", str(out), "--ref-cache", str(ref_cache)]
        if self.command == "table":
            args += ["--n-list", " ".join(map(str, self.ns)),
                     "--delta-rules", " ".join(self.deltas)]
        else:
            args += ["--n", str(self.ns[0]), "--delta", self.deltas[0]]
        return args

    def expected_config(self, seed: int) -> dict:
        cfg = {"problem": self.problem, "scheme": self.scheme, "N": self.N, "seed": seed}
        if self.command == "table":
            cfg.update(n_list=list(self.ns), delta_rules=list(self.deltas),
                       parallelism=self.parallelism)
        else:  # the tail manifest records neither parallelism nor the delta label
            cfg.update(n=self.ns[0], delta=float(self.deltas[0]))
        return cfg

    def cells(self) -> list:
        if self.command == "table":
            return [f"n={n} delta={d}" for n in self.ns for d in self.deltas]
        return ["tail_csv_sha256"]

    @property
    def replications(self) -> int:
        return len(self.cells()) * self.N


# Why each workload exists is written up in perfbench/README.md.
WORKLOADS = {wl.name: wl for wl in (
    Workload("table-A-ee-smalln", "table", "A", "ee", (10, 100), ("0", "n^-1", "2e-3"),
             N=1500, parallelism=1, setup_reps=10),
    Workload("table-B-rk-largen", "table", "B", "rk", (5000,), ("0", "2e-3"),
             N=200, parallelism=1, setup_reps=3),
    Workload("tail-A-ie-scalar", "tail", "A", "ie", (40,), ("1e-2",),
             N=100, parallelism=1, setup_reps=10),
    Workload("table-A-ee-par2", "table", "A", "ee", (10, 100), ("0",),
             N=16384, parallelism=2, setup_reps=10),
)}


# ---------------------------------------------------------------------------
# output checks


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_cells(wl: Workload, out: Path) -> dict:
    """Cell label -> output text: table cells as written, the tail CSV as its sha256."""
    if wl.command == "tail":
        path = out / f"tail_{wl.scheme}_{wl.problem}_n{wl.ns[0]}.csv"
        return {"tail_csv_sha256": sha256_file(path)} if path.is_file() else {}
    path = out / f"table_{wl.scheme}_{wl.problem}.csv"
    if not path.is_file():
        return {}
    lines = [line.split(",") for line in path.read_text().splitlines()]
    header = lines[0]
    return {f"n={row[0]} {header[k]}": row[k]
            for row in lines[1:] for k in range(1, len(row))}


def manifest_wall(manifest: dict):
    """The manifest's wall_seconds (reference loaded to outputs written), if positive."""
    wall = manifest.get("wall_seconds")
    return wall if isinstance(wall, (int, float)) and wall > 0 else None


def check_command(wl: Workload, seed: int, out: Path, returncode: int, want: dict):
    """(failed cell count, reasons, manifest) for one finished command.

    A non-zero exit code or a manifest that does not match the request fails
    every cell of the command; otherwise each cell fails on its own when it
    is missing, NA or differs from want.
    """
    cells = wl.cells()
    reasons = []
    manifest = None
    mpath = out / "manifest.json"
    if returncode != 0:
        reasons.append(f"exit code {returncode}")
    if mpath.is_file():
        manifest = json.loads(mpath.read_text())
        got = manifest.get("config", {})
        for key, value in wl.expected_config(seed).items():
            if got.get(key) != value:
                reasons.append(f"manifest config {key} = {got.get(key)!r}, requested {value!r}")
        for name, digest in manifest.get("outputs", {}).items():
            if not (out / name).is_file() or sha256_file(out / name) != digest:
                reasons.append(f"manifest checksum of {name} does not match the file")
        if manifest_wall(manifest) is None:
            reasons.append("manifest has no positive wall_seconds")
    else:
        reasons.append("no manifest.json")
    if reasons:
        return len(cells), reasons, manifest
    got = read_cells(wl, out)
    bad = [c for c in cells if got.get(c, "NA") == "NA" or got.get(c) != want.get(c)]
    reasons += [f"cell {c}: got {got.get(c)!r}, golden {want.get(c)!r}" for c in bad]
    return len(bad), reasons, manifest


# ---------------------------------------------------------------------------
# running commands


@dataclasses.dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    probe_s: float = None     # the machine-speed probe just before the command
    reps_per_s: float = None  # replications / the manifest's wall_seconds
    passed: bool = False      # every check of the command passed


def run_child(argv, env, cwd, log: Path) -> Sample:
    """Run one process to completion; its CPU and peak RSS include reaped descendants."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=fh, stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(COMMAND_TIMEOUT_S, kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind
            kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall_s=wall, cpu_s=ru.ru_utime + ru.ru_stime,
                  peak_rss_mb=ru.ru_maxrss / 1024.0, returncode=proc.returncode)


def kill_group(pid: int):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:  # it ended just before the timeout fired
        pass


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), RANDODE_CACHE_DIR=str(work / "cache"),
               HOME=str(work / "home"))
    return env


def log_tail(log: Path, lines: int = 5) -> str:
    return "\n".join(log.read_text(errors="replace").splitlines()[-lines:])


# ---------------------------------------------------------------------------
# traced runs


def merge_traces(trace_dir: Path) -> dict:
    """Sum the spans and counters of the traced process and its pool workers."""
    merged = {"spans": {}, "counters": {}, "cells": {"vectorized": set(), "scalar": set()},
              "cell_times": []}
    for path in sorted(trace_dir.glob("*.json")):
        doc = json.loads(path.read_text())
        for name, rec in doc["spans"].items():
            acc = merged["spans"].setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += rec[k]
        for name, value in doc["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for kind, keys in doc["cells"].items():
            merged["cells"][kind].update(keys)
        merged["cell_times"] += doc["cell_times"]
    return merged


# name -> unit, better; the order is the order of BENCHMARK.json's per_layer list
PER_LAYER = {
    "noise.derive_streams.calls": ("count", "lower"),
    "noise.derive_streams.self_s": ("s", "lower"),
    "noise.derive_streams.us_per_call": ("us", "lower"),
    "noise.noisy_eval.calls": ("count", "lower"),
    "noise.noisy_eval.self_s": ("s", "lower"),
    "noise.noisy_eval.us_per_call": ("us", "lower"),
    "schemes.run_scheme.calls": ("count", "lower"),
    "schemes.run_scheme.self_s": ("s", "lower"),
    "schemes.ie_iters_per_step": ("iter/step", "lower"),
    "problems.rhs.calls": ("count", "lower"),
    "problems.rhs.self_s": ("s", "lower"),
    "analysis.run_batch.calls": ("count", "lower"),
    "analysis.run_batch.s": ("s", "lower"),
    "analysis.batched_cells_frac": ("frac", "higher"),
    "analysis.chunk_vectorized.self_s": ("s", "lower"),
    "analysis.chunk_scalar.self_s": ("s", "lower"),
    "analysis.sup_error_kernel.calls": ("count", "lower"),
    "analysis.sup_error_kernel.self_s": ("s", "lower"),
    "analysis.reference_grids.s": ("s", "lower"),
    "analysis.build_reference_B.s": ("s", "lower"),
    "analysis.stats.s": ("s", "lower"),
    "analysis.pool.chunks": ("count", "lower"),
    "analysis.pool.idle_s": ("s", "lower"),
    "cli.outputs.s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# per-layer values that are counts and must repeat exactly from command to command
EXACT = [name for name, (unit, _) in PER_LAYER.items() if unit == "count"] + [
    "schemes.ie_iters_per_step", "analysis.batched_cells_frac"]

# the self times that compete for "leading layer" in the traced summary
SELF_TIMES = ["noise.derive_streams.self_s", "noise.noisy_eval.self_s",
              "schemes.run_scheme.self_s", "problems.rhs.self_s",
              "analysis.chunk_vectorized.self_s", "analysis.chunk_scalar.self_s",
              "analysis.sup_error_kernel.self_s", "analysis.reference_grids.s",
              "analysis.stats.s", "cli.outputs.s"]


def layer_values(tr: dict) -> dict:
    """Per-layer metrics of one traced command (everything but trace.overhead_ratio)."""
    spans, counters = tr["spans"], tr["counters"]

    def span(name):
        return spans.get(name, [0, 0.0, 0.0])

    out = {}
    for layer in ("noise.derive_streams", "noise.noisy_eval", "schemes.run_scheme",
                  "problems.rhs", "analysis.sup_error_kernel"):
        out[f"{layer}.calls"] = span(layer)[0]
        out[f"{layer}.self_s"] = span(layer)[2]
    for layer in ("noise.derive_streams", "noise.noisy_eval"):
        calls, _, self_s = span(layer)
        out[f"{layer}.us_per_call"] = 1e6 * self_s / calls if calls else 0.0
    steps = counters.get("run_scheme.steps", 0)
    out["schemes.ie_iters_per_step"] = span("noise.noisy_eval")[0] / steps if steps else 0.0
    out["analysis.run_batch.calls"] = span("analysis.run_batch")[0]
    vec, scal = tr["cells"]["vectorized"], tr["cells"]["scalar"]
    out["analysis.batched_cells_frac"] = len(vec) / len(vec | scal) if vec | scal else 0.0
    out["analysis.chunk_vectorized.self_s"] = span("analysis.chunk_vectorized")[2]
    out["analysis.chunk_scalar.self_s"] = span("analysis.chunk_scalar")[2]
    for layer in ("analysis.run_batch", "analysis.reference_grids",
                  "analysis.build_reference_B", "analysis.stats"):
        out[f"{layer}.s"] = span(layer)[1]
    out["analysis.pool.chunks"] = counters.get("pool.chunks", 0)
    out["analysis.pool.idle_s"] = counters.get("pool.idle_s", 0.0)
    out["cli.outputs.s"] = counters.get("cli.outputs_s", 0.0)
    return out


# ---------------------------------------------------------------------------
# one benchmark run


class BenchError(Exception):
    pass


def env_stamp() -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_rev = None
    src = hashlib.sha256()
    for path in sorted((SRC / "randode").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_rev": git_rev, "src_sha256": src.hexdigest(), "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "loadavg_1m": os.getloadavg()[0]}


def bench(wl: Workload, seed: int, seconds: float, trace: bool, golden: dict,
          work: Path) -> dict:
    env = child_env(work)
    py = sys.executable
    cwd, home, cache = work / "cwd", work / "home", work / "cache"
    for d in (cwd, home):
        d.mkdir()
    ref_cache = cache / f"refB_rk4_{REF_STEPS}.bin"
    want = golden.get(wl.name, {}).get(str(seed), {})
    failed = attempted = 0
    reasons = []

    def child(argv, tag, must_succeed=False) -> Sample:
        log = work / f"{tag}.log"
        sample = run_child(argv, env, cwd, log)
        if (home / ".cache").exists() or (cwd / "refB.bin").exists():
            raise BenchError(f"{tag}: a reference cache was written outside the "
                             f"benchmark's cache directory")
        if must_succeed and sample.returncode != 0:
            raise BenchError(f"{tag} exited with {sample.returncode}:\n{log_tail(log)}")
        return sample

    # warm the byte-code and page caches once; users do not pay that per command
    child([py, "-c", "import randode.cli"], "warmup", must_succeed=True)

    setup_walls, setup_traces = [], []

    def setup():
        """Import randode and obtain the reference from an empty cache; it leaves the cache filled."""
        k = len(setup_walls)
        shutil.rmtree(cache, ignore_errors=True)
        cache.mkdir()
        if trace:
            tdir = work / f"setup{k}.trace"
            tdir.mkdir()
            argv = [py, str(TRACED), str(tdir), "setup", wl.problem, str(ref_cache)]
        else:
            argv = [py, "-c", SETUP_CODE, wl.problem, str(ref_cache)]
        setup_walls.append(child(argv, f"setup{k}", must_succeed=True).wall_s)
        if trace:
            setup_traces.append(merge_traces(tdir))
        if wl.problem == "B" and not ref_cache.is_file():
            raise BenchError("set-up left no reference in the cache")

    # Closed loop for `seconds`: one command at a time.  The set-up processes
    # are spread evenly over the run, because a slow phase of the machine
    # lasts longer than a few set-ups in a row, and the first one comes before
    # the first command so that every command finds the reference cached.
    untraced, traced, traces, digests = [], [], [], set()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        now = time.perf_counter()
        share = (now - start) / seconds if now < deadline else 1.0
        while len(setup_walls) < max(1, wl.setup_reps * share):
            setup()
        if now >= deadline and untraced and (traced or not trace):
            break
        is_traced = trace and i % 2 == 1
        out = work / f"out{i}"
        argv = wl.argv(seed, out, ref_cache)
        if is_traced:
            tdir = work / f"cmd{i}.trace"
            tdir.mkdir()
            argv = [py, str(TRACED), str(tdir), "cli"] + argv
        else:
            argv = [py, "-m", "randode.cli"] + argv
        probe = None if trace else child([py, "-c", PROBE_CODE], "probe",
                                         must_succeed=True).wall_s
        sample = child(argv, f"cmd{i}")
        sample.probe_s = probe
        bad, why, manifest = check_command(wl, seed, out, sample.returncode, want)
        attempted += len(wl.cells())
        failed += bad
        reasons += [f"command {i}: {r}" for r in why]
        sample.passed = not why
        if manifest is not None:
            digests.add(json.dumps(manifest.get("outputs"), sort_keys=True))
            if wall := manifest_wall(manifest):
                sample.reps_per_s = wl.replications / wall
        if is_traced:
            traced.append(sample)
            traces.append(merge_traces(tdir))
        else:
            untraced.append(sample)
        shutil.rmtree(out, ignore_errors=True)
        i += 1

    if len(digests) > 1:
        reasons.append("commands of one run wrote different outputs")
    if failed:
        reasons.append(f"{failed} of {attempted} cells failed")

    med = statistics.median
    print("# untraced commands: " + json.dumps({
        "wall_s": [s.wall_s for s in untraced], "cpu_s": [s.cpu_s for s in untraced],
        "reps_per_s": [s.reps_per_s for s in untraced], "setup_s": setup_walls,
        "probe_s": [s.probe_s for s in untraced]}))
    if not trace:
        # The timings are geometric means over the run's passing commands
        # (set-up processes for setup_s), divided by the geometric mean of
        # the run's probes and scaled to the speed at which the probe takes
        # PROBE_REF_S.  This machine's speed drifts by up to 1.6x over minutes,
        # longer than a run; the probes drift with the commands, and the ratio
        # cancels most of it.  A failed command's time is not the program's;
        # with none passing, the timings read 0 and the run is already marked
        # incorrect.
        gmean = statistics.geometric_mean
        passed = [s for s in untraced if s.passed]
        probe = gmean(s.probe_s for s in untraced)
        scale = PROBE_REF_S / probe
        print("# raw geometric means: " + json.dumps({
            "probe_s": probe, "wall_s": gmean(s.wall_s for s in passed) if passed else None,
            "setup_s": gmean(setup_walls)}))

        def timing(values, per_second=False):
            if not passed:
                return 0.0
            return gmean(values) / scale if per_second else gmean(values) * scale

        metrics = {
            "wall_s": (timing(s.wall_s for s in passed), "s"),
            "reps_per_s": (timing((s.reps_per_s for s in passed), per_second=True), "1/s"),
            "cpu_s": (timing(s.cpu_s for s in passed), "s"),
            "peak_rss_mb": (med(s.peak_rss_mb for s in passed) if passed else 0.0, "MB"),
            "setup_s": (gmean(setup_walls) * scale, "s"),
            "ok_frac": ((attempted - failed) / attempted, "frac"),
        }
    else:
        layers = [layer_values(t) for t in traces]
        for name in EXACT:
            if len({v[name] for v in layers}) > 1:
                reasons.append(f"count {name} differs between traced commands: "
                               f"{[v[name] for v in layers]}")
        if any(t["counters"].get("pool.idle_s") and not t["counters"].get("pool.chunks")
               for t in traces):
            reasons.append("a process pool ran but its workers left no trace "
                           "(traced.py needs fork-started workers)")
        values = {name: med(v[name] for v in layers) for name in layers[0]}
        values["analysis.build_reference_B.s"] = med(
            layer_values(t)["analysis.build_reference_B.s"] for t in setup_traces)
        values["trace.overhead_ratio"] = (med(s.wall_s for s in traced)
                                          / med(s.wall_s for s in untraced))
        metrics = {name: (values[name], unit) for name, (unit, _) in PER_LAYER.items()}
        leader = max(SELF_TIMES, key=lambda name: values[name])
        print(f"# leading self time: {leader} = {values[leader]:.4f} s per command")
        print(f"# us per replication by n (traced run_batch spans): {per_rep_us(traces)}")
    for r in reasons[:20]:
        print(r, file=sys.stderr)
    return {"correct": not reasons, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def per_rep_us(traces) -> dict:
    """Median microseconds per replication of the traced run_batch spans, by n."""
    by_n = {}
    for tr in traces:
        for n, N, seconds in tr["cell_times"]:
            by_n.setdefault(n, []).append(1e6 * seconds / N)
    return {n: round(statistics.median(v), 1) for n, v in sorted(by_n.items())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit so the running command is killed and the
    # work directory removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "randode" / "cli.py").is_file():
        print(f"error: no randode sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    wl = WORKLOADS[args.workload]
    seed = cli_seed(args.seed)
    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="perfbench-", dir=WORK_PARENT))
    try:
        result = bench(wl, seed, args.seconds, bool(args.trace), golden, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stamp = dict(env_stamp(), workload=wl.name, seed=args.seed, cli_seed=seed,
                 trace=args.trace, seconds=args.seconds)
    print("# env " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
