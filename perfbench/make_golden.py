"""Regenerate perfbench/golden.json from the sources under src/.

    python3 perfbench/make_golden.py

Runs every workload's command once for each CLI seed the benchmark maps its
seeds to, and records each table cell as written and the sha256 of the tail
CSV.  Run it only at a commit whose outputs are known to be right: the
benchmark counts any difference from these values as a failed cell.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run as bench


def main() -> int:
    golden = {}
    bench.WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="golden-", dir=bench.WORK_PARENT))
    try:
        env = bench.child_env(work)
        (work / "home").mkdir()
        ref_cache = work / "cache" / f"refB_rk4_{bench.REF_STEPS}.bin"
        py = sys.executable
        for wl in bench.WORKLOADS.values():
            golden[wl.name] = {}
            bench.run_child([py, "-c", bench.SETUP_CODE, wl.problem, str(ref_cache)],
                            env, work, work / "setup.log")
            for s in range(bench.SEED_COUNT):
                seed = bench.cli_seed(s)
                out = work / f"{wl.name}-{seed}"
                sample = bench.run_child([py, "-m", "randode.cli"]
                                         + wl.argv(seed, out, ref_cache),
                                         env, work, work / "cmd.log")
                cells = bench.read_cells(wl, out)
                bad, why, _ = bench.check_command(wl, seed, out, sample.returncode, cells)
                if bad:
                    print(f"{wl.name} seed {seed}: {why}", file=sys.stderr)
                    return 1
                golden[wl.name][str(seed)] = cells
                print(f"{wl.name} seed {seed}: {sample.wall_s:.2f} s", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    bench.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
