"""Command-line front end: solve, table, band, tail, diagnose, build-ref.

Configuration comes from an INI file ("key = value" under an [experiment]
section) with command-line flags taking precedence.  Every command that
writes files also writes a manifest.json recording the resolved
configuration, the package version, wall-clock time and a checksum per
output file; re-running with the same inputs reproduces the checksums.

Exit codes: 0 success, 1 failed checks or incomplete tables, 2 usage errors.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .analysis import (
    DEFAULT_REF_STEPS,
    MIN_REF_STEPS,
    build_reference_B,
    confidence_band,
    convergence_slope,
    default_ref_cache,
    derive_cell_seed,
    reference_for,
    run_batch,
    run_cells,
    tail_curve,
    xi_hat,
)
from .exceptions import ConvergenceError, DomainError, NumericalError, ReferenceSolutionError
from .noise import NoiseModel, NoisyOracle, parse_delta_rule, verify_noise_bound
from .problems import make_problem
from .schemes import (
    SchemeKind,
    gamma_of,
    martingale_diagnostic,
    run_scheme,
    scheme_from_name,
    write_csv,
)

DEFAULT_SEED = 12345
DEFAULT_EPSILON = 0.05
DEFAULT_N_LIST = "10 20 50 100 200 500 1000 2000 5000"
EE_DELTA_RULES = "0 n^-1.1 n^-1 n^-0.9 2e-3 1e-4"
RK_DELTA_RULES = "0 n^-1.6 n^-1.5 n^-1.4 2e-3 1e-4"

SLOPE_BANDS = {
    SchemeKind.EXPLICIT_EULER: (-1.15, -0.85),
    SchemeKind.IMPLICIT_EULER: (-1.15, -0.85),
    SchemeKind.RUNGE_KUTTA2: (-1.65, -1.35),
}


class UsageError(Exception):
    pass


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Manifest:
    def __init__(self, command: str, config: dict):
        self.command = command
        self.config = config
        self.outputs = {}
        self.cells = None  # table: per cell, n, delta label and NA reason
        self._t0 = time.monotonic()

    def add(self, path):
        self.outputs[os.path.basename(path)] = _sha256(path)

    def write(self, out_dir):
        doc = {
            "command": self.command,
            "version": __version__,
            "config": self.config,
            "wall_seconds": round(time.monotonic() - self._t0, 3),
            "outputs": self.outputs,
        }
        if self.cells is not None:
            doc["cells"] = self.cells
        path = os.path.join(out_dir, "manifest.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def _load_config(path) -> dict:
    if not path:
        return {}
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive: N (replications) is not n (steps)
    parser.read(path)
    section = "experiment" if parser.has_section("experiment") else parser.default_section
    return dict(parser[section])


_CONFIG_ALIASES = {
    "seed": ("master_seed",),
    "out": ("output_dir",),
    "subsamples": ("subsamples_per_step",),
}

def _resolve(args, cfg: dict, key: str, default=None, cast=str):
    """The flag, else the config value, else default; removes the key's spellings from cfg."""
    raw = None
    for name in (key, key.replace("_", "-")) + _CONFIG_ALIASES.get(key, ()):
        value = cfg.pop(name, None)
        if raw is None:
            raw = value
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if raw is None:
        return default
    try:
        return cast(raw)
    except ValueError as exc:
        raise UsageError(f"bad config value {key} = {raw!r}: {exc}") from exc


def _reject_unread(cfg: dict, command: str):
    """Once a command has resolved its settings, a key left in cfg is one it does not read."""
    if cfg:
        raise UsageError(f"config key(s) not read by {command}: {', '.join(sorted(cfg))}")


def _noise_for(kind: str, scheme: SchemeKind, delta: float) -> NoiseModel:
    """Noise model for one run; kind 'auto' follows the scheme, delta 0 is exact."""
    if kind in (None, "auto"):
        kind = scheme.value
    if delta == 0.0:
        kind = "exact"
    return NoiseModel(kind, delta)


def _check_steps(ns):
    """Reject an empty list of step counts or one below 1, before any delta rule reads it."""
    if not ns or min(ns) < 1:
        raise UsageError(f"step counts must be >= 1, got {list(ns)}")


def _check_run(epsilon: float, ref_steps: int, subsamples: int = 1, parallelism: int = 1):
    """Reject a quantile level outside (0, 1), a count below 1 or a reference build
    below MIN_REF_STEPS steps, before any work is done."""
    if not 0.0 < epsilon < 1.0:
        raise UsageError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if subsamples < 1 or parallelism < 1:
        raise UsageError(f"subsamples ({subsamples}) and parallelism ({parallelism}) must be >= 1")
    if ref_steps < MIN_REF_STEPS:
        raise UsageError(f"--ref-steps must be >= {MIN_REF_STEPS}, got {ref_steps}")


def _int_list(text: str):
    try:
        return [int(v) for v in text.replace(",", " ").split()]
    except ValueError as exc:
        raise UsageError(f"bad integer list {text!r}") from exc


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    problem = make_problem(_resolve(args, cfg, "problem", "A"))
    scheme = scheme_from_name(_resolve(args, cfg, "scheme", "ee"))
    n = _resolve(args, cfg, "n", 10, int)
    _check_steps([n])
    seed = _resolve(args, cfg, "seed", DEFAULT_SEED, int)
    out = _resolve(args, cfg, "out", "out")
    rule = parse_delta_rule(_resolve(args, cfg, "delta", "0"))
    delta = rule.value_for(n)
    noise = _noise_for(_resolve(args, cfg, "noise", "auto"), scheme, delta)
    _reject_unread(cfg, "solve")

    taus = None
    if args.force_tau is not None:
        if not 0.0 <= args.force_tau <= 1.0:
            raise UsageError("--force-tau must lie in [0, 1]")
        taus = np.full(n, args.force_tau)

    manifest = Manifest("solve", {"problem": problem.name, "scheme": scheme.value,
                                  "n": n, "noise": noise.kind, "delta": delta,
                                  "seed": seed, "force_tau": args.force_tau})
    tr = run_scheme(NoisyOracle(problem, noise, seed, 0), scheme, n, taus=taus)
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "trajectory.csv")
    tr.write_csv(path)
    manifest.add(path)
    if args.dense:
        ts = np.linspace(problem.a, problem.b, args.dense)
        vals = tr.dense(ts)
        dpath = os.path.join(out, "trajectory_dense.csv")
        write_csv(dpath, ["t"] + [f"x{k}" for k in range(vals.shape[1])],
                  np.column_stack([ts, vals]))
        manifest.add(dpath)
    manifest.write(out)
    print(f"wrote {path} ({n + 1} rows), oracle evaluations: {tr.eval_count}")
    return 0


# ---------------------------------------------------------------------------
# table


def _cell_N(n: int, explicit_N) -> int:
    if explicit_N is not None:
        return explicit_N
    return 10_000 if n >= 1000 else 100_000


def cmd_table(args) -> int:
    cfg = _load_config(args.config)
    problem = make_problem(_resolve(args, cfg, "problem", "A"))
    scheme = scheme_from_name(_resolve(args, cfg, "scheme", "ee"))
    ns = _int_list(_resolve(args, cfg, "n_list", DEFAULT_N_LIST))
    _check_steps(ns)
    default_rules = RK_DELTA_RULES if scheme is SchemeKind.RUNGE_KUTTA2 else EE_DELTA_RULES
    rules = [parse_delta_rule(v)
             for v in _resolve(args, cfg, "delta_rules", default_rules).replace(",", " ").split()]
    epsilon = _resolve(args, cfg, "epsilon", DEFAULT_EPSILON, float)
    explicit_N = _resolve(args, cfg, "N", None, int)
    seed = _resolve(args, cfg, "seed", DEFAULT_SEED, int)
    out = _resolve(args, cfg, "out", "out")
    parallelism = _resolve(args, cfg, "parallelism", 1, int)
    subsamples = _resolve(args, cfg, "subsamples", 8, int)
    kind = _resolve(args, cfg, "noise", "auto")
    _reject_unread(cfg, "table")
    _check_run(epsilon, args.ref_steps, subsamples, parallelism)
    if explicit_N is not None and explicit_N < 100:
        raise UsageError("table requires N >= 100")
    noises = [[_noise_for(kind, scheme, rule.value_for(n)) for rule in rules] for n in ns]
    os.makedirs(out, exist_ok=True)
    if explicit_N is not None and explicit_N < 10.0 / epsilon:
        print(f"warning: N = {explicit_N} is below 10/epsilon = {10.0 / epsilon:.0f}; "
              f"the quantile estimate will be coarse", file=sys.stderr)

    gamma = gamma_of(scheme, problem.class_params.rho)
    reference = reference_for(problem, cache_path=args.ref_cache, n_ref=args.ref_steps)
    manifest = Manifest("table", {
        "problem": problem.name, "scheme": scheme.value, "n_list": ns,
        "delta_rules": [r.label for r in rules], "epsilon": epsilon,
        "N": explicit_N, "seed": seed, "gamma": gamma,
        "parallelism": parallelism, "subsamples": subsamples})

    rows = []
    failures = []
    manifest.cells = []
    for n, row_noises in zip(ns, noises):
        cell_seed = derive_cell_seed(seed, scheme, problem.name, n)
        N = _cell_N(n, explicit_N)
        row = [str(n)]
        # one run for the whole row: its cells share the cell seed's draws
        batches = run_cells(problem, reference, scheme, n, row_noises, N, cell_seed,
                            parallelism=parallelism, subsamples_per_step=subsamples)
        for rule, batch in zip(rules, batches):
            reason = str(batch) if isinstance(batch, Exception) else None
            if reason is None:
                row.append(repr(xi_hat(batch, epsilon, gamma).xi_hat))
            else:
                failures.append((n, rule.label, reason))
                row.append("NA")
            manifest.cells.append({"n": n, "delta": rule.label, "na_reason": reason})
        rows.append(row)
        print(f"n={n:6d} done (N={N})")

    path = os.path.join(out, f"table_{scheme.value}_{problem.name}.csv")
    write_csv(path, ["n"] + [f"delta={r.label}" for r in rules], rows)
    manifest.add(path)
    manifest.write(out)
    print(f"wrote {path}")
    if failures:
        for n, label, msg in failures:
            print(f"cell (n={n}, delta={label}) failed: {msg}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# band


def cmd_band(args) -> int:
    cfg = _load_config(args.config)
    problem = make_problem(_resolve(args, cfg, "problem", "A"))
    scheme = scheme_from_name(_resolve(args, cfg, "scheme", "ee"))
    n = _resolve(args, cfg, "n", 25, int)
    _check_steps([n])
    xi = _resolve(args, cfg, "xi", None, float)
    if xi is None or xi <= 0:
        raise UsageError("band requires --xi > 0")
    epsilon = _resolve(args, cfg, "epsilon", DEFAULT_EPSILON, float)
    seed = _resolve(args, cfg, "seed", DEFAULT_SEED, int)
    out = _resolve(args, cfg, "out", "out")
    grid_points = _resolve(args, cfg, "grid_points", 201, int)
    if grid_points < 2:
        raise UsageError(f"--grid-points must be >= 2, got {grid_points}")
    gamma = gamma_of(scheme, problem.class_params.rho)

    delta_text = _resolve(args, cfg, "delta", None)
    if delta_text is None:
        delta = float(n) ** -gamma
        delta_label = f"n^-{gamma:g}"
    else:
        rule = parse_delta_rule(delta_text)
        delta = rule.value_for(n)
        delta_label = rule.label
    noise = _noise_for(_resolve(args, cfg, "noise", "auto"), scheme, delta)
    _reject_unread(cfg, "band")
    _check_run(epsilon, args.ref_steps)
    reference = reference_for(problem, cache_path=args.ref_cache, n_ref=args.ref_steps)

    manifest = Manifest("band", {"problem": problem.name, "scheme": scheme.value,
                                 "n": n, "xi": xi, "delta": delta,
                                 "delta_label": delta_label, "epsilon": epsilon,
                                 "seed": seed, "gamma": gamma})
    tr = run_scheme(NoisyOracle(problem, noise, seed, 0), scheme, n)
    band = confidence_band(tr, gamma, delta, xi, grid_points=grid_points, epsilon=epsilon)
    ref_vals = reference.values_at(band.ts)

    os.makedirs(out, exist_ok=True)
    csv_path = os.path.join(out, f"band_{scheme.value}_{problem.name}.csv")
    band.write_csv(csv_path)
    manifest.add(csv_path)
    svg_path = os.path.join(out, f"band_{scheme.value}_{problem.name}.svg")
    band.write_svg(svg_path, reference=reference,
                   title=f"{scheme.value} on {problem.name}: n={n}, "
                         f"radius={band.radius:.4g} (xi={xi:g}, delta={delta_label})")
    manifest.add(svg_path)
    manifest.write(out)
    inside = np.all(np.sum(np.abs(ref_vals - band.center), axis=1) <= band.radius)
    print(f"wrote {csv_path} and {svg_path}; radius={band.radius!r}; "
          f"reference inside band on the grid: {bool(inside)}")
    return 0


# ---------------------------------------------------------------------------
# tail


def cmd_tail(args) -> int:
    cfg = _load_config(args.config)
    problem = make_problem(_resolve(args, cfg, "problem", "A"))
    scheme = scheme_from_name(_resolve(args, cfg, "scheme", "ee"))
    n = _resolve(args, cfg, "n", 100, int)
    _check_steps([n])
    N = _resolve(args, cfg, "N", 100_000, int)
    if N < 100:
        raise UsageError("tail requires N >= 100")
    epsilon = _resolve(args, cfg, "epsilon", DEFAULT_EPSILON, float)
    seed = _resolve(args, cfg, "seed", DEFAULT_SEED, int)
    out = _resolve(args, cfg, "out", "out")
    parallelism = _resolve(args, cfg, "parallelism", 1, int)
    subsamples = _resolve(args, cfg, "subsamples", 8, int)
    rule = parse_delta_rule(_resolve(args, cfg, "delta", "0"))
    delta = rule.value_for(n)
    noise = _noise_for(_resolve(args, cfg, "noise", "auto"), scheme, delta)
    _reject_unread(cfg, "tail")
    _check_run(epsilon, args.ref_steps, subsamples, parallelism)
    if args.xi_points < 1 or (args.xi_max is not None and args.xi_max < 0):
        raise UsageError(f"xi-points ({args.xi_points}) must be >= 1 and xi-max "
                         f"({args.xi_max}) >= 0")
    if N < 10.0 / epsilon:
        print(f"warning: N = {N} is below 10/epsilon = {10.0 / epsilon:.0f}; "
              f"tail probabilities near {epsilon} will be coarse", file=sys.stderr)
    gamma = gamma_of(scheme, problem.class_params.rho)
    reference = reference_for(problem, cache_path=args.ref_cache, n_ref=args.ref_steps)

    manifest = Manifest("tail", {"problem": problem.name, "scheme": scheme.value,
                                 "n": n, "N": N, "delta": delta, "seed": seed,
                                 "gamma": gamma})
    batch = run_batch(problem, reference, scheme, n, noise, N,
                      derive_cell_seed(seed, scheme, problem.name, n),
                      parallelism=parallelism, subsamples_per_step=subsamples)
    denom = max(float(n) ** -gamma, delta)
    xi_max = args.xi_max if args.xi_max is not None else float(batch.errors[-1]) / denom
    grid = np.linspace(0.0, xi_max, args.xi_points)
    curve = tail_curve(batch, gamma, grid)
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"tail_{scheme.value}_{problem.name}_n{n}.csv")
    curve.write_csv(path)
    manifest.add(path)
    manifest.write(out)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# diagnose


def cmd_diagnose(args) -> int:
    cfg = _load_config(args.config)
    problem = make_problem(_resolve(args, cfg, "problem", "A"))
    seed = _resolve(args, cfg, "seed", DEFAULT_SEED, int)
    out = _resolve(args, cfg, "out", "out")
    reps = _resolve(args, cfg, "reps", 100_000, int)
    slope_N = _resolve(args, cfg, "N", 128, int)
    _reject_unread(cfg, "diagnose")
    if slope_N < 1 or reps < 2:
        raise UsageError(f"diagnose requires N >= 1 and reps >= 2, got N = {slope_N}, "
                         f"reps = {reps}")
    checks = []

    # conditional mean of the local quadrature error (analytic pair of problem A)
    diag = martingale_diagnostic(10, reps, seed)
    z = diag.max_standardized
    checks.append({"name": "martingale_mean_zero", "passed": bool(z <= 4.0),
                   "max_standardized_mean": z, "reps": reps})

    reference = reference_for(problem, cache_path=args.ref_cache, n_ref=args.ref_steps)
    ladder = [64, 128, 256, 512, 1024]
    for scheme in (SchemeKind.EXPLICIT_EULER, SchemeKind.RUNGE_KUTTA2):
        fit = convergence_slope(problem, reference, scheme, ladder, slope_N, seed)
        lo, hi = SLOPE_BANDS[scheme]
        checks.append({"name": f"order_slope_{scheme.value}",
                       "passed": bool(lo <= fit.slope <= hi),
                       "slope": fit.slope, "expected": [lo, hi], "N": slope_N})

    rng = np.random.default_rng(seed)
    for kind in ("ee", "ie", "rk"):
        noise = NoiseModel(kind, 0.05)
        oracle = NoisyOracle(problem, noise, seed, 0, record_samples=True)
        for _ in range(500):
            t = problem.a + (problem.b - problem.a) * rng.random()
            x = problem.eta + rng.normal(size=problem.d)
            oracle.noisy_eval(t, x)
        samples = oracle.samples
        if args.tamper_noise:
            samples = [(t, x, 2.0 * p) for t, x, p in samples]
        ok = verify_noise_bound(noise, samples)
        checks.append({"name": f"noise_bound_{kind}", "passed": bool(ok),
                       "samples": len(samples), "tampered": bool(args.tamper_noise)})

    passed = all(c["passed"] for c in checks)
    report = {"passed": passed, "problem": problem.name, "seed": seed, "checks": checks}
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "diagnose.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# build-ref


def cmd_build_ref(args) -> int:
    cache = args.ref_cache or default_ref_cache(args.ref_steps)
    ref = build_reference_B(n_ref=args.ref_steps, cache_path=cache)
    print(f"reference for B at {cache}: {ref.grid_values.shape[0]} grid values on "
          f"[{ref.a}, {ref.b}], "
          f"sha256={ref.provenance.get('sha256', '')[:16]}...")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(p, *names):
    if "problem" in names:
        p.add_argument("--problem", help="test problem name (A or B)")
    if "scheme" in names:
        p.add_argument("--scheme", help="integrator: ee, ie or rk")
    if "n" in names:
        p.add_argument("--n", type=int, help="step count")
    if "noise" in names:
        p.add_argument("--noise", choices=["auto", "exact", "ee", "ie", "rk"],
                       help="noise class (default: matches the scheme; exact when delta=0)")
    if "delta" in names:
        p.add_argument("--delta", help="noise budget: literal or n^-p rule")
    if "epsilon" in names:
        p.add_argument("--epsilon", type=float, help="quantile level (default 0.05)")
    if "N" in names:
        p.add_argument("--N", type=int, help="Monte Carlo replications")
    if "seed" in names:
        p.add_argument("--seed", type=int, help="master seed (default 12345)")
    if "out" in names:
        p.add_argument("--out", help="output directory (default ./out)")
    if "parallelism" in names:
        p.add_argument("--parallelism", type=int, help="worker processes (default 1)")
    if "subsamples" in names:
        p.add_argument("--subsamples", type=int,
                       help="interior sup-norm samples per subinterval (default 8)")
    if "ref" in names:
        p.add_argument("--ref-cache", help="reference cache file for problem B")
        p.add_argument("--ref-steps", type=int, default=DEFAULT_REF_STEPS,
                       help="reference build steps for problem B (default 2e6)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="randode",
                                 description="Randomized ODE scheme experiments")
    ap.add_argument("--config", help="INI config file ([experiment] section)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one trajectory and write it as CSV")
    _add_common(p, "problem", "scheme", "n", "noise", "delta", "seed", "out")
    p.add_argument("--dense", type=int, help="also write the interpolant on K points")
    p.add_argument("--force-tau", type=float,
                   help="test hook: fix every step's tau to this value")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("table", help="quantile multiplier table over (n, delta) cells")
    _add_common(p, "problem", "scheme", "noise", "epsilon", "N", "seed", "out",
                "parallelism", "subsamples", "ref")
    p.add_argument("--n-list", dest="n_list", help="step counts, space or comma separated")
    p.add_argument("--delta-rules", dest="delta_rules",
                   help="delta columns, e.g. '0 n^-1 2e-3'")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("band", help="confidence band around one noisy run")
    _add_common(p, "problem", "scheme", "n", "noise", "delta", "epsilon", "seed", "out",
                "ref")
    p.add_argument("--xi", type=float, help="band multiplier (required, > 0)")
    p.add_argument("--grid-points", dest="grid_points", type=int,
                   help="band evaluation grid size (default 201)")
    p.set_defaults(func=cmd_band)

    p = sub.add_parser("tail", help="empirical exceedance curve for one cell")
    _add_common(p, "problem", "scheme", "n", "noise", "delta", "epsilon", "N",
                "seed", "out", "parallelism", "subsamples", "ref")
    p.add_argument("--xi-max", type=float, help="largest xi on the grid (default: auto)")
    p.add_argument("--xi-points", type=int, default=41, help="grid size (default 41)")
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser("diagnose", help="self checks: mean-zero local errors, "
                                        "order slopes, noise bounds")
    _add_common(p, "problem", "N", "seed", "out", "ref")
    p.add_argument("--reps", type=int, help="replications for the mean-zero check")
    p.add_argument("--tamper-noise", action="store_true",
                   help="test hook: double recorded perturbations so the bound check fails")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("build-ref", help="build (or refresh) the problem-B reference cache")
    _add_common(p, "ref")
    p.set_defaults(func=cmd_build_ref)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, ConvergenceError, ReferenceSolutionError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
