"""Command-line front end: solve, table, band, tail, diagnose, build-ref.

Each setting is declared once, in SETTINGS: its flag --name ("_" written as
"-"), type, default, help and, if it has a range, its valid values.  COMMANDS
names the settings each command reads and its own defaults.  Every setting is
also a config key: an INI file given as --config ("key = value" under an
[experiment] section) sets the command's defaults, so a flag still wins.  A
key may be spelt with "_" or "-", and master_seed, output_dir and
subsamples_per_step stand for seed, out and subsamples.  A key the command does
not read, two keys for one setting, a section other than [experiment], or a
value outside its setting's range is a usage error, found before any work.
Every command that writes files also writes a manifest.json recording every
setting it read but the paths (resolved values in place of raw ones), the
package version, wall-clock time and a checksum per output file; re-running
with the same inputs reproduces the checksums.

Exit codes: 0 success, 1 failed checks or incomplete tables, 2 usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import sys
import time

# randode makes no BLAS call, and numpy's OpenBLAS starts a pool of threads at
# import that burns CPU for nothing; a value the user set is kept
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# The import-time heap lives as long as the process: no cyclic collection scans
# it while the imports run, nor later (it is frozen below), nor at exit, and
# forked pool workers inherit it frozen.  A collector the caller disabled stays so.
_gc_was_enabled = gc.isenabled()
gc.disable()

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
    error_scale,
    reference_for,
    run_batch,
    run_rows,
    tail_curve,
    xi_hat,
)
from .exceptions import DomainError, ReferenceSolutionError, _RunError
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

gc.freeze()
if _gc_was_enabled:
    gc.enable()

EE_DELTA_RULES = "0 n^-1.1 n^-1 n^-0.9 2e-3 1e-4"
RK_DELTA_RULES = "0 n^-1.6 n^-1.5 n^-1.4 2e-3 1e-4"

SLOPE_BANDS = {
    SchemeKind.EXPLICIT_EULER: (-1.15, -0.85),
    SchemeKind.IMPLICIT_EULER: (-1.15, -0.85),
    SchemeKind.RUNGE_KUTTA2: (-1.65, -1.35),
}


class UsageError(Exception):
    pass


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Manifest:
    """manifest.json of one run: the settings the command read (paths left out, the
    command's resolved values in place of the raw ones) and a checksum per output."""

    def __init__(self, command: str, args, **resolved):
        self.command, self.out = command, args.out
        self.config = {name: getattr(args, name) for name in COMMANDS[command][2].split()
                       if name not in ("out", "ref_cache")}
        self.config.update(resolved)
        self.outputs = {}
        self.cells = None  # table: per cell, n, N, delta label and NA reason
        self._t0 = time.monotonic()

    def path(self, name: str) -> str:
        """An output file's path, its directory made on first use; write() hashes it."""
        os.makedirs(self.out, exist_ok=True)
        self.outputs[name] = path = os.path.join(self.out, name)
        return path

    def write(self):
        outputs = {name: _sha256(path) for name, path in self.outputs.items()}
        doc = {
            "command": self.command,
            "version": __version__,
            "config": self.config,
            "wall_seconds": round(time.monotonic() - self._t0, 3),
            "outputs": outputs,
        }
        if self.cells is not None:
            doc["cells"] = self.cells
        _write_json(os.path.join(self.out, "manifest.json"), doc)


_CONFIG_ALIASES = {"master_seed": "seed", "output_dir": "out", "subsamples_per_step": "subsamples"}


def _config_defaults(path, command: str) -> dict:
    """The [experiment] values of a config file as the command's defaults, each one
    converted with its setting's type; [DEFAULT] is the only other section it may have."""
    import configparser  # only --config reads one

    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive: N (replications) is not n (steps)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise UsageError(f"bad config file {path}: {exc}") from exc
    other = [name for name in parser.sections() if name != "experiment"]
    if other:
        raise UsageError(f"config file {path} has section [{other[0]}]; only [experiment] "
                         f"is read")
    section = "experiment" if parser.has_section("experiment") else parser.default_section
    items = list(parser[section].items())
    reads = COMMANDS[command][2].split()
    defaults = {}
    for key, raw in items:
        name = _CONFIG_ALIASES.get(key, key).replace("-", "_")
        if name not in reads:
            raise UsageError(f"config key {key} is not read by {command}")
        if name in defaults:
            raise UsageError(f"config key {key} sets {name} a second time")
        spec = SETTINGS[name]
        try:
            defaults[name] = spec.get("type", str)(raw)
            if "choices" in spec and defaults[name] not in spec["choices"]:
                raise ValueError(f"not one of {spec['choices']}")
        except ValueError as exc:
            raise UsageError(f"bad config value {key} = {raw!r}: {exc}") from exc
    return defaults


def _noise_for(kind: str, scheme: SchemeKind, delta: float) -> NoiseModel:
    """Noise model for one run; kind 'auto' follows the scheme, delta 0 is exact."""
    if kind == "auto":
        kind = scheme.value
    if delta == 0.0:
        kind = "exact"
    return NoiseModel(kind, delta)


def _check_N(N: int, epsilon: float, command: str):
    """N must be >= 100; below 10/epsilon, estimates at level epsilon are coarse."""
    if N < 100:
        raise UsageError(f"{command} requires N >= 100")
    if N < 10.0 / epsilon:
        print(f"warning: N = {N} is below 10/epsilon = {10.0 / epsilon:.0f}; "
              f"estimates near epsilon = {epsilon} will be coarse", file=sys.stderr)


def _int_list(text: str):
    try:
        return [int(v) for v in text.replace(",", " ").split()]
    except ValueError as exc:
        raise UsageError(f"bad integer list {text!r}") from exc


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args) -> int:
    problem = make_problem(args.problem)
    scheme = scheme_from_name(args.scheme)
    n = args.n
    delta = parse_delta_rule(args.delta).value_for(n)
    noise = _noise_for(args.noise, scheme, delta)

    manifest = Manifest("solve", args, problem=problem.name, scheme=scheme.value,
                        noise=noise.kind, delta=delta)
    tr = run_scheme(NoisyOracle(problem, noise, args.seed, 0), scheme, n)
    path = manifest.path("trajectory.csv")
    tr.write_csv(path)
    if args.dense:
        ts = np.linspace(problem.a, problem.b, args.dense)
        vals = tr.dense(ts)
        write_csv(manifest.path("trajectory_dense.csv"),
                  ["t"] + [f"x{k}" for k in range(vals.shape[1])], np.column_stack([ts, vals]))
    manifest.write()
    print(f"wrote {path} ({n + 1} rows), oracle evaluations: {tr.eval_count}")
    return 0


# ---------------------------------------------------------------------------
# table


def cmd_table(args) -> int:
    problem = make_problem(args.problem)
    scheme = scheme_from_name(args.scheme)
    ns = _int_list(args.n_list)
    if not ns or min(ns) < 1:
        raise UsageError(f"step counts must be >= 1, got {ns}")
    rules = args.delta_rules
    if rules is None:
        rules = RK_DELTA_RULES if scheme is SchemeKind.RUNGE_KUTTA2 else EE_DELTA_RULES
    rules = [parse_delta_rule(v) for v in rules.replace(",", " ").split()]
    if not rules:
        raise UsageError("table needs at least one delta column")
    epsilon, seed = args.epsilon, args.seed
    noises = [[_noise_for(args.noise, scheme, rule.value_for(n)) for rule in rules] for n in ns]
    row_Ns = [args.N or (10_000 if n >= 1000 else 100_000) for n in ns]
    for N in dict.fromkeys(row_Ns):
        _check_N(N, epsilon, "table")

    gamma = gamma_of(scheme, problem.class_params.rho)
    reference = reference_for(problem, cache_path=args.ref_cache, n_ref=args.ref_steps)
    manifest = Manifest("table", args, problem=problem.name, scheme=scheme.value, n_list=ns,
                        delta_rules=[r.label for r in rules], gamma=gamma)

    rows = []
    failures = []
    manifest.cells = []
    # the cell seeds and all rows' chunks, as one map, in the manifest's wall time
    table_rows = [(n, row_noises, N, derive_cell_seed(seed, scheme, problem.name, n))
                  for n, row_noises, N in zip(ns, noises, row_Ns)]
    row_cells = run_rows(problem, reference, scheme, table_rows, parallelism=args.parallelism,
                         subsamples_per_step=args.subsamples)
    sizes = zip(ns, row_Ns)
    with contextlib.closing(row_cells):
        for batches in row_cells:  # not zipped: zip's reused tuple would hold the last row
            n, N = next(sizes)
            row = [str(n)]
            for rule, batch in zip(rules, batches):
                reason = str(batch) if isinstance(batch, Exception) else None
                if reason is None:
                    row.append(repr(xi_hat(batch, epsilon, gamma).xi_hat))
                else:
                    failures.append((n, rule.label, reason))
                    row.append("NA")
                manifest.cells.append({"n": n, "N": N, "delta": rule.label,
                                       "na_reason": reason})
            rows.append(row)
            print(f"n={n:6d} done (N={N})")
            del batches, batch  # so run_rows computes the next row without this one

    path = manifest.path(f"table_{scheme.value}_{problem.name}.csv")
    write_csv(path, ["n"] + [f"delta={r.label}" for r in rules], rows)
    manifest.write()
    print(f"wrote {path}")
    if failures:
        for n, label, msg in failures:
            print(f"cell (n={n}, delta={label}) failed: {msg}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# band


def cmd_band(args) -> int:
    problem = make_problem(args.problem)
    scheme = scheme_from_name(args.scheme)
    n, xi, epsilon, seed = args.n, args.xi, args.epsilon, args.seed
    if xi is None:
        raise UsageError("band requires --xi")
    gamma = gamma_of(scheme, problem.class_params.rho)

    if args.delta is None:
        delta, delta_label = error_scale(n, 1.0, gamma, 0.0), f"n^-{gamma:g}"
    else:
        rule = parse_delta_rule(args.delta)
        delta, delta_label = rule.value_for(n), rule.label
    noise = _noise_for(args.noise, scheme, delta)
    reference = reference_for(problem, cache_path=args.ref_cache, n_ref=args.ref_steps)

    manifest = Manifest("band", args, problem=problem.name, scheme=scheme.value,
                        noise=noise.kind, delta=delta, delta_label=delta_label, gamma=gamma)
    tr = run_scheme(NoisyOracle(problem, noise, seed, 0), scheme, n)
    band = confidence_band(tr, gamma, delta, xi, grid_points=args.grid_points, epsilon=epsilon)
    ref_vals = reference.values_at(band.ts)

    csv_path = manifest.path(f"band_{scheme.value}_{problem.name}.csv")
    band.write_csv(csv_path)
    svg_path = manifest.path(f"band_{scheme.value}_{problem.name}.svg")
    band.write_svg(svg_path, reference=reference,
                   title=f"{scheme.value} on {problem.name}: n={n}, "
                         f"radius={band.radius:.4g} (xi={xi:g}, delta={delta_label})")
    manifest.write()
    inside = np.all(np.sum(np.abs(ref_vals - band.center), axis=1) <= band.radius)
    print(f"wrote {csv_path} and {svg_path}; radius={band.radius!r}; "
          f"reference inside band on the grid: {bool(inside)}")
    return 0


# ---------------------------------------------------------------------------
# tail


def cmd_tail(args) -> int:
    problem = make_problem(args.problem)
    scheme = scheme_from_name(args.scheme)
    n, N, seed = args.n, args.N, args.seed
    delta = parse_delta_rule(args.delta).value_for(n)
    noise = _noise_for(args.noise, scheme, delta)
    _check_N(N, args.epsilon, "tail")
    gamma = gamma_of(scheme, problem.class_params.rho)
    reference = reference_for(problem, cache_path=args.ref_cache, n_ref=args.ref_steps)

    manifest = Manifest("tail", args, problem=problem.name, scheme=scheme.value,
                        noise=noise.kind, delta=delta, gamma=gamma)
    batch = run_batch(problem, reference, scheme, n, noise, N,
                      derive_cell_seed(seed, scheme, problem.name, n),
                      parallelism=args.parallelism, subsamples_per_step=args.subsamples)
    scale = error_scale(n, problem.b - problem.a, gamma, delta)
    xi_max = args.xi_max if args.xi_max is not None else float(batch.errors[-1]) / scale
    manifest.config["xi_max"] = xi_max
    curve = tail_curve(batch, gamma, np.linspace(0.0, xi_max, args.xi_points))
    path = manifest.path(f"tail_{scheme.value}_{problem.name}_n{n}.csv")
    curve.write_csv(path)
    manifest.write()
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# diagnose


def cmd_diagnose(args) -> int:
    problem = make_problem(args.problem)
    seed, reps, slope_N = args.seed, args.reps, args.N
    manifest = Manifest("diagnose", args)
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
        for _ in range(250):  # pairs at one t, so the ie check compares each pair's states
            t = problem.a + (problem.b - problem.a) * rng.random()
            for _ in range(2):
                oracle.noisy_eval(t, problem.eta + rng.normal(size=problem.d))
        ok = verify_noise_bound(noise, oracle.samples)
        checks.append({"name": f"noise_bound_{kind}", "passed": bool(ok),
                       "samples": len(oracle.samples)})

    passed = all(c["passed"] for c in checks)
    report = {"passed": passed, "problem": problem.name, "seed": seed, "checks": checks}
    _write_json(manifest.path("diagnose.json"), report)
    manifest.write()
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# build-ref


def cmd_build_ref(args) -> int:
    cache = args.ref_cache or default_ref_cache(args.ref_steps)
    ref = build_reference_B(n_ref=args.ref_steps, cache_path=cache)
    print(f"reference for B at {cache}: {ref.provenance['n_ref'] + 1} grid values on "
          f"[{ref.a}, {ref.b}], sha256={ref.provenance.get('sha256', '')[:16]}...")
    return 0


# ---------------------------------------------------------------------------
# parser


def _dir_or_under_one(path: str) -> bool:
    """Whether path is a directory or os.makedirs can make one there: the first of path
    and its parents that exists is a directory."""
    while path and not os.path.lexists(path):
        path = os.path.dirname(path)
    return not path or os.path.isdir(path)


def _at_least(low):
    return (lambda v: v >= low, f">= {low}")


# Every setting once: flag --name ("_" written as "-"), type, default, help, and
# for a ranged one its valid values, as a test and its wording; main checks them.
SETTINGS = {
    "problem": dict(default="A", help="test problem name (A or B)"),
    "scheme": dict(default="ee", help="integrator: ee, ie or rk"),
    "n": dict(type=int, help="step count", valid=_at_least(1)),
    "n_list": dict(default="10 20 50 100 200 500 1000 2000 5000",
                   help="step counts, space or comma separated"),
    "noise": dict(default="auto", choices=["auto", "exact", "ee", "ie", "rk"],
                  help="noise class; auto matches the scheme, and delta 0 is exact"),
    "delta": dict(help="noise budget: literal or n^-p rule"),
    "delta_rules": dict(help="delta columns, e.g. '0 n^-1 2e-3'; None: the paper's six"),
    "epsilon": dict(type=float, default=0.05, help="quantile level",
                    valid=(lambda v: 0.0 < v < 1.0, "in (0, 1)")),
    "N": dict(type=int, help="Monte Carlo replications; table's None: 1e5, 1e4 from n = 1000",
              valid=_at_least(1)),
    "seed": dict(type=int, default=12345, help="master seed", valid=_at_least(0)),
    "out": dict(default="out", help="output directory",
                valid=(_dir_or_under_one, "a directory or a path under one")),
    "parallelism": dict(type=int, default=1, help="worker processes", valid=_at_least(1)),
    "subsamples": dict(type=int, default=8, help="interior sup-norm samples per subinterval",
                       valid=_at_least(1)),
    "ref_cache": dict(help="reference cache file for problem B"),
    "ref_steps": dict(type=int, default=DEFAULT_REF_STEPS, help="problem B's reference steps",
                      valid=_at_least(MIN_REF_STEPS)),
    "dense": dict(type=int, help="also write the interpolant on this many points",
                  valid=_at_least(0)),
    "xi": dict(type=float, help="band multiplier (required, > 0)",
               valid=(lambda v: 0.0 < v < math.inf, "finite and > 0")),
    "grid_points": dict(type=int, default=201, help="band evaluation grid size",
                        valid=_at_least(2)),
    "xi_max": dict(type=float, help="largest xi on the grid; None: the largest error's",
                   valid=(lambda v: 0.0 <= v < math.inf, "finite and >= 0")),
    "xi_points": dict(type=int, default=41, help="xi grid size", valid=_at_least(1)),
    "reps": dict(type=int, default=100_000, help="replications for the mean-zero check",
                 valid=_at_least(2)),
}

_REF = "ref_cache ref_steps"
# command: (function, help, the settings it reads, its own defaults)
COMMANDS = {
    "solve": (cmd_solve, "run one trajectory and write it as CSV",
              "problem scheme n noise delta seed out dense", dict(n=10, delta="0")),
    "table": (cmd_table, "quantile multiplier table over (n, delta) cells",
              f"problem scheme n_list noise delta_rules epsilon N seed out parallelism "
              f"subsamples {_REF}", {}),
    "band": (cmd_band, "confidence band around one noisy run",
             f"problem scheme n noise delta xi epsilon grid_points seed out {_REF}", dict(n=25)),
    "tail": (cmd_tail, "empirical exceedance curve for one cell",
             f"problem scheme n noise delta epsilon N seed out parallelism subsamples "
             f"xi_max xi_points {_REF}", dict(n=100, N=100_000, delta="0")),
    "diagnose": (cmd_diagnose, "self checks: mean-zero local errors, order slopes, "
                               "noise bounds", f"problem N reps seed out {_REF}", dict(N=128)),
    "build-ref": (cmd_build_ref, "build (or refresh) the problem-B reference cache", _REF, {}),
}


def build_parser(argv=None):
    """The parser, and each command's subparser by name.

    Only the commands that argv names get their settings, since argparse parses
    no other; with argv None every command gets them.
    """
    ap = argparse.ArgumentParser(prog="randode",
                                 description="Randomized ODE scheme experiments")
    ap.add_argument("--config", help="INI config file ([experiment] section)")
    sub = ap.add_subparsers(dest="command", required=True)
    parsers = {}
    for command, (func, text, reads, defaults) in COMMANDS.items():
        p = parsers[command] = sub.add_parser(
            command, help=text, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        if argv is None or command in argv:
            for name in reads.split():
                spec = {k: v for k, v in SETTINGS[name].items() if k != "valid"}
                p.add_argument("--" + name.replace("_", "-"), **spec)
        p.set_defaults(func=func, **defaults)
    return ap, parsers


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap, parsers = build_parser(argv)
    args = ap.parse_args(argv)
    try:
        if args.config:  # its values become the command's defaults, so a flag still wins
            parsers[args.command].set_defaults(**_config_defaults(args.config, args.command))
            args = ap.parse_args(argv)
        for name in COMMANDS[args.command][2].split():  # before any work or output
            valid, wording = SETTINGS[name].get("valid", (None, None))
            value = getattr(args, name)
            if valid is not None and value is not None and not valid(value):
                raise UsageError(f"--{name.replace('_', '-')} must be {wording}, got {value!r}")
        return args.func(args)
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (_RunError, ReferenceSolutionError, OSError) as exc:  # numerical, worker, output
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
