"""Layer-boundary tracer for the benchmark's traced run.

    python3 perfbench/traced.py TRACE_DIR cli ARGS...            # one traced CLI command
    python3 perfbench/traced.py TRACE_DIR setup PROBLEM CACHE    # traced reference set-up

Wraps the module-level functions at each layer boundary of the ``randode``
package (nothing under ``src/`` changes), runs the command, and writes the
aggregated spans to ``TRACE_DIR/main.json`` when it ends.  Pool workers are
forked from the traced process (the default start method on Linux up to
Python 3.13), inherit the wrappers, and write ``TRACE_DIR/worker-<pid>.json``
after every chunk; the benchmark flags a pool whose workers left no trace.
The wrappers only call through, so a traced command writes the same bytes
as an untraced one.

Spans are aggregated per boundary name into [calls, total seconds, self
seconds]; self time is the span's duration minus the time covered by the
traced spans it called.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.reset()

    def reset(self):
        self.pid = os.getpid()
        self.in_worker = False
        self.spans = {}       # name -> [calls, total_s, self_s]
        self.counters = {}
        self.cells = {"vectorized": set(), "scalar": set()}
        self.cell_times = []  # [n, N, seconds] per run_batch call
        self.stack = []       # [start, seconds covered by child spans]
        self.compute_end = None

    def add(self, name: str, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def span(self, name: str, fn, after=None):
        """Wrap fn so every call is one span named name; after(args, end) runs on exit."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            self.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                dur = end - frame[0]
                rec = self.spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if self.stack:
                    self.stack[-1][1] += dur
                if after is not None:
                    after(args, end)
        return wrapper

    def dump(self, filename: str):
        doc = {"spans": self.spans, "counters": self.counters,
               "cells": {k: sorted(v) for k, v in self.cells.items()},
               "cell_times": self.cell_times}
        path = os.path.join(self.out_dir, filename)
        with open(path + ".tmp", "w") as fh:
            json.dump(doc, fh)
        os.replace(path + ".tmp", path)


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def install(tr: Tracer):
    """Replace each boundary function by its traced wrapper, in every namespace that calls it."""
    from randode import analysis, cli, noise, problems, schemes

    def patch(wrapper, *targets):
        for module, attr in targets:
            setattr(module, attr, wrapper)

    def chunk_path(kind):
        def after(args, end):
            problem, scheme, n, model, master_seed = args[:5]
            tr.cells[kind].add(f"{problem.name}|{scheme.value}|{n}|{model.kind}|"
                               f"{model.delta!r}|{master_seed!r}")
        return after

    def computed(args, end):
        tr.compute_end = end

    patch(tr.span("noise.derive_streams", noise.derive_streams),
          (noise, "derive_streams"), (analysis, "derive_streams"))
    patch(tr.span("noise.noisy_eval", noise.NoisyOracle.noisy_eval),
          (noise.NoisyOracle, "noisy_eval"))
    patch(tr.span("schemes.run_scheme", schemes.run_scheme,
                  after=lambda args, end: tr.add("run_scheme.steps", int(args[2]))),
          (schemes, "run_scheme"), (analysis, "run_scheme"), (cli, "run_scheme"))
    patch(tr.span("problems.rhs", problems._rhs_A), (problems, "_rhs_A"))
    patch(tr.span("problems.rhs", problems._rhs_B), (problems, "_rhs_B"))
    patch(tr.span("analysis.chunk_vectorized", analysis._chunk_errors_vectorized,
                  after=chunk_path("vectorized")),
          (analysis, "_chunk_errors_vectorized"))
    patch(tr.span("analysis.chunk_scalar", analysis._chunk_errors_scalar,
                  after=chunk_path("scalar")),
          (analysis, "_chunk_errors_scalar"))
    patch(tr.span("analysis.sup_error_kernel", analysis._sup_error_kernel),
          (analysis, "_sup_error_kernel"))
    patch(tr.span("analysis.reference_grids", analysis._reference_grids),
          (analysis, "_reference_grids"))
    patch(tr.span("analysis.build_reference_B", analysis.build_reference_B),
          (analysis, "build_reference_B"), (cli, "build_reference_B"))
    patch(tr.span("analysis.stats", cli.xi_hat, after=computed), (cli, "xi_hat"))
    patch(tr.span("analysis.stats", cli.tail_curve, after=computed), (cli, "tail_curve"))

    def outputs_done(args, end):
        if tr.compute_end is not None:
            tr.add("cli.outputs_s", end - tr.compute_end)
    patch(tr.span("cli.manifest", cli.Manifest.write, after=outputs_done),
          (cli.Manifest, "write"))

    untraced_task = analysis._batch_task

    @functools.wraps(untraced_task)
    def batch_task(task):
        if os.getpid() != tr.pid:  # first chunk in a forked pool worker
            tr.reset()
            tr.in_worker = True
        result = untraced_task(task)
        if tr.in_worker:
            tr.add("pool.chunks", 1)
            tr.dump(f"worker-{os.getpid()}.json")
        return result
    patch(batch_task, (analysis, "_batch_task"))

    traced_batch = tr.span("analysis.run_batch", analysis.run_batch, after=computed)

    @functools.wraps(analysis.run_batch)
    def run_batch(*args, **kwargs):
        cpu0 = _children_cpu()
        t0 = time.perf_counter()
        try:
            return traced_batch(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            workers_cpu = _children_cpu() - cpu0
            if workers_cpu > 0.0:  # pool workers were reaped inside this cell
                tr.add("pool.idle_s", kwargs.get("parallelism", 1) * dur - workers_cpu)
            tr.cell_times.append([int(args[3]), int(args[5]), dur])
    patch(run_batch, (analysis, "run_batch"), (cli, "run_batch"))


def main(argv) -> int:
    out_dir, mode, *rest = argv
    tr = Tracer(out_dir)
    install(tr)
    try:
        if mode == "cli":
            from randode import cli
            return cli.main(rest)
        if mode == "setup":
            import randode
            problem, cache = rest
            randode.reference_for(randode.make_problem(problem), cache_path=cache)
            return 0
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    finally:
        tr.dump("main.json")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
