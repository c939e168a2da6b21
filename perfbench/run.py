"""Run one benchmark workload; print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-ethernet --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:
as many passes as fit in ``--seconds`` (at least one), reporting the
median pass.  Times are host seconds rescaled to a nominal host speed
that a frozen reference kernel, sampled during every timed window,
measures (see ``perfbench/hostclock.py``): the benchmark's host is
shared and its speed drifts by tens of percent between minutes.

``--trace 1`` is the separate traced run: two instrumented passes
(their exact counts must agree) around one plain pass, then one
cProfile pass, reporting the per-layer metrics in host seconds.  Every cell of every pass is
checked (see ``perfbench/checks.py``); the last line printed is
``{"correct", "attempted", "failed", "metrics"}``.

The benchmark owns its caches: ``REPRO_CACHE_DIR`` points into
``.perfbench/`` for the whole run and every pass gets a fresh one, so
no result, schedule or effect cache of another run (or commit) is ever
read.  It refuses to run when an engine switch is set in the
environment, since those select a different engine than the one
measured.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench"

#: Environment switches that select a non-default engine or cache path.
ENGINE_ENV = (
    "REPRO_NO_COMPILE",
    "REPRO_NO_ANALYTIC_ETH",
    "REPRO_NO_ANALYTIC_SWITCHED",
    "REPRO_NO_NUMPY_GF",
    "REPRO_EFFECT_CACHE",
    "REPRO_SCHEDULE_CACHE",
)

#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_PROBES = 7
#: Warm campaigns timed for ``runner.warm_pass_ms`` (median reported).
WARM_REPEATS = 21


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("paper", "small"), default="paper",
        help="input size; 'small' is for the self-tests only",
    )
    return parser.parse_args(argv)


def _metric(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def _setup_probe(args) -> float:
    """Nominal seconds from spawning a fresh interpreter until its first
    cell could start (imports, codec tables, testbed assembly).  The
    probe samples the host's speed itself and reports its slices."""
    from perfbench.hostclock import HostClock

    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "probe.py"),
         args.workload, str(args.seed), args.scale],
        stdout=subprocess.PIPE, text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = perf_counter() - start
        child.stdout.read()
        code = child.wait()
    fields = line.split()
    if fields[:1] != ["ready"] or len(fields) != 3 or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code})")
    slices, slice_s = int(fields[1]), float(fields[2])
    return HostClock.rescale(elapsed - slice_s, slices, slice_s)


def measure(args, scale, cache_root, checker) -> tuple:
    """The untraced run: end-to-end metrics."""
    from perfbench import scenarios
    from perfbench.checks import paper_err_pct
    from perfbench.hostclock import HostClock
    from perfbench.layers import units

    # The loaded campaign's work runs in pool workers: they sample their
    # own cores, and the parent, which mostly waits on them, does not.
    pooled = args.workload == "loaded-campaign"
    clock = HostClock()
    if pooled:
        clock.fork_workers()
    setups, walls, host_walls, real, first, worker_rss = [], [], [], [], None, 0.0
    deadline = perf_counter() + args.seconds
    # Start another pass only if one more median pass still fits.  The
    # set-up probes run one before each of the first passes, so a slow
    # stretch of the host cannot skew them all.
    while not walls or perf_counter() + statistics.median(real) <= deadline:
        if len(setups) < SETUP_PROBES:
            setups.append(_setup_probe(args))
        gc.collect()
        started, since = perf_counter(), clock.mark()
        clock.install(sample=not pooled)
        try:
            outcome = scenarios.run_pass(args.workload, args.seed, scale, cache_root)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            checker.fail(max(1, len(scenarios.cell_specs(args.workload, args.seed, scale))),
                         "a pass raised")
            break
        finally:
            clock.uninstall()
        real.append(perf_counter() - started)
        slices, slice_s = HostClock.busiest(since, clock.mark())
        host_walls.append(outcome.wall_s - slice_s)
        walls.append(HostClock.rescale(host_walls[-1], slices, slice_s))
        # Only the first pass is kept, so peak RSS does not grow with
        # the number of passes a fast host fits in.
        first = first or outcome
        worker_rss = max(worker_rss, outcome.worker_rss_mb)
        checker.check(outcome.cells + outcome.warm_cells)
    if not walls:
        raise RuntimeError("no pass completed")
    while len(setups) < SETUP_PROBES:
        setups.append(_setup_probe(args))
    # Read before the Fig 2 cells below, which only serve paper_err_pct.
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 + worker_rss
    if args.workload == "paper-ethernet":
        fig2_cells = first.cells
    else:
        fig2_cells = scenarios.run_fig2(args.seed, scale, cache_root).cells
        checker.check(fig2_cells)
    wall = statistics.median(walls)
    values = {
        "wall_s": wall,
        "faults_per_s": first.faults / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss,
        "paper_err_pct": paper_err_pct(fig2_cells),
    }
    info = {"passes": len(walls), "pass_wall_s": walls, "host_pass_wall_s": host_walls,
            "setup_probe_s": setups, "worker_rss_mb": worker_rss}
    return _metric(values, units("end_to_end")), info


def trace(args, scale, cache_root, checker) -> tuple:
    """The traced run: per-layer metrics."""
    from repro.vm.page import fastpath_stats

    from perfbench import scenarios
    from perfbench.layers import EXACT, exact_counts, timed_layers, units
    from perfbench.tracing import Recorder, profile_shares

    loaded = args.workload == "loaded-campaign"

    def run_pass(**kwargs):
        gc.collect()
        return scenarios.run_pass(
            args.workload, args.seed, scale, cache_root, inline=True, **kwargs
        )

    def checked(outcome):
        checker.check(outcome.cells + outcome.warm_cells)
        return outcome

    def traced_pass():
        recorder = Recorder()
        with recorder.installed():
            outcome = run_pass(span=recorder.span)
        fastpath = fastpath_stats()
        checked(outcome)
        return recorder, outcome, fastpath, exact_counts(recorder, outcome.cells)

    # The first instrumented pass also absorbs the process's warm-up; the
    # plain pass between the two is the base of the tracing overhead and
    # holds the warm campaigns behind runner.warm_pass_ms.
    first = traced_pass()
    base = checked(run_pass(warm_repeats=WARM_REPEATS if loaded else 0))
    recorder, traced, fastpath, counts = traced_pass()
    drift = [name for name in EXACT if first[3][name] != counts[name]]
    checker.expect(not drift, f"exact counts drifted between repeats: {drift}")

    values = dict(counts)
    values.update(timed_layers(recorder, traced.cells, fastpath))
    profiled = []
    values.update(profile_shares(lambda: profiled.append(run_pass(warm_repeats=0))))
    checked(profiled[0])

    trace_s = 0.0
    for workload in scenarios.trace_workloads(args.workload, args.seed, scale):
        started = perf_counter()
        for _ in workload.trace():
            pass
        trace_s += perf_counter() - started
    values["workloads.trace_s"] = trace_s
    values["runner.warm_pass_ms"] = (
        statistics.median(base.warm_walls_s) * 1e3 if base.warm_walls_s else 0.0
    )
    values["runner.cache_hits"] = base.warm_cache_hits
    values["trace.untraced_wall_s"] = base.wall_s
    values["trace.overhead_s"] = traced.wall_s - base.wall_s

    spans_path = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    recorder.write_jsonl(str(spans_path))
    info = {
        "traced_inline": loaded,
        "traced_wall_s": traced.wall_s,
        "spans": len(recorder.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "exact": counts,
    }
    return _metric(values, units("per_layer")), info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro is missing; run from a repository checkout",
              file=sys.stderr)
        return 2
    refused = [name for name in ENGINE_ENV if name in os.environ]
    if refused:
        print(f"perfbench: refusing to run with {', '.join(refused)} set",
              file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    cache_root = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    # Set before repro is imported: nothing may default to ~/.cache/repro.
    os.environ["REPRO_CACHE_DIR"] = cache_root
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench import scenarios
        from perfbench.checks import Checker, load_pinned

        if args.workload not in scenarios.WORKLOADS:
            print(f"perfbench: unknown workload {args.workload!r}; choose from "
                  f"{', '.join(scenarios.WORKLOADS)}", file=sys.stderr)
            return 2
        scale = scenarios.SCALES[args.scale]
        paper = scale is scenarios.PAPER
        checker = Checker(load_pinned(args.seed) if paper else {}, paper)
        run = trace if args.trace else measure
        metrics, info = run(args, scale, cache_root, checker)
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)

    import numpy
    from repro.core.policies.gf256 import codec_backend

    info.update({
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "codec_backend": codec_backend(),
        "numpy": numpy.__version__, "python": platform.python_version(),
        "pinned_cells": sorted(checker.pinned), "problems": checker.problems,
    })
    print(json.dumps({"perfbench": info}))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
