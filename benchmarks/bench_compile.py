"""Trace-compiler benchmark: compiled replay vs interpreted A/B.

Three PR 5 measurements, one JSON summary (``BENCH_pr5.json``):

* **compile A/B** — a reference-dense paging workload (hot set sized to
  memory, long cold tail: every reference walks the MMU/replacement hot
  loop but only cold misses fault) swept across three reliability
  policies.  Every cell compiles its own schedule (compiled schedules
  live only as long as the run), so the ratio — compiled sweep vs the
  identical sweep with ``--no-compile`` semantics, i.e.
  ``EngineConfig(compile=False)`` — pays trace generation and
  compilation in each cell.  Recorded, unthresholded: the compile pass
  walks the same references the interpreter does, so the ratio sits
  near 1x; ``bench_fleet.py``'s >= 5x gate is where schedule reuse
  (one compile, N replays) is enforced.  The sweep's reports must be
  byte-identical to the interpreted ones.
* **paper-scale A/B** — the fig2 GAUSS/parity-logging cell compiled vs
  interpreted, reported but *unthresholded*: at paper scale the wire
  simulation dominates wall-clock, so the per-reference savings are
  real but small — the honest number belongs in the record, not behind
  a gate.
* **kernel guard** — the events/sec microbenchmark from
  :mod:`bench_kernel` against the in-tree frozen seed and PR-1 kernels
  on the same machine in the same run; the < 3% regression budget
  guards the simulator core the replay path leans on.

The paper-scale record rides the same harness under ``--paper-scale``
(``BENCH_pr12.json``; ``BENCH_pr6.json`` is the retired record of the
former whole-run memo tier, kept as history):

* **warm campaign** — the full-size GAUSS workload under three
  reliability policies as one ``ExperimentRunner`` campaign with the
  result cache on, re-run warm (every cell a cache hit).  The ratio's
  base is the identical campaign with the result cache off (default
  engine): what re-running ``repro fig2`` costs
  without the cache.  Acceptance requires >= 10x and the cached reports
  byte-identical to the computed ones.
* **engine matrix** — the same campaign, uncached, on every engine:
  compiled and interpreted (the shared Ethernet has one walk, so
  compilation is the campaign's only engine axis).  Acceptance
  requires byte-identical ``CompletionReport``s and metric snapshots
  across both; their wall-clock ratio is recorded as
  ``paper_scale_ab.speedup``, unthresholded (wire simulation dominates
  paper-scale cells).

Run as a script for the JSON record, ``--check`` to enforce the
acceptance thresholds (CI's bench-regression job does both)::

    PYTHONPATH=src python benchmarks/bench_compile.py --out BENCH_pr5.json --check
    PYTHONPATH=src python benchmarks/bench_compile.py --paper-scale --out BENCH_pr12.json --check

or under pytest for a smaller-sized smoke check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from time import perf_counter

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
for _path in (_HERE, _SRC):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench_kernel import measure_kernels  # noqa: E402

#: PR 5 acceptance threshold, enforced by ``--check``.
KERNEL_REGRESSION_BUDGET = 0.03

#: Paper-scale acceptance threshold (``--paper-scale --check``): warm
#: result-cache campaign vs the identical uncached campaign.
WARM_CAMPAIGN_SPEEDUP_FLOOR = 10.0

#: The multi-policy sweep.  A schedule is reliability-blind (the policy
#: changes how faults are *serviced*, never which references fault), so
#: all three cells compile the same schedule.
SWEEP_POLICIES = ("no-reliability", "mirroring", "parity-logging")


# --------------------------------------------------------------------------
# Compile A/B: reference-dense sweep, one compile per cell.
# --------------------------------------------------------------------------

def _bench_spec():
    from repro.config import MachineSpec

    # 2 MB RAM / 1 MB kernel / 8 KB pages -> 128 user frames.
    return MachineSpec(
        name="bench-compile",
        ram_bytes=2 * 1024 * 1024,
        kernel_resident_bytes=1 * 1024 * 1024,
        page_size=8192,
    )


def _bench_workload(n_refs: int):
    from repro.workloads import HotCold

    # Hot set just under the 128 user frames; the 0.05% cold tail misses
    # almost every time, so the run faults steadily (hundreds of faults)
    # while the vast majority of references exercise only the
    # per-reference hot loop the compiler eliminates.
    return HotCold(
        hot_pages=120, cold_pages=4096, n_refs=n_refs,
        hot_fraction=0.9995, cpu_per_page=1e-4, seed=42,
    )


def _run_sweep(n_refs: int, compile_on: bool) -> dict:
    from repro.config import EngineConfig
    from repro.core.builder import build_cluster

    spec = _bench_spec()
    reports = {}
    start = perf_counter()
    for policy in SWEEP_POLICIES:
        cluster = build_cluster(
            policy=policy, n_servers=2, seed=9, machine_spec=spec,
            engine=EngineConfig(compile=compile_on),
        )
        reports[policy] = cluster.run(_bench_workload(n_refs))
    wall = perf_counter() - start
    return {"wall_seconds": wall, "reports": reports}


def measure_compile_ab(n_refs: int = 400_000, repeats: int = 3) -> dict:
    """Compiled sweep (a compile in every cell) vs the identical
    interpreted sweep, interleaved so host drift hits both alike."""
    import dataclasses

    compiled_walls, interpreted_walls = [], []
    for _ in range(repeats):
        compiled = _run_sweep(n_refs, compile_on=True)
        interpreted = _run_sweep(n_refs, compile_on=False)
        compiled_walls.append(compiled["wall_seconds"])
        interpreted_walls.append(interpreted["wall_seconds"])

    reports = compiled["reports"]
    sample = reports[SWEEP_POLICIES[0]]
    compiled_wall = min(compiled_walls)
    interpreted_wall = min(interpreted_walls)
    return {
        "workload": "hot-cold",
        "n_refs": n_refs,
        "faults": {name: r.faults for name, r in reports.items()},
        "etime": {name: round(r.etime, 4) for name, r in reports.items()},
        "sample_pageins": sample.pageins,
        "policies": list(SWEEP_POLICIES),
        "compiled_seconds": round(compiled_wall, 4),
        "interpreted_seconds": round(interpreted_wall, 4),
        "identical_reports": all(
            dataclasses.asdict(reports[name])
            == dataclasses.asdict(interpreted["reports"][name])
            for name in SWEEP_POLICIES
        ),
        # Unthresholded (trajectory UNGATED): each cell compiles.
        "speedup": round(interpreted_wall / compiled_wall, 2),
    }


# --------------------------------------------------------------------------
# Paper-scale secondary: fig2 GAUSS cell, compiled vs interpreted.
# --------------------------------------------------------------------------

def _run_gauss(compile_on: bool) -> dict:
    from repro.config import EngineConfig
    from repro.core.builder import build_cluster
    from repro.workloads import Gauss

    cluster = build_cluster(
        policy="parity-logging", n_servers=4, overflow_fraction=0.10,
        engine=EngineConfig(compile=compile_on),
    )
    start = perf_counter()
    report = cluster.run(Gauss())
    wall = perf_counter() - start
    return {"wall_seconds": wall, "etime": report.etime, "faults": report.faults}


def measure_paper_scale_ab(repeats: int = 3) -> dict:
    compiled = min(
        _run_gauss(True)["wall_seconds"] for _ in range(repeats)
    )
    interp_run = _run_gauss(False)
    interpreted = min(
        [interp_run["wall_seconds"]]
        + [_run_gauss(False)["wall_seconds"] for _ in range(repeats - 1)]
    )
    return {
        "app": "gauss",
        "policy": "parity-logging",
        "etime": round(interp_run["etime"], 4),
        "faults": interp_run["faults"],
        "compiled_seconds": round(compiled, 4),
        "interpreted_seconds": round(interpreted, 4),
        # Unthresholded: the wire simulation dominates this cell, so the
        # per-reference savings show up as a modest wall-clock trim.
        "speedup": round(interpreted / compiled, 2),
    }


# --------------------------------------------------------------------------
# Paper-scale campaign: warm result cache + the engine matrix.
# --------------------------------------------------------------------------

#: The engine matrix: the campaign pages over the shared Ethernet, whose
#: one engine axis is trace compilation.
ENGINES = {
    "compiled": {},
    "interpreted": {"compile": False},
}

#: Warm (all-hit) campaign passes timed; the median is reported.
WARM_PASSES = 21

#: What the warm-campaign ratio divides by, stated in the record.
WARM_CAMPAIGN_BASE = (
    "the identical ExperimentRunner campaign with the result cache off "
    "(default engine)"
)


def _campaign_specs():
    from repro.runner import RunSpec

    return [
        RunSpec.make("gauss", policy, label=f"gauss/{policy}")
        for policy in SWEEP_POLICIES
    ]


def _campaign(runner) -> dict:
    """One pass of the paper-scale campaign; wall time and every cell."""
    import dataclasses

    start = perf_counter()
    results = runner.run(_campaign_specs())
    wall = perf_counter() - start
    return {
        "wall": wall,
        "reports": [
            json.dumps(dataclasses.asdict(r.report), sort_keys=True)
            for r in results
        ],
        "snapshots": [
            json.dumps(r.report.meta.get("metrics", {}), sort_keys=True)
            for r in results
        ],
        "cached": [r.cached for r in results],
        "faults": results[0].report.faults,
    }


def measure_warm_campaign(repeats: int = 3) -> dict:
    """Warm result-cache campaign vs the identical uncached campaign,
    plus byte identity across the engine matrix.  Both sides of the
    ratio are medians: ``repeats`` uncached passes, ``WARM_PASSES``
    warm ones."""
    from statistics import median

    from repro.config import EngineConfig
    from repro.runner import ExperimentRunner

    uncached = [
        _campaign(ExperimentRunner(use_cache=False)) for _ in range(repeats)
    ]
    with tempfile.TemporaryDirectory(prefix="bench-paper-") as cache_dir:
        cold = _campaign(ExperimentRunner(use_cache=True, cache_dir=cache_dir))
        warm = [
            _campaign(ExperimentRunner(use_cache=True, cache_dir=cache_dir))
            for _ in range(WARM_PASSES)
        ]
    matrix = {
        name: _campaign(ExperimentRunner(
            use_cache=False, engine=EngineConfig(**fields)
        ))
        for name, fields in ENGINES.items()
    }

    base = uncached[0]
    uncached_wall = median(run["wall"] for run in uncached)
    warm_wall = median(run["wall"] for run in warm)
    compiled = matrix["compiled"]["wall"]
    interpreted = matrix["interpreted"]["wall"]
    return {
        "warm_campaign": {
            "app": "gauss",
            "policies": list(SWEEP_POLICIES),
            "faults": base["faults"],
            "base": WARM_CAMPAIGN_BASE,
            "uncached_passes": len(uncached),
            "uncached_seconds": round(uncached_wall, 4),
            "cold_seconds": round(cold["wall"], 4),
            "warm_passes": len(warm),
            "warm_ms": round(warm_wall * 1e3, 3),
            "all_warm_cells_cached": all(all(run["cached"]) for run in warm),
            "identical_reports": all(
                run["reports"] == base["reports"]
                and run["snapshots"] == base["snapshots"]
                for run in uncached + [cold] + warm
            ),
            "speedup": round(uncached_wall / warm_wall, 2),
        },
        "engine_matrix": {
            "seconds": {
                name: round(run["wall"], 4) for name, run in matrix.items()
            },
            "identical_reports": all(
                run["reports"] == base["reports"] for run in matrix.values()
            ),
            "identical_metrics": all(
                run["snapshots"] == base["snapshots"] for run in matrix.values()
            ),
        },
        # Unthresholded: the wire simulation dominates these cells.
        "paper_scale_ab": {
            "compiled_seconds": round(compiled, 4),
            "interpreted_seconds": round(interpreted, 4),
            "speedup": round(interpreted / compiled, 2),
        },
    }


def check_warm_campaign(summary: dict) -> list:
    """The paper-scale acceptance thresholds; returns a list of failures."""
    failures = []
    campaign = summary["warm_campaign"]
    if campaign["speedup"] < WARM_CAMPAIGN_SPEEDUP_FLOOR:
        failures.append(
            f"warm paper-scale campaign {campaign['speedup']:.2f}x < "
            f"{WARM_CAMPAIGN_SPEEDUP_FLOOR}x floor"
        )
    if not campaign["all_warm_cells_cached"]:
        failures.append("warm campaign recomputed cells it had cached")
    if not campaign["identical_reports"]:
        failures.append("cached campaign reports diverged from computed ones")
    matrix = summary["engine_matrix"]
    if not matrix["identical_reports"]:
        failures.append("campaign reports diverged across the engine matrix")
    if not matrix["identical_metrics"]:
        failures.append("campaign metrics diverged across the engine matrix")
    return failures


# --------------------------------------------------------------------------
# Assembly + threshold check.
# --------------------------------------------------------------------------

def run_benchmarks(
    n_events: int = 200_000, repeats: int = 3, n_refs: int = 400_000,
) -> dict:
    return {
        "kernel": measure_kernels(n_events, repeats),
        "compile_ab": measure_compile_ab(n_refs=n_refs, repeats=repeats),
        "paper_scale_ab": measure_paper_scale_ab(repeats=repeats),
    }


def check(summary: dict) -> list:
    """The PR 5 acceptance thresholds; returns a list of failures."""
    failures = []
    if not summary["compile_ab"]["identical_reports"]:
        failures.append("compiled sweep reports diverged from interpreted")
    for path_name, path in summary["kernel"].items():
        overhead = path["tracer_overhead_vs_pr1"]
        if overhead >= KERNEL_REGRESSION_BUDGET:
            failures.append(
                f"kernel {path_name}: {overhead:.2%} slower than the frozen "
                f"PR-1 kernel (budget {KERNEL_REGRESSION_BUDGET:.0%})"
            )
    if summary["paper_scale_ab"]["speedup"] < 1.0:
        failures.append(
            "paper-scale compiled run slower than interpreted "
            f"({summary['paper_scale_ab']['speedup']}x)"
        )
    return failures


# --------------------------------------------------------------------------
# pytest smoke checks (smaller stream).
# --------------------------------------------------------------------------

def test_compiled_sweep_speedup(benchmark, once):
    results = once(benchmark, measure_compile_ab, n_refs=150_000, repeats=2)
    print("\n" + json.dumps(results, indent=2))
    assert results["identical_reports"]
    assert all(f > 0 for f in results["faults"].values())


def test_paper_scale_not_slower(benchmark, once):
    results = once(benchmark, measure_paper_scale_ab, repeats=2)
    print("\n" + json.dumps(results, indent=2))
    assert results["speedup"] >= 1.0


def test_warm_campaign_fast_and_identical(benchmark, once):
    results = once(benchmark, measure_warm_campaign, repeats=2)
    print("\n" + json.dumps(results, indent=2))
    assert check_warm_campaign(results) == []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=200_000,
                        help="kernel microbenchmark chain length")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of repeats (default 3)")
    parser.add_argument("--refs", type=int, default=400_000,
                        help="reference-stream length for the compile A/B")
    parser.add_argument("--paper-scale", action="store_true",
                        help="run only the paper-scale warm-campaign and "
                        "engine-matrix record")
    parser.add_argument("--check", action="store_true",
                        help="enforce the acceptance thresholds")
    parser.add_argument("--out", default="-", metavar="PATH",
                        help="write JSON here ('-' = stdout)")
    args = parser.parse_args(argv)

    if args.paper_scale:
        summary = measure_warm_campaign(repeats=args.repeats)
    else:
        summary = run_benchmarks(
            n_events=args.events, repeats=args.repeats, n_refs=args.refs,
        )
    text = json.dumps(summary, indent=2, sort_keys=True)
    if args.out == "-":
        print(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")

    if args.check:
        failures = (
            check_warm_campaign(summary) if args.paper_scale else check(summary)
        )
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        which = "paper-scale" if args.paper_scale else "trace-compiler"
        print(f"all {which} benchmark thresholds met")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
