"""The four benchmark workloads, driven through ``repro``'s public API.

A *pass* runs every cell of one workload once.  Each pass starts from an
empty schedule/result/effect cache (a fresh ``REPRO_CACHE_DIR`` that the
pass deletes afterwards) and empty page fast-path memos, so no pass is
served by state an earlier pass (or another commit) left behind.

Workloads (``BENCHMARK.json`` holds the one-line reason each exists):

* ``paper-ethernet`` — Fig 2 GAUSS at paper scale on the idle shared
  10 Mbit Ethernet, four paper configurations plus one pipelined
  parity-logging cell, all inline.
* ``loaded-campaign`` — the §4.6 sweep as one cached, pooled
  ``ExperimentRunner`` campaign (cold, then warm).
* ``ec-switched`` — ``repro spectrum --paper-scale`` cells: content-mode
  GAUSS with telemetry on the switched fabric, ec-4-2 and mirroring.
* ``fleet-switched`` — ``run_fleet`` with 64 clients x 8 donors in the
  ``benchmarks/bench_fleet.py`` shape.  It does not depend on the seed:
  its hot-cold stream keeps ``bench_fleet``'s seed, and on the switched
  fabric ``run_fleet`` uses its own ``seed`` for nothing (only the
  shared Ethernet draws random numbers), so every seed runs one input.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.config import MachineSpec, SwitchedNetworkSpec
from repro.core.builder import build_cluster
from repro.experiments import fleet as fleet_module
from repro.experiments.fig2 import FIG2_POLICIES
from repro.runner import ExperimentRunner, RunSpec
from repro.runner.execute import prime_shared_tables, resolve_build_kwargs
from repro.runner.registry import make_workload
from repro.vm.page import clear_fastpath_caches

WORKLOADS = ("paper-ethernet", "loaded-campaign", "ec-switched", "fleet-switched")
#: Workloads whose input does not depend on the seed.
SEED_INDEPENDENT = ("fleet-switched",)

#: Seed-independent shape of every paper-scale GAUSS cell.
GAUSS_FAULTS, GAUSS_PAGEINS, GAUSS_PAGEOUTS = 4423, 1600, 2000

#: Extra overrides of the pipelined paper-ethernet cell.
PIPELINED = {"pipeline_window": 8, "pipeline_prefetch": 4}

#: The §4.6 sweep: policies x background offered load.
LOADED_POLICIES = ("no-reliability", "parity-logging")
LOADS = (0.0, 0.3)

#: ``repro spectrum --paper-scale`` cell configuration.
EC_POLICIES = (("ec-4-2", 8), ("mirroring", 2))
EC_OVERRIDES = {
    "content_mode": True,
    "switched_spec": SwitchedNetworkSpec(),
    "telemetry_interval": 1.0,
    "server_capacity_pages": 4000,
}

FLEET_CELL = "fleet/hot-cold"

#: 2 MB RAM / 1 MB kernel / 8 KB pages: 128 user frames per client.
_SMALL_MACHINE = MachineSpec(
    name="perfbench-small",
    ram_bytes=2 * 1024 * 1024,
    kernel_resident_bytes=1 * 1024 * 1024,
    page_size=8192,
)


@dataclass(frozen=True)
class Scale:
    """Input size of every workload.  ``PAPER`` is what the benchmark
    measures; ``SMALL`` exists for the self-tests."""

    name: str
    gauss: Dict[str, Any]
    overrides: Dict[str, Any]
    fleet_clients: int
    fleet_donors: int
    fleet_refs: int


PAPER = Scale("paper", {}, {}, fleet_clients=64, fleet_donors=8, fleet_refs=150_000)
SMALL = Scale(
    "small", {"n": 500}, {"machine_spec": _SMALL_MACHINE},
    fleet_clients=4, fleet_donors=2, fleet_refs=5_000,
)
SCALES = {scale.name: scale for scale in (PAPER, SMALL)}


@dataclass
class Cell:
    """One finished cell: what its digest covers plus what the checks
    and the per-layer counts read."""

    cell_id: str
    payload: Dict[str, Any]
    reports: List[Any]
    snapshot: Dict[str, Any]
    gauss: bool
    #: Content-mode cells carry real page bytes and must verify CLEAN.
    content: bool = False
    verdict: Optional[str] = None

    @property
    def faults(self) -> int:
        return sum(report.faults for report in self.reports)


@dataclass
class PassResult:
    """One pass: its cells, its wall time and side measurements."""

    cells: List[Cell]
    wall_s: float
    #: Later warm campaigns over the same cache (loaded-campaign only).
    warm_cells: List[Cell] = field(default_factory=list)
    warm_walls_s: List[float] = field(default_factory=list)
    #: Result-cache hits of the first warm campaign.
    warm_cache_hits: int = 0
    #: Summed peak RSS of the runner's pool workers, MB.
    worker_rss_mb: float = 0.0

    @property
    def faults(self) -> int:
        return sum(cell.faults for cell in self.cells)


# ----------------------------------------------------------------- cells
def _gauss(policy: str, seed: int, scale: Scale, label: str, overrides=None, **fields):
    return RunSpec.make(
        "gauss",
        policy,
        workload_kwargs=scale.gauss,
        overrides={**scale.overrides, **(overrides or {})},
        seed=seed,
        label=label,
        **fields,
    )


def fig2_specs(seed: int, scale: Scale) -> List[RunSpec]:
    """The four Fig 2 GAUSS configurations on the idle Ethernet."""
    return [_gauss(policy, seed, scale, f"gauss/{policy}") for policy in FIG2_POLICIES]


def cell_specs(workload: str, seed: int, scale: Scale) -> List[RunSpec]:
    """Runner cells of ``workload`` (empty for the fleet)."""
    if workload == "paper-ethernet":
        return fig2_specs(seed, scale) + [
            _gauss("parity-logging", seed, scale, "gauss/parity-logging/pipelined",
                   overrides=PIPELINED)
        ]
    if workload == "loaded-campaign":
        return [
            _gauss(
                policy, seed, scale, f"gauss/{policy}/load={load}",
                hook="background-load",
                hook_kwargs={"total_load": load, "n_sources": 4},
                extract=("network-stats",),
            )
            for policy in LOADED_POLICIES
            for load in LOADS
        ]
    if workload == "ec-switched":
        return [
            _gauss(
                policy, seed, scale, f"gauss/{policy}/switched",
                overrides=dict(EC_OVERRIDES, n_servers=n_servers),
                extract=("resilience",),
            )
            for policy, n_servers in EC_POLICIES
        ]
    if workload == "fleet-switched":
        return []
    raise ValueError(f"unknown workload {workload!r}")


#: The hot-cold stream keeps ``benchmarks/bench_fleet.py``'s seed.  With
#: ~75 cold references per client, a per-seed stream would move the
#: fleet's fault count, and so its wall time, by about 10% from seed to
#: seed.
FLEET_TRACE_SEED = 42


def fleet_kwargs(scale: Scale) -> Dict[str, Any]:
    """``run_fleet`` arguments of the fleet-switched cell (no seed: see
    the module docstring)."""
    return {
        "workload": (
            "hot-cold",
            {
                "hot_pages": 120, "cold_pages": 4096, "n_refs": scale.fleet_refs,
                "hot_fraction": 0.9995, "cpu_per_page": 1e-4,
                "seed": FLEET_TRACE_SEED,
            },
        ),
        "n_clients": scale.fleet_clients,
        "n_donors": scale.fleet_donors,
        "machine_spec": _SMALL_MACHINE,
    }


def trace_workloads(workload: str, seed: int, scale: Scale) -> List[Any]:
    """One instance of each distinct workload the cells run."""
    if workload == "fleet-switched":
        name, kwargs = fleet_kwargs(scale)["workload"]
        return [make_workload(name, dict(kwargs))]
    return [make_workload("gauss", dict(scale.gauss))]


def assemble_first_cell(workload: str, seed: int, scale: Scale) -> None:
    """What a fresh process does before its first cell can start:
    prime the shared codec tables and assemble the first testbed."""
    prime_shared_tables()
    if workload == "fleet-switched":
        kwargs = fleet_kwargs(scale)
        kwargs.pop("workload")
        fleet_module.build_fleet(**kwargs)
    else:
        build_cluster(**resolve_build_kwargs(cell_specs(workload, seed, scale)[0]))


# ---------------------------------------------------------------- passes
def _runner_cell(result) -> Cell:
    report = result.report
    return Cell(
        cell_id=result.spec.label,
        payload={"report": dataclasses.asdict(report), "extras": result.extras},
        reports=[report],
        snapshot=report.meta.get("metrics", {}),
        gauss=result.spec.workload == "gauss",
        content=bool(dict(result.spec.overrides).get("content_mode")),
        verdict=result.extras.get("verdict"),
    )


def _pool_rss_mb(runner: ExperimentRunner) -> float:
    """Summed peak RSS (VmHWM) of the runner's live pool workers.

    Neither the runner nor ``ProcessPoolExecutor`` lists its workers
    publicly, so this reads their private handles; 0 without a pool.
    """
    pool = runner._pool
    total_kb = 0
    for pid in list(getattr(pool, "_processes", None) or {}):
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def run_specs(
    specs: List[RunSpec],
    *,
    jobs: int = 1,
    use_cache: bool = False,
    warm_repeats: int = 0,
    span: Callable[..., Any] = lambda name, cell=None: nullcontext(),
) -> PassResult:
    """One campaign through a fresh ``ExperimentRunner``; with the
    result cache on, ``warm_repeats`` warm campaigns follow it."""
    runner = ExperimentRunner(jobs=jobs, use_cache=use_cache)
    try:
        start = perf_counter()
        with span("runner.cold"):
            results = runner.run(specs)
        wall = perf_counter() - start
        outcome = PassResult([_runner_cell(r) for r in results], wall)
        for _ in range(warm_repeats):
            start = perf_counter()
            results = runner.run(specs)
            outcome.warm_walls_s.append(perf_counter() - start)
            if not outcome.warm_cells:
                outcome.warm_cells = [_runner_cell(r) for r in results]
                outcome.warm_cache_hits = runner.cache.hits
        outcome.worker_rss_mb = _pool_rss_mb(runner)
    finally:
        runner.close()
    return outcome


def run_fleet_cell(scale: Scale) -> PassResult:
    """The fleet campaign; the fleet object is captured from the public
    ``build_fleet`` so per-client reports join the digest."""
    captured = []
    original = fleet_module.build_fleet

    def capture(*args, **kwargs):
        fleet = original(*args, **kwargs)
        captured.append(fleet)
        return fleet

    fleet_module.build_fleet = capture
    try:
        start = perf_counter()
        scoreboard = fleet_module.run_fleet(**fleet_kwargs(scale))
        wall = perf_counter() - start
    finally:
        fleet_module.build_fleet = original
    (fleet,) = captured
    network, stack = fleet.network.stats, fleet.stack
    snapshot = {f"net.{k}": v for k, v in network.counters.as_dict().items()}
    snapshot.update(
        {f"net.protocol.{k}": v for k, v in stack.counters.as_dict().items()}
    )
    snapshot["net.utilization"] = scoreboard["wire_utilization"]
    cell = Cell(
        cell_id=FLEET_CELL,
        payload={
            "scoreboard": scoreboard,
            "reports": [dataclasses.asdict(r) for r in fleet.reports],
        },
        reports=list(fleet.reports),
        snapshot=snapshot,
        gauss=False,
    )
    return PassResult([cell], wall)


@contextmanager
def fresh_caches(cache_root: str) -> Iterator[None]:
    """Empty schedule/result/effect caches and page fast-path memos."""
    cache_dir = tempfile.mkdtemp(prefix="pass-", dir=cache_root)
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    clear_fastpath_caches()
    try:
        yield
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def run_pass(
    workload: str,
    seed: int,
    scale: Scale,
    cache_root: str,
    *,
    inline: bool = False,
    warm_repeats: int = 1,
    span: Callable[..., Any] = lambda name, cell=None: nullcontext(),
) -> PassResult:
    """One pass of ``workload`` over fresh caches.

    ``inline`` runs the loaded campaign in this process instead of the
    worker pool (the traced run does, so spans see every cell).
    """
    with fresh_caches(cache_root), span("pass"):
        if workload == "fleet-switched":
            with span("cell", FLEET_CELL):
                return run_fleet_cell(scale)
        specs = cell_specs(workload, seed, scale)
        if workload == "loaded-campaign":
            jobs = 1 if inline else min(2, os.cpu_count() or 1)
            return run_specs(
                specs, jobs=jobs, use_cache=True, warm_repeats=warm_repeats, span=span
            )
        return run_specs(specs, span=span)


def run_fig2(seed: int, scale: Scale, cache_root: str) -> PassResult:
    """The four Fig 2 GAUSS cells inline over fresh caches, for the
    ``paper_err_pct`` of workloads that do not run them."""
    with fresh_caches(cache_root):
        return run_specs(fig2_specs(seed, scale))
