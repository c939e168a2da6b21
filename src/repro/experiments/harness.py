"""Shared experiment harness: the paper's standard configurations.

§4.1 defines the four configurations of Figure 2 (and §4.7 adds the
write-through comparison of Figure 5):

* NO RELIABILITY — two remote memory servers;
* PARITY LOGGING — four servers plus a parity server, 10% overflow;
* MIRRORING — one primary + one mirror server;
* DISK — the local DEC RZ55, no pager involvement;
* WRITE THROUGH — remote memory as a write-through cache of the disk.

Execution routes through :mod:`repro.runner`: a workload named by its
registry string becomes a picklable :class:`~repro.runner.RunSpec`, so
suites parallelise over worker processes and hit the on-disk result
cache.  Callable factories and ad-hoc ``cluster_hook`` closures are
still accepted — those run inline in this process (they cannot be
shipped to workers or fingerprinted), exactly as the harness always
did.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

from ..core.builder import Cluster, build_cluster
from ..runner import RunSpec, default_engine, default_runner
from ..runner.execute import build_meta
from ..vm.machine import CompletionReport
from ..workloads.base import Workload

__all__ = ["PAPER_CONFIGS", "run_policy", "run_suite", "merged_metrics"]

#: build_cluster keyword arguments for each of the paper's configurations.
PAPER_CONFIGS: Dict[str, dict] = {
    "no-reliability": dict(policy="no-reliability", n_servers=2),
    "parity-logging": dict(policy="parity-logging", n_servers=4, overflow_fraction=0.10),
    "mirroring": dict(policy="mirroring", n_servers=2),
    "disk": dict(policy="disk"),
    "write-through": dict(policy="write-through", n_servers=2),
}

#: Either a registry name (parallel/cacheable) or a callable (inline).
WorkloadRef = Union[str, Callable[[], Workload]]


def run_policy(
    workload_factory: WorkloadRef,
    policy: str,
    cluster_hook: Optional[Callable[[Cluster], None]] = None,
    runner=None,
    **overrides,
) -> CompletionReport:
    """Run one workload under one paper configuration.

    ``workload_factory`` may be a registry name (``"gauss"``), which
    routes through the experiment runner (cache-aware), or any zero-arg
    callable, which runs inline.  ``cluster_hook`` runs after assembly
    and before the workload starts — experiments use it to attach
    background load, crash injectors, etc.; passing one forces the
    inline path.
    """
    if isinstance(workload_factory, str) and cluster_hook is None:
        spec = RunSpec.make(workload_factory, policy, overrides=overrides)
        return (runner or default_runner()).run_one(spec).report

    kwargs = dict(PAPER_CONFIGS[policy])
    kwargs.update(overrides)
    cluster = build_cluster(**kwargs, engine=default_engine())
    if cluster_hook is not None:
        cluster_hook(cluster)
    if isinstance(workload_factory, str):
        from ..runner.registry import make_workload

        workload = make_workload(workload_factory, {})
    else:
        workload = workload_factory()
    report = cluster.run(workload)
    health = report.meta.get("health")
    report.meta = build_meta(policy, kwargs.get("seed", 0), overrides, workload.name)
    report.meta["metrics"] = cluster.metrics.snapshot()
    if health is not None:
        report.meta["health"] = health
    return report


def run_suite(
    workload_factories: Dict[str, WorkloadRef],
    policies,
    cluster_hook: Optional[Callable[[Cluster], None]] = None,
    runner=None,
    **overrides,
) -> Dict[str, Dict[str, CompletionReport]]:
    """Run a matrix of workloads x policies; returns nested reports.

    When every workload is a registry name and there is no ad-hoc hook,
    the whole matrix is handed to the experiment runner in one batch —
    cells run in parallel under ``--jobs N`` and cached cells are
    skipped.  Results are assembled in matrix order either way, so the
    output is independent of completion order.
    """
    all_named = all(isinstance(ref, str) for ref in workload_factories.values())
    if all_named and cluster_hook is None:
        runner = runner or default_runner()
        apps = list(workload_factories)
        policies = list(policies)
        specs = [
            RunSpec.make(
                workload_factories[app],
                policy,
                overrides=overrides,
                label=f"{app}/{policy}",
            )
            for app in apps
            for policy in policies
        ]
        flat = iter(runner.run(specs))
        return {
            app: {policy: next(flat).report for policy in policies} for app in apps
        }

    results: Dict[str, Dict[str, CompletionReport]] = {}
    for app_name, factory in workload_factories.items():
        results[app_name] = {}
        for policy in policies:
            results[app_name][policy] = run_policy(
                factory, policy, cluster_hook=cluster_hook, **overrides
            )
    return results


def merged_metrics(reports) -> Dict[str, object]:
    """Combine per-run ``meta["metrics"]`` snapshots into suite totals.

    Counters sum and tallies fold via :meth:`Tally.merge` (Chan's
    parallel Welford), so reassembled multi-run statistics are exactly
    what a single combined stream would have produced — regardless of
    whether the runs came from the cache, worker processes, or inline.
    """
    from ..obs.metrics import merge_snapshots

    return merge_snapshots(
        [r.meta["metrics"] for r in reports if "metrics" in r.meta]
    )
