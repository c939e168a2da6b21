"""Shared experiment harness: the paper's standard configurations.

§4.1 defines the four configurations of Figure 2 (and §4.7 adds the
write-through comparison of Figure 5):

* NO RELIABILITY — two remote memory servers;
* PARITY LOGGING — four servers plus a parity server, 10% overflow;
* MIRRORING — one primary + one mirror server;
* DISK — the local DEC RZ55, no pager involvement;
* WRITE THROUGH — remote memory as a write-through cache of the disk.

Execution routes through :mod:`repro.runner`: each cell is a workload
named by its registry string, which becomes a picklable
:class:`~repro.runner.RunSpec`, so suites parallelise over worker
processes and hit the on-disk result cache.
"""

from __future__ import annotations

from typing import Dict

from ..runner import RunSpec, default_runner
from ..vm.machine import CompletionReport

__all__ = ["PAPER_CONFIGS", "run_policy", "run_suite", "merged_metrics"]

#: build_cluster keyword arguments for each of the paper's configurations.
PAPER_CONFIGS: Dict[str, dict] = {
    "no-reliability": dict(policy="no-reliability", n_servers=2),
    "parity-logging": dict(policy="parity-logging", n_servers=4, overflow_fraction=0.10),
    "mirroring": dict(policy="mirroring", n_servers=2),
    "disk": dict(policy="disk"),
    "write-through": dict(policy="write-through", n_servers=2),
}


def run_policy(workload: str, policy: str, runner=None, **overrides) -> CompletionReport:
    """Run the registered ``workload`` (e.g. ``"gauss"``) under one
    paper configuration, through the experiment runner (cache-aware)."""
    spec = RunSpec.make(workload, policy, overrides=overrides)
    return (runner or default_runner()).run_one(spec).report


def run_suite(
    workloads: Dict[str, str],
    policies,
    runner=None,
    **overrides,
) -> Dict[str, Dict[str, CompletionReport]]:
    """Run a matrix of workloads x policies; returns nested reports.

    ``workloads`` maps each row label to a registry name.  The whole
    matrix is handed to the experiment runner in one batch — cells run
    in parallel under ``--jobs N`` and cached cells are skipped.
    Results are assembled in matrix order, so the output is independent
    of completion order.
    """
    runner = runner or default_runner()
    apps = list(workloads)
    policies = list(policies)
    specs = [
        RunSpec.make(workloads[app], policy, overrides=overrides, label=f"{app}/{policy}")
        for app in apps
        for policy in policies
    ]
    flat = iter(runner.run(specs))
    return {app: {policy: next(flat).report for policy in policies} for app in apps}


def merged_metrics(reports) -> Dict[str, object]:
    """Combine per-run ``meta["metrics"]`` snapshots into suite totals.

    Counters sum and tallies fold via :meth:`Tally.merge` (Chan's
    parallel Welford), so reassembled multi-run statistics are exactly
    what a single combined stream would have produced — regardless of
    whether the runs came from the cache or worker processes.
    """
    from ..obs.metrics import merge_snapshots

    return merge_snapshots(
        [r.meta["metrics"] for r in reports if "metrics" in r.meta]
    )
