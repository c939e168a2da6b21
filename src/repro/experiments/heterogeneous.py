"""§5's heterogeneous networks: a multi-level remote-memory hierarchy.

"On a wider area network the time it takes to transfer a page may not be
identical for each server.  In this case there may be more than three
levels in the memory hierarchy (local memory, remote memory, disk)."

Setup: a switched network where half the servers sit on fast links and
half on slow links.  We measure per-server pagein latency (exposing the
extra hierarchy level) and compare round-robin placement against a
bandwidth-aware ranker that fills fast-linked servers first.
"""

from __future__ import annotations

from typing import Dict

from ..analysis.report import format_table
from ..config import SwitchedNetworkSpec
from ..core.builder import build_cluster
from ..runner import default_engine
from ..units import megabits_per_second
from ..workloads import Gauss

__all__ = ["run_heterogeneous", "render_heterogeneous"]


def _build(fast_mbps: float, slow_mbps: float, ranked: bool):
    cluster = build_cluster(
        policy="no-reliability",
        n_servers=4,
        switched_spec=SwitchedNetworkSpec(bandwidth=megabits_per_second(fast_mbps)),
        engine=default_engine(),
    )
    network = cluster.network
    slow = megabits_per_second(slow_mbps)
    for server in cluster.servers[2:]:
        network.attach(server.host.name, bandwidth=slow)
    if ranked:
        # Prefer fast links; the slow-linked donors become the deeper
        # hierarchy level, used only when the fast ones fill.
        cluster.policy.server_ranker = lambda s: -network.host_bandwidth(s.host.name)
    return cluster


def run_heterogeneous(
    fast_mbps: float = 100.0,
    slow_mbps: float = 10.0,
    workload_factory=Gauss,
) -> Dict[str, object]:
    """Compare round-robin vs bandwidth-aware placement."""
    results: Dict[str, object] = {}
    for label, ranked in (("round-robin", False), ("bandwidth-aware", True)):
        cluster = _build(fast_mbps, slow_mbps, ranked)
        report = cluster.run(workload_factory())
        placement = {}
        for server in cluster.servers:
            pages = sum(
                1 for s in cluster.policy._placement.values() if s is server
            )
            placement[server.name] = pages
        results[label] = {
            "etime": report.etime,
            "placement": placement,
            "fast_share": sum(
                placement[s.name] for s in cluster.servers[:2]
            )
            / max(1, sum(placement.values())),
        }
    results["speedup"] = (
        results["round-robin"]["etime"] / results["bandwidth-aware"]["etime"]
    )
    return results


def render_heterogeneous(results: Dict[str, object]) -> str:
    """Placement-strategy comparison table."""
    rows = []
    for label in ("round-robin", "bandwidth-aware"):
        r = results[label]
        rows.append(
            [
                label,
                f"{r['etime']:.1f}",
                f"{r['fast_share']:.0%}",
            ]
        )
    table = format_table(
        ["placement", "etime (s)", "pages on fast links"],
        rows,
        title="§5: heterogeneous cluster (2 fast + 2 slow server links)",
    )
    return table + f"\nbandwidth-aware placement speedup: {results['speedup']:.2f}x"
