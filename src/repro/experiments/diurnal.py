"""Diurnal capacity: running the pager at different times of the week.

Figure 1 is motivation — "for significant periods of time more than 700
Mbytes are unused ... rarely lower than 400 Mbytes" — but the paper never
closes the loop between the idle-memory profile and pager behaviour.
This experiment does: the donors' grantable memory at each start time
comes from the Figure 1 trace, and we measure how much of the workload's
paging lands in remote memory vs. spills to the local disk.

At 3am the cluster absorbs everything; at the Tuesday-noon trough some
pages overflow to the disk (and would be replicated back as memory
frees, §2.1).
"""

from __future__ import annotations

from typing import Dict

from ..analysis.report import format_table
from ..cluster.idle_trace import IdleMemoryTrace
from ..core.builder import build_cluster
from ..runner import default_engine
from ..units import days, hours
from ..workloads import Mvec

__all__ = ["run_diurnal", "render_diurnal"]

#: (label, seconds into the Figure 1 week — which starts on a Thursday).
START_TIMES = [
    ("Thursday 3am", hours(3)),
    ("Thursday 11am", hours(11)),
    ("Saturday noon", days(2) + hours(12)),
    ("Monday 3pm", days(4) + hours(15.5)),
]


def run_diurnal(
    workload_factory=None,
    n_servers: int = 4,
    donatable_fraction: float = 0.05,
) -> Dict[str, Dict[str, float]]:
    """Run the workload with capacity drawn from the weekly idle trace.

    ``donatable_fraction``: share of the cluster's idle memory our four
    donors offer this one client (the rest belongs to other users and
    other clients).
    """
    workload_factory = workload_factory or (lambda: Mvec(n=2400))
    trace = IdleMemoryTrace()
    results: Dict[str, Dict[str, float]] = {}
    for label, t in START_TIMES:
        idle_pages = trace.free_pages(t)
        per_server = max(64, int(idle_pages * donatable_fraction / n_servers))
        cluster = build_cluster(
            policy="no-reliability",
            n_servers=n_servers,
            server_capacity_pages=per_server,
            engine=default_engine(),
        )
        report = cluster.run(workload_factory())
        remote = sum(s.stored_pages for s in cluster.servers)
        results[label] = {
            "idle_mb": trace.free_mb(t),
            "capacity_pages": per_server * n_servers,
            "etime": report.etime,
            "remote_pages": remote,
            "disk_pages": cluster.pager.pages_on_local_disk,
        }
    return results


def render_diurnal(results: Dict[str, Dict[str, float]]) -> str:
    """Start-time sweep table."""
    rows = [
        [
            label,
            f"{r['idle_mb']:.0f}",
            r["capacity_pages"],
            f"{r['etime']:.1f}",
            r["remote_pages"],
            r["disk_pages"],
        ]
        for label, r in results.items()
    ]
    return format_table(
        ["start time", "cluster idle (MB)", "granted (pages)", "etime (s)",
         "pages remote", "pages on disk"],
        rows,
        title="Diurnal capacity: the Figure 1 trace driving donor grants "
        "(MVEC 2400, no-reliability)",
    )
