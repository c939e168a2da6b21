"""§4.4: the latency of one remote-memory page transfer.

The paper measures 11.24 ms per page transfer — 1.6 ms of protocol
processing plus 9.64 ms on the Ethernet — versus 45 ms/4 KB in prior
work.  This microbenchmark runs pagein round trips on an idle network
and decomposes the average the same way.
"""

from __future__ import annotations

from typing import Dict

from ..analysis.paper_data import LATENCY_MS
from ..analysis.report import format_table
from ..config import PAGE_SIZE
from ..core.builder import build_cluster
from ..runner import default_engine

__all__ = ["run_latency", "render_latency"]


def run_latency(n_transfers: int = 200) -> Dict[str, float]:
    """Average pagein latency over ``n_transfers`` round trips."""
    cluster = build_cluster(
        policy="no-reliability", n_servers=1, engine=default_engine()
    )
    pager = cluster.pager
    sim = cluster.sim

    def flow():
        # Stage the pages remotely first.
        for page_id in range(n_transfers):
            yield from pager.pageout(page_id, None)
        start = sim.now
        for page_id in range(n_transfers):
            yield from pager.pagein(page_id)
        return (sim.now - start) / n_transfers

    per_pagein = sim.run_until_complete(sim.process(flow()))
    protocol = cluster.stack.spec.per_page_cpu
    return {
        "per_transfer_ms": per_pagein * 1e3,
        "protocol_ms": protocol * 1e3,
        "wire_ms": (per_pagein - protocol) * 1e3,
        "page_size": PAGE_SIZE,
    }


def render_latency(results: Dict[str, float]) -> str:
    """Measured-vs-paper table for the §4.4 microbenchmark."""
    rows = [
        [
            "per page transfer (ms)",
            f"{results['per_transfer_ms']:.2f}",
            f"{LATENCY_MS['total_per_transfer']:.2f}",
        ],
        ["protocol processing (ms)", f"{results['protocol_ms']:.2f}", f"{LATENCY_MS['protocol']:.2f}"],
        ["wire + queueing (ms)", f"{results['wire_ms']:.2f}", f"{LATENCY_MS['wire']:.2f}"],
        [
            "prior work (4 KB pagein, ms)",
            "-",
            f"{LATENCY_MS['prior_work_4kb_pagein']:.0f}",
        ],
    ]
    return format_table(
        ["quantity", "ours", "paper"],
        rows,
        title="§4.4: single page-transfer latency (8 KB page, idle Ethernet)",
    )
