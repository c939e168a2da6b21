"""Remote memory vs remote disk paging (Comer & Griffioen's result).

The related-work claim we regenerate: remote *memory* paging is "20% to
100% faster than remote disk paging, depending on the disk access
pattern".  The access-pattern dependence comes from the far-end device:
DRAM doesn't care whether pageins arrive sequentially or randomly, the
platter very much does.  We sweep the access pattern from streaming to
random and measure the gap.
"""

from __future__ import annotations

from typing import Dict

from ..analysis.report import format_table
from ..cluster.workstation import Workstation
from ..core.builder import build_cluster
from ..core.remote_disk import RemoteDiskPager, RemoteDiskServer
from ..runner import default_engine
from ..vm.machine import Machine
from ..workloads import Gauss, SequentialScan, UniformRandom

__all__ = ["run_remote_disk", "render_remote_disk"]


def _remote_disk_cluster(n_servers: int = 2):
    """A cluster whose pager targets the servers' disks, not their DRAM."""
    # Reuse the sim/network/client assembly.
    base = build_cluster(policy="disk", engine=default_engine())
    sim, stack = base.sim, base.stack
    servers = []
    for i in range(n_servers):
        host = Workstation(sim, f"disk-donor-{i}", base.client_host.spec)
        stack.network.attach(host.name)
        servers.append(RemoteDiskServer(host, stack, name=f"disk-server-{i}"))
    pager = RemoteDiskPager(base.client_host.name, stack, servers)
    machine = Machine(sim, base.client_host.spec, pager, init_time=0.21)
    return sim, machine


_PATTERNS = {
    # Sequential re-reads: the remote disk streams, so the gap is small.
    "sequential": lambda: SequentialScan(n_pages=3000, passes=3, write=True,
                                         cpu_per_page=1e-3),
    # A real application's mix.
    "gauss": Gauss,
    # Random access: every remote-disk pagein pays a seek.
    "random": lambda: UniformRandom(n_pages=3000, n_refs=20000,
                                    write_fraction=0.5, cpu_per_page=1e-3, seed=9),
}


def run_remote_disk() -> Dict[str, Dict[str, float]]:
    """Remote memory vs remote disk across three access patterns."""
    results: Dict[str, Dict[str, float]] = {}
    for pattern, factory in _PATTERNS.items():
        memory_cluster = build_cluster(
            policy="no-reliability", n_servers=2, engine=default_engine()
        )
        memory_report = memory_cluster.run(factory())
        sim, machine = _remote_disk_cluster(n_servers=2)
        disk_report = sim.run_until_complete(
            machine.run(factory().trace(), name=pattern)
        )
        results[pattern] = {
            "remote_memory": memory_report.etime,
            "remote_disk": disk_report.etime,
            "speedup": disk_report.etime / memory_report.etime - 1.0,
        }
    return results


def render_remote_disk(results: Dict[str, Dict[str, float]]) -> str:
    """Access-pattern sweep table for the §6 comparison."""
    rows = [
        [
            pattern,
            f"{r['remote_memory']:.1f}",
            f"{r['remote_disk']:.1f}",
            f"{r['speedup']:.0%}",
        ]
        for pattern, r in results.items()
    ]
    return format_table(
        ["access pattern", "remote memory (s)", "remote disk (s)", "memory faster by"],
        rows,
        title="Remote memory vs remote disk paging "
        "(Comer & Griffioen: 20%-100% depending on access pattern)",
    )
