"""Multiple paging clients sharing the cluster.

§3.2: "Each client is served by a new instance of the server which uses
portion of the local workstation's main memory to store the client's
pages" — and §6 stresses that, unlike file systems, "clients never share
their swap spaces".  This experiment runs clients concurrently:

* each client gets its *own* server instances on the shared donor
  workstations (separate memory grants, fully isolated swap spaces);
* all compete for one shared fabric — the paper's Ethernet segment by
  default, or the switched full-duplex network via ``network=``.

The interesting measurement is the contention cost: how much slower N
simultaneous paging applications run than each would alone.  The
topology is the N=small special case of :mod:`repro.experiments.fleet`
(same builder, same per-client isolation); the fleet experiment is
where the same shape scales to paper-rack client counts.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..analysis.report import format_table
from ..config import SwitchedNetworkSpec
from ..runner import default_engine
from ..vm.machine import Machine
from ..workloads import Gauss, Qsort
from .fleet import build_fleet

__all__ = ["build_multi_client", "run_multi_client", "render_multi_client"]


def build_multi_client(
    n_clients: int = 2,
    n_donors: int = 2,
    capacity_per_client: int = 2048,
    seed: int = 0,
    network: str = "ethernet",
    switched_spec: Optional[SwitchedNetworkSpec] = None,
):
    """A shared-fabric cluster with per-client server instances.

    Returns ``(sim, machines, network)`` — the historical shape.  The
    assembly itself delegates to :func:`repro.experiments.fleet.build_fleet`
    with zero start stagger: this experiment *wants* the §6 worst case
    of perfectly synchronized clients fighting for the wire.
    """
    fleet = build_fleet(
        n_clients=n_clients,
        n_donors=n_donors,
        capacity_per_client=capacity_per_client,
        seed=seed,
        network=network,
        switched_spec=switched_spec,
        stagger=0.0,
        engine=default_engine(),
    )
    machines: List[Machine] = fleet.machines
    return fleet.sim, machines, fleet.network


def run_multi_client(
    workload_factories=(Gauss, Qsort),
    n_donors: int = 2,
    capacity_per_client: int = 2048,
    network: str = "ethernet",
) -> Dict[str, object]:
    """Solo vs concurrent completion times, one client per workload."""
    solo_times = []
    for factory in workload_factories:
        sim, machines, _ = build_multi_client(
            n_clients=1,
            n_donors=n_donors,
            capacity_per_client=capacity_per_client,
            network=network,
        )
        report = sim.run_until_complete(
            machines[0].run(factory().trace(), name=factory().name)
        )
        solo_times.append(report.etime)

    sim, machines, fabric = build_multi_client(
        n_clients=len(workload_factories),
        n_donors=n_donors,
        capacity_per_client=capacity_per_client,
        network=network,
    )
    processes = [
        machine.run(factory().trace(), name=factory().name)
        for machine, factory in zip(machines, workload_factories)
    ]
    reports = [sim.run_until_complete(p) for p in processes]
    return {
        "names": [factory().name for factory in workload_factories],
        "network": network,
        "solo": solo_times,
        "concurrent": [r.etime for r in reports],
        "slowdowns": [
            c / s for c, s in zip((r.etime for r in reports), solo_times)
        ],
        # Collisions only exist on the shared Ethernet; the switched
        # fabric contends at ports instead.
        "collisions": getattr(fabric, "collisions", 0),
        "wire_utilization": fabric.stats.utilization(),
    }


def render_multi_client(results: Dict[str, object]) -> str:
    """Solo-vs-concurrent table with wire statistics."""
    rows = [
        [name, f"{solo:.1f}", f"{concurrent:.1f}", f"{slowdown:.2f}x"]
        for name, solo, concurrent, slowdown in zip(
            results["names"],
            results["solo"],
            results["concurrent"],
            results["slowdowns"],
        )
    ]
    fabric = results.get("network", "ethernet")
    table = format_table(
        ["client workload", "solo (s)", "concurrent (s)", "slowdown"],
        rows,
        title=(
            f"{len(rows)} clients sharing one {fabric} fabric "
            "and donor pool"
        ),
    )
    return (
        table
        + f"\ncollisions: {results['collisions']}, "
        f"wire busy: {results['wire_utilization']:.0%}"
    )
