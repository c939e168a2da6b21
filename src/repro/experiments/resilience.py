"""Resilience under injected faults (beyond-paper chaos campaign).

The paper's claim is *reliability at low cost* (§2.2) — but its
evaluation only ever kills one server on an otherwise perfect network.
This experiment sweeps fault intensity x reliability policy under the
:mod:`repro.faults` chaos harness and reports, per cell, the end-to-end
page-integrity verdict (every page the pager still owes the application
is replayed and checked against its pageout CRC) plus the retry /
recovery / scrub accounting that explains it.

Expected outcome, mirroring §2.2's taxonomy: every redundant policy
(mirroring, parity, parity logging, write-through, and the
erasure-coded ``ec-K-M`` family) comes through the ``light`` and
``heavy`` campaigns CLEAN — zero pages lost or corrupted — while NO
RELIABILITY loses the crashed server's pages outright.  The
``correlated`` level goes beyond the paper: a two-server crash_group
plus a crash-during-recovery cascade, survivable only by policies that
tolerate more than one concurrent failure — EC cells must stay CLEAN
while the single-tolerance policies are expected LOSSY.

Reliable-policy cells run through the parallel runner (cache-aware,
``--jobs`` friendly); the fault schedule is carried as plain data in the
RunSpec, so serial, parallel and cached runs replay the identical
campaign.  The faulted NO RELIABILITY cell is the one deliberate
exception: its workload *dies* with the crash (that is the result), so
it runs inline where the exception can be caught and reported.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..analysis.report import format_table
from ..config import MachineSpec
from ..errors import ReproError
from ..faults import ChaosController, FaultPlan, check_page_integrity
from ..runner import RunSpec, default_engine, default_runner
from ..runner.registry import EXTRACTORS

__all__ = [
    "LEVELS",
    "RESILIENCE_POLICIES",
    "render_resilience",
    "run_resilience",
]

RESILIENCE_POLICIES = (
    "no-reliability",
    "mirroring",
    "parity",
    "parity-logging",
    "write-through",
    "ec-2-1",
    "ec-4-2",
)

LEVELS = ("clean", "light", "heavy", "correlated")

#: Small machine -> short runs (~20 simulated seconds fault-free); the
#: campaign times below are chosen against that duration.
_SMALL = MachineSpec(
    name="chaos-small",
    ram_bytes=2 * 1024 * 1024,
    kernel_resident_bytes=1 * 1024 * 1024,
    page_size=8192,
)

#: Every policy gets four data servers: mirroring with only two cannot
#: re-mirror after losing one, and the campaign crashes exactly one.
_BUILD = dict(
    machine_spec=_SMALL,
    content_mode=True,
    seed=3,
    n_servers=4,
    server_capacity_pages=600,
)

_WORKLOAD = ("sequential-scan", dict(n_pages=400, passes=3, write=True))

#: Policies whose fault tolerance stops at one concurrent failure per
#: redundancy group.  The ``correlated`` campaign opens with a two-server
#: crash_group, so these cells are *expected* to die or lose pages —
#: they run inline where the death is caught and reported as the result.
_SINGLE_TOLERANCE = frozenset(
    {"no-reliability", "mirroring", "parity", "parity-logging"}
)


def _cell_servers(policy: str, level: str) -> int:
    """Server-pool size for one (policy, level) cell.

    Erasure-coded cells get ``max(2 * (k + m), 8)``: two CodingSets
    placement groups, each with rebuild slack beyond the stripe width
    so fragments rebuild *inside* their group instead of borrowing
    cross-group and leaking the blast radius (see
    ``FaultPlan.correlated_campaign``).  The ``correlated`` campaign's
    default targets reach server index 5, so every other policy gets
    six servers at that level.
    """
    from ..core.policies import parse_ec_policy

    shape = parse_ec_policy(policy)
    if shape is not None:
        return max(2 * (shape[0] + shape[1]), 8)
    if level == "correlated":
        return 6
    return int(_BUILD["n_servers"])


def _level_plan(level: str) -> Optional[FaultPlan]:
    """The fault campaign for one intensity level (None = no faults)."""
    if level == "clean":
        return None
    if level == "light":
        # The acceptance campaign: one crash + 1% loss + one rot burst.
        return FaultPlan.standard_campaign()
    if level == "correlated":
        # The multi-failure schedule erasure coding exists to survive:
        # a two-server crash_group, a crash-during-recovery cascade, an
        # amnesiac flap, and a rot burst (timings documented on the
        # classmethod).  EC cells must be CLEAN; single-tolerance
        # policies see two concurrent faults and are expected LOSSY.
        return FaultPlan.correlated_campaign()
    if level == "heavy":
        # Everything at once: steady loss/duplication/delay, a loss
        # burst, a crash, a flapping server, and an at-rest corruption
        # burst.  The schedule respects what single-redundancy policies
        # can actually survive: the flap outage (4 s) is longer than the
        # watchdog's suspicion threshold so the lost copies are detected
        # and re-protected, and the rot burst lands last — rot composed
        # with an un-repaired crash in the same group is two faults in
        # one XOR equation, unrecoverable by design.
        return FaultPlan(
            drop_rate=0.02,
            duplicate_rate=0.01,
            delay_rate=0.05,
            watchdog_interval=0.5,
            events=(
                ("loss_burst", 2.0, 1.0, 0.2),
                ("crash", 5.0, 0),
                ("flap", 12.0, 2, 4.0),
                ("corrupt_burst", 40.0, 1, 4),
            ),
        )
    raise ValueError(f"unknown resilience level {level!r}: pick from {LEVELS}")


def _run_inline(
    policy: str, plan: Optional[FaultPlan], build: Dict[str, object]
) -> Dict[str, object]:
    """Run one faulted cell inline, tolerating a mid-run workload death."""
    from ..core.builder import build_cluster

    workload_name, workload_kwargs = _WORKLOAD
    from ..runner.registry import make_workload

    cluster = build_cluster(policy=policy, **build, engine=default_engine())
    controller = ChaosController(cluster, plan) if plan is not None else None
    report = None
    error: Optional[str] = None
    try:
        report = cluster.run(make_workload(workload_name, dict(workload_kwargs)))
    except ReproError as exc:
        # NO RELIABILITY dying with the crashed server *is* the result.
        error = f"{type(exc).__name__}: {exc}"
    extras = EXTRACTORS["resilience"](cluster, report, controller)
    return {"report": report, "extras": extras, "error": error}


def run_resilience(
    policies=RESILIENCE_POLICIES,
    levels=("clean", "light"),
    runner=None,
    pipelined: bool = False,
    pipeline_window: int = 4,
    pipeline_prefetch: int = 4,
) -> Dict[str, Dict[str, Dict[str, object]]]:
    """Fault level x policy sweep; returns ``results[level][policy]``.

    Each cell is ``{"report": CompletionReport | None, "extras": dict,
    "error": str | None}`` where ``extras`` carries the integrity
    verdict, the injected-fault trace, and RPC/recovery counters.

    ``pipelined=True`` runs the whole campaign with the PR 4 datapath
    engaged (write-behind queue + prefetcher): coalescing and reordering
    under injected faults must still end CLEAN for every redundant
    policy.
    """
    policies, levels = list(policies), list(levels)
    run = (runner or default_runner()).run
    results: Dict[str, Dict[str, Dict[str, object]]] = {}
    specs, placements = [], []
    for level in levels:
        results[level] = {}
        plan = _level_plan(level)
        for policy in policies:
            build = dict(_BUILD, n_servers=_cell_servers(policy, level))
            if pipelined:
                build.update(
                    pipeline_window=pipeline_window,
                    pipeline_prefetch=pipeline_prefetch,
                )
            dies_by_design = policy == "no-reliability" or (
                level == "correlated" and policy in _SINGLE_TOLERANCE
            )
            if dies_by_design and plan is not None:
                results[level][policy] = _run_inline(policy, plan, build)
                continue
            spec = RunSpec.make(
                _WORKLOAD[0],
                policy,
                workload_kwargs=_WORKLOAD[1],
                overrides=build,
                hook="chaos" if plan is not None else None,
                hook_kwargs=plan.as_kwargs() if plan is not None else None,
                extract=("resilience",),
                label=f"{policy}/{level}",
            )
            specs.append(spec)
            placements.append((level, policy))
    for (level, policy), result in zip(placements, run(specs)):
        results[level][policy] = {
            "report": result.report,
            "extras": result.extras,
            "error": None,
        }
    return results


def render_resilience(results) -> str:
    """Level x policy table: verdict + the accounting that explains it."""
    rows = []
    for level, by_policy in results.items():
        for policy, cell in by_policy.items():
            extras = cell["extras"]
            integrity = extras["integrity"]
            report = cell["report"]
            rows.append(
                [
                    level,
                    policy,
                    extras["verdict"],
                    str(len(integrity["lost"])),
                    str(len(integrity["corrupted"])),
                    str(extras["recoveries"]),
                    str(extras["scrub_recoveries"]),
                    str(extras.get("degraded_reads", 0)),
                    str(extras.get("fragments_rebuilt", 0)),
                    f"{extras['rpc_retries']}/{extras['rpc_timeouts']}",
                    f"{report.etime:.2f}" if report is not None else "died",
                    cell["error"] or "-",
                ]
            )
    return format_table(
        [
            "faults",
            "policy",
            "verdict",
            "lost",
            "corrupt",
            "recov",
            "scrubs",
            "degraded",
            "rebuilt",
            "retry/tmo",
            "etime (s)",
            "workload error",
        ],
        rows,
        title="Resilience campaign: end-to-end page integrity under injected "
        "faults (redundant policies must be CLEAN; NO RELIABILITY is the "
        "paper's lossy baseline)",
    )
