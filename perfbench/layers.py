"""Per-layer metrics of the traced run, and what each should move.

``BENCHMARK.json`` is the one list of metric names, units and
directions.  This module adds what its fixed schema cannot hold: for
each per-layer metric the end-to-end metric and workload a change to
that layer should move (``MOVES``), and which values are *exact* counts
(``EXACT``: deterministic, so the traced run repeats them and flags any
drift as a failure).
"""

from __future__ import annotations

import json
import os
from collections import Counter
from statistics import mean
from typing import Any, Dict

from .tracing import BYPASS_REASONS, PACKAGES, Recorder

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"
)


def units(section: str) -> Dict[str, str]:
    """``{name: unit}`` of one metric list of ``BENCHMARK.json``."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


_KERNEL = "wall_s on paper-ethernet and ec-switched (ROADMAP item 5 halves it)"
_ETH = "wall_s on paper-ethernet (uncontended) and loaded-campaign (contended)"
_FANOUT = "wall_s on ec-switched (fragment fan-out) and fleet-switched"
_CODEC = "wall_s and peak_rss_mb on ec-switched"
_COMPILE = "wall_s on fleet-switched; almost nothing on paper-ethernet"
_RUNNER = "wall_s on loaded-campaign"
_PAGE = "wall_s on ec-switched"

MOVES: Dict[str, str] = {
    "sim.processes_per_fault": _KERNEL,
    "sim.timeouts_per_fault": _KERNEL,
    "sim.at_parks_per_fault": _KERNEL,
    "sim.run_self_s": "wall_s on all four workloads",
    "net.frames_per_message": _ETH,
    "net.collisions": _ETH,
    "net.station_collisions": _ETH,
    "net.utilization": _ETH,
    "net.messages": _FANOUT,
    "net.protocol.messages": _FANOUT,
    "net.protocol.batch_heads": _FANOUT,
    "net.protocol.batched_page_sends": _FANOUT,
    "codec.encode_calls": _CODEC,
    "codec.encode_s": _CODEC,
    # No workload decodes (they are fault-free), so only the call count
    # is reported: a decode time would read 0.0 on every run.
    "codec.decode_calls": _CODEC,
    "codec.row_cache_hits": _CODEC,
    "codec.row_cache_misses": _CODEC,
    "vm.page.fastpath_page_bytes_hits": _PAGE,
    "vm.page.fastpath_page_bytes_misses": _PAGE,
    "vm.page.fastpath_checksum_entries": _PAGE,
    "vm.page.fastpath_fragment_entries": _PAGE,
    "vm.page.fastpath_fragment_hits": _PAGE,
    "compile.compile_s": _COMPILE,
    "compile.plan_self_s": _COMPILE,
    "compile.schedule_cache_hits": _COMPILE,
    "compile.schedule_cache_misses": _COMPILE,
    "compile.fleet_shared": _COMPILE,
    **{f"compile.bypass.{reason}": _COMPILE for reason in BYPASS_REASONS + ("other",)},
    "workloads.trace_s": "wall_s on fleet-switched",
    "pipeline.prefetch_hit_ratio": "wall_s on paper-ethernet",
    "pipeline.backlog_stalls": "wall_s on paper-ethernet",
    "runner.cold_s": _RUNNER,
    "runner.cache_get_s": _RUNNER,
    "runner.cache_put_s": _RUNNER,
    "runner.fingerprint_s": _RUNNER,
    "runner.warm_pass_ms": _RUNNER,
    "runner.cache_hits": _RUNNER,
    "obs.snapshot_s": _PAGE,
    "obs.telemetry_samples": _PAGE,
    "build.cluster_s": "setup_s on every workload",
    "build.fleet_s": "setup_s on fleet-switched",
    **{
        f"self.{package}": "wall_s on the workloads where the package's share is large"
        for package in PACKAGES + ("other",)
    },
    "trace.overhead_s": "nothing: traced minus untraced pass wall",
    "trace.untraced_wall_s": "nothing: the pass wall the overhead is taken against",
}

#: Deterministic counts: sim.*_per_fault, net.*, codec row cache and the
#: compile planner's events.
EXACT = (
    "sim.processes_per_fault", "sim.timeouts_per_fault", "sim.at_parks_per_fault",
    "net.frames_per_message", "net.collisions", "net.station_collisions",
    "net.utilization", "net.messages", "net.protocol.messages",
    "net.protocol.batch_heads", "net.protocol.batched_page_sends",
    "codec.row_cache_hits", "codec.row_cache_misses",
    "compile.schedule_cache_hits", "compile.schedule_cache_misses",
    "compile.fleet_shared",
    *(f"compile.bypass.{reason}" for reason in BYPASS_REASONS + ("other",)),
)

_NET_SUMS = (
    "net.collisions", "net.station_collisions", "net.messages",
    "net.protocol.messages", "net.protocol.batch_heads",
    "net.protocol.batched_page_sends",
)


def _series_samples(snapshot: Dict[str, Any]) -> int:
    """Samples the telemetry sampler took (retained plus dropped)."""
    times = snapshot.get("telemetry.rate.faults.times") or []
    return len(times) + int(snapshot.get("telemetry.rate.faults.dropped") or 0)


def exact_counts(recorder: Recorder, cells) -> Dict[str, float]:
    """The deterministic counts of one traced pass (``EXACT`` names)."""
    faults = sum(cell.faults for cell in cells) or 1
    snapshots = [cell.snapshot for cell in cells]
    processes = sum(c.sim.process_count for c in recorder.clusters)
    processes += sum(f.sim.process_count for f in recorder.fleets)
    events = recorder.events.counts
    values: Dict[str, float] = {
        "sim.processes_per_fault": processes / faults,
        "sim.timeouts_per_fault": recorder.calls["sim.timeouts"] / faults,
        "sim.at_parks_per_fault": recorder.calls["sim.at_parks"] / faults,
        "net.utilization": mean(s.get("net.utilization", 0.0) for s in snapshots),
        # Per-policy counters (each codec instance's own subset memo),
        # not the process-wide row cache, whose warmth depends on what
        # ran before.
        "codec.row_cache_hits": sum(s.get("policy.codec_row_hits", 0) for s in snapshots),
        "codec.row_cache_misses": sum(s.get("policy.codec_row_misses", 0) for s in snapshots),
        "compile.schedule_cache_hits": events["cache-hit"],
        "compile.schedule_cache_misses": events["compiled"],
        "compile.fleet_shared": events["fleet-shared"],
    }
    for name in _NET_SUMS:
        values[name] = sum(s.get(name, 0) for s in snapshots)
    frames = sum(s.get("net.frames", 0) for s in snapshots)
    values["net.frames_per_message"] = frames / (values["net.messages"] or 1)
    bypassed = Counter(
        {k[len("bypass."):]: n for k, n in events.items() if k.startswith("bypass.")}
    )
    for reason in BYPASS_REASONS:
        values[f"compile.bypass.{reason}"] = bypassed.pop(reason, 0)
    values["compile.bypass.other"] = sum(bypassed.values())
    return values


def timed_layers(recorder: Recorder, cells, fastpath: Dict[str, int]) -> Dict[str, float]:
    """Span-derived times and the remaining per-pass counts."""
    selfs = recorder.self_times()
    spans = recorder.durations()
    calls = recorder.span_counts()
    snapshots = [cell.snapshot for cell in cells]
    issued = sum(s.get("pipeline.prefetch_issued", 0) for s in snapshots)
    hits = sum(s.get("pipeline.prefetch_hits", 0) for s in snapshots)
    values = {
        "sim.run_self_s": selfs.get("sim.run", 0.0),
        "codec.encode_calls": calls["codec.encode"],
        "codec.encode_s": selfs.get("codec.encode", 0.0),
        "codec.decode_calls": calls["codec.decode"],
        "compile.compile_s": spans.get("compile.compile", 0.0),
        "compile.plan_self_s": selfs.get("compile.plan", 0.0),
        "pipeline.prefetch_hit_ratio": hits / issued if issued else 0.0,
        "pipeline.backlog_stalls": sum(s.get("pipeline.backlog_stalls", 0) for s in snapshots),
        "runner.cold_s": spans.get("runner.cold", 0.0),
        "runner.cache_get_s": spans.get("runner.cache_get", 0.0),
        "runner.cache_put_s": spans.get("runner.cache_put", 0.0),
        "runner.fingerprint_s": spans.get("runner.fingerprint", 0.0),
        "obs.snapshot_s": spans.get("obs.snapshot", 0.0),
        "obs.telemetry_samples": sum(_series_samples(s) for s in snapshots),
        "build.cluster_s": spans.get("build.cluster", 0.0),
        "build.fleet_s": spans.get("build.fleet", 0.0),
    }
    for key in ("page_bytes_hits", "page_bytes_misses", "checksum_entries",
                "fragment_entries", "fragment_hits"):
        values[f"vm.page.fastpath_{key}"] = fastpath[key]
    return values
