"""The traced run's instruments: spans, call counts and a profile.

Spans are recorded by the benchmark's own wrappers around each layer's
public entry points (nothing inside ``src/`` changes).  A span holds its
name, start, end, parent span and cell id; spans stay in memory and are
written out when the run ends.  A span's *self time* is its duration
minus its children's.

The event-driven layers (the kernel's processes, the network, the
pager) have no synchronous call boundary to wrap; their host cost shows
in the ``sim.run`` self time and in the per-package cProfile shares.
"""

from __future__ import annotations

import cProfile
import functools
import json
import os
import pstats
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional

import repro
from repro.compile import plan as plan_module
from repro.core import builder
from repro.core.policies.gf256 import ReedSolomon
from repro.experiments import fleet as fleet_module
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import install_tracer, uninstall_tracer
from repro.runner import cache as cache_module
from repro.runner import runner as runner_module
from repro.runner.cache import ResultCache
from repro.sim import NullTracer
from repro.sim.core import Simulator

import repro.compile as compile_package

#: Top-level ``repro`` packages reported as ``self.<package>``; every
#: other frame (stdlib, builtins, numpy, top-level repro modules, this
#: benchmark) is ``self.other``.
PACKAGES = (
    "sim", "net", "core", "vm", "compile", "pipeline", "runner", "obs",
    "workloads", "experiments", "cluster", "disk", "faults",
)

#: Compile bypass reasons reported one by one; the rest sum into
#: ``compile.bypass.other``.
BYPASS_REASONS = (
    "telemetry", "pipeline-prefetch", "shared-ethernet", "cross-client-coupling",
)


class CompileEvents(NullTracer):
    """A no-op tracer that keeps count of the compile planner's events.

    It stays a :class:`NullTracer` (``enabled`` False, spans discarded),
    so installing it records no request spans and changes no decision.
    """

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    def emit(self, component: str, event: str, page_id: Any = None, **attrs: Any) -> None:
        if component == "compile":
            if event == "bypass":
                event = f"bypass.{attrs.get('reason')}"
            self.counts[event] += 1


class Recorder:
    """Spans and call counts of one traced pass."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or None, cell id or None]
        self.spans: List[list] = []
        self.calls: Counter = Counter()
        self.clusters: List[Any] = []
        self.fleets: List[Any] = []
        self.events = CompileEvents()
        self._open: List[int] = []
        self._cell: Optional[str] = None

    @contextmanager
    def span(self, name: str, cell: Optional[str] = None) -> Iterator[None]:
        outer_cell = self._cell
        if cell is not None:
            self._cell = cell
        record = [name, perf_counter(), None, self._open[-1] if self._open else None, self._cell]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()
            self._cell = outer_cell

    # ------------------------------------------------------------ wrappers
    def _spanned(self, name: str, fn: Callable, cell_of=None, keep: Optional[list] = None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, cell_of(args) if cell_of else None):
                result = fn(*args, **kwargs)
            if keep is not None:
                keep.append(result)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["Recorder"]:
        """Patch every layer entry point for the duration of the block."""
        spanned = [
            (builder, "build_cluster", "build.cluster", None, self.clusters),
            (fleet_module, "build_fleet", "build.fleet", None, self.fleets),
            (builder.Cluster, "run", "sim.run", None, None),
            (Simulator, "run_until_complete", "sim.run", None, None),
            (compile_package, "plan_run", "compile.plan", None, None),
            (compile_package, "plan_fleet", "compile.plan", None, None),
            (plan_module, "compile_trace", "compile.compile", None, None),
            (ReedSolomon, "encode", "codec.encode", None, None),
            (ReedSolomon, "encode_many", "codec.encode", None, None),
            (ReedSolomon, "data_from_many", "codec.decode", None, None),
            (ReedSolomon, "reconstruct", "codec.decode", None, None),
            (MetricsRegistry, "snapshot", "obs.snapshot", None, None),
            (runner_module, "execute_spec", "cell", lambda args: args[0].label, None),
            (ResultCache, "get_many", "runner.cache_get", None, None),
            (ResultCache, "put", "runner.cache_put", None, None),
            (cache_module, "fingerprint", "runner.fingerprint", None, None),
        ]
        counted = [(Simulator, "timeout", "sim.timeouts"), (Simulator, "at", "sim.at_parks")]
        saved = []
        for owner, attr, name, cell_of, keep in spanned:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, self._spanned(name, getattr(owner, attr), cell_of, keep))
        for owner, attr, name in counted:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, self._counted(name, getattr(owner, attr)))
        install_tracer(self.events)
        try:
            yield self
        finally:
            uninstall_tracer()
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # ------------------------------------------------------------- queries
    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        totals: Counter = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, children):
            totals[name] += end - start - inner
        return dict(totals)

    def durations(self) -> Dict[str, float]:
        """Summed duration per span name, counting nested same-name
        spans once (only the outermost of a same-name chain counts)."""
        totals: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            if parent is None or self.spans[parent][0] != name:
                totals[name] += end - start
        return dict(totals)

    def span_counts(self) -> Counter:
        return Counter(record[0] for record in self.spans)

    def write_jsonl(self, path: str) -> None:
        """Write every span, times relative to the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, cell) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent, "cell": cell,
                }) + "\n")


def profile_shares(fn: Callable[[], Any]) -> Dict[str, float]:
    """Run ``fn`` under cProfile; % of host self time per package."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    totals: Counter = Counter()
    for (filename, _, _), (_, _, tottime, _, _) in pstats.Stats(profiler).stats.items():
        package = "other"
        if filename.startswith(root):
            head = filename[len(root):].split(os.sep)[0]
            if head in PACKAGES:
                package = head
        totals[package] += tottime
    whole = sum(totals.values()) or 1.0
    return {f"self.{name}": 100.0 * totals[name] / whole for name in PACKAGES + ("other",)}
