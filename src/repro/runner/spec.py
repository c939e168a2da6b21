"""Picklable descriptions of individual experiment runs.

A :class:`RunSpec` is the unit of work the parallel runner ships to a
worker process: everything needed to rebuild a cluster and replay one
workload, expressed as plain data (registry names and sorted key/value
tuples) so it pickles cheaply and fingerprints canonically.  The few
experiment ingredients that are not plain data — workload constructors,
cluster hooks, post-run metric extraction — are referenced *by name*
and resolved against :mod:`repro.runner.registry` inside the worker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from ..config import EngineConfig
from ..vm.machine import CompletionReport

__all__ = ["RunSpec", "RunResult"]


def _freeze(mapping: Optional[Mapping[str, Any]]) -> Tuple[Tuple[str, Any], ...]:
    """Canonicalise a kwargs mapping into a sorted, hashable tuple."""
    if not mapping:
        return ()
    return tuple(sorted(mapping.items()))


@dataclass(frozen=True)
class RunSpec:
    """One cell of an experiment matrix, as plain picklable data.

    Fields referencing behaviour do so by registry name:

    * ``workload`` — key in :data:`repro.runner.registry.WORKLOADS`;
      ``workload_kwargs`` are passed to the factory (``size_mb`` routes
      through ``from_megabytes`` for workloads that support it).
    * ``policy`` — a :data:`repro.experiments.harness.PAPER_CONFIGS`
      name (or any :func:`build_cluster` policy).
    * ``overrides`` — extra :func:`build_cluster` keyword arguments; a
      string ``replacement`` is resolved via ``make_replacement``.
    * ``machine_attrs`` — attributes set on ``cluster.machine`` after
      assembly (``pageout_window``, ``free_batch``, ``prefetch``, …).
    * ``hook`` / ``hook_kwargs`` — a registered cluster hook, applied
      between assembly and the workload run.
    * ``extract`` — registered extractors producing the run's ``extras``
      dict from the finished cluster (network stats, server CPU, …).
    * ``engine`` — the host-side fast paths the run may take.  Results
      are byte-identical on every engine, but the engine is part of the
      cell's identity, so an A/B run never reads the other side's
      cached result.  A runner configured with an engine stamps it onto
      every spec it runs.

    ``label`` is display-only and never contributes to the cache
    fingerprint.
    """

    workload: str
    policy: str
    workload_kwargs: Tuple[Tuple[str, Any], ...] = ()
    overrides: Tuple[Tuple[str, Any], ...] = ()
    machine_attrs: Tuple[Tuple[str, Any], ...] = ()
    seed: int = 0
    hook: Optional[str] = None
    hook_kwargs: Tuple[Tuple[str, Any], ...] = ()
    extract: Tuple[str, ...] = ()
    engine: EngineConfig = EngineConfig()
    label: Optional[str] = field(default=None, compare=False)

    @classmethod
    def make(
        cls,
        workload: str,
        policy: str,
        *,
        workload_kwargs: Optional[Mapping[str, Any]] = None,
        overrides: Optional[Mapping[str, Any]] = None,
        machine_attrs: Optional[Mapping[str, Any]] = None,
        seed: int = 0,
        hook: Optional[str] = None,
        hook_kwargs: Optional[Mapping[str, Any]] = None,
        extract: Tuple[str, ...] = (),
        engine: EngineConfig = EngineConfig(),
        label: Optional[str] = None,
    ) -> "RunSpec":
        """Build a spec from plain dicts (sorted into canonical tuples)."""
        return cls(
            workload=workload,
            policy=policy,
            workload_kwargs=_freeze(workload_kwargs),
            overrides=_freeze(overrides),
            machine_attrs=_freeze(machine_attrs),
            seed=seed,
            hook=hook,
            hook_kwargs=_freeze(hook_kwargs),
            extract=tuple(extract),
            engine=engine,
            label=label,
        )

    def identity(self) -> str:
        """Canonical identity string (the cache fingerprint's raw input).

        Deterministic across processes: built only from reprs of plain
        values and frozen dataclasses, never from object ids.
        """
        return repr(
            (
                self.workload,
                self.policy,
                self.workload_kwargs,
                self.overrides,
                self.machine_attrs,
                self.seed,
                self.hook,
                self.hook_kwargs,
                self.extract,
                self.engine,
            )
        )

    def describe(self) -> Dict[str, Any]:
        """Human-readable dict (stored alongside cached results)."""
        return {
            "workload": self.workload,
            "policy": self.policy,
            "workload_kwargs": dict(self.workload_kwargs),
            "overrides": {k: repr(v) for k, v in self.overrides},
            "machine_attrs": dict(self.machine_attrs),
            "seed": self.seed,
            "hook": self.hook,
            "hook_kwargs": dict(self.hook_kwargs),
            "extract": list(self.extract),
            "engine": repr(self.engine),
        }


@dataclass
class RunResult:
    """A completed run: the report plus any extractor output.

    ``cached`` records whether the result came from the on-disk cache;
    it is excluded from equality so a cache hit compares equal to the
    cold run that produced it.
    """

    spec: RunSpec
    report: CompletionReport
    extras: Dict[str, Any] = field(default_factory=dict)
    cached: bool = field(default=False, compare=False)
