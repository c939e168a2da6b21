"""The parallel experiment runner.

Every figure in the paper is a matrix of independent, deterministic
simulation runs, so regenerating the evaluation is embarrassingly
parallel: :class:`ExperimentRunner` fans :class:`RunSpec`s out over a
``ProcessPoolExecutor`` and reassembles results *in spec order* —
completion order never leaks into output, so ``--jobs 4`` produces
byte-identical tables to ``--jobs 1``.  A content-addressed result
cache (see :mod:`repro.runner.cache`) short-circuits cells that have
already been computed for identical code and configuration.

Fan-out overhead is kept off the critical path for campaign-scale
matrices (hundreds of cells across many ``run()`` calls):

* the worker pool is created lazily on first parallel ``run()`` and
  **reused** across calls — one fork-and-import cost per campaign, not
  per figure;
* the read-only GF(256) codec tables are primed in the parent before
  the pool forks, so workers share them copy-on-write;
* specs are submitted in **chunks** (a few per worker), so dispatch and
  result pickling scale with worker count, not cell count;
* cache probes go through one batched directory listing instead of a
  ``stat`` miss per cold cell.

The module also owns the process-wide default runner the CLI
configures (``--jobs`` / ``--no-cache`` / ``--cache-dir`` and the
engine flags); library callers that pass no explicit runner get a
serial, uncached one on the default engine.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence

from ..config import EngineConfig
from ..log import get_logger
from ..vm.machine import CompletionReport
from .cache import ResultCache
from .execute import execute_chunk, execute_spec
from .spec import RunResult, RunSpec

log = get_logger(__name__)

__all__ = [
    "ExperimentRunner",
    "configure_default_runner",
    "default_engine",
    "default_runner",
]


class ExperimentRunner:
    """Execute :class:`RunSpec`s, in parallel when asked, cached when told.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default) runs every spec inline in
        this process; ``N > 1`` fans out over a process pool.  ``0`` or
        ``None`` means "all cores" (``os.cpu_count()``).
    use_cache:
        Enable the on-disk result cache.  Off by default for library use
        so tests and notebooks stay hermetic; the CLI turns it on.
    cache_dir:
        Cache location; defaults to ``$REPRO_CACHE_DIR`` or the XDG
        cache home (``~/.cache/repro``).
    engine:
        When set, stamped onto every spec this runner runs (as
        ``RunSpec.engine``), so it reaches worker processes and keys the
        result cache; None runs each spec on its own engine.
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        use_cache: bool = False,
        cache_dir=None,
        engine: Optional[EngineConfig] = None,
    ):
        if jobs is None or jobs == 0:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir) if use_cache else None
        )
        self.engine = engine
        self._pool: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------ pool
    #: Submission granularity: chunks per worker.  Small enough that one
    #: slow cell cannot idle the pool for long, large enough that a
    #: 500-cell campaign ships ~tens of pickled tasks, not 500.
    _CHUNKS_PER_WORKER = 4

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The persistent worker pool, created on first parallel run.

        The pool outlives individual :meth:`run` calls: a campaign that
        regenerates every figure pays one pool spin-up (fork + import
        of the simulation packages) instead of one per call.
        """
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def close(self) -> None:
        """Shut down the persistent pool (idempotent; pool respawns on use)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __del__(self):  # pragma: no cover - interpreter-exit ordering
        try:
            self.close()
        except Exception:
            pass

    @staticmethod
    def _chunked(pending: Sequence[int], n_chunks: int) -> List[List[int]]:
        """Split indices into ``n_chunks`` contiguous, near-equal batches."""
        size, extra = divmod(len(pending), n_chunks)
        chunks, start = [], 0
        for rank in range(n_chunks):
            stop = start + size + (1 if rank < extra else 0)
            chunks.append(list(pending[start:stop]))
            start = stop
        return [chunk for chunk in chunks if chunk]

    # ------------------------------------------------------------------ core
    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Run every spec; results ordered by spec, not by completion."""
        specs = list(specs)
        if self.engine is not None:
            specs = [replace(spec, engine=self.engine) for spec in specs]
        results: List[Optional[RunResult]] = [None] * len(specs)

        if self.cache is not None:
            cached_entries = self.cache.get_many(specs)
        else:
            cached_entries = [None] * len(specs)

        pending: List[int] = []
        for index, (spec, cached) in enumerate(zip(specs, cached_entries)):
            if cached is not None:
                log.debug("cache hit: %s", spec.label or spec.workload)
                report, extras = cached
                results[index] = RunResult(
                    spec=spec, report=report, extras=extras, cached=True
                )
            else:
                pending.append(index)

        if pending:
            if self.jobs > 1 and len(pending) > 1:
                workers = min(self.jobs, len(pending))
                chunks = self._chunked(
                    pending, min(len(pending), workers * self._CHUNKS_PER_WORKER)
                )
                log.info(
                    "running %d spec(s) over %d worker process(es) "
                    "in %d chunk(s)",
                    len(pending), workers, len(chunks),
                )
                pool = self._ensure_pool()
                try:
                    futures = [
                        pool.submit(execute_chunk, [specs[i] for i in chunk])
                        for chunk in chunks
                    ]
                    for chunk, future in zip(chunks, futures):
                        for index, result in zip(chunk, future.result()):
                            results[index] = result
                except BaseException:
                    # A broken pool (worker killed, unpicklable payload)
                    # must not poison later runs: drop it and let the
                    # next call fork a fresh one.
                    self.close()
                    raise
            else:
                log.debug("running %d spec(s) inline", len(pending))
                for index in pending:
                    results[index] = execute_spec(specs[index])
            if self.cache is not None:
                for index in pending:
                    result = results[index]
                    self.cache.put(result.spec, result.report, result.extras)

        return results  # type: ignore[return-value]

    def run_one(self, spec: RunSpec) -> RunResult:
        """Run a single spec (cache-aware, always inline)."""
        return self.run([spec])[0]

    # ----------------------------------------------------------- conveniences
    def run_matrix(
        self,
        workloads: Iterable[str],
        policies: Iterable[str],
        **common,
    ) -> Dict[str, Dict[str, CompletionReport]]:
        """Run a workloads × policies matrix; returns nested reports.

        ``common`` keywords are forwarded to every :meth:`RunSpec.make`
        call (``overrides``, ``seed``, ``hook``, …).
        """
        workloads = list(workloads)
        policies = list(policies)
        specs = [
            RunSpec.make(workload, policy, label=f"{workload}/{policy}", **common)
            for workload in workloads
            for policy in policies
        ]
        results = self.run(specs)
        reports: Dict[str, Dict[str, CompletionReport]] = {}
        flat = iter(results)
        for workload in workloads:
            reports[workload] = {}
            for policy in policies:
                reports[workload][policy] = next(flat).report
        return reports


# --------------------------------------------------------------------------
# Process-wide default runner (configured by the CLI, serial otherwise).
# --------------------------------------------------------------------------

_default: Optional[ExperimentRunner] = None


def configure_default_runner(
    jobs: Optional[int] = 1,
    use_cache: bool = False,
    cache_dir=None,
    engine: Optional[EngineConfig] = None,
) -> ExperimentRunner:
    """Install the runner that experiment modules use by default."""
    global _default
    _default = ExperimentRunner(
        jobs=jobs, use_cache=use_cache, cache_dir=cache_dir, engine=engine
    )
    return _default


def default_runner() -> ExperimentRunner:
    """The configured default runner, or a serial uncached one."""
    if _default is not None:
        return _default
    return ExperimentRunner()


def default_engine() -> EngineConfig:
    """The engine of the configured default runner (the CLI's engine
    flags), for experiments that assemble a testbed inline instead of
    shipping a :class:`RunSpec`."""
    if _default is not None and _default.engine is not None:
        return _default.engine
    return EngineConfig()
