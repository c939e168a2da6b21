"""Parallel experiment execution with content-addressed result caching.

The paper's evaluation is a matrix of independent deterministic
simulations; this package turns each cell into a picklable
:class:`RunSpec`, fans cells out over worker processes, and caches
completed reports on disk keyed by (spec, seed, package version,
result-determining source digest).  See DESIGN.md §"Experiment runner".
"""

from .cache import ResultCache, default_cache_dir, fingerprint
from .execute import execute_spec
from .registry import (
    register_extractor,
    register_hook,
    register_workload,
)
from .runner import (
    ExperimentRunner,
    configure_default_runner,
    default_engine,
    default_runner,
)
from .spec import RunResult, RunSpec

__all__ = [
    "RunSpec",
    "RunResult",
    "ExperimentRunner",
    "ResultCache",
    "execute_spec",
    "fingerprint",
    "default_cache_dir",
    "default_runner",
    "default_engine",
    "configure_default_runner",
    "register_workload",
    "register_hook",
    "register_extractor",
]
