"""Result cache: round-trip fidelity, content addressing, corruption."""

import dataclasses
import json

import pytest

from repro.config import EngineConfig, SwitchedNetworkSpec
from repro.runner import ExperimentRunner, ResultCache, RunSpec, fingerprint
from repro.runner.execute import execute_spec

SPEC = RunSpec.make("gauss", "disk", workload_kwargs={"n": 700})


def test_roundtrip_preserves_report_exactly(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get(SPEC) is None
    assert cache.misses == 1

    result = execute_spec(SPEC)
    assert cache.put(SPEC, result.report, result.extras)

    report, extras = cache.get(SPEC)
    assert cache.hits == 1
    assert dataclasses.asdict(report) == dataclasses.asdict(result.report)
    assert extras == result.extras


def test_fingerprint_ignores_label_but_not_parameters():
    labelled = RunSpec.make("gauss", "disk", workload_kwargs={"n": 700}, label="x")
    assert fingerprint(labelled) == fingerprint(SPEC)
    other = RunSpec.make("gauss", "disk", workload_kwargs={"n": 701})
    assert fingerprint(other) != fingerprint(SPEC)


def test_corrupt_entry_reads_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    result = execute_spec(SPEC)
    cache.put(SPEC, result.report, result.extras)

    [entry] = tmp_path.glob("*.json")
    entry.write_text("{not json", encoding="utf-8")
    assert cache.get(SPEC) is None

    entry.write_text(json.dumps({"format": 999}), encoding="utf-8")
    assert cache.get(SPEC) is None


def test_unserialisable_extras_refuse_to_cache(tmp_path):
    cache = ResultCache(tmp_path)
    result = execute_spec(SPEC)
    assert not cache.put(SPEC, result.report, {"cluster": object()})
    assert cache.get(SPEC) is None


def test_unusable_cache_location_degrades_to_uncached(tmp_path):
    """A file where the cache dir should be must never lose a result."""
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    cache = ResultCache(blocker)
    result = execute_spec(SPEC)
    assert not cache.put(SPEC, result.report, result.extras)
    assert cache.get(SPEC) is None


def test_clear_removes_entries(tmp_path):
    cache = ResultCache(tmp_path)
    result = execute_spec(SPEC)
    cache.put(SPEC, result.report, result.extras)
    assert cache.clear() == 1
    assert cache.get(SPEC) is None


def test_entries_are_human_inspectable(tmp_path):
    cache = ResultCache(tmp_path)
    result = execute_spec(SPEC)
    cache.put(SPEC, result.report, result.extras)
    [entry] = tmp_path.glob("*.json")
    payload = json.loads(entry.read_text(encoding="utf-8"))
    assert payload["spec"]["workload"] == "gauss"
    assert payload["spec"]["policy"] == "disk"
    assert payload["report"]["etime"] == result.report.etime


# ------------------------------------------------------------ engine keying
def _campaign(**overrides):
    """A small campaign that compiles and pages (over the shared
    Ethernet unless ``overrides`` pick another network)."""
    return [
        RunSpec.make("gauss", policy, workload_kwargs={"n": 700}, overrides=overrides)
        for policy in ("no-reliability", "mirroring")
    ]


@pytest.mark.parametrize(
    "engine, campaign",
    [
        (EngineConfig(compile=False), _campaign()),
        (
            EngineConfig(analytic_switched=False),
            _campaign(switched_spec=SwitchedNetworkSpec()),
        ),
    ],
    ids=["no-compile", "no-analytic-switched"],
)
def test_engine_keys_the_cache(tmp_path, engine, campaign):
    """An A/B leg on another engine must recompute, never be served the
    default engine's cached cells — and must reproduce them exactly."""
    cold = ExperimentRunner(use_cache=True, cache_dir=tmp_path).run(campaign)

    other = ExperimentRunner(use_cache=True, cache_dir=tmp_path, engine=engine)
    results = other.run(campaign)
    assert (other.cache.hits, other.cache.misses) == (0, len(campaign))
    assert not any(r.cached for r in results)
    assert all(r.spec.engine == engine for r in results)
    assert [json.dumps(dataclasses.asdict(r.report), sort_keys=True) for r in results] == [
        json.dumps(dataclasses.asdict(r.report), sort_keys=True) for r in cold
    ]

    # Each engine then owns its slots: a rerun of either leg hits.
    again = ExperimentRunner(use_cache=True, cache_dir=tmp_path, engine=engine)
    assert all(r.cached for r in again.run(campaign))
    assert len(list(tmp_path.glob("*.json"))) == 2 * len(campaign)


# ------------------------------------------------------ source digest
_CLOSURE_PROBE = """
import json, pathlib, sys
from repro.runner import RunSpec, cache
from repro.runner.execute import execute_spec

spec = RunSpec.make(
    "gauss", "parity-logging", workload_kwargs={"n": 300},
    overrides={"pipeline_window": 2, "n_servers": 2},
    hook="chaos", hook_kwargs={"events": (("crash", 0.5, 0),)},
    extract=("resilience",),
)
execute_spec(spec)
imported = sorted(
    module.__file__ for name, module in list(sys.modules.items())
    if (name == "repro" or name.startswith("repro.")) and getattr(module, "__file__", None)
)

digested = []
read_bytes = pathlib.Path.read_bytes
def logging_read_bytes(path):
    digested.append(str(path))
    return read_bytes(path)
pathlib.Path.read_bytes = logging_read_bytes
cache._code_digest = None
cache._source_digest()
print(json.dumps({"imported": imported, "digested": digested}))
"""


def test_source_digest_covers_the_worker_import_closure():
    """Every module a worker imports to run a spec can shape its cached
    result, so every one must be in the fingerprint's source digest."""
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    completed = subprocess.run(
        [sys.executable, "-c", _CLOSURE_PROBE],
        capture_output=True, text=True, env=env, check=True,
    )
    probe = json.loads(completed.stdout.strip().splitlines()[-1])
    digested = {os.path.realpath(path) for path in probe["digested"]}
    imported = {os.path.realpath(path) for path in probe["imported"]}
    assert len(imported) > 50
    assert sorted(imported - digested) == []
