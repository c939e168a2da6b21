"""The environment selects no engine, and the package needs no numpy.

Engine axes are set in one place, :class:`repro.config.EngineConfig`,
passed explicitly from the CLI through ``RunSpec`` into the builders.
The package may read only the cache location from the environment
(``REPRO_CACHE_DIR``, ``XDG_CACHE_HOME``).  The simulator is pure
Python: a content-mode erasure-coded cell runs end to end without
loading numpy.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import repro

ALLOWED = {"REPRO_CACHE_DIR", "XDG_CACHE_HOME"}

#: Any access to the process environment, with the variable name when
#: it is a literal.
_ACCESS = re.compile(
    r"""(?:os\.environ|os\.getenv|getenv|environ)\b"""
    r"""(?:\s*(?:\.get\(|\[|\()\s*["']([A-Za-z_][A-Za-z0-9_]*)["'])?"""
)


def _accesses():
    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            code = line.split("#", 1)[0]
            for match in _ACCESS.finditer(code):
                yield f"{path.relative_to(root)}:{lineno}", match.group(1)


def test_only_allowed_environment_variables_are_read():
    found = list(_accesses())
    assert found, "the scan should at least see the cache-location reads"
    unnamed = [where for where, name in found if name is None]
    assert unnamed == [], "environment accessed without a literal name"
    names = {name for _, name in found}
    assert names <= ALLOWED, sorted(names - ALLOWED)


def test_retired_engine_switches_are_inert(monkeypatch):
    from repro.config import SwitchedNetworkSpec
    from repro.core.builder import build_cluster

    # Each set the way that once switched its fast path off.
    retired = {
        "REPRO_NO_COMPILE": "1", "REPRO_SCHEDULE_CACHE": "0",
        "REPRO_EFFECT_CACHE": "1", "REPRO_NO_ANALYTIC_ETH": "1",
        "REPRO_NO_ANALYTIC_SWITCHED": "1",
    }
    for name, value in retired.items():
        monkeypatch.setenv(name, value)
    cluster = build_cluster(switched_spec=SwitchedNetworkSpec())
    assert cluster.network.analytic is True
    assert cluster.machine.compile_schedules is True


#: Run in a fresh interpreter: one content-mode ec-2-1 cell (GF(256)
#: encode, compiled replay) and a percentile read over more samples
#: than fit a small sort; print what ran and whether numpy was loaded.
_NUMPY_PROBE = """
import json, sys
import repro
from repro.config import MachineSpec
from repro.core.builder import build_cluster
from repro.core.policies.gf256 import ReedSolomon
from repro.sim.monitor import Tally
from repro.workloads import SequentialScan

calls = {"encode": 0, "replay": 0}
encode = ReedSolomon.encode

def counted_encode(self, data):
    calls["encode"] += 1
    return encode(self, data)

ReedSolomon.encode = counted_encode
cluster = build_cluster(
    policy="ec-2-1", n_servers=6, content_mode=True, seed=3,
    server_capacity_pages=600,
    machine_spec=MachineSpec(
        name="env-small", ram_bytes=2 * 1024 * 1024,
        kernel_resident_bytes=1 * 1024 * 1024, page_size=8192,
    ),
)
replay = cluster.machine.run_schedule_to_completion

def counted_replay(*args, **kwargs):
    calls["replay"] += 1
    return replay(*args, **kwargs)

cluster.machine.run_schedule_to_completion = counted_replay
report = cluster.run(SequentialScan(n_pages=300, passes=2, write=True))
tally = Tally(keep_samples=True)
for i in range(1, 65):
    tally.observe(report.etime / i)
print(json.dumps({
    "calls": calls, "faults": report.faults,
    "p50": tally.percentile(50), "expected": report.etime / 33,
    "numpy": "numpy" in sys.modules,
}))
"""


def test_erasure_cell_runs_without_numpy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    completed = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE],
        capture_output=True, text=True, env=env, check=True,
    )
    probe = json.loads(completed.stdout.strip().splitlines()[-1])
    assert probe["calls"]["encode"] > 0
    assert probe["calls"]["replay"] == 1
    assert probe["faults"] > 0
    assert probe["p50"] == probe["expected"]
    assert probe["numpy"] is False
