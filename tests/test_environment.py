"""The environment selects no engine.

Engine axes are set in one place, :class:`repro.config.EngineConfig`,
passed explicitly from the CLI through ``RunSpec`` into the builders.
The package may read only three environment variables: the cache
location (``REPRO_CACHE_DIR``, ``XDG_CACHE_HOME``) and the codec
platform fallback (``REPRO_NO_NUMPY_GF``), whose tables are process
state shared by forked workers.
"""

import re
from pathlib import Path

import repro

ALLOWED = {"REPRO_CACHE_DIR", "XDG_CACHE_HOME", "REPRO_NO_NUMPY_GF"}

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
    cluster = build_cluster()
    assert cluster.network.analytic is True
    assert cluster.machine.compile_schedules is True
    assert cluster.machine.schedule_cache is True
    switched = build_cluster(switched_spec=SwitchedNetworkSpec())
    assert switched.network.analytic is True
