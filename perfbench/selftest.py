"""Self-tests of the benchmark at reduced size.

    python3 perfbench/selftest.py        # about two minutes

They check that every metric ``BENCHMARK.json`` names is emitted with
its unit and has its rationale, that the digest check trips on a
perturbed report, that the seed reaches the simulation without changing
GAUSS's fault counts (and that the fleet does not depend on it), that
the host clock samples and rescales, and that the benchmark refuses to
run where it must.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
os.makedirs(WORK, exist_ok=True)
os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="selftest-", dir=WORK)

from perfbench import scenarios  # noqa: E402
from perfbench import hostclock  # noqa: E402
from perfbench.checks import Checker, digest  # noqa: E402
from perfbench.layers import EXACT, MOVES  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


class CatalogTest(unittest.TestCase):
    def test_every_workload_and_per_layer_metric_is_covered(self):
        spec = _benchmark_json()
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), scenarios.WORKLOADS)
        names = [m["name"] for m in spec["per_layer"]]
        self.assertEqual(set(MOVES), set(names))
        self.assertLessEqual(set(EXACT), set(names))


class HostClockTest(unittest.TestCase):
    @staticmethod
    def _spin(seconds):
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            sum(range(1000))

    def test_samples_and_rescales(self):
        clock = hostclock.HostClock()
        since = clock.mark()
        clock.install(interval=0.02)
        try:
            self._spin(0.5)
        finally:
            clock.uninstall()
        slices, slice_s = hostclock.HostClock.busiest(since, clock.mark())
        self.assertGreater(slices, 3)
        self.assertEqual((slices, slice_s), (clock.slices, clock.slice_s))
        self.assertAlmostEqual(
            hostclock.HostClock.rescale(2.0, slices, slice_s),
            2.0 * hostclock.NOMINAL_SLICE_S / (slice_s / slices),
        )

    def test_the_busiest_forked_worker_sets_the_speed(self):
        clock = hostclock.HostClock()
        clock.fork_workers()
        since = clock.mark()
        clock.install(sample=False)
        try:
            pids = []
            for busy in (0.1, 0.6):
                pid = os.fork()
                if pid == 0:
                    self._spin(busy)
                    time.sleep(0.6 - busy)  # idle, still sampling
                    os._exit(0)
                pids.append(pid)
            for pid in pids:
                os.waitpid(pid, 0)
        finally:
            clock.uninstall()
        until = clock.mark()
        self.assertEqual(clock.slices, 0)
        worked = [u for s, u in zip(since, until) if u[0] > s[0]]
        self.assertEqual(len(worked), 2)
        busiest = max(worked, key=lambda u: u[2] - u[1])
        self.assertEqual(hostclock.HostClock.busiest(since, until), tuple(busiest[:2]))
        self.assertGreater(busiest[2] - busiest[1], 0.3)


class EmittedMetricsTest(unittest.TestCase):
    def _check_output(self, workload, trace, section):
        result = _run("--workload", workload, "--seed", "3", "--seconds", "0.1",
                      "--trace", str(trace), "--scale", "small")
        self.assertEqual(result.returncode, 0, result.stderr)
        line = json.loads(result.stdout.strip().splitlines()[-1])
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(line["correct"], result.stdout)
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual(line["failed"], 0)
        expected = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
        emitted = {name: m["unit"] for name, m in line["metrics"].items()}
        self.assertEqual(emitted, expected)
        for name, metric in line["metrics"].items():
            self.assertTrue(math.isfinite(metric["value"]), name)

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in scenarios.WORKLOADS:
            with self.subTest(workload=workload):
                self._check_output(workload, 0, "end_to_end")
                self._check_output(workload, 1, "per_layer")


class DigestTest(unittest.TestCase):
    def test_digest_check_trips_on_a_perturbed_report(self):
        cache_root = tempfile.mkdtemp(dir=WORK)
        try:
            outcome = scenarios.run_pass(
                "paper-ethernet", 0, scenarios.SMALL, cache_root
            )
        finally:
            shutil.rmtree(cache_root, ignore_errors=True)
        pinned = {cell.cell_id: digest(cell.payload) for cell in outcome.cells}
        checker = Checker(pinned, paper_scale=False)
        checker.check(outcome.cells)
        self.assertEqual((checker.attempted, checker.failed), (5, 0))

        cell = outcome.cells[1]
        report = cell.payload["report"]
        perturbed = dataclasses.replace(
            cell, payload=dict(cell.payload, report=dict(
                report, etime=math.nextafter(report["etime"], math.inf)
            ))
        )
        self.assertEqual(checker.problems_of(cell), [])
        problems = checker.problems_of(perturbed)
        self.assertIn("digest differs from the pinned result", problems)
        self.assertIn("digest differs from this run's first result", problems)


class SeedTest(unittest.TestCase):
    def test_seed_changes_loaded_digests_not_gauss_fault_counts(self):
        passes = {}
        for seed in (1, 2):
            cache_root = tempfile.mkdtemp(dir=WORK)
            try:
                passes[seed] = scenarios.run_pass(
                    "loaded-campaign", seed, scenarios.SMALL, cache_root,
                    inline=True, warm_repeats=0,
                )
            finally:
                shutil.rmtree(cache_root, ignore_errors=True)
        for one, two in zip(passes[1].cells, passes[2].cells):
            self.assertEqual(one.cell_id, two.cell_id)
            self.assertNotEqual(digest(one.payload), digest(two.payload))
            (a,), (b,) = one.reports, two.reports
            self.assertEqual((a.faults, a.pageins, a.pageouts),
                             (b.faults, b.pageins, b.pageouts))
            if one.cell_id.endswith("load=0.3"):
                self.assertNotEqual(a.etime, b.etime)

    def test_fleet_does_not_depend_on_the_seed(self):
        digests = set()
        for seed in (1, 2):
            cache_root = tempfile.mkdtemp(dir=WORK)
            try:
                outcome = scenarios.run_pass(
                    "fleet-switched", seed, scenarios.SMALL, cache_root
                )
            finally:
                shutil.rmtree(cache_root, ignore_errors=True)
            digests.add(digest(outcome.cells[0].payload))
        self.assertEqual(len(digests), 1)


class RefusalTest(unittest.TestCase):
    def test_refuses_engine_switches(self):
        env = dict(os.environ, REPRO_NO_COMPILE="1")
        result = _run("--workload", "fleet-switched", "--scale", "small", env=env)
        self.assertNotEqual(result.returncode, 0)
        self.assertEqual(result.stdout, "")

    def test_fails_without_the_program_sources(self):
        bare = tempfile.mkdtemp(dir=WORK)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            result = _run("--workload", "paper-ethernet", "--seed", "0",
                          "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(result.returncode, 0)
        self.assertEqual(result.stdout, "")


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(os.environ["REPRO_CACHE_DIR"], ignore_errors=True)
