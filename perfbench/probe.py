"""Set-up probe: a fresh interpreter up to the point its first cell can run.

``python3 perfbench/probe.py <workload> <seed> <scale>`` imports the
benchmark's workloads (and with them ``repro``), primes the shared codec
tables, assembles the first cell's testbed, then prints ``ready`` with
the reference slices it sampled meanwhile (count and seconds, see
``perfbench/hostclock.py``).  The parent times it from process start to
that line: that, without the slices and rescaled to the nominal host, is
``setup_s``.
"""

import os
import sys

sys.path[:0] = [
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
]

from perfbench.hostclock import HostClock  # noqa: E402

#: Set-up takes well under a second: sample twice as often as a pass.
PROBE_INTERVAL_S = 0.025

if __name__ == "__main__":
    clock = HostClock()
    clock.install(interval=PROBE_INTERVAL_S)
    from perfbench import scenarios

    workload, seed, scale = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    scenarios.assemble_first_cell(workload, seed, scenarios.SCALES[scale])
    clock.uninstall()
    print(f"ready {clock.slices} {clock.slice_s!r}", flush=True)
