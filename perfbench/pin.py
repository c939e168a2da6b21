"""Compute the pinned cell digests of ``perfbench/pinned.json``.

    python3 perfbench/pin.py            # print the digests as JSON
    python3 perfbench/pin.py --write    # rewrite perfbench/pinned.json

Runs one paper-scale pass of every workload for the default seed (0)
and the held-out seed; a seed-independent workload runs once and is
pinned for every seed.  Simulated results are meant to stay
byte-identical, so the pinned file changes only when a change is
*meant* to alter simulated results; say so when committing it.
"""

import argparse
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

#: The default seed and the held-out seed, never used while tuning.
SEEDS = (0, 20261017)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    work = os.path.join(ROOT, ".perfbench")
    os.makedirs(work, exist_ok=True)
    cache_root = tempfile.mkdtemp(prefix="pin-", dir=work)
    os.environ["REPRO_CACHE_DIR"] = cache_root

    from perfbench import scenarios
    from perfbench.checks import PINNED_PATH, digest

    def digests_of(workloads, seed):
        cells = {}
        for workload in workloads:
            outcome = scenarios.run_pass(workload, seed, scenarios.PAPER, cache_root)
            for cell in outcome.cells:
                cells[cell.cell_id] = digest(cell.payload)
        return cells

    seeded = [w for w in scenarios.WORKLOADS if w not in scenarios.SEED_INDEPENDENT]
    text = json.dumps({
        "held_out_seed": SEEDS[1],
        "digests": {str(seed): digests_of(seeded, seed) for seed in SEEDS},
        "any_seed": digests_of(scenarios.SEED_INDEPENDENT, SEEDS[0]),
    }, indent=1, sort_keys=True)
    if args.write:
        with open(PINNED_PATH, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
