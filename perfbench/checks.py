"""Correctness checks on every cell the benchmark runs.

Simulated results must stay byte-identical, so each cell's result is
hashed: the ``CompletionReport`` fields (which carry the metrics
snapshot and health digest in ``meta``), the runner extras (network
stats, the ``check_page_integrity`` verdict of content-mode cells) and,
for the fleet, the scoreboard and every client's report.

* For the seeds in ``pinned.json`` every digest must equal the pinned
  one; the cells of seed-independent workloads (the fleet) are pinned
  once and checked on every seed.
* For any seed, every repeat of a cell inside one run (later passes,
  warm cache hits, traced passes) must equal its first digest, and the
  seed-independent invariants must hold: a paper-scale GAUSS cell takes
  4,423 faults, 1,600 pageins and 2,000 pageouts; every report's faults
  are its pageins plus zero fills; content-mode cells verify CLEAN.

A cell that raises or fails a check counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import os
from statistics import mean
from typing import Dict, List

from repro.analysis.paper_data import FIG2_SECONDS
from repro.experiments.fig2 import FIG2_POLICIES

from .scenarios import GAUSS_FAULTS, GAUSS_PAGEINS, GAUSS_PAGEOUTS, Cell

PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")


def digest(payload) -> str:
    """Canonical SHA-256 of a JSON-able payload (floats by repr).

    The payload is round-tripped through JSON first, so a report read
    back from the result cache (string keys, lists for tuples) hashes
    like the freshly computed one.
    """
    plain = json.loads(json.dumps(payload, default=repr))
    text = json.dumps(plain, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_pinned(seed: int, path: str = PINNED_PATH) -> Dict[str, str]:
    """Pinned ``{cell_id: digest}`` that apply to ``seed``."""
    with open(path, encoding="utf-8") as handle:
        pinned = json.load(handle)
    return {**pinned["digests"].get(str(seed), {}), **pinned["any_seed"]}


def paper_err_pct(cells: List[Cell]) -> float:
    """Mean absolute % error of simulated GAUSS etime against Fig 2,
    over the four Fig 2 configurations."""
    by_id = {cell.cell_id: cell for cell in cells}
    errors = []
    for policy in FIG2_POLICIES:
        paper = FIG2_SECONDS["gauss"][policy]
        simulated = by_id[f"gauss/{policy}"].reports[0].etime
        errors.append(abs(simulated - paper) / paper * 100.0)
    return mean(errors)


class Checker:
    """Counts attempted and failed cells over one benchmark run."""

    def __init__(self, pinned: Dict[str, str], paper_scale: bool):
        self.pinned = pinned
        self.paper_scale = paper_scale
        self.seen: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def problems_of(self, cell: Cell) -> List[str]:
        """Every check ``cell`` fails (empty when it passes)."""
        found = []
        value = digest(cell.payload)
        first = self.seen.setdefault(cell.cell_id, value)
        if value != first:
            found.append("digest differs from this run's first result")
        if self.pinned.get(cell.cell_id, value) != value:
            found.append("digest differs from the pinned result")
        for report in cell.reports:
            if report.faults != report.pageins + report.zero_fills:
                found.append("faults != pageins + zero_fills")
            if cell.gauss and self.paper_scale and (
                report.faults, report.pageins, report.pageouts
            ) != (GAUSS_FAULTS, GAUSS_PAGEINS, GAUSS_PAGEOUTS):
                found.append(
                    f"GAUSS shape {report.faults}/{report.pageins}/"
                    f"{report.pageouts} faults/pageins/pageouts"
                )
        if cell.content and cell.verdict != "CLEAN":
            found.append(f"integrity verdict {cell.verdict!r}")
        return found

    def check(self, cells: List[Cell]) -> None:
        for cell in cells:
            self.attempted += 1
            found = self.problems_of(cell)
            if found:
                self.failed += 1
                self.problems.append(f"{cell.cell_id}: {'; '.join(found)}")

    def fail(self, cells: int, reason: str) -> None:
        """Record ``cells`` cells lost to an exception."""
        self.attempted += cells
        self.failed += cells
        self.problems.append(reason)

    def expect(self, ok: bool, problem: str) -> None:
        """Record one attempted check that is not a cell."""
        if ok:
            self.attempted += 1
        else:
            self.fail(1, problem)
