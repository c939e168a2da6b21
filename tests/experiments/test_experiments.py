"""Experiment-harness tests (scaled-down runs; full runs live in
benchmarks/)."""

import pytest

from repro.experiments import (
    PAPER_CONFIGS,
    render_fig1,
    render_fig2,
    render_fig3,
    render_latency,
    run_fig1,
    run_fig2,
    run_fig3,
    run_latency,
    run_policy,
)


def test_paper_configs_match_section_4_1():
    assert PAPER_CONFIGS["no-reliability"]["n_servers"] == 2
    assert PAPER_CONFIGS["parity-logging"]["n_servers"] == 4
    assert PAPER_CONFIGS["parity-logging"]["overflow_fraction"] == 0.10
    assert PAPER_CONFIGS["mirroring"]["n_servers"] == 2
    assert PAPER_CONFIGS["disk"]["policy"] == "disk"


def test_run_policy_returns_report():
    report = run_policy("mvec", "no-reliability")
    assert report.etime > 0
    assert report.name == "mvec"
    assert report.meta["policy"] == "no-reliability"


def test_fig1_structure():
    results = run_fig1()
    assert results["summary"]["min_mb"] >= 300
    assert "Figure 1" in render_fig1(results)


def test_fig2_subset_runs_and_renders():
    reports = run_fig2(apps=["mvec"], policies=["no-reliability", "disk"])
    assert set(reports) == {"mvec"}
    assert set(reports["mvec"]) == {"no-reliability", "disk"}
    text = render_fig2(reports)
    assert "mvec" in text and "ranking" in text


def test_fig3_subset():
    results = run_fig3(sizes_mb=[17.0, 21.6], policies=["parity-logging"])
    below, above = results["parity-logging"][17.0], results["parity-logging"][21.6]
    assert below.pageins == 0  # fits in memory
    assert above.pageins > 0  # past the cliff
    assert "Figure 3" in render_fig3(results)


def test_latency_microbenchmark_small():
    results = run_latency(n_transfers=20)
    assert 8.0 < results["per_transfer_ms"] < 14.0
    assert "ours" in render_latency(results)
