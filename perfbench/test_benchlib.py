"""Tests of the benchmark's own logic: trace counters and per-child peak RSS."""

import sys
import warnings

import numpy as np

from mrfhcf import (EdgePotentials, build_edge_field, hcf_run, llr_data_term,
                    local_hcf_run, make_chain_fixture)

from benchlib import ChildRunner, Tracer, hcf_counters, local_hcf_counters


def test_chain_fixture_counts_three_parallel_iterations_and_eight_serial_steps():
    field, data = make_chain_fixture()
    _cfg, trace = local_hcf_run(field, data)
    counts = local_hcf_counters(trace.rows, field.num_sites)
    assert counts["iterations"] == 3
    assert counts["sweeps"] == 4  # the closing quiet sweep counts as a sweep
    assert counts["quiet_sweeps"] == 1
    assert counts["fallback_commits"] == 0
    assert counts["revisions"] == 0
    _cfg, htrace = hcf_run(field, data)
    hc = hcf_counters(htrace.steps, field.adjacency, field.num_sites)
    assert hc["steps"] == 8
    assert hc["revisions"] == 0
    assert hc["heap_updates"] == 8 + 2 * 7  # 1 + degree per step on a path


def test_all_zero_lattice_commits_all_but_site_zero_through_the_fallback():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        field = build_edge_field(4, 4, EdgePotentials(0.0, 0.0, 0.0, 0.0))
    n = field.num_sites
    _cfg, trace = local_hcf_run(field, llr_data_term(np.zeros(n)))
    assert trace.rows[1].changed == 1  # only site 0 commits in a normal sweep
    counts = local_hcf_counters(trace.rows, n)
    assert counts["fallback_commits"] == n - 1
    assert counts["sweeps"] == 2 * n
    assert counts["useful_ratio"] == n / (n * 2 * n)


def test_child_peak_rss_is_per_child_not_a_running_maximum(tmp_path):
    with ChildRunner() as runner:
        big = runner.run([sys.executable, "-c", "b = b'x' * (64 << 20)"], None, tmp_path)
        small = runner.run([sys.executable, "-c", "pass"], None, tmp_path)
    assert big.returncode == 0 and small.returncode == 0
    assert big.peak_rss_mb > 64
    assert small.peak_rss_mb < big.peak_rss_mb - 32


def test_self_time_excludes_child_spans():
    tracer = Tracer("w")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    (outer, outer_own), (inner, inner_own) = tracer.self_times()
    spans = tracer.spans
    assert (outer, inner) == ("outer", "inner")
    assert spans[1].parent == 0 and spans[0].parent is None
    assert inner_own == spans[1].end - spans[1].start
    assert outer_own == (spans[0].end - spans[0].start) - inner_own
