"""The space-time schedule that pipelines the Gibbs sweeps of annealing and MPM.

Sweep ``k`` visits site ``s`` at level ``level[s] + k * stride``. The
schedule must visit every (site, sweep) once, never put two neighbours or
two visits of one site in one level, and let each visit see its earlier
neighbours' labels of the same sweep and its later neighbours' labels of
the sweep before. Runs must match the scalar references bit for bit,
whatever the stride, and keep their in-flight state bounded.
"""

import tracemalloc

import numpy as np
import pytest

from mrfhcf import AnnealSchedule, MpmParams, anneal_run, icm_run, mpm_marginals, mpm_run, tlr
from mrfhcf import baselines
from mrfhcf.baselines import _Wave
from support import (chain8_field, noisy_board, random_chain, random_field,
                     reference_anneal_run, reference_icm_run, reference_mpm_marginals)

FIELDS = {
    "chain8": chain8_field,
    "board16": lambda: noisy_board(16),
    **{f"random{seed}": (lambda seed=seed: random_field(seed)) for seed in range(8)},
}


def space_time(wave, field):
    """{(site, sweep): level} of the wave's sweeps, checking each level as it comes."""
    count = wave.sweeps
    at = {}
    levels = 0
    for t, (level, others, offsets, values) in wave.spans():
        levels += 1
        sites = wave.sites[level].tolist()
        sweeps = (t // wave.stride - wave.lap[level]).tolist()
        assert others.shape[-1] == offsets.shape[-1] == len(values) == len(sites)
        assert len(set(sites)) == len(sites)  # no site twice
        assert not set(sites) & {r for s in sites for r in field.adjacency[s]}
        for s, k in zip(sites, sweeps):
            assert wave.level[s] + k * wave.stride == t
            assert 0 <= k < count
            at[s, k] = t
        # the visits of one level lie in as many sweeps as the ring holds
        assert len(set(sweeps)) <= (wave.depth - 1) // wave.stride + 1
    assert levels == wave.depth + wave.stride * (count - 1)
    return at


@pytest.mark.parametrize("name", list(FIELDS))
@pytest.mark.parametrize("count", [0, 1, 2, 5, 30])
def test_schedule_visits_every_site_once_per_sweep_in_scan_order(name, count):
    field, data = FIELDS[name]()
    n = field.num_sites
    wave = _Wave(field, data, range(n), count)
    assert wave.stride >= 1
    at = space_time(wave, field)
    assert sorted(at) == [(s, k) for s in range(n) for k in range(count)]
    for (s, k), t in at.items():
        for r in field.adjacency[s]:
            if r < s:  # visited before s: sweep k done, sweep k + 1 not yet
                assert at[r, k] < t
                assert k + 1 == count or at[r, k + 1] > t
            else:  # visited after s: sweep k - 1 done, sweep k not yet
                assert k == 0 or at[r, k - 1] < t
                assert at[r, k] > t


def test_pace_and_level_counts():
    field, data = chain8_field()
    wave = _Wave(field, data, range(8), 2)
    assert (wave.depth, wave.stride) == (8, 2)
    field, data = noisy_board(16)
    n = field.num_sites
    for sweeps in (2, 100):
        wave = _Wave(field, data, range(n), sweeps)
        assert (wave.depth, wave.stride) == (32, 4)
    assert sum(1 for _ in wave.spans()) == 428  # depth + stride * (100 - 1)
    assert sum(1 for _ in _Wave(field, data, range(n), 0).spans()) == 0
    # one sweep, as ICM runs it: no pace, the levels in order
    single = _Wave(field, data, range(n), 1)
    assert single.stride == 32
    levels = [(level.start, level.stop) for _t, (level, *_views) in single.spans()]
    assert levels == list(zip(single.bounds[:-1], single.ends))


@pytest.mark.parametrize("limit", [1, 480, 2 * 480, 5 * 480])
def test_a_small_in_flight_limit_widens_the_stride(monkeypatch, limit):
    monkeypatch.setattr(baselines, "_IN_FLIGHT", limit)
    field, data = noisy_board(16)
    n = field.num_sites
    wave = _Wave(field, data, range(n), 12)
    flight = (wave.depth - 1) // wave.stride + 1
    assert flight * n <= max(limit, n)
    assert wave.stride >= 4
    space_time(wave, field)
    init = tlr(field, data)
    schedule = AnnealSchedule(sweeps=12)
    assert repr(anneal_run(field, data, init, schedule, 4)) == repr(
        reference_anneal_run(field, data, init, schedule, 4))


EDGE_CASES = {
    "board16": lambda: noisy_board(16),
    "chain8": chain8_field,
    **{f"random{seed}": (lambda seed=seed: random_field(seed)) for seed in range(4)},
    **{f"shuffled-chain{seed}": (lambda seed=seed: random_chain(seed)) for seed in range(12)},
}


@pytest.mark.parametrize("name", list(EDGE_CASES))
def test_budgets_at_the_pipeline_edges_match_the_scalar_reference(name):
    field, data = EDGE_CASES[name]()
    init = tlr(field, data)
    for schedule in (AnnealSchedule(sweeps=0), AnnealSchedule(sweeps=1), AnnealSchedule(sweeps=7)):
        got_cfg, got_trace = anneal_run(field, data, init, schedule, 2)
        want_cfg, want_trace = reference_anneal_run(field, data, init, schedule, 2)
        assert got_cfg.tolist() == want_cfg.tolist()
        assert list(map(repr, got_trace.rows)) == list(map(repr, want_trace.rows))
    for params in (MpmParams(0, 1), MpmParams(1, 1, seed=3), MpmParams(3, 9, seed=1)):
        want_marginals, want_trace = reference_mpm_marginals(field, data, init, params)
        assert mpm_marginals(field, data, init, params).tobytes() == want_marginals.tobytes()
        got_cfg, got_trace = mpm_run(field, data, init, params)
        assert got_cfg.tolist() == np.argmax(want_marginals, axis=1).tolist()
        assert list(map(repr, got_trace.rows)) == list(map(repr, want_trace.rows))


def mpm_peak(field, data, init, sweeps):
    tracemalloc.start()
    try:
        mpm_run(field, data, init, MpmParams(0, sweeps))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_in_flight_state_does_not_grow_with_the_budget():
    field, data = noisy_board(16)
    init = tlr(field, data)
    field.compiled  # built outside the measurement
    small = mpm_peak(field, data, init, 40)
    big = mpm_peak(field, data, init, 400)
    # only the trace grows with the budget: 360 more rows take about 50 KB,
    # where one buffer of 400 sweeps x 480 sites would take megabytes
    assert big - small < 128 * 1024


@pytest.mark.parametrize("name", ["chain8", "board16", "random1", "random3", "random6"])
def test_icm_cap_raises_exactly_when_more_sweeps_are_needed(name):
    field, data = FIELDS[name]()
    init = tlr(field, data)
    for order, seed in (("scan", None), ("random", 0), ("random", 5)):
        needed = len(reference_icm_run(field, data, init, order, seed)[1].rows) - 1
        for cap in range(needed + 2):
            if cap < needed:
                with pytest.raises(RuntimeError, match=rf"sweep cap \({cap}\)"):
                    icm_run(field, data, init, order, seed, max_sweeps=cap)
            else:
                cfg, trace = icm_run(field, data, init, order, seed, max_sweeps=cap)
                assert len(trace.rows) - 1 == needed
