import threading
import warnings

import numpy as np
import pytest

from mrfhcf import (Clique, DataTerm, EdgePotentials, Field, TraceRow, UNCOMMITTED,
                    assign_ranks, augmented_energy, best_label, build_edge_field,
                    energy, is_local_minimum, local_hcf_run, local_hcf_step,
                    new_configuration, stability)
from support import random_field


def drive(field, data, checks=None):
    """Iterate steps from all-uncommitted, applying a callback per step."""
    ranks = assign_ranks(field)
    cfg = new_configuration(field.num_sites)
    iterations = 0
    while True:
        new_cfg, result = local_hcf_step(field, data, cfg, ranks)
        iterations += 1
        assert iterations <= 1000
        if checks is not None:
            checks(cfg, new_cfg, result)
        cfg = new_cfg
        if not result.any_change:
            return cfg, iterations


def test_assign_ranks_modes():
    field, _data = random_field(1)
    n = field.num_sites
    assert assign_ranks(field).tolist() == list(range(n))
    a = assign_ranks(field, "seeded-permutation", seed=9)
    b = assign_ranks(field, "seeded-permutation", seed=9)
    assert a.tolist() == b.tolist()
    assert sorted(a.tolist()) == list(range(n))
    with pytest.raises(ValueError):
        assign_ranks(field, "seeded-permutation")
    with pytest.raises(ValueError):
        assign_ranks(field, "alphabetical")


def test_first_iteration_on_chain(chain):
    field, data = chain
    ranks = assign_ranks(field)
    cfg, result = local_hcf_step(field, data, new_configuration(8), ranks)
    assert result.changed_sites == (0, 3, 7)
    assert result.new_commits == 3
    assert result.any_change
    assert cfg.tolist() == [1, -1, -1, 0, -1, -1, -1, 0]
    assert result.energy_after == -4.0


def test_step_at_a_local_minimum_changes_nothing(chain):
    field, data = chain
    config, _trace = local_hcf_run(field, data)
    ranks = assign_ranks(field)
    same, result = local_hcf_step(field, data, config, ranks)
    assert not result.any_change
    assert result.changed_sites == ()
    assert (same == config).all()


def test_equal_stability_neighbors_resolved_by_rank():
    field = Field(2, 2, [(1,), (0,)], [Clique((0, 1), np.zeros((2, 2)))])
    data = DataTerm([[0.0, -1.0], [0.0, -1.0]])
    ranks = assign_ranks(field)
    _cfg, result = local_hcf_step(field, data, new_configuration(2), ranks)
    assert result.changed_sites == (0,)
    _cfg, result = local_hcf_step(field, data, new_configuration(2),
                                  np.array([1, 0]))
    assert result.changed_sites == (1,)


def test_chain_run_golden(chain):
    field, data = chain
    config, trace = local_hcf_run(field, data)
    assert config.tolist() == [1, 0, 0, 0, 0, 0, 0, 0]
    assert energy(field, data, config) == -6.0
    assert trace.iterations == 3
    assert trace.rows[0].iteration == 0
    assert trace.rows[0].energy == 0.0
    assert trace.rows[1].committed == 3
    assert trace.rows[-1].changed == 0
    committed = [r.committed for r in trace.rows]
    assert committed == sorted(committed)


def test_single_site_commits_then_terminates():
    field = Field(1, 2, [()], [])
    data = DataTerm([[0.5, -0.5]])
    config, trace = local_hcf_run(field, data)
    assert config.tolist() == [1]
    assert trace.iterations == 1
    assert trace.rows[-1].iteration == 2
    assert trace.rows[1].committed == 1


def test_lemma1_progress_while_negative_stability_exists():
    for seed in range(10):
        field, data = random_field(seed)

        def check(cfg, _new_cfg, result):
            lows = [stability(field, data, cfg, s) for s in range(field.num_sites)]
            if min(lows) < 0:
                assert result.any_change

        drive(field, data, check)


def test_lemma2_commit_monotone_and_descent():
    for seed in range(10):
        field, data = random_field(seed)
        state = {"committed": 0, "energy": 0.0}

        def check(cfg, new_cfg, result):
            before = int((cfg != UNCOMMITTED).sum())
            after = int((new_cfg != UNCOMMITTED).sum())
            assert after >= before
            assert after - before == result.new_commits
            for s in range(field.num_sites):
                if cfg[s] != UNCOMMITTED:
                    assert new_cfg[s] != UNCOMMITTED
            if result.new_commits == 0 and result.any_change:
                drop = result.energy_after - state["energy"]
                assert drop < 0
                total = sum(stability(field, data, cfg, s)
                            for s in result.changed_sites)
                assert drop == pytest.approx(total, abs=1e-9)
            state["energy"] = result.energy_after

        drive(field, data, check)


def test_no_two_changed_sites_are_neighbors():
    for seed in range(10):
        field, data = random_field(seed)

        def check(_cfg, _new_cfg, result):
            changed = set(result.changed_sites)
            for s in changed:
                assert not changed.intersection(field.adjacency[s])

        drive(field, data, check)


def test_terminates_at_a_committed_local_minimum():
    for seed in range(10):
        field, data = random_field(seed)
        config, trace = local_hcf_run(field, data)
        assert (config != UNCOMMITTED).all()
        assert is_local_minimum(field, data, config)
        for s in range(field.num_sites):
            assert stability(field, data, config, s) >= 0.0
        assert trace.rows[-1].energy == pytest.approx(
            energy(field, data, config), abs=1e-9)


def test_runs_are_bit_identical_across_repeats_and_threads():
    field, data = random_field(8, max_sites=12)
    base_cfg, base_trace = local_hcf_run(field, data)
    for threads in (1, 2, 4):
        cfg, trace = local_hcf_run(field, data, threads=threads)
        assert (cfg == base_cfg).all()
        assert trace.rows == base_trace.rows


def test_all_tied_degenerate_chain_still_fully_commits():
    # exact zero stabilities everywhere: site 1 is forever blocked by its
    # committed lower-rank neighbor, so the run must break the stalemate
    field = Field(3, 2, [(1,), (0, 2), (1,)],
                  [Clique((0, 1), np.zeros((2, 2))), Clique((1, 2), np.zeros((2, 2)))])
    data = DataTerm(np.zeros((3, 2)))
    config, trace = local_hcf_run(field, data)
    assert config.tolist() == [0, 0, 0]
    assert trace.rows[-1].committed == 3
    assert trace.rows[-1].energy == 0.0


def test_iteration_cap_triggers(chain):
    field, data = chain
    with pytest.raises(RuntimeError, match="cap"):
        local_hcf_run(field, data, max_iterations=1)


def test_trace_final_properties(chain):
    field, data = chain
    config, trace = local_hcf_run(field, data)
    assert trace.final_energy == energy(field, data, config)
    assert trace.final_committed == 8


def test_threads_start_no_os_thread(monkeypatch):
    field, data = random_field(3, max_sites=12)
    assert field.num_sites >= 6
    base_cfg, base_trace = local_hcf_run(field, data)

    def refuse(_self):
        raise AssertionError("local HCF started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    cfg, trace = local_hcf_run(field, data, threads=3)
    assert (cfg == base_cfg).all()
    assert trace.rows == base_trace.rows
    start, ranks = new_configuration(field.num_sites), assign_ranks(field)
    cfg, result = local_hcf_step(field, data, start, ranks, threads=3)
    base_cfg, base_result = local_hcf_step(field, data, start, ranks)
    assert (cfg == base_cfg).all() and result == base_result


def test_tie_fallback_commits_the_lowest_ordered_leftover():
    # every stability is exactly 0, and data rows of 2**s make each row's
    # augmented energy the bit mask of the committed sites
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        field = build_edge_field(4, 4, EdgePotentials(0.0, 0.0, 0.0, 0.0))
    n = field.num_sites
    data = DataTerm([[2.0 ** s, 2.0 ** s] for s in range(n)])
    for seed in range(1, 9):
        ranks = assign_ranks(field, "seeded-permutation", seed)
        cfg = new_configuration(n)
        rows = [TraceRow(0, 0.0, 0, 0)]
        committed = 0
        fallbacks = 0
        while True:
            cfg, result = local_hcf_step(field, data, cfg, ranks)
            committed += result.new_commits
            rows.append(TraceRow(len(rows), result.energy_after, committed,
                                 len(result.changed_sites)))
            if result.any_change:
                continue
            leftovers = [s for s in range(n) if cfg[s] == UNCOMMITTED]
            if not leftovers:
                break
            s = min(leftovers, key=lambda t: (stability(field, data, cfg, t), ranks[t]))
            cfg = cfg.copy()
            cfg[s] = best_label(field, data, cfg, s)[0]
            committed += 1
            fallbacks += 1
            rows.append(TraceRow(len(rows), augmented_energy(field, data, cfg), committed, 1))
        assert fallbacks > 0
        run_cfg, trace = local_hcf_run(field, data, ranks=ranks)
        assert trace.rows == tuple(rows)
        assert run_cfg.tolist() == cfg.tolist()


def test_step_rejects_configurations_that_do_not_fit(chain):
    field, data = chain
    ranks = assign_ranks(field)
    with pytest.raises(ValueError, match="site 0: label 5 out of range"):
        local_hcf_step(field, data, [5] * 8, ranks)
    with pytest.raises(ValueError, match="site 3: label -2 out of range"):
        local_hcf_step(field, data, [0, 0, 0, -2, 0, 0, 0, 0], ranks)
    with pytest.raises(ValueError, match=r"configuration of shape \(3,\) does not fit 8 sites"):
        local_hcf_step(field, data, [0] * 3, ranks)


def test_step_rejects_an_invalid_field():
    field = Field(2, 2, [(1,), ()], [])
    data = DataTerm(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="invalid field: .*asymmetric"):
        local_hcf_step(field, data, new_configuration(2), [0, 1])
