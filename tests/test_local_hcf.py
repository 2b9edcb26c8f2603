import threading
import warnings

import numpy as np
import pytest

from mrfhcf import (Clique, DataTerm, EdgePotentials, Field, TraceRow, UNCOMMITTED,
                    assign_ranks, augmented_energy, best_label, build_edge_field,
                    energy, is_local_minimum, local_hcf_run, local_hcf_step,
                    new_configuration, stability)
from mrfhcf import local_hcf as local_hcf_module
from mrfhcf.core import _quiet_commits
from support import (noisy_board, random_field, sparse_field, tie_field, triple_clique_field,
                     zero_lattice)


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


@pytest.mark.parametrize("cap", [1, 2, 3, 4])
def test_the_cap_expires_with_one_message_in_a_sweep_and_in_the_tie_fallback(cap):
    # on the all-zero 4x4 lattice sweep 1 commits one site and sweep 2 is
    # quiet, so iteration 2 is a sweep under cap 1, the fallback's under cap
    # 2, the quiet row made without a read under cap 3 and the chained
    # fallback's under cap 4
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        field = build_edge_field(4, 4, EdgePotentials(0.0, 0.0, 0.0, 0.0))
    data = DataTerm(np.zeros((field.num_sites, 2)))
    rows = local_hcf_run(field, data)[1].rows
    assert [(r.committed, r.changed) for r in rows[1:6]] == [(1, 1), (1, 0), (2, 1), (2, 0),
                                                             (3, 1)]
    with pytest.raises(RuntimeError, match=rf"^local HCF exceeded its iteration cap \({cap}\); "
                                           "check the inputs for pathological values$"):
        local_hcf_run(field, data, max_iterations=cap)


def test_trace_final_properties(chain):
    field, data = chain
    config, trace = local_hcf_run(field, data)
    assert trace.final_energy == energy(field, data, config)
    assert trace.final_committed == 8


def test_threads_start_no_os_thread(monkeypatch):
    field, data = random_field(3, max_sites=12)
    assert field.num_sites >= 6
    base_cfg, base_trace = local_hcf_run(field, data)
    start, ranks = new_configuration(field.num_sites), assign_ranks(field)
    base_step_cfg, base_result = local_hcf_step(field, data, start, ranks)

    def refuse(_self):
        raise AssertionError("local HCF started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    cfg, trace = local_hcf_run(field, data, threads=3)
    assert (cfg == base_cfg).all()
    assert trace.rows == base_trace.rows
    cfg, result = local_hcf_step(field, data, start, ranks)
    assert (cfg == base_step_cfg).all() and result == base_result


def stepped_run(field, data, ranks):
    """An outside ``local_hcf_step`` loop that commits a tie-fallback site after
    a quiet sweep as ``local_hcf_run`` does, and reads every sweep: its trace
    rows, the configuration after each row, and the (row, site, label) of
    each fallback commit."""
    n = field.num_sites
    cfg = new_configuration(n)
    rows, states, fallbacks = [TraceRow(0, 0.0, 0, 0)], [cfg], []
    committed = 0
    while True:
        cfg, result = local_hcf_step(field, data, cfg, ranks)
        committed += result.new_commits
        rows.append(TraceRow(len(rows), result.energy_after, committed,
                             len(result.changed_sites)))
        states.append(cfg)
        if result.any_change:
            continue
        leftovers = [s for s in range(n) if cfg[s] == UNCOMMITTED]
        if not leftovers:
            return rows, states, fallbacks
        s = min(leftovers, key=lambda t: (stability(field, data, cfg, t), ranks[t]))
        cfg = cfg.copy()
        cfg[s] = best_label(field, data, cfg, s)[0]
        committed += 1
        fallbacks.append((len(rows), s, int(cfg[s])))
        rows.append(TraceRow(len(rows), augmented_energy(field, data, cfg), committed, 1))
        states.append(cfg)


def bitwise(rows):
    """Trace rows with each energy as its exact bits."""
    return [(r.iteration, r.energy.hex(), r.committed, r.changed) for r in rows]


def test_tie_fallback_commits_the_lowest_ordered_leftover():
    # every stability is exactly 0, and data rows of 2**s make each row's
    # augmented energy the bit mask of the committed sites
    field, _zeros = zero_lattice(4)
    data = DataTerm([[2.0 ** s, 2.0 ** s] for s in range(field.num_sites)])
    for seed in range(1, 9):
        ranks = assign_ranks(field, "seeded-permutation", seed)
        rows, states, fallbacks = stepped_run(field, data, ranks)
        assert fallbacks
        run_cfg, trace = local_hcf_run(field, data, ranks=ranks)
        assert trace.rows == tuple(rows)
        assert run_cfg.tolist() == states[-1].tolist()


def tie_cases():
    """(field, data, ranks): all-zero lattices under seeded ranks, fields
    with zero slices (-0.0 ones too) and fields of exact ties, whose runs
    take quiet and loud tie fallbacks."""
    for size in (3, 4, 5, 6):
        field, data = zero_lattice(size)
        for seed in (1, 2, 3):
            yield field, data, assign_ranks(field, "seeded-permutation", seed)
    for labels in (2, 3):
        for seed in range(24):
            yield (*sparse_field(seed, labels), None)
            yield (*tie_field(seed, labels), None)


def test_the_tie_fallback_matches_a_loop_that_reads_every_sweep():
    # after a quiet fallback commit the run makes the next, quiet, row
    # without a read; the outside loop reads it
    quiet_fallbacks = loud_fallbacks = chained = 0
    for field, data, ranks in tie_cases():
        ranks = assign_ranks(field) if ranks is None else ranks
        rows, states, fallbacks = stepped_run(field, data, ranks)
        config, trace = local_hcf_run(field, data, ranks=ranks)
        assert bitwise(trace.rows) == bitwise(rows)
        assert config.tobytes() == states[-1].tobytes()
        quiet_at = _quiet_commits(field.compiled)
        at = {row for row, _s, _b in fallbacks}
        for row, s, b in fallbacks:
            if quiet_at[s, b]:
                quiet_fallbacks += 1
                chained += row + 2 in at
            else:
                loud_fallbacks += 1
    assert quiet_fallbacks and loud_fallbacks and chained


def test_a_quiet_fallback_commit_is_followed_by_a_quiet_row_without_a_read(monkeypatch):
    # on the all-zero lattice every commit is quiet: after the first quiet
    # sweep the fallback commits the leftovers in rank order, and no row
    # after it reads the configuration
    sweep, reads = local_hcf_module._sweep, []

    def spy(comp, values, cfg, lower, padded):
        reads.append(int(np.count_nonzero(cfg[:-1] != UNCOMMITTED)))
        return sweep(comp, values, cfg, lower, padded)

    monkeypatch.setattr(local_hcf_module, "_sweep", spy)
    field, data = zero_lattice(5)
    for seed in (1, 2):
        ranks = assign_ranks(field, "seeded-permutation", seed)
        reads.clear()
        config, trace = local_hcf_run(field, data, ranks=ranks)
        changed = trace.changed.tolist()
        first_quiet = changed.index(0, 1)
        leftovers = field.num_sites - int(trace.committed[first_quiet])
        assert leftovers > 1
        assert reads == trace.committed[:first_quiet].tolist()
        assert changed[first_quiet:] == [0] + [1, 0] * leftovers
        rows, states, _fallbacks = stepped_run(field, data, ranks)
        assert bitwise(trace.rows) == bitwise(rows)
        assert config.tolist() == states[-1].tolist()


def test_every_run_energy_has_the_bits_of_a_full_evaluation():
    # the run rewrites only the changed sites' energy terms after a sweep;
    # each trace energy must still be the full evaluation's, bit for bit
    problems = [("random", *random_field(seed, labels=labels), None)
                for seed in range(8) for labels in (2, 3)]
    problems += [("triple", *triple_clique_field(seed, labels), None)
                 for seed in range(3) for labels in (2, 3)]
    problems += [("noisy", *noisy_board(size, seed), None) for size, seed in ((12, 7), (20, 1))]
    field, data = zero_lattice(4)
    problems += [("zero", field, data, assign_ranks(field, "seeded-permutation", seed))
                 for seed in range(3)]
    revisions, fallbacks = {}, {}
    for kind, field, data, ranks in problems:
        ranks = assign_ranks(field) if ranks is None else ranks
        rows, states, fell_back = stepped_run(field, data, ranks)
        config, trace = local_hcf_run(field, data, ranks=ranks)
        assert len(trace.rows) == len(states) and config.tolist() == states[-1].tolist()
        assert [r.energy.hex() for r in trace.rows] == \
            [augmented_energy(field, data, cfg).hex() for cfg in states]
        revisions[kind] = revisions.get(kind, 0) + sum(
            r.changed - (r.committed - q.committed) for q, r in zip(rows, rows[1:]))
        fallbacks[kind] = fallbacks.get(kind, 0) + len(fell_back)
    assert revisions["noisy"] > 0 and fallbacks["zero"] > 0


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
