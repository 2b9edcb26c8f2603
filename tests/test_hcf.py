import warnings

import numpy as np
import pytest

import mrfhcf.hcf
from mrfhcf import (Clique, DataTerm, EdgeModel, EdgePotentials, Field, UNCOMMITTED,
                    assign_ranks, augmented_energy, best_label, build_edge_field,
                    compute_llr, energy, hcf_run, is_local_minimum, llr_data_term,
                    make_checkerboard, new_configuration, stability)
from mrfhcf.core import _quiet_commits
from support import (chain8_field, noisy_board, random_field, reference_hcf_run,
                     reference_local_rows, reference_row_stats, scalar_reader, sparse_field,
                     triple_clique_field)

CHAIN_START_STABILITIES = (-4.0, -0.2, -0.4, -0.5, -0.3, -0.1, -0.3, -0.4)


def test_best_label_hand_values(chain):
    field, data = chain
    blank = new_configuration(8)
    assert best_label(field, data, blank, 0) == (1, -4.0)
    assert best_label(field, data, blank, 3) == (0, 0.0)


def test_best_label_tie_goes_to_smallest_index():
    field = Field(1, 3, [()], [])
    data = DataTerm([[2.0, 2.0, 2.0]])
    assert best_label(field, data, new_configuration(1), 0) == (0, 2.0)


def test_stability_hand_values(chain):
    field, data = chain
    blank = new_configuration(8)
    for site, expected in enumerate(CHAIN_START_STABILITIES):
        assert stability(field, data, blank, site) == pytest.approx(expected,
                                                                    abs=1e-12)
    assert stability(field, data, blank, 0) == -4.0
    assert stability(field, data, blank, 5) == -0.1


def test_readers_reject_a_configuration_that_does_not_fit(chain):
    field, data = chain
    with pytest.raises(ValueError, match="site 0: label 5 out of range"):
        stability(field, data, [5] * 8, 0)
    with pytest.raises(ValueError, match="does not fit"):
        best_label(field, data, [0] * 3, 0)
    with pytest.raises(ValueError, match="site 2: label -2 out of range"):
        best_label(field, data, [0, 1, -2, 0, 0, 0, 9, 0], 0)


def test_stability_of_settled_committed_site_is_positive():
    field = Field(1, 2, [()], [])
    data = DataTerm([[0.0, 3.0]])
    assert stability(field, data, [0], 0) == 3.0


def test_uncommitted_stability_never_positive():
    for seed in range(15):
        field, data = random_field(seed)
        rng = np.random.default_rng(seed + 5000)
        cfg = rng.integers(-1, field.num_labels, field.num_sites)
        for s in range(field.num_sites):
            if cfg[s] == UNCOMMITTED:
                assert stability(field, data, cfg, s) <= 0.0


def test_single_label_field_rejected():
    field = Field(2, 1, [(1,), (0,)], [])
    data = DataTerm([[0.0], [0.0]])
    with pytest.raises(ValueError):
        stability(field, data, new_configuration(2), 0)
    with pytest.raises(ValueError):
        hcf_run(field, data)


def test_hcf_chain_golden(chain):
    field, data = chain
    config, trace = hcf_run(field, data)
    assert config.tolist() == [1] * 8
    assert energy(field, data, config) == pytest.approx(-5.5, abs=1e-9)
    assert len(trace.steps) == 8
    assert trace.steps[0].site == 0
    assert trace.steps[-1].committed == 8


def test_hcf_single_site_commits_in_one_step():
    field = Field(1, 3, [()], [])
    data = DataTerm([[1.0, -2.0, 0.5]])
    config, trace = hcf_run(field, data)
    assert config.tolist() == [1]
    assert len(trace.steps) == 1
    assert trace.steps[0].energy == -2.0


def test_sites_commit_once_and_trace_is_consistent():
    for seed in range(15):
        field, data = random_field(seed)
        config, trace = hcf_run(field, data)
        committed = set()
        count = 0
        for step in trace.steps:
            assert step.label != UNCOMMITTED
            if step.site not in committed:
                committed.add(step.site)
                count += 1
            assert step.committed == count
        assert count == field.num_sites
        assert augmented_energy(field, data, config) == pytest.approx(
            trace.steps[-1].energy, abs=1e-9)


def test_committed_changes_descend_by_their_stability():
    for seed in range(15):
        field, data = random_field(seed)
        _config, trace = hcf_run(field, data)
        seen = set()
        prev_energy = 0.0
        for step in trace.steps:
            if step.site in seen:
                assert step.stability < 0
                delta = step.energy - prev_energy
                assert delta == pytest.approx(step.stability, abs=1e-9)
            seen.add(step.site)
            prev_energy = step.energy


def test_every_pop_is_the_linear_scan_minimum():
    # replay the run against independently maintained stabilities
    for seed in (3, 11):
        field, data = random_field(seed, max_sites=12)
        n = field.num_sites
        _config, trace = hcf_run(field, data)
        read = scalar_reader(field, data)
        cfg = [UNCOMMITTED] * n
        stab = [reference_row_stats(read(cfg, s), UNCOMMITTED)[2] for s in range(n)]
        for step in trace.steps:
            if stab[step.site] < 0:
                low = min(range(n), key=lambda t: (stab[t], t))
                assert (stab[step.site], step.site) == (stab[low], low)
            assert step.stability == pytest.approx(stab[step.site], abs=1e-12)
            cfg[step.site] = step.label
            for t in (step.site, *field.adjacency[step.site]):
                stab[t] = reference_row_stats(read(cfg, t), cfg[t])[2]


def zero_lattice():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        field = build_edge_field(9, 9, EdgePotentials(0.0, 0.0, 0.0, 0.0))
    return field, llr_data_term(np.zeros(field.num_sites))


def edge_lattice(potentials, size=10, seed=3):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero potentials warn
        field = build_edge_field(size, size, EdgePotentials(*potentials))
    image = make_checkerboard(size, size, 5, 64, 192, 40.0, seed)
    return field, compute_llr(image, EdgeModel(128.0, 40.0))


REFERENCE_CASES = {
    **{f"random{seed}-{labels}": (lambda seed=seed, labels=labels:
                                  random_field(seed, labels=labels))
       for seed in range(60) for labels in (2, 3)},
    **{f"triple{seed}-{labels}": (lambda seed=seed, labels=labels:
                                  triple_clique_field(seed, labels))
       for seed in range(3) for labels in (2, 3)},
    "chain8": chain8_field,
    "board12": lambda: noisy_board(12),
    "board16": lambda: noisy_board(16),
    "board24": lambda: noisy_board(24),
    "clean20": lambda: (build_edge_field(20, 20, EdgePotentials()),
                        compute_llr(make_checkerboard(20, 20, 10, 64, 192, 8.0, 1), EdgeModel())),
    "zero9": zero_lattice,
    # tables with zero slices, where many commits are quiet
    **{f"sparse{seed}-{labels}": (lambda seed=seed, labels=labels: sparse_field(seed, labels))
       for seed in range(40) for labels in (2, 3)},
    **{f"lattice-{'-'.join(map(str, p))}": (lambda p=p: edge_lattice(p))
       for p in ((-0.5, 0.3, 0.3, 0.0), (-0.5, 0.0, 0.0, 0.4), (0.0, 0.3, 0.0, 0.4),
                 (0.0, 0.0, 0.0, 0.4), (-0.5, 0.0, 0.0, 0.0), (-0.5, 0.3, 0.3, 0.4))},
}


@pytest.mark.parametrize("name", list(REFERENCE_CASES))
def test_hcf_matches_the_scalar_reference(name):
    # configurations and the repr of every step, bit for bit, with
    # site-index and seeded ranks
    field, data = REFERENCE_CASES[name]()
    for ranks in (None, *(assign_ranks(field, "seeded-permutation", seed) for seed in (1, 2))):
        got_cfg, got = hcf_run(field, data, ranks=ranks)
        want_cfg, want = reference_hcf_run(field, data, ranks=ranks)
        assert got_cfg.dtype == np.int64
        assert got_cfg.tolist() == want_cfg.tolist()
        assert list(map(repr, got.steps)) == list(map(repr, want.steps))


def test_final_configuration_is_a_local_minimum():
    for seed in range(15):
        field, data = random_field(seed)
        config, _trace = hcf_run(field, data)
        assert (config != UNCOMMITTED).all()
        assert is_local_minimum(field, data, config)


def test_all_tied_sites_still_commit():
    # zero potentials and zero data: every stability stays exactly 0
    field = Field(3, 2, [(1,), (0, 2), (1,)],
                  [Clique((0, 1), np.zeros((2, 2))), Clique((1, 2), np.zeros((2, 2)))])
    data = DataTerm(np.zeros((3, 2)))
    config, trace = hcf_run(field, data)
    assert config.tolist() == [0, 0, 0]
    assert [s.site for s in trace.steps] == [0, 1, 2]
    # on an all-zero lattice the sites commit in rank order, each at stability 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        field = build_edge_field(9, 9, EdgePotentials(0.0, 0.0, 0.0, 0.0))
    data = llr_data_term(np.zeros(field.num_sites))
    for seed in range(1, 4):
        ranks = assign_ranks(field, "seeded-permutation", seed)
        config, trace = hcf_run(field, data, ranks=ranks)
        assert [s.site for s in trace.steps] == np.argsort(ranks).tolist()
        assert all(s.stability == 0 and s.label == 0 for s in trace.steps)
        assert config.tolist() == [0] * field.num_sites


def test_step_cap_triggers():
    field, data = random_field(0)
    with pytest.raises(RuntimeError, match="cap"):
        hcf_run(field, data, max_steps=1)


@pytest.mark.parametrize("make", [lambda: noisy_board(16),
                                  *(lambda seed=seed: random_field(seed) for seed in range(5))],
                         ids=["board16", *(f"random{seed}" for seed in range(5))])
def test_step_cap_is_exact(make):
    # a batch never runs past the cap, and the cap is reached only by the
    # step that would exceed it
    field, data = make()
    config, trace = hcf_run(field, data)
    steps = len(trace.steps)
    capped_config, capped = hcf_run(field, data, max_steps=steps)
    assert capped_config.tolist() == config.tolist()
    assert list(map(repr, capped.steps)) == list(map(repr, trace.steps))
    with pytest.raises(RuntimeError, match=f"cap \\({steps - 1}\\)"):
        hcf_run(field, data, max_steps=steps - 1)


def test_a_move_that_rekeys_a_neighbour_below_the_next_candidate_goes_first():
    # a path 0-...-5: site 0 acts first, and site 4, four steps away, holds
    # the next key; committing 0 pulls its neighbour 1 from -0.5 to -5.5,
    # below site 4's -2, so serial HCF takes 1 before 4
    n = 6
    adjacency = [tuple(t for t in (s - 1, s + 1) if 0 <= t < n) for s in range(n)]
    pull = np.zeros((2, 2))
    pull[1, 1] = -5.0
    cliques = [Clique((0, 1), pull), *(Clique((s, s + 1), np.zeros((2, 2))) for s in range(1, 5))]
    data = DataTerm([[0.0, d] for d in (-4.0, -0.5, -0.1, -0.2, -2.0, -0.3)])
    field = Field(n, 2, adjacency, cliques)
    config, trace = hcf_run(field, data)
    assert [step.site for step in trace.steps] == [0, 1, 4, 5, 3, 2]
    assert [step.stability for step in trace.steps[:3]] == [-4.0, -5.5, -2.0]
    want_config, want = reference_hcf_run(field, data)
    assert config.tolist() == want_config.tolist() == [1] * n
    assert list(map(repr, trace.steps)) == list(map(repr, want.steps))


def batch_reads(monkeypatch):
    """The site lists of ``hcf_run``'s batch re-reads, filled as it runs."""
    reads = []
    local_rows = mrfhcf.hcf._local_rows

    def counted(comp, values, cfg, sites=None):
        if sites is not None:
            reads.append(np.asarray(sites).tolist())
        return local_rows(comp, values, cfg, sites)

    monkeypatch.setattr(mrfhcf.hcf, "_local_rows", counted)
    return reads


@pytest.mark.parametrize("make, ranks, loud", [(lambda: noisy_board(16), None, True),
                                               (zero_lattice, 1, False), (zero_lattice, 2, False)],
                         ids=["board16", "zero9-seeded1", "zero9-seeded2"])
def test_one_read_serves_several_steps(monkeypatch, make, ranks, loud):
    # the closed neighbourhoods of a batch's loud moves are re-read in one
    # call and its quiet moves read nothing, so a run reads far fewer times
    # than it steps; a lattice of quiet commits reads nothing at all
    field, data = make()
    if ranks is not None:
        ranks = assign_ranks(field, "seeded-permutation", ranks)
    reads = batch_reads(monkeypatch)
    _config, trace = hcf_run(field, data, ranks=ranks)
    assert 2 * len(reads) <= len(trace.steps)
    assert bool(reads) == loud


def test_explicit_ranks_change_tie_breaking():
    field = Field(2, 2, [(), ()], [])
    data = DataTerm([[0.0, 1.0], [0.0, 1.0]])
    _config, trace = hcf_run(field, data, ranks=[1, 0])
    assert trace.steps[0].site == 1
    with pytest.raises(ValueError):
        hcf_run(field, data, ranks=[0, 0])


def test_quiet_commits_are_the_all_zero_own_label_columns():
    # quiet[s, b] holds exactly when every clique of s is zero wherever s
    # takes b, and then committing s to b leaves every other site's local
    # energies as they were, bit for bit
    seen = set()
    for seed in range(40):
        field, data = sparse_field(seed, 2 + seed % 3)
        quiet = _quiet_commits(field.compiled)
        assert quiet.shape == (field.num_sites, field.num_labels)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            cfg = rng.integers(-1, field.num_labels, field.num_sites)
            before = reference_local_rows(field, data, cfg)
            for s in np.flatnonzero(cfg == UNCOMMITTED).tolist():
                for b in range(field.num_labels):
                    want = all((np.take(c.table, b, axis=c.members.index(s)) == 0).all()
                               for c in field.cliques if s in c.members)
                    assert quiet[s, b] == want
                    seen.add(bool(want))
                    if want:
                        moved = cfg.copy()
                        moved[s] = b
                        after = reference_local_rows(field, data, moved)
                        for t in range(field.num_sites):
                            if t != s:
                                assert ([x.hex() for x in after[t]]
                                        == [x.hex() for x in before[t]])
    assert seen == {False, True}


def test_a_field_without_cliques_commits_quietly_everywhere():
    field = Field(3, 2, [(), (), ()], [])
    assert _quiet_commits(field.compiled).all()


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_zero_lattice_batches_re_read_exactly_the_moved_sites(monkeypatch, seed):
    # every commit is quiet: the run takes every site once, in rank order,
    # and neither re-reads a moved site nor any other
    field, data = zero_lattice()
    ranks = None if seed is None else assign_ranks(field, "seeded-permutation", seed)
    reads = batch_reads(monkeypatch)
    config, trace = hcf_run(field, data, ranks=ranks)
    assert reads == []
    order = np.argsort(ranks) if seed is not None else np.arange(field.num_sites)
    assert [step.site for step in trace.steps] == order.tolist()
    assert config.tolist() == [0] * field.num_sites


def test_quiet_commits_are_re_read_without_their_neighbours(monkeypatch):
    # a path 1-0-2: site 0 commits to label 0 first, where both its tables
    # are zero, so it reads nothing; sites 1 and 2 then commit to label 1,
    # whose column is not zero, and each re-reads itself and site 0
    pair = np.array([[0.0, 0.0], [0.5, -1.0]])
    field = Field(3, 2, [(1, 2), (0,), (0,)], [Clique((0, 1), pair), Clique((0, 2), pair)])
    data = DataTerm([[-5.0, 0.0], [0.0, -2.0], [0.0, -1.0]])
    assert _quiet_commits(field.compiled).tolist() == [[True, False], [False, False],
                                                       [False, False]]
    reads = batch_reads(monkeypatch)
    config, trace = hcf_run(field, data)
    assert reads == [[1, 0], [2, 0]]
    assert config.tolist() == [0, 1, 1]
    want_config, want = reference_hcf_run(field, data)
    assert want_config.tolist() == config.tolist()
    assert list(map(repr, trace.steps)) == list(map(repr, want.steps))


def test_a_quiet_commit_revises_after_a_loud_neighbour_moves(monkeypatch):
    # site 0 commits quietly to label 0 and is not re-read; site 1 then
    # commits to label 1, whose column is not zero, and its read of site 0
    # makes label 1 better there, so site 0 revises from the row that read
    # left, and the energy drops by exactly its stability
    pair = np.array([[0.0, 0.0], [0.0, -3.0]])
    field = Field(2, 2, [(1,), (0,)], [Clique((0, 1), pair)])
    data = DataTerm([[-2.0, 0.0], [0.0, -1.0]])
    assert _quiet_commits(field.compiled).tolist() == [[True, False], [True, False]]
    reads = batch_reads(monkeypatch)
    config, trace = hcf_run(field, data)
    assert [(step.site, step.label) for step in trace.steps] == [(0, 0), (1, 1), (0, 1)]
    assert reads == [[1, 0], [0, 1]]
    assert trace.stability.tolist() == [-2.0, -1.0, -1.0]
    assert trace.energy.tolist() == [0.0, -2.0, -3.0, -4.0]
    want_config, want = reference_hcf_run(field, data)
    assert config.tolist() == want_config.tolist() == [1, 1]
    assert list(map(repr, trace.steps)) == list(map(repr, want.steps))


def test_a_revision_to_a_zero_column_still_re_reads_its_neighbours(monkeypatch):
    # site 0 commits to label 1, site 1 to label 0, then site 0 revises to
    # label 0, whose column is zero; the move from label 1 still changes
    # site 1's row, which must be re-read so that site 1 revises to label 1
    pair = np.array([[0.0, 0.0], [1.5, 3.0]])
    field = Field(2, 2, [(1,), (0,)], [Clique((0, 1), pair)])
    data = DataTerm([[0.0, -1.0], [0.0, -0.5]])
    assert _quiet_commits(field.compiled)[0].tolist() == [True, False]
    reads = batch_reads(monkeypatch)
    config, trace = hcf_run(field, data)
    assert [(step.site, step.label) for step in trace.steps] == [(0, 1), (1, 0), (0, 0), (1, 1)]
    assert reads == [[0, 1], [1, 0], [0, 1], [1, 0]]
    want_config, want = reference_hcf_run(field, data)
    assert config.tolist() == want_config.tolist() == [0, 1]
    assert list(map(repr, trace.steps)) == list(map(repr, want.steps))
