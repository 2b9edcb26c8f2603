import warnings

import numpy as np
import pytest

from mrfhcf import (Clique, DataTerm, EdgePotentials, Field, UNCOMMITTED,
                    assign_ranks, augmented_energy, best_label, build_edge_field,
                    energy, hcf_run, is_local_minimum, llr_data_term,
                    new_configuration, stability)
from support import (chain8_field, noisy_board, random_field, reference_hcf_run,
                     reference_row_stats, scalar_reader, triple_clique_field)

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
    assert trace.steps[-1].committed_after == 8


def test_hcf_single_site_commits_in_one_step():
    field = Field(1, 3, [()], [])
    data = DataTerm([[1.0, -2.0, 0.5]])
    config, trace = hcf_run(field, data)
    assert config.tolist() == [1]
    assert len(trace.steps) == 1
    assert trace.steps[0].energy_after == -2.0


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
            assert step.committed_after == count
        assert count == field.num_sites
        assert augmented_energy(field, data, config) == pytest.approx(
            trace.steps[-1].energy_after, abs=1e-9)


def test_committed_changes_descend_by_their_stability():
    for seed in range(15):
        field, data = random_field(seed)
        _config, trace = hcf_run(field, data)
        seen = set()
        prev_energy = 0.0
        for step in trace.steps:
            if step.site in seen:
                assert step.stability < 0
                delta = step.energy_after - prev_energy
                assert delta == pytest.approx(step.stability, abs=1e-9)
            seen.add(step.site)
            prev_energy = step.energy_after


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
    "zero9": zero_lattice,
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


def test_explicit_ranks_change_tie_breaking():
    field = Field(2, 2, [(), ()], [])
    data = DataTerm([[0.0, 1.0], [0.0, 1.0]])
    _config, trace = hcf_run(field, data, ranks=[1, 0])
    assert trace.steps[0].site == 1
    with pytest.raises(ValueError):
        hcf_run(field, data, ranks=[0, 0])
