import numpy as np
import pytest

from mrfhcf import (AnnealSchedule, Clique, DataTerm, Field, MpmParams, UNCOMMITTED,
                    anneal_run, augmented_energy, brute_force_map, chain_dp_map, energy,
                    fully_committed, hcf_run, icm_run, local_energies, local_energy,
                    local_hcf_run, mpm_run, new_configuration, tlr, validate_field)
from support import random_field

ALL_N = np.zeros(8, dtype=np.int64)
OPTIMUM = np.array([1, 0, 0, 0, 0, 0, 0, 0])
ALL_E = np.ones(8, dtype=np.int64)


def random_partial(field, rng):
    cfg = rng.integers(-1, field.num_labels, field.num_sites)
    return cfg.astype(np.int64)


def test_chain_fixture_is_valid(chain):
    field, _data = chain
    assert validate_field(field) == []


def test_validate_reports_asymmetric_adjacency():
    field = Field(2, 2, [(1,), ()], [])
    problems = validate_field(field)
    assert len(problems) == 1
    assert "asymmetric" in problems[0]


def test_validate_field_returns_a_fresh_copy():
    field = Field(2, 2, [(1,), ()], [])
    validate_field(field).clear()
    assert len(validate_field(field)) == 1


def test_estimators_reject_an_invalid_field():
    field = Field(2, 2, [(1,), ()], [])
    data = DataTerm(np.zeros((2, 2)))
    init = [0, 0]
    runs = (lambda: local_hcf_run(field, data),
            lambda: hcf_run(field, data),
            lambda: icm_run(field, data, init),
            lambda: anneal_run(field, data, init, AnnealSchedule(sweeps=1), seed=0),
            lambda: mpm_run(field, data, init, MpmParams(0, 1)),
            lambda: brute_force_map(field, data),
            lambda: chain_dp_map(field, data),
            lambda: tlr(field, data))
    for run in runs:
        with pytest.raises(ValueError, match="invalid field: .*asymmetric"):
            run()


def test_validate_reports_clique_on_non_neighbors():
    field = Field(3, 2, [(1,), (0, 2), (1,)],
                  [Clique((0, 2), np.zeros((2, 2)))])
    problems = validate_field(field)
    assert len(problems) == 1
    assert "not neighbors" in problems[0]


def test_validate_reports_self_loop_and_bad_table():
    field = Field(2, 2, [(0, 1), (0,)], [Clique((0, 1), np.zeros((2, 3)))])
    problems = validate_field(field)
    assert any("self-loop" in p for p in problems)
    assert any("table shape" in p for p in problems)


def test_validate_reports_a_shared_bad_table_once_per_clique():
    adjacency = [(1, 2), (0, 2), (0, 1)]
    nan_table = np.array([[0.0, np.nan], [0.0, 0.0]])
    good = Clique((0, 1), np.zeros((2, 2)))
    field = Field(3, 2, adjacency,
                  [Clique((0, 2), nan_table), good, Clique((1, 2), nan_table)])
    assert validate_field(field) == ["clique 0: table has non-finite entries",
                                     "clique 2: table has non-finite entries"]
    wide = np.zeros((2, 3))
    field = Field(3, 2, adjacency, [Clique((0, 1), wide), Clique((1, 2), wide)])
    assert validate_field(field) == ["clique 0: table shape (2, 3) is not (2, 2)",
                                     "clique 1: table shape (2, 3) is not (2, 2)"]


def test_energy_golden_values(chain):
    field, data = chain
    assert energy(field, data, ALL_N) == -3.5
    assert energy(field, data, OPTIMUM) == -6.0
    assert energy(field, data, ALL_E) == pytest.approx(-5.5, abs=1e-9)


def test_energy_rejects_uncommitted(chain):
    field, data = chain
    with pytest.raises(ValueError, match="augmented_energy"):
        energy(field, data, new_configuration(8))


def test_energy_rejects_out_of_range_label(chain):
    field, data = chain
    bad = ALL_N.copy()
    bad[3] = 2
    with pytest.raises(ValueError, match="out of range"):
        energy(field, data, bad)


def test_energy_single_site_without_cliques():
    field = Field(1, 3, [()], [])
    data = DataTerm([[0.25, -1.5, 2.0]])
    for l in range(3):
        assert energy(field, data, [l]) == data.values[0, l]


def test_augmented_energy_all_uncommitted_is_zero(chain):
    field, data = chain
    assert augmented_energy(field, data, new_configuration(8)) == 0.0


def test_augmented_energy_partial_hand_value(chain):
    # only the first site committed to edge: both incident cliques are
    # suppressed, leaving just that site's data term
    field, data = chain
    cfg = new_configuration(8)
    cfg[0] = 1
    assert augmented_energy(field, data, cfg) == -4.0


def test_augmented_energy_equals_energy_when_fully_committed():
    for seed in range(20):
        field, data = random_field(seed)
        rng = np.random.default_rng(seed + 1000)
        cfg = rng.integers(0, field.num_labels, field.num_sites)
        assert augmented_energy(field, data, cfg) == energy(field, data, cfg)


def test_augmented_energy_matches_committed_subproblem():
    # suppressing uncommitted terms must equal summing only the live
    # cliques and committed data entries, in the same order
    for seed in range(20):
        field, data = random_field(seed, max_sites=10)
        rng = np.random.default_rng(seed + 2000)
        cfg = random_partial(field, rng)
        expected = 0.0
        for c in field.cliques:
            labels = [cfg[m] for m in c.members]
            if all(l != UNCOMMITTED for l in labels):
                expected += float(c.table[tuple(labels)])
        for s in range(field.num_sites):
            if cfg[s] != UNCOMMITTED:
                expected += float(data.values[s, cfg[s]])
        assert augmented_energy(field, data, cfg) == expected


def test_local_energy_hand_values(chain):
    field, data = chain
    blank = new_configuration(8)
    assert local_energy(field, data, blank, 0, 1) == -4.0
    assert local_energy(field, data, blank, 3, 1) == 0.5
    cfg = new_configuration(8)
    cfg[0] = 1
    assert local_energy(field, data, cfg, 1, 1) == pytest.approx(-0.3, abs=1e-12)


def test_local_energy_rejects_uncommitted_label(chain):
    field, data = chain
    with pytest.raises(ValueError):
        local_energy(field, data, new_configuration(8), 0, UNCOMMITTED)
    with pytest.raises(ValueError):
        local_energy(field, data, new_configuration(8), 99, 0)


def test_local_energies_matrix_matches_pointwise():
    field, data = random_field(5)
    rng = np.random.default_rng(55)
    cfg = random_partial(field, rng)
    matrix = local_energies(field, data, cfg)
    assert matrix.shape == (field.num_sites, field.num_labels)
    for s in range(field.num_sites):
        for l in range(field.num_labels):
            assert matrix[s, l] == local_energy(field, data, cfg, s, l)


def test_data_shift_leaves_local_argmins_unchanged():
    for seed in range(10):
        field, data = random_field(seed)
        rng = np.random.default_rng(seed + 3000)
        shifts = rng.uniform(-5.0, 5.0, field.num_sites)
        shifted = DataTerm(data.values + shifts[:, None])
        cfg = rng.integers(0, field.num_labels, field.num_sites)
        assert energy(field, shifted, cfg) == pytest.approx(
            energy(field, data, cfg) + shifts.sum(), abs=1e-9)
        partial = random_partial(field, rng)
        before = np.argmin(local_energies(field, data, partial), axis=1)
        after = np.argmin(local_energies(field, shifted, partial), axis=1)
        assert (before == after).all()


def test_flip_delta_matches_local_energy_difference():
    for seed in range(10):
        field, data = random_field(seed)
        rng = np.random.default_rng(seed + 4000)
        cfg = rng.integers(0, field.num_labels, field.num_sites)
        base = energy(field, data, cfg)
        for s in range(field.num_sites):
            for l in range(field.num_labels):
                flipped = cfg.copy()
                flipped[s] = l
                lhs = energy(field, data, flipped) - base
                rhs = (local_energy(field, data, cfg, s, l)
                       - local_energy(field, data, cfg, s, cfg[s]))
                assert lhs == pytest.approx(rhs, abs=1e-9)


def test_fully_committed_predicate():
    assert not fully_committed(new_configuration(3))
    assert fully_committed(np.array([0, 2, 1]))
    partial = np.array([0, UNCOMMITTED, 1])
    assert not fully_committed(partial)


def test_data_term_rejects_bad_values():
    with pytest.raises(ValueError):
        DataTerm([1.0, 2.0])
    with pytest.raises(ValueError):
        DataTerm([[1.0, np.inf]])
    with pytest.raises(ValueError):
        DataTerm([[1.0, np.nan]])
