import numpy as np
import pytest

from mrfhcf import (Clique, DataTerm, Field, brute_force_map, chain_dp_map,
                    energy, is_local_minimum, local_energies)
from support import random_chain


def test_chain_fixture_optimum_agrees_across_oracles(chain):
    field, data = chain
    brute = brute_force_map(field, data)
    dp = chain_dp_map(field, data)
    assert brute.config.tolist() == [1, 0, 0, 0, 0, 0, 0, 0]
    assert dp.config.tolist() == brute.config.tolist()
    assert brute.energy == -6.0
    assert dp.energy == -6.0
    assert brute.optimal_count == 1
    assert dp.optimal_count == 1


def test_local_minimum_checks_on_the_fixture(chain):
    field, data = chain
    assert is_local_minimum(field, data, np.array([1, 0, 0, 0, 0, 0, 0, 0]))
    assert is_local_minimum(field, data, np.ones(8, dtype=np.int64))
    # verify an arbitrary labeling against explicit single-flip enumeration
    probe = np.array([1, 1, 0, 0, 0, 0, 0, 0])
    rows = local_energies(field, data, probe)
    expected = all(rows[s][probe[s]] <= rows[s].min() + 1e-12
                   for s in range(8))
    assert is_local_minimum(field, data, probe) == expected


def test_dp_matches_brute_force_on_random_chains():
    for seed in range(50):
        field, data = random_chain(seed)
        brute = brute_force_map(field, data)
        dp = chain_dp_map(field, data)
        assert dp.config.tolist() == brute.config.tolist()
        assert dp.energy == brute.energy
        assert dp.optimal_count == brute.optimal_count


def test_oracles_pick_the_lexicographically_smallest_optimum():
    # two sites, zero interaction, symmetric data: four global optima
    field = Field(2, 2, [(1,), (0,)], [Clique((0, 1), np.zeros((2, 2)))])
    data = DataTerm(np.zeros((2, 2)))
    brute = brute_force_map(field, data)
    dp = chain_dp_map(field, data)
    assert brute.config.tolist() == [0, 0]
    assert dp.config.tolist() == [0, 0]
    assert brute.optimal_count == 4
    assert dp.optimal_count == 4


def test_single_site_chain_is_the_data_argmin():
    field = Field(1, 3, [()], [])
    data = DataTerm([[0.3, -0.7, 0.1]])
    for oracle in (brute_force_map, chain_dp_map):
        result = oracle(field, data)
        assert result.config.tolist() == [1]
        assert result.energy == -0.7
        assert result.optimal_count == 1


def test_tie_count_for_a_single_site():
    field = Field(1, 2, [()], [])
    data = DataTerm([[0.5, 0.5]])
    result = brute_force_map(field, data)
    assert result.config.tolist() == [0]
    assert result.optimal_count == 2


def test_dp_rejects_non_chain_topologies():
    triangle = Field(3, 2, [(1, 2), (0, 2), (0, 1)],
                     [Clique((0, 1), np.zeros((2, 2))),
                      Clique((1, 2), np.zeros((2, 2))),
                      Clique((0, 2), np.zeros((2, 2)))])
    with pytest.raises(ValueError):
        chain_dp_map(triangle, DataTerm(np.zeros((3, 2))))
    star = Field(4, 2, [(1, 2, 3), (0,), (0,), (0,)],
                 [Clique((0, 1), np.zeros((2, 2))),
                  Clique((0, 2), np.zeros((2, 2))),
                  Clique((0, 3), np.zeros((2, 2)))])
    with pytest.raises(ValueError):
        chain_dp_map(star, DataTerm(np.zeros((4, 2))))


PAIR_OF_TWO = [(1,), (0,)]
INVALID_FIELDS = {
    "nan-table": Field(2, 2, PAIR_OF_TWO, [Clique((0, 1), np.array([[0.0, np.nan], [1.0, 0.0]]))]),
    "3x3-table": Field(2, 2, PAIR_OF_TWO, [Clique((0, 1), np.zeros((3, 3)))]),
    "member-out-of-range": Field(2, 2, PAIR_OF_TWO, [Clique((0, 5), np.zeros((2, 2)))]),
    "members-not-neighbors": Field(3, 2, [(1,), (0, 2), (1,)], [Clique((0, 2), np.zeros((2, 2)))]),
}


@pytest.mark.parametrize("name", INVALID_FIELDS)
@pytest.mark.parametrize("oracle", [brute_force_map, chain_dp_map])
def test_oracles_refuse_an_invalid_field(name, oracle):
    field = INVALID_FIELDS[name]
    with pytest.raises(ValueError, match="^invalid field: clique 0: "):
        oracle(field, DataTerm(np.zeros((field.num_sites, 2))))


def test_brute_force_refuses_oversized_state_spaces():
    n = 30
    field = Field(n, 2, [() for _ in range(n)], [])
    data = DataTerm(np.zeros((n, 2)))
    with pytest.raises(ValueError, match="2"):
        brute_force_map(field, data)


def test_local_minimum_rejects_partial_configurations(chain):
    field, data = chain
    probe = np.array([1, 0, 0, 0, 0, 0, 0, -1])
    with pytest.raises(ValueError):
        is_local_minimum(field, data, probe)


def test_local_minimum_tolerance_boundary():
    field = Field(1, 2, [()], [])
    near = DataTerm([[0.0, -1e-15]])
    assert is_local_minimum(field, near, np.array([0]))
    clear = DataTerm([[0.0, -1e-9]])
    assert not is_local_minimum(field, clear, np.array([0]))
    assert is_local_minimum(field, clear, np.array([0]), tolerance=1e-6)


def test_tie_counting_spans_chunks_and_oracles():
    field = Field(2, 2, [(1,), (0,)], [Clique((0, 1), np.zeros((2, 2)))])
    data = DataTerm(np.zeros((2, 2)))
    assert brute_force_map(field, data).optimal_count == 4
    assert chain_dp_map(field, data).optimal_count == 4


def test_oracle_energy_matches_the_canonical_evaluator():
    for seed in (3, 14):
        field, data = random_chain(seed)
        for oracle in (brute_force_map, chain_dp_map):
            result = oracle(field, data)
            assert result.energy == energy(field, data, result.config)
