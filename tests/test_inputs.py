"""The input contract the public entries share: configurations, field arrays, parameters."""

import re

import numpy as np
import pytest

from mrfhcf import (UNCOMMITTED, AnnealSchedule, Clique, DataTerm, EdgeLattice, Field,
                    MpmParams, anneal_run, assign_ranks, augmented_energy, best_label,
                    build_edge_field, energy, hcf_run, icm_run, is_local_minimum,
                    local_energies, local_energy, local_hcf_run, local_hcf_step, mpm_run,
                    new_configuration, stability, tlr, validate_field)
from mrfhcf.cli import main

# every public entry that takes a configuration or a start, on (field, data, config)
ENTRIES = {
    "energy": energy,
    "augmented_energy": augmented_energy,
    "local_energies": local_energies,
    "local_energy": lambda field, data, cfg: local_energy(field, data, cfg, 0, 0),
    "stability": lambda field, data, cfg: stability(field, data, cfg, 0),
    "best_label": lambda field, data, cfg: best_label(field, data, cfg, 0),
    "is_local_minimum": is_local_minimum,
    "local_hcf_step": lambda field, data, cfg: local_hcf_step(field, data, cfg, None),
    "icm_run": icm_run,
    "anneal_run": lambda field, data, cfg: anneal_run(field, data, cfg,
                                                      AnnealSchedule(sweeps=2), seed=0),
    "mpm_run": lambda field, data, cfg: mpm_run(field, data, cfg, MpmParams(1, 2)),
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("value, shown", [(0.5, "0.5"), (-0.5, "-0.5"), (0.7, "0.7"),
                                          (np.nan, "nan"), (np.inf, "inf"), (1e30, "1e+30")])
def test_non_integer_labels_are_refused(chain, entry, value, shown):
    field, data = chain
    with pytest.raises(ValueError, match=f"^site 0: label {re.escape(shown)} is not an integer$"):
        ENTRIES[entry](field, data, np.full(8, value))
    cfg = tlr(field, data).astype(np.float64)
    cfg[5] = value
    with pytest.raises(ValueError, match=f"^site 5: label {re.escape(shown)} is not an integer$"):
        ENTRIES[entry](field, data, cfg)


@pytest.mark.parametrize("entry", ENTRIES)
def test_bool_labels_are_refused(chain, entry):
    field, data = chain
    for cfg in ([True] * 8, np.ones(8, bool), [True] + [0] * 7, [np.True_] + [0.0] * 7):
        with pytest.raises(ValueError, match="^site 0: label True is not an integer$"):
            ENTRIES[entry](field, data, cfg)
    with pytest.raises(ValueError, match="^site 2: label False is not an integer$"):
        ENTRIES[entry](field, data, [0, 0, False, 0, 0, 0, 0, 0])


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("label", [2**64, -2**70, -2**63 - 1])
def test_labels_past_int64_are_refused(chain, entry, label):
    # numpy keeps a Python int past int64 (and past uint64) as an object
    field, data = chain
    shown = re.escape(str(label))
    with pytest.raises(ValueError, match=f"^site 0: label {shown} is not an integer$"):
        ENTRIES[entry](field, data, [label] + [0] * 7)
    cfg = tlr(field, data).astype(object)
    cfg[5] = label
    with pytest.raises(ValueError, match=f"^site 5: label {shown} is not an integer$"):
        ENTRIES[entry](field, data, cfg)


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("label, shown", [(None, "None"), ("a", "'a'"), ("1", "'1'"),
                                          (2**63, "9223372036854775808"), (0.5, "0.5"),
                                          (np.float64(0.5), "0.5")])
def test_labels_numpy_cannot_cast_are_refused_by_value(chain, entry, label, shown):
    # numpy reads None as an object, "a" as a string and 2**63 as a float;
    # each is named as given
    field, data = chain
    for cfg, site in (([label] * 8, 0), ([label] + [0] * 7, 0),
                      ([0] * 5 + [label] + [0] * 2, 5)):
        with pytest.raises(ValueError,
                           match=f"^site {site}: label {re.escape(shown)} is not an integer$"):
            ENTRIES[entry](field, data, cfg)


@pytest.mark.parametrize("entry", ENTRIES)
def test_integer_labels_of_any_dtype_read_as_before(chain, entry):
    field, data = chain
    start = tlr(field, data)
    want = repr(ENTRIES[entry](field, data, start))
    for cfg in (start.astype(np.float64), start.astype(np.int8), start.tolist()):
        assert repr(ENTRIES[entry](field, data, cfg)) == want


PAIR = np.ones((2, 2))


@pytest.mark.parametrize("members", [np.array([0, 1]), np.array(0), np.zeros((1, 1, 2), int),
                                     [[0, 1.5]], [[0, np.nan]], [[0.0, 1.0]], [[True, False]],
                                     [[0, True]], [np.array([0, 1]), [1, np.False_]]])
def test_array_constructor_refuses_member_blocks_that_are_not_2d_integers(members):
    with pytest.raises(ValueError, match="clique members must be a 2-D array of integers"):
        Field.from_arrays(2, 2, [0, 1, 2], [1, 0], [(members, PAIR)])


@pytest.mark.parametrize("indptr, indices, what", [
    ([0, 1.5, 2], [1, 0], "adjacency offsets"),
    ([0.0, 1.0, 2.0], [1, 0], "adjacency offsets"),
    ([[0, 1, 2]], [1, 0], "adjacency offsets"),
    (np.array([0, 1, np.inf]), [1, 0], "adjacency offsets"),
    ([0, 1, 2], [1.25, 0], "adjacency"),
    ([0, 1, 2], [[1, 0]], "adjacency"),
    ([0, 1, 2], [1, np.nan], "adjacency"),
    ([0, True, 2], [1, 0], "adjacency offsets"),
    ([0, 1, 2], [True, 0], "adjacency"),
])
def test_array_constructor_refuses_csr_arrays_that_are_not_1d_integers(indptr, indices, what):
    with pytest.raises(ValueError, match=f"^{what} must be a 1-D array of integers$"):
        Field.from_arrays(2, 2, indptr, indices, [([[0, 1]], PAIR)])


def test_array_constructor_takes_integers_of_any_width_and_empty_blocks_of_any_dtype():
    want = Field.from_arrays(2, 2, [0, 1, 2], [1, 0], [([[0, 1]], PAIR)])
    got = Field.from_arrays(2, 2, np.array([0, 1, 2], dtype=np.uint16),
                            np.array([1, 0], dtype=np.int8),
                            [(np.array([[0, 1]], dtype=np.int32), PAIR), (np.zeros((0, 3)), PAIR)])
    for name in ("indptr", "indices", "members", "arity", "table_ids"):
        a, b = getattr(want, name), getattr(got, name)
        assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b), name


@pytest.mark.parametrize("make, message", [
    (lambda: AnnealSchedule(sweeps=2.5), "sweeps must be an integer"),
    (lambda: AnnealSchedule(sweeps=2.0), "sweeps must be an integer"),
    (lambda: AnnealSchedule(sweeps=-1), "sweeps must be non-negative"),
    (lambda: MpmParams(samples=1.5), "samples must be an integer"),
    (lambda: MpmParams(samples=0), "samples must be positive"),
    (lambda: MpmParams(burn_in=0.5), "burn_in must be an integer"),
    (lambda: MpmParams(burn_in=-1), "burn_in must be non-negative"),
    pytest.param(lambda: AnnealSchedule(sweeps=True), "sweeps must be an integer",
                 id="sweeps-bool"),
    pytest.param(lambda: MpmParams(samples=True), "samples must be an integer", id="samples-bool"),
    pytest.param(lambda: MpmParams(burn_in=False), "burn_in must be an integer",
                 id="burn_in-bool"),
    pytest.param(lambda: AnnealSchedule(t0="2"), "t0 must be a positive real", id="t0-str"),
    pytest.param(lambda: AnnealSchedule(t0=True), "t0 must be a positive real", id="t0-bool"),
    pytest.param(lambda: AnnealSchedule(t0=np.True_), "t0 must be a positive real",
                 id="t0-numpy-bool"),
    pytest.param(lambda: AnnealSchedule(alpha="0.5"), r"alpha must be in \(0, 1\)",
                 id="alpha-str"),
])
def test_sampling_budgets_must_be_integer_counts(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_numpy_integer_budgets_run(chain):
    field, data = chain
    start = tlr(field, data)
    want = anneal_run(field, data, start, AnnealSchedule(sweeps=3), seed=1)
    got = anneal_run(field, data, start, AnnealSchedule(sweeps=np.int64(3)), seed=1)
    assert repr(got) == repr(want)
    want = mpm_run(field, data, start, MpmParams(2, 3))
    assert repr(mpm_run(field, data, start, MpmParams(np.int32(2), np.int64(3)))) == repr(want)


# every run that takes an iteration cap, on (field, data, cap)
CAPS = {
    "max_iterations": lambda field, data, cap: local_hcf_run(field, data, max_iterations=cap),
    "max_steps": lambda field, data, cap: hcf_run(field, data, max_steps=cap),
    "max_sweeps": lambda field, data, cap: icm_run(field, data, tlr(field, data),
                                                   max_sweeps=cap),
}


@pytest.mark.parametrize("name", CAPS)
@pytest.mark.parametrize("cap, message", [(1.5, "an integer"), (2.0, "an integer"),
                                          ("3", "an integer"), (True, "an integer"),
                                          (-1, "non-negative")])
def test_iteration_caps_must_be_non_negative_integers(chain, name, cap, message):
    field, data = chain
    with pytest.raises(ValueError, match=f"^{name} must be {message}$"):
        CAPS[name](field, data, cap)


@pytest.mark.parametrize("name", CAPS)
def test_numpy_integer_caps_run_and_a_zero_cap_lets_nothing_run(chain, name):
    field, data = chain
    assert repr(CAPS[name](field, data, np.int64(1000))) == repr(CAPS[name](field, data, None))
    with pytest.raises(RuntimeError, match=r"cap \(0\)"):
        CAPS[name](field, data, 0)


# every stochastic entry, on (field, data, seed)
SEEDS = {
    "icm_run": lambda field, data, seed: icm_run(field, data, tlr(field, data), "random", seed),
    "anneal_run": lambda field, data, seed: anneal_run(field, data, tlr(field, data),
                                                       AnnealSchedule(sweeps=2), seed),
    "MpmParams": lambda field, data, seed: mpm_run(field, data, tlr(field, data),
                                                   MpmParams(1, 2, seed)),
    "assign_ranks": lambda field, data, seed: assign_ranks(field, "seeded-permutation", seed),
}


@pytest.mark.parametrize("entry", SEEDS)
@pytest.mark.parametrize("seed, message", [(1.5, "an integer"), (1.0, "an integer"),
                                           ("1", "an integer"), (True, "an integer"),
                                           (-1, "non-negative")])
def test_seeds_must_be_non_negative_integers(chain, entry, seed, message):
    field, data = chain
    with pytest.raises(ValueError, match=f"^seed must be {message}$"):
        SEEDS[entry](field, data, seed)
    assert repr(SEEDS[entry](field, data, np.uint8(4))) == repr(SEEDS[entry](field, data, 4))


# every entry that takes a thread count, on (field, data, threads)
THREADS = {
    "local_hcf_run": lambda field, data, threads: local_hcf_run(field, data, threads=threads),
}


@pytest.mark.parametrize("entry", THREADS)
@pytest.mark.parametrize("threads, message", [("x", "an integer"), (True, "an integer"),
                                              (-3, "positive"), (0, "positive")])
def test_thread_counts_must_be_positive_integers(chain, entry, threads, message):
    field, data = chain
    with pytest.raises(ValueError, match=f"^threads must be {message}$"):
        THREADS[entry](field, data, threads)
    assert repr(THREADS[entry](field, data, np.int64(2))) == repr(THREADS[entry](field, data, 1))


def test_local_hcf_step_takes_no_thread_count(chain):
    field, data = chain
    with pytest.raises(TypeError, match="threads"):
        local_hcf_step(field, data, [UNCOMMITTED] * field.num_sites, None, threads=1)


def test_a_bad_cap_exits_as_a_runtime_parameter_error(capsys):
    assert main(["label", "--chain-fixture", "--max-iterations", "-1"]) == 4
    assert capsys.readouterr().err == "error: max_iterations must be non-negative\n"


def test_local_minimum_check_refuses_a_nan_tolerance(chain):
    field, data = chain
    alternating = [0, 1, 0, 1, 0, 1, 0, 1]
    assert not is_local_minimum(field, data, alternating)
    with pytest.raises(ValueError, match="tolerance must not be NaN"):
        is_local_minimum(field, data, alternating, tolerance=float("nan"))


def test_local_minimum_check_refuses_a_negative_tolerance(chain):
    # below 0 the current label would count as a lowering flip of itself,
    # so every configuration would read as no local minimum
    field, data = chain
    config, _trace = local_hcf_run(field, data)
    assert is_local_minimum(field, data, config, tolerance=0.0)
    for tolerance in (-1e-9, -1, np.float64(-0.5), -np.inf):
        with pytest.raises(ValueError, match="^tolerance must not be negative$"):
            is_local_minimum(field, data, config, tolerance=tolerance)


@pytest.mark.parametrize("tolerance", ["x", None, True, np.True_, 1j])
def test_local_minimum_check_refuses_a_tolerance_that_is_not_a_real_number(chain, tolerance):
    field, data = chain
    with pytest.raises(ValueError, match="^tolerance must be a real number$"):
        is_local_minimum(field, data, [0, 1, 0, 1, 0, 1, 0, 1], tolerance=tolerance)
    # the alternating labeling's best flip gains 5.5, so a tolerance of 6 forgives it
    for real in (6, 6.0, np.float32(6.0), np.int64(6)):
        assert is_local_minimum(field, data, [0, 1, 0, 1, 0, 1, 0, 1], tolerance=real)


@pytest.mark.parametrize("read, message", [
    (lambda field, data: stability(field, data, [0] * 8, 0.5), "site 0.5"),
    (lambda field, data: best_label(field, data, [0] * 8, 1.0), "site 1.0"),
    (lambda field, data: stability(field, data, [0] * 8, np.float64(2.0)), "site 2.0"),
    (lambda field, data: stability(field, data, [0] * 8, None), "site None"),
    (lambda field, data: stability(field, data, [0] * 8, "0"), "site '0'"),
    (lambda field, data: local_energy(field, data, [0] * 8, 0.5, 0), "site 0.5"),
    (lambda field, data: local_energy(field, data, [0] * 8, 0, 0.5), "label 0.5"),
    (lambda field, data: local_energy(field, data, [0] * 8, 0, np.float32(1.0)), "label 1.0"),
    pytest.param(lambda field, data: stability(field, data, [0] * 8, True), "site True",
                 id="stability-bool-site"),
    pytest.param(lambda field, data: best_label(field, data, [0] * 8, False), "site False",
                 id="best_label-bool-site"),
    pytest.param(lambda field, data: local_energy(field, data, [0] * 8, True, 0), "site True",
                 id="local_energy-bool-site"),
    pytest.param(lambda field, data: local_energy(field, data, [0] * 8, 0, True), "label True",
                 id="local_energy-bool-label"),
])
def test_one_site_readers_refuse_a_site_or_label_that_is_not_an_integer(chain, read, message):
    field, data = chain
    with pytest.raises(ValueError, match=f"^{re.escape(message)} is not an integer$"):
        read(field, data)


def test_one_site_readers_take_python_and_numpy_integers(chain):
    field, data = chain
    cfg = tlr(field, data)
    for site in (np.int8(3), np.int64(3), np.uint16(3), np.array(3)):
        assert stability(field, data, cfg, site) == stability(field, data, cfg, 3)
        assert best_label(field, data, cfg, site) == best_label(field, data, cfg, 3)
        for label in (1, np.int32(1), np.uint8(1)):
            assert local_energy(field, data, cfg, site, label) == local_energy(field, data, cfg,
                                                                               3, 1)
    with pytest.raises(ValueError, match="^site 8 out of range$"):
        stability(field, data, cfg, np.int64(8))
    with pytest.raises(ValueError, match="^label 2 is not a committed label$"):
        local_energy(field, data, cfg, 0, np.int64(2))


def test_list_constructor_refuses_site_ids_that_are_not_integers():
    with pytest.raises(ValueError, match="^adjacency must be a 1-D array of integers$"):
        Field(2, 2, [(1.5,), (0,)], [Clique((0, 1), PAIR)])
    with pytest.raises(ValueError, match="^adjacency must be a 1-D array of integers$"):
        Field(2, 2, [(True,), (0,)], [Clique((0, 1), PAIR)])
    with pytest.raises(ValueError, match="^clique members must be integers$"):
        Clique((0, 1.7), PAIR)
    with pytest.raises(ValueError, match="^clique members must be integers$"):
        Clique((0, np.float64(1.0)), PAIR)
    with pytest.raises(ValueError, match="^clique members must be integers$"):
        Clique(np.array([[0, 1]]), PAIR)
    with pytest.raises(ValueError, match="^clique members must be integers$"):
        Clique((True, False), PAIR)
    with pytest.raises(ValueError, match="^clique members must be integers$"):
        Clique(np.array([True, False]), PAIR)


def test_list_constructor_takes_site_ids_of_any_integer_type():
    want = Field(2, 2, [(1,), (0,)], [Clique((0, 1), PAIR)])
    got = Field(2, 2, [(np.int8(1),), np.array([0], dtype=np.uint16)],
                [Clique(np.array([0, 1], dtype=np.int32), PAIR)])
    assert validate_field(got) == []
    for name in ("indptr", "indices", "members", "arity", "table_ids"):
        a, b = getattr(want, name), getattr(got, name)
        assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b), name


def test_clique_members_are_python_ints():
    for members in ((0, 1), (np.int8(0), np.uint64(1)), np.array([0, 1], dtype=np.int32)):
        clique = Clique(members, PAIR)
        assert clique.members == (0, 1)
        assert all(type(m) is int for m in clique.members)
        assert repr(clique) == "Clique(members=(0, 1))"
    field = Field(2, 2, [(1,), (0,)], [Clique(np.array([0, 1], dtype=np.int32), PAIR)])
    assert [type(m) for m in field.cliques[0].members] == [int, int]
    assert repr(field.cliques[0]) == "Clique(members=(0, 1))"


@pytest.mark.parametrize("make, message", [
    (lambda: build_edge_field(3.7, 3), "width 3.7"),
    (lambda: build_edge_field("3", 3), "width '3'"),
    (lambda: build_edge_field(3, np.float64(3.0)), "height 3.0"),
    (lambda: EdgeLattice(2.5, 3), "width 2.5"),
    (lambda: EdgeLattice(True, 3), "width True"),
    (lambda: Field(3.7, 2, [(), (), ()], []), "num_sites 3.7"),
    (lambda: Field(2, 2.9, [(1,), (0,)], [Clique((0, 1), PAIR)]), "num_labels 2.9"),
    (lambda: Field.from_arrays(2.0, 2, [0, 1, 2], [1, 0], [([[0, 1]], PAIR)]), "num_sites 2.0"),
    (lambda: new_configuration(2.5), "num_sites 2.5"),
])
def test_sizes_must_be_integers(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)} is not an integer$"):
        make()


def test_sizes_of_any_integer_type_build_the_same_field():
    assert validate_field(Field(-1, 2, [], [])) == ["num_sites must be at least 1",
                                                    "adjacency has 0 entries for -1 sites"]
    want = build_edge_field(4, 3)
    got = build_edge_field(np.int64(4), np.uint8(3))
    assert (got.num_sites, got.num_labels) == (want.num_sites, want.num_labels)
    assert all(type(n) is int for n in (got.num_sites, got.num_labels))
    assert new_configuration(np.int32(3)).tolist() == [UNCOMMITTED] * 3


# every entry that takes ranks, on (field, data, ranks)
RANKED = {
    "local_hcf_run": lambda field, data, ranks: local_hcf_run(field, data, ranks=ranks),
    "local_hcf_step": lambda field, data, ranks: local_hcf_step(
        field, data, [UNCOMMITTED] * field.num_sites, ranks),
    "hcf_run": lambda field, data, ranks: hcf_run(field, data, ranks=ranks),
}
PAIR_FIELD = (Field(2, 2, [(1,), (0,)], [Clique((0, 1), PAIR)]), DataTerm(np.zeros((2, 2))))


@pytest.mark.parametrize("entry", RANKED)
def test_ranks_must_be_integers(chain, entry):
    for (field, data), ranks in ((chain, np.arange(8.0)), (chain, [True, 0, 2, 3, 4, 5, 6, 7]),
                                 (PAIR_FIELD, np.array([False, True])),
                                 (PAIR_FIELD, [0.0, 1.0])):
        with pytest.raises(ValueError, match="^ranks must be a permutation of the site indices$"):
            RANKED[entry](field, data, ranks)
    field, data = chain
    for ranks in (np.arange(8, dtype=np.uint8), list(range(8))):
        assert repr(RANKED[entry](field, data, ranks)) == repr(RANKED[entry](field, data, None))


OVERFLOW = "^energies could overflow: the largest clique and data terms sum in magnitude "


def overflowing_problems():
    # a 4x4 edge lattice whose 24 LLRs of 1e307 sum past the float range;
    # a clique table and a data row each within it, whose bounds together
    # pass half the largest float; and data rows whose bound is exactly at it
    lattice = build_edge_field(4, 4)
    half = np.finfo(np.float64).max / 2
    pair = Field(2, 2, [(1,), (0,)], [Clique((0, 1), np.array([[0.0, half], [0.0, 0.0]]))])
    return [(lattice, DataTerm(np.tile([0.0, 1e307], (lattice.num_sites, 1)))),
            (pair, DataTerm([[0.0, 0.0], [-half / 2 ** 40, 0.0]]))]


@pytest.mark.parametrize("index", [0, 1])
@pytest.mark.parametrize("entry", ["energy", "hcf_run", "local_hcf_run", "icm_run"])
def test_problems_whose_energies_can_overflow_are_refused(entry, index):
    field, data = overflowing_problems()[index]
    start = np.zeros(field.num_sites, dtype=np.int64)
    call = {"energy": lambda: energy(field, data, start),
            "hcf_run": lambda: hcf_run(field, data),
            "local_hcf_run": lambda: local_hcf_run(field, data),
            "icm_run": lambda: icm_run(field, data, start)}[entry]
    with pytest.raises(ValueError, match=OVERFLOW):
        call()


def test_a_problem_at_the_overflow_bound_runs():
    # clique and data bounds summing to exactly half the largest float
    half = np.finfo(np.float64).max / 2
    field = Field(2, 2, [(1,), (0,)], [Clique((0, 1), np.array([[0.0, half / 2], [0.0, 0.0]]))])
    data = DataTerm([[0.0, -half / 4], [half / 4, 0.0]])
    assert field.compiled.bound + data.bound == half
    config, _trace = hcf_run(field, data)
    assert energy(field, data, config) == -half / 4
