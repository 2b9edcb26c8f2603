"""The wavefront sweeps of ICM, annealing and MPM against the scalar references.

Every case must match the one-site-at-a-time reference of tests/support.py
bit for bit: configurations, MPM marginals and the repr of every trace row.
"""

import math
import warnings

import numpy as np
import pytest

from mrfhcf import (AnnealSchedule, Clique, DataTerm, Field, MpmParams, anneal_run, icm_run,
                    make_chain_fixture, mpm_marginals, mpm_run, tlr)
from mrfhcf.baselines import _gibbs_labels, _Wave
from mrfhcf.cli import main
from support import (chain8_field, noisy_board, random_field, reference_anneal_run,
                     reference_gibbs_draw, reference_icm_run, reference_mpm_marginals,
                     triple_clique_field)


CASES = {
    **{f"random{seed}-{labels}": (lambda seed=seed, labels=labels:
                                  random_field(seed, labels=labels))
       for seed in range(60) for labels in (2, 3)},
    **{f"triple{seed}-{labels}": (lambda seed=seed, labels=labels:
                                  triple_clique_field(seed, labels))
       for seed in range(3) for labels in (2, 3)},
    "chain8": chain8_field,
    "board12": lambda: noisy_board(12),
    "board16": lambda: noisy_board(16),
}


def same_run(got, want):
    (got_cfg, got_trace), (want_cfg, want_trace) = got, want
    assert got_cfg.dtype == np.int64
    assert got_cfg.tolist() == want_cfg.tolist()
    assert list(map(repr, got_trace.rows)) == list(map(repr, want_trace.rows))


@pytest.mark.parametrize("name", list(CASES))
def test_icm_matches_the_scalar_reference(name):
    field, data = CASES[name]()
    init = tlr(field, data)
    same_run(icm_run(field, data, init), reference_icm_run(field, data, init))
    for seed in (0, 1):
        same_run(icm_run(field, data, init, order="random", seed=seed),
                 reference_icm_run(field, data, init, order="random", seed=seed))


@pytest.mark.parametrize("name", list(CASES))
def test_annealing_matches_the_scalar_reference(name):
    field, data = CASES[name]()
    init = tlr(field, data)
    for schedule in (AnnealSchedule(), AnnealSchedule(1e-9, 0.5, 30)):
        same_run(anneal_run(field, data, init, schedule, 3),
                 reference_anneal_run(field, data, init, schedule, 3))


@pytest.mark.parametrize("name", list(CASES))
def test_mpm_matches_the_scalar_reference(name):
    field, data = CASES[name]()
    init = tlr(field, data)
    params = MpmParams(10, 40, seed=5)
    want_marginals, want_trace = reference_mpm_marginals(field, data, init, params)
    got_marginals = mpm_marginals(field, data, init, params)
    assert got_marginals.tobytes() == want_marginals.tobytes()
    got_cfg, got_trace = mpm_run(field, data, init, params)
    assert got_cfg.tolist() == np.argmax(want_marginals, axis=1).tolist()
    assert list(map(repr, got_trace.rows)) == list(map(repr, want_trace.rows))


def test_cold_annealing_with_huge_energies_warns_nothing():
    # at the clamped temperature 1e-300 the weights' exponents overflow to
    # -inf, which Python floats do silently
    field, data = make_chain_fixture()
    big = Field(field.num_sites, field.num_labels, field.adjacency,
                [Clique(c.members, c.table * 1e20) for c in field.cliques])
    big_data = DataTerm(data.values * 1e20)
    init = tlr(big, big_data)
    schedule = AnnealSchedule(1e-300, 0.01, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = anneal_run(big, big_data, init, schedule, 1)
    same_run(got, reference_anneal_run(big, big_data, init, schedule, 1))


def level_of(wave, n):
    level = np.empty(n, dtype=np.int64)
    for i, (a, b) in enumerate(zip(wave.bounds, wave.bounds[1:])):
        level[wave.sites[a:b]] = i
    return level


@pytest.mark.parametrize("name", ["chain8", "triple1-3", "random5-2", "random17-3", "board16"])
def test_levels_respect_the_visit_order(name):
    field, data = CASES[name]()
    n = field.num_sites
    orders = [list(range(n))] + [np.random.default_rng(s).permutation(n).tolist()
                                 for s in range(5)]
    for order in orders:
        wave = _Wave(field, data, order)
        assert sorted(wave.sites.tolist()) == list(range(n))
        assert wave.sites[wave.visit].tolist() == order
        level = level_of(wave, n)
        when = np.empty(n, dtype=np.int64)
        when[order] = np.arange(n)
        for s in range(n):
            for r in field.adjacency[s]:
                assert level[r] != level[s]
                if when[r] < when[s]:
                    assert level[r] < level[s]


def test_scan_depth_is_the_longest_dependency_chain():
    field, data = chain8_field()
    assert len(_Wave(field, data, range(8)).bounds) - 1 == 8
    field, data = noisy_board(16)
    assert len(_Wave(field, data, range(field.num_sites)).bounds) - 1 == 32


class FixedUniform:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_draw_matches_the_scalar_draw():
    rng = np.random.default_rng(11)
    top = 1.0 - 2.0 ** -53
    last_branch = 0
    for num_labels in (2, 3, 4):
        for temperature in (5.0, 1.0, 0.05, 1e-300):
            rows = rng.uniform(-3.0, 3.0, (400, num_labels))
            rows[::7, 1] = rows[::7, 0]  # equal energies
            uniforms = rng.random(400)
            uniforms[::3] = top
            got = _gibbs_labels(rows, uniforms, temperature)
            want = [reference_gibbs_draw(row, temperature, FixedUniform(u))
                    for row, u in zip(rows.tolist(), uniforms.tolist())]
            assert got.tolist() == want
            for row, u in zip(rows.tolist(), uniforms.tolist()):
                weights = [math.exp(-(v - min(row)) / max(temperature, 1e-300)) for v in row]
                acc = 0.0
                for w in weights:
                    acc += w
                last_branch += u * math.fsum(weights) >= acc
    # the fall-through to the last label must be exercised
    assert last_branch > 0


def test_one_vector_draw_equals_scalar_draws():
    for seed in range(5):
        vector = np.random.default_rng(seed).random(1000)
        rng = np.random.default_rng(seed)
        scalar = [rng.random() for _ in range(1000)]
        assert vector.tolist() == scalar


COMPARE_16X16_GOLDEN = """\
method,energy_mean,energy_best,runs,iterations_mean
tlr,-254.68000000000018,-254.68000000000018,1,0.0
annealing,-260.32,-260.32,2,95.0
mpm,-259.38,-259.48,2,120.0
icm-scan,-260.32,-260.32,1,2.0
icm-random,-260.32,-260.32,2,2.0
hcf,-260.32,-260.32,1,480.0
local-hcf,-260.32,-260.32,1,15.0
"""


def test_compare_csv_golden_on_a_noisy_board(tmp_path, capsys):
    board = tmp_path / "board.pgm"
    assert main(["generate", "--checker", "16x16", "--noise-sigma", "40", "--seed", "21",
                 "-o", str(board)]) == 0
    capsys.readouterr()
    table = tmp_path / "table.csv"
    assert main(["compare", "--in", str(board), "--sigma", "40", "--seeds", "1,2",
                 "-o", str(table)]) == 0
    assert table.read_text() == COMPARE_16X16_GOLDEN
    assert capsys.readouterr().out.splitlines()[:-1] == [
        "tlr: mean -254.68000000000018, best -254.68000000000018, runs 1",
        "annealing: mean -260.32, best -260.32, runs 2",
        "mpm: mean -259.38, best -259.48, runs 2",
        "icm-scan: mean -260.32, best -260.32, runs 1",
        "icm-random: mean -260.32, best -260.32, runs 2",
        "hcf: mean -260.32, best -260.32, runs 1",
        "local-hcf: mean -260.32, best -260.32, runs 1",
    ]
