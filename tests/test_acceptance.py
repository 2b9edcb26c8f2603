"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
"criterion N: PASS" line (visible with pytest -s) once its assertions
hold; the pytest verdict for the test is the pass/fail line otherwise.
"""

import time

import numpy as np

from mrfhcf import (AnnealSchedule, Clique, DataTerm, EdgeModel,
                    EdgePotentials, Field, MpmParams, UNCOMMITTED,
                    anneal_run, assign_ranks, brute_force_map, build_edge_field,
                    chain_dp_map, compute_llr, energy, hcf_run, icm_run,
                    is_local_minimum, local_hcf_run, local_hcf_step,
                    make_chain_fixture, make_checkerboard, mpm_marginals,
                    mpm_run, new_configuration, stability, tlr)
from mrfhcf.cli import main
from support import exact_marginals, random_chain, random_field

COMPARE_ORDER = ("tlr", "annealing", "mpm", "icm-scan", "icm-random",
                 "hcf", "local-hcf")


def report(number, started):
    print(f"criterion {number}: PASS ({time.perf_counter() - started:.2f}s)")


def random_edge_problem(k):
    """Seeded 16x16 edge field with randomized potentials and noise.

    The potential draw is deliberately wide so that some runs revise
    already-committed sites; with the defaults every run commits each
    site once and the zero-new-commit checks would never fire.
    """
    rng = np.random.default_rng(1000 + k)
    noise = float(rng.choice([8.0, 24.0, 48.0]))
    square = int(rng.integers(2, 7))
    seed = int(rng.integers(1 << 30))
    board = make_checkerboard(16, 16, square, 64, 192, noise, seed)
    potentials = EdgePotentials(
        continuity=-float(rng.uniform(0.5, 4.0)),
        turn=float(rng.uniform(0.1, 2.5)),
        parallel=float(rng.uniform(0.1, 2.5)),
        edge_prior=float(rng.uniform(0.1, 3.0)))
    field = build_edge_field(16, 16, potentials)
    model = EdgeModel(128.0, float(rng.uniform(24.0, 64.0)))
    return field, compute_llr(board, model)


def test_criterion_1_chain_fixture_goldens():
    t0 = time.perf_counter()
    field, data = make_chain_fixture()
    local_cfg, local_trace = local_hcf_run(field, data)
    assert local_cfg.tolist() == [1, 0, 0, 0, 0, 0, 0, 0]
    assert abs(energy(field, data, local_cfg) - (-6.0)) < 1e-9
    assert local_trace.iterations == 3
    serial_cfg, serial_trace = hcf_run(field, data)
    assert serial_cfg.tolist() == [1, 1, 1, 1, 1, 1, 1, 1]
    assert abs(energy(field, data, serial_cfg) - (-5.5)) < 1e-9
    assert len(serial_trace.steps) == 8
    assert time.perf_counter() - t0 < 0.1
    report(1, t0)


def test_criterion_2_chain_oracle_equivalence():
    t0 = time.perf_counter()
    for seed in range(200):
        field, data = random_chain(seed)
        brute = brute_force_map(field, data)
        dp = chain_dp_map(field, data)
        assert dp.config.tolist() == brute.config.tolist()
        assert dp.energy == brute.energy
    assert time.perf_counter() - t0 < 5.0
    report(2, t0)


def test_criterion_3_parallel_run_invariants():
    t0 = time.perf_counter()
    zero_commit_changes = 0
    for k in range(100):
        field, data = random_edge_problem(k)
        ranks = assign_ranks(field)
        cfg = new_configuration(field.num_sites)
        prev_energy = 0.0
        committed = 0
        iterations = 0
        while True:
            new_cfg, result = local_hcf_step(field, data, cfg, ranks)
            iterations += 1
            assert iterations <= 1000
            changed = set(result.changed_sites)
            for s in changed:
                assert not changed.intersection(field.adjacency[s])
            now_committed = int((new_cfg != UNCOMMITTED).sum())
            assert now_committed >= committed
            assert now_committed - committed == result.new_commits
            if result.new_commits == 0 and result.any_change:
                zero_commit_changes += 1
                drop = result.energy_after - prev_energy
                assert drop < 0
                total = sum(stability(field, data, cfg, s)
                            for s in result.changed_sites)
                assert abs(drop - total) < 1e-9
            cfg = new_cfg
            committed = now_committed
            prev_energy = result.energy_after
            if not result.any_change:
                break
        assert (cfg != UNCOMMITTED).all()
        assert is_local_minimum(field, data, cfg)
    assert zero_commit_changes > 0
    assert time.perf_counter() - t0 < 60.0
    report(3, t0)


def test_criterion_4_serial_run_invariants():
    t0 = time.perf_counter()
    for k in range(100):
        field, data = random_edge_problem(k)
        out, trace = hcf_run(field, data)
        n = field.num_sites
        cfg = new_configuration(n)
        stab = [stability(field, data, cfg, s) for s in range(n)]
        prev_energy = 0.0
        for step in trace.steps:
            if stab[step.site] < 0:
                best = min(range(n), key=lambda s: (stab[s], s))
                assert step.site == best
            else:
                waiting = [s for s in range(n) if cfg[s] == UNCOMMITTED]
                best = min(waiting, key=lambda s: (stab[s], s))
                assert step.site == best
            assert abs(step.stability - stab[step.site]) < 1e-12
            if cfg[step.site] != UNCOMMITTED:
                assert step.energy < prev_energy
                assert abs((step.energy - prev_energy) - step.stability) < 1e-9
            cfg[step.site] = step.label
            prev_energy = step.energy
            stab[step.site] = stability(field, data, cfg, step.site)
            for r in field.adjacency[step.site]:
                stab[r] = stability(field, data, cfg, r)
        assert (cfg == out).all()
        assert is_local_minimum(field, data, out)
    report(4, t0)


def test_criterion_5_convergence_speed_on_the_default_board():
    t0 = time.perf_counter()
    board = make_checkerboard(50, 50, 10, 64, 192, 8.0, 1)
    field = build_edge_field(50, 50)
    data = compute_llr(board)
    config, trace = local_hcf_run(field, data)
    n = field.num_sites
    early = max(r.committed for r in trace.rows if r.iteration <= 15)
    assert early >= 0.9 * n
    assert trace.rows[-1].iteration <= 60
    assert (config != UNCOMMITTED).all()
    report(5, t0)


def test_criterion_6_determinism(tmp_path):
    t0 = time.perf_counter()
    field, data = random_edge_problem(0)
    base_cfg, base_trace = local_hcf_run(field, data)
    again_cfg, again_trace = local_hcf_run(field, data)
    assert (again_cfg == base_cfg).all()
    assert again_trace.rows == base_trace.rows
    for threads in (2, 4):
        cfg, trace = local_hcf_run(field, data, threads=threads)
        assert (cfg == base_cfg).all()
        assert trace.rows == base_trace.rows
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    for path in (first, second):
        code = main(["compare", "--chain-fixture", "--seeds", "1,2",
                     "-o", str(path)])
        assert code == 0
    assert first.read_bytes() == second.read_bytes()
    report(6, t0)


def test_criterion_7_small_field_optimality_sanity():
    t0 = time.perf_counter()
    for seed in range(50):
        field, data = random_field(seed)
        optimum = brute_force_map(field, data).energy
        init = tlr(field, data)
        finals = {"tlr": init}
        finals["annealing"], _ = anneal_run(field, data, init,
                                            AnnealSchedule(2.0, 0.9, 50), seed=1)
        finals["mpm"], _ = mpm_run(field, data, init, MpmParams(10, 30, seed=1))
        finals["icm-scan"], _ = icm_run(field, data, init, order="scan")
        finals["icm-random"], _ = icm_run(field, data, init, order="random", seed=2)
        finals["hcf"], _ = hcf_run(field, data)
        finals["local-hcf"], _ = local_hcf_run(field, data)
        for name, config in finals.items():
            assert energy(field, data, config) >= optimum - 1e-9, name
        for name in ("icm-scan", "icm-random", "hcf", "local-hcf"):
            assert is_local_minimum(field, data, finals[name]), name
    report(7, t0)


def test_criterion_8_comparison_table_on_the_default_board(tmp_path):
    t0 = time.perf_counter()
    board = tmp_path / "board.pgm"
    assert main(["generate", "-o", str(board)]) == 0
    table = tmp_path / "table.csv"
    code = main(["compare", "--in", str(board), "--sweeps", "30",
                 "--burn-in", "10", "--samples", "30", "--seeds", "1,2",
                 "-o", str(table)])
    assert code == 0
    lines = table.read_text().splitlines()
    assert lines[0] == "method,energy_mean,energy_best,runs,iterations_mean"
    body = [line.split(",") for line in lines[1:]]
    assert tuple(row[0] for row in body) == COMPARE_ORDER
    means = {row[0]: float(row[1]) for row in body}
    assert means["local-hcf"] <= means["tlr"] + 1e-9
    report(8, t0)


def test_criterion_9_mpm_marginals_match_enumeration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(97)
    n = 8
    adjacency = [tuple(r for r in (s - 1, s + 1) if 0 <= r < n)
                 for s in range(n)]
    cliques = [Clique((s, s + 1), rng.uniform(-1.0, 1.0, size=(2, 2)))
               for s in range(n - 1)]
    field = Field(n, 2, adjacency, cliques)
    data = DataTerm(rng.uniform(-2.0, 2.0, size=(n, 2)))
    want = exact_marginals(field, data)
    got = mpm_marginals(field, data, tlr(field, data),
                        MpmParams(burn_in=200, samples=20000, seed=0))
    for s in range(n):
        tv = 0.5 * float(np.abs(got[s] - want[s]).sum())
        assert tv < 0.05
    report(9, t0)
