import numpy as np
import pytest

from mrfhcf import (AnnealSchedule, Clique, DataTerm, Field, MpmParams,
                    UNCOMMITTED, anneal_run, brute_force_map, energy,
                    icm_run, is_local_minimum, local_energies, mpm_marginals,
                    mpm_run, tlr)
from support import exact_marginals, random_field, sparse_field


def test_tlr_chain_golden(chain):
    field, data = chain
    assert tlr(field, data).tolist() == [1, 0, 0, 0, 0, 1, 0, 0]


def test_tlr_rejects_a_data_term_with_the_wrong_label_count(chain):
    field, _data = chain
    with pytest.raises(ValueError, match="does not match field"):
        tlr(field, DataTerm(np.zeros((8, 3))))


def test_tlr_breaks_ties_toward_zero():
    field = Field(2, 3, [(), ()], [])
    data = DataTerm([[0.5, 0.5, 0.9], [2.0, 1.0, 1.0]])
    assert tlr(field, data).tolist() == [0, 1]


def test_tlr_is_exact_without_cliques():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        labels = int(rng.integers(2, 4))
        field = Field(n, labels, [() for _ in range(n)], [])
        data = DataTerm(rng.uniform(-2.0, 2.0, size=(n, labels)))
        assert (tlr(field, data) == brute_force_map(field, data).config).all()


def test_icm_fixpoint_from_an_optimum(chain):
    field, data = chain
    best = brute_force_map(field, data).config
    config, trace = icm_run(field, data, best)
    assert (config == best).all()
    assert trace.iterations == 0
    assert trace.rows[-1].changed == 0


def test_icm_energy_never_increases():
    for seed in range(8):
        field, data = random_field(seed)
        init = tlr(field, data)
        for order, kw in (("scan", {}), ("random", {"seed": 5})):
            config, trace = icm_run(field, data, init, order=order, **kw)
            energies = [r.energy for r in trace.rows]
            assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
            assert is_local_minimum(field, data, config)
            assert trace.rows[-1].energy == pytest.approx(
                energy(field, data, config), abs=1e-9)


def test_icm_ends_at_an_argmin_fixpoint_at_every_site():
    # ties included: every site holds the lowest label of least local energy
    for seed in range(40):
        labels = 2 + seed % 3
        field, data = random_field(seed, labels=labels) if seed % 2 else sparse_field(seed, labels)
        n = field.num_sites
        for init in (tlr(field, data), np.random.default_rng(seed).integers(field.num_labels, size=n)):
            for order, kw in (("scan", {}), ("random", {"seed": seed})):
                config, _trace = icm_run(field, data, init, order=order, **kw)
                rows = local_energies(field, data, config)
                assert rows.argmin(axis=1).tolist() == config.tolist()


def test_icm_validates_arguments(chain):
    field, data = chain
    init = tlr(field, data)
    with pytest.raises(ValueError):
        icm_run(field, data, np.full(8, UNCOMMITTED))
    with pytest.raises(ValueError):
        icm_run(field, data, init, order="sorted")
    with pytest.raises(ValueError):
        icm_run(field, data, init, order="random")


def test_estimators_reject_a_bad_start(chain):
    field, data = chain
    runs = (lambda init: icm_run(field, data, init),
            lambda init: anneal_run(field, data, init, AnnealSchedule(sweeps=1), seed=0),
            lambda init: mpm_run(field, data, init, MpmParams(0, 1)))
    starts = ((np.full(8, 2), "label 2 out of range"),
              (np.zeros(7, dtype=np.int64), "does not fit 8 sites"),
              (np.array([0, 0, 0, UNCOMMITTED, 0, 0, 0, 0]), "fully committed"))
    for run in runs:
        for init, message in starts:
            with pytest.raises(ValueError, match=message):
                run(init)


def test_anneal_zero_sweeps_returns_the_init(chain):
    field, data = chain
    init = tlr(field, data)
    config, trace = anneal_run(field, data, init, AnnealSchedule(sweeps=0), seed=1)
    assert (config == init).all()
    assert len(trace.rows) == 1
    assert trace.rows[0].energy == energy(field, data, init)


def test_anneal_is_deterministic_per_seed(chain):
    field, data = chain
    init = tlr(field, data)
    schedule = AnnealSchedule(2.0, 0.9, 40)
    a, ta = anneal_run(field, data, init, schedule, seed=7)
    b, tb = anneal_run(field, data, init, schedule, seed=7)
    assert (a == b).all()
    assert ta.rows == tb.rows


def test_anneal_reaches_the_chain_optimum(chain):
    field, data = chain
    init = tlr(field, data)
    schedule = AnnealSchedule(2.0, 0.95, 500)
    best = min(energy(field, data, anneal_run(field, data, init, schedule, seed=s)[0])
               for s in range(10))
    assert best == pytest.approx(-6.0, abs=1e-9)


def test_anneal_at_frozen_temperature_matches_an_icm_sweep():
    # with T ~ 0 every Gibbs draw is the conditional argmin, so one sweep
    # must reproduce a manual scan-order greedy pass
    field, data = random_field(31)
    init = tlr(field, data)
    schedule = AnnealSchedule(1e-9, 0.5, 1)
    got, _trace = anneal_run(field, data, init, schedule, seed=3)
    want = init.copy()
    for s in range(field.num_sites):
        row = local_energies(field, data, want)[s]
        want[s] = int(np.argmin(row))
    assert (got == want).all()


def test_anneal_returns_the_best_visited_energy():
    field, data = random_field(12)
    init = tlr(field, data)
    config, trace = anneal_run(field, data, init, AnnealSchedule(2.0, 0.9, 30), seed=2)
    energies = [r.energy for r in trace.rows]
    assert energy(field, data, config) == pytest.approx(min(energies), abs=1e-9)


def test_anneal_schedule_validation():
    with pytest.raises(ValueError):
        AnnealSchedule(t0=0.0)
    with pytest.raises(ValueError):
        AnnealSchedule(alpha=1.0)
    with pytest.raises(ValueError):
        AnnealSchedule(alpha=0.0)
    with pytest.raises(ValueError):
        AnnealSchedule(sweeps=-1)
    assert AnnealSchedule(sweeps=0).sweeps == 0


def test_mpm_params_validation():
    with pytest.raises(ValueError):
        MpmParams(burn_in=-1)
    with pytest.raises(ValueError):
        MpmParams(samples=0)
    assert MpmParams(burn_in=0, samples=1).samples == 1


def test_mpm_single_site_prefers_the_likely_label():
    field = Field(1, 2, [()], [])
    data = DataTerm([[0.0, 10.0]])
    config, _trace = mpm_run(field, data, tlr(field, data), MpmParams(10, 200, seed=0))
    assert config.tolist() == [0]


def test_mpm_is_deterministic_per_seed(chain):
    field, data = chain
    init = tlr(field, data)
    params = MpmParams(10, 50, seed=4)
    a, ta = mpm_run(field, data, init, params)
    b, tb = mpm_run(field, data, init, params)
    assert (a == b).all()
    assert ta.rows == tb.rows


def test_mpm_marginals_match_exhaustive_enumeration():
    # tiny two-site chain so the Boltzmann distribution is exactly computable
    rng = np.random.default_rng(5)
    field = Field(2, 2, [(1,), (0,)],
                  [Clique((0, 1), rng.uniform(-1.0, 1.0, size=(2, 2)))])
    data = DataTerm(rng.uniform(-1.0, 1.0, size=(2, 2)))
    want = exact_marginals(field, data)
    got = mpm_marginals(field, data, tlr(field, data),
                        MpmParams(burn_in=200, samples=8000, seed=0))
    assert got.shape == want.shape
    for s in range(2):
        tv = 0.5 * np.abs(got[s] - want[s]).sum()
        assert tv < 0.05
    assert np.allclose(got.sum(axis=1), 1.0, atol=1e-12)


def test_mpm_argmax_follows_the_marginals():
    field, data = random_field(21)
    init = tlr(field, data)
    params = MpmParams(20, 100, seed=9)
    marg = mpm_marginals(field, data, init, params)
    config, _trace = mpm_run(field, data, init, params)
    assert (config == np.argmax(marg, axis=1)).all()
