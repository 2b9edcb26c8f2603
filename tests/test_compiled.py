"""The compiled-field readers against a plain walk over ``field.cliques``, bit for bit."""

import struct

import numpy as np
import pytest

from mrfhcf import (EDGE, Clique, DataTerm, Field, augmented_energy, best_label,
                    energy, hcf_run, is_local_minimum, llr_data_term, local_energies,
                    local_energy, local_hcf_run, local_hcf_step, new_configuration,
                    stability, tlr)
from mrfhcf.core import _extended
from mrfhcf.local_hcf import _ranks, _sweep
from support import (random_field, reference_augmented_energy, reference_local_rows,
                     reference_row_stats, scalar_reader, triple_clique_field)


def bits(x):
    return struct.pack("<d", x)


def cases():
    for labels in (2, 3):
        for seed in range(12):
            yield random_field(seed, labels=labels)
        for seed in range(3):
            yield triple_clique_field(seed, labels)


def configurations(field, rng):
    n, num_labels = field.num_sites, field.num_labels
    yield new_configuration(n)
    for _ in range(3):
        yield rng.integers(-1, num_labels, n)
    for _ in range(2):
        yield rng.integers(0, num_labels, n)


def test_cases_cover_unary_and_triple_cliques():
    arities = {len(c.members) for field, _data in cases() for c in field.cliques}
    assert arities == {1, 2, 3}


def test_compiled_rows_match_the_clique_walk():
    rng = np.random.default_rng(0)
    for field, data in cases():
        read = scalar_reader(field, data)
        for cfg in configurations(field, rng):
            want = np.array(reference_local_rows(field, data, cfg))
            assert local_energies(field, data, cfg).tobytes() == want.tobytes()
            scalar = [read(cfg.tolist(), s) for s in range(field.num_sites)]
            assert np.array(scalar).tobytes() == want.tobytes()
            s = int(rng.integers(field.num_sites))
            assert bits(local_energy(field, data, cfg, s, 1)) == bits(want[s, 1])


def test_augmented_energy_matches_the_clique_walk():
    rng = np.random.default_rng(1)
    for field, data in cases():
        for cfg in configurations(field, rng):
            want = reference_augmented_energy(field, data, cfg)
            assert bits(augmented_energy(field, data, cfg)) == bits(want)
            if (cfg >= 0).all():
                assert bits(energy(field, data, cfg)) == bits(want)


def test_sweep_stabilities_match_the_scalar_readers():
    rng = np.random.default_rng(2)
    for field, data in cases():
        rank = _ranks(field, None)
        read = scalar_reader(field, data)
        for cfg in configurations(field, rng):
            g, best, _changed = _sweep(field.compiled, data.values, _extended(cfg), rank)
            labels = cfg.tolist()
            for s in range(field.num_sites):
                assert bits(g[s]) == bits(stability(field, data, cfg, s))
                assert best[s] == best_label(field, data, cfg, s)[0]
                want_best, want_val, want_g = reference_row_stats(read(labels, s), labels[s])
                assert bits(g[s]) == bits(want_g)
                assert best_label(field, data, cfg, s) == (want_best, want_val)


# (local energies, own label, stability repr, best label): exact ties at
# 2, 3 and 4 labels, uncommitted ties whose negated zero gap is -0.0, and
# committed sites whose own label is best
HAND_ROWS = [
    ([1.5, 1.5], -1, "-0.0", 0),
    ([1.5, 1.5], 0, "0.0", 0),
    ([1.5, 1.5], 1, "0.0", 0),
    ([2.0, 2.0, 2.0], -1, "-0.0", 0),
    ([3.0, 1.0, 1.0], -1, "-0.0", 1),
    ([3.0, 1.0, 1.0], 2, "0.0", 1),
    ([0.5, 0.25, 0.5, 0.25], -1, "-0.0", 1),
    ([0.5, 0.25, 0.5, 0.25], 3, "0.0", 1),
    ([0.5, 0.25, 0.5, 0.25], 0, "-0.25", 1),
    ([-1.0, 2.0], 0, "3.0", 0),
    ([4.0, -1.0, 0.5], 1, "1.5", 1),
    ([4.0, 0.5, -1.0, 0.5], 2, "1.5", 2),
]


def test_hand_rows_match_the_reference_stabilities():
    for row, own, g_repr, best in HAND_ROWS:
        want_best, _value, want_g = reference_row_stats(row, own)
        assert (repr(want_g), want_best) == (g_repr, best)
        # the same rows as a one-site field's data term, through the readers
        field = Field(1, len(row), [()], [])
        data = DataTerm([row])
        assert repr(stability(field, data, [own], 0)) == g_repr
        assert best_label(field, data, [own], 0) == (best, row[best])
        g, sweep_best, _changed = _sweep(field.compiled, data.values,
                                         _extended(np.array([own])), _ranks(field, None))
        assert (repr(g[0].item()), sweep_best[0]) == (g_repr, best)


def scalar_local_minimum(read, labels, tolerance):
    for s, own in enumerate(labels):
        row = read(labels, s)
        if any(v < row[own] - tolerance for v in row):
            return False
    return True


def test_is_local_minimum_matches_a_scalar_check():
    rng = np.random.default_rng(6)
    outcomes = set()
    for field, data in cases():
        read = scalar_reader(field, data)
        committed = [hcf_run(field, data)[0], local_hcf_run(field, data)[0]]
        committed += [rng.integers(0, field.num_labels, field.num_sites) for _ in range(4)]
        for cfg in committed:
            for tolerance in (0.0, 1e-12, 0.5):
                want = scalar_local_minimum(read, cfg.tolist(), tolerance)
                assert is_local_minimum(field, data, cfg, tolerance) is want
                outcomes.add(want)
    assert outcomes == {True, False}


def test_a_flip_exactly_tolerance_below_does_not_disqualify():
    field = Field(3, 2, [()] * 3, [])
    for tolerance in (0.0, 1e-12, 0.5):
        level = 1.0 - tolerance
        for flip, want in ((level, True), (np.nextafter(level, -np.inf), False)):
            data = DataTerm([[0.0, 1.0], [0.0, 1.0], [1.0, flip]])
            assert is_local_minimum(field, data, [0, 0, 0], tolerance) is want


def test_every_sweep_energy_matches_the_clique_walk():
    for field, data in cases():
        ranks = np.arange(field.num_sites)
        cfg = new_configuration(field.num_sites)
        energies = []
        while True:
            cfg, step = local_hcf_step(field, data, cfg, ranks)
            assert bits(step.energy_after) == bits(reference_augmented_energy(field, data, cfg))
            energies.append(step.energy_after)
            if not step.any_change:
                break
        _config, trace = local_hcf_run(field, data)
        assert [bits(r.energy) for r in trace.rows[1:len(energies) + 1]] == \
            [bits(e) for e in energies]


def test_triple_clique_runs_end_at_committed_local_minima():
    for labels in (2, 3):
        for seed in range(3):
            field, data = triple_clique_field(seed, labels)
            for run in (local_hcf_run, hcf_run):
                cfg, _trace = run(field, data)
                assert (cfg >= 0).all()
                assert is_local_minimum(field, data, cfg)


def test_compiled_arrays_are_built_lazily_once_and_frozen():
    field, data = random_field(4)
    assert field._compiled is None
    energy(field, data, np.zeros(field.num_sites, dtype=np.int64))
    comp = field.compiled
    assert comp is not None
    local_hcf_run(field, data)
    assert field.compiled is comp
    for name in ("tables", "offsets", "others", "strides", "neighbors", "members",
                 "clique_tids", "sites"):
        assert not getattr(comp, name).flags.writeable, name


def test_readers_reject_an_invalid_field():
    field = Field(2, 2, [(1,), ()], [])
    data = DataTerm(np.zeros((2, 2)))
    for read in (lambda: energy(field, data, [0, 0]),
                 lambda: augmented_energy(field, data, [0, -1]),
                 lambda: local_energies(field, data, [0, 0])):
        with pytest.raises(ValueError, match="invalid field: .*asymmetric"):
            read()


def test_negative_zero_data_terms_keep_a_positive_zero_energy():
    # D(e) = -LLR makes the edge costs -0.0; a sum that starts from -0.0
    # instead of the leading +0.0 would print '-0.0' into trace.csv
    data = llr_data_term(np.zeros(2))
    assert bits(data.values[0, EDGE]) == bits(-0.0)
    field = Field(2, 2, [(), ()], [])
    edges = [EDGE, EDGE]
    assert repr(augmented_energy(field, data, edges)) == "0.0"
    assert repr(energy(field, data, edges)) == "0.0"
    assert not np.signbit(local_energies(field, data, edges)).any()
    _cfg, trace = local_hcf_run(field, data)
    assert [repr(r.energy) for r in trace.rows] == ["0.0"] * len(trace.rows)


def test_local_hcf_on_a_field_without_cliques_is_tlr():
    data = DataTerm(np.random.default_rng(5).uniform(-2.0, 2.0, (6, 3)))
    field = Field(6, 3, [()] * 6, [])
    cfg, trace = local_hcf_run(field, data)
    assert cfg.tolist() == tlr(field, data).tolist()
    assert trace.rows[-1].committed == 6
    assert bits(trace.final_energy) == bits(energy(field, data, cfg))
    new_cfg, step = local_hcf_step(field, data, new_configuration(6), np.arange(6))
    assert step.changed_sites == tuple(range(6)) and new_cfg.tolist() == cfg.tolist()


def test_local_hcf_on_a_single_site_with_a_unary_clique():
    field = Field(1, 3, [()], [Clique((0,), [0.5, -0.25, 0.0])])
    data = DataTerm([[0.0, 0.5, -0.125]])
    cfg, trace = local_hcf_run(field, data)
    assert cfg.tolist() == [2]
    assert [(r.committed, r.changed) for r in trace.rows] == [(0, 0), (1, 1), (1, 0)]
    assert trace.final_energy == -0.125
