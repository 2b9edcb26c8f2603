"""The compiled-field readers against a plain walk over ``field.cliques``, bit for bit."""

import struct
import tracemalloc

import numpy as np
import pytest

from mrfhcf import (EDGE, Clique, DataTerm, EdgePotentials, Field, assign_ranks,
                    augmented_energy, best_label, build_edge_field, energy, hcf_run,
                    is_local_minimum, llr_data_term, local_energies, local_energy,
                    local_hcf_run, local_hcf_step, new_configuration, stability, tlr)
from mrfhcf import local_hcf as local_hcf_module
from mrfhcf.core import (_checked_labels, _checked_ranks, _columns, _no_terms, _slot_rows,
                         _write_terms)
from mrfhcf.local_hcf import _lower, _sweep
from support import (noisy_board, random_chain, random_field, reference_augmented_energy,
                     reference_compiled, reference_eligible, reference_local_rows,
                     reference_row_stats, scalar_reader, triple_clique_field, zero_lattice)


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


def spread(rng, shape):
    """Signed magnitudes from 1e-8 to 1e8, a fifth -0.0: their sum depends on its order."""
    out = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
    out[rng.random(shape) < 0.2] = -0.0
    return out


@pytest.mark.parametrize("slots", [0, 1, 2, 8, 9, 17, 33])
def test_np_add_reduce_adds_the_slots_in_order_past_one_element(slots):
    # core._local_rows rests on this; numpy sums a one-element output
    # pairwise, so _local_rows adds that one slot by slot
    rng = np.random.default_rng(slots)
    for rows in (1, 2, 3, 7, 120):
        for labels in (1, 2, 3, 5):
            block = spread(rng, (slots, rows, labels))
            if rows * labels == 1:
                continue
            loop = np.zeros((rows, labels))
            for column in block:
                loop += column
            got = np.add.reduce(block, axis=0, initial=0.0)
            assert got.tobytes() == loop.tobytes(), (
                f"np.add.reduce does not add a {block.shape} block in slot order: "
                "core._local_rows assumes it does and is to be revisited on this platform")


@pytest.mark.parametrize("count", [9, 12, 33])
def test_one_site_one_label_reads_add_many_cliques_in_order(count):
    # one row of one label: the block that _local_rows adds slot by slot
    rng = np.random.default_rng(count)
    field = Field(1, 1, [()], [Clique((0,), [v]) for v in spread(rng, count)])
    data = DataTerm(spread(rng, (1, 1)))
    for cfg in ([0], [-1]):
        want = np.array(reference_local_rows(field, data, cfg))
        assert local_energies(field, data, cfg).tobytes() == want.tobytes()
        assert bits(local_energy(field, data, cfg, 0, 0)) == bits(want[0, 0])


def rescore(comp, values, cfg, terms, sites):
    """The term writer on rows formed afresh from ``cfg``, of ``sites`` or of all for None."""
    _write_terms(comp, values, cfg, terms, _slot_rows(comp, *_columns(comp, sites), cfg), sites)


def committed_cases():
    for labels in (2, 3):
        for seed in range(6):
            yield random_field(seed, labels=labels)
        for seed in range(3):
            yield triple_clique_field(seed, labels)
    yield noisy_board(8)


def test_full_evaluation_indexes_the_slots_whole_to_the_same_terms():
    rng = np.random.default_rng(4)
    for field, data in committed_cases():
        n, num_labels, comp = field.num_sites, field.num_labels, field.compiled
        values = data.values.copy()
        values[rng.random(values.shape) < 0.3] = -0.0
        data = DataTerm(values)
        for _ in range(3):
            cfg = _checked_labels(field, data, rng.integers(0, num_labels, n))
            whole, taken = _no_terms(comp), _no_terms(comp)
            rescore(comp, values, cfg, whole, None)
            rescore(comp, values, cfg, taken, np.arange(n))
            assert whole.tobytes() == taken.tobytes()
            want = reference_augmented_energy(field, data, cfg[:n])
            assert bits(energy(field, data, cfg[:n])) == bits(want)
            # a partial rewrite from another configuration ends at the same terms
            before = cfg.copy()
            changed = np.flatnonzero(rng.random(n) < 0.4)
            before[changed] = rng.integers(-1, num_labels, changed.size)
            terms = _no_terms(comp)
            rescore(comp, values, before, terms, np.flatnonzero(before[:n] >= 0))
            rescore(comp, values, cfg, terms, changed)
            assert terms.tobytes() == whole.tobytes()


def test_sweep_stabilities_match_the_scalar_readers():
    rng = np.random.default_rng(2)
    for field, data in cases():
        lower = _lower(field.compiled, _checked_ranks(field, None))
        read = scalar_reader(field, data)
        for cfg in configurations(field, rng):
            g, best, _changed, _rows = _sweep(field.compiled, data.values,
                                              _checked_labels(field, data, cfg), lower,
                                              np.full(field.num_sites + 1, np.inf))
            labels = cfg.tolist()
            for s in range(field.num_sites):
                assert bits(g[s]) == bits(stability(field, data, cfg, s))
                assert best[s] == best_label(field, data, cfg, s)[0]
                want_best, want_val, want_g = reference_row_stats(read(labels, s), labels[s])
                assert bits(g[s]) == bits(want_g)
                assert best_label(field, data, cfg, s) == (want_best, want_val)


def selection_cases():
    """(field, data, ranks): the random and triple-clique cases under two rank
    orders, all-zero lattices under seeded ranks, and a site with no neighbor."""
    for field, data in cases():
        yield field, data, None
        yield field, data, assign_ranks(field, "seeded-permutation", 1)
    for size in (3, 4):
        field, data = zero_lattice(size)
        for seed in range(3):
            yield field, data, assign_ranks(field, "seeded-permutation", seed)
    yield Field(1, 2, [()], []), DataTerm([[0.5, 0.25]]), None


def test_neighbor_slots_list_the_csr_neighbors_then_padding():
    for field, _data, _ranks in selection_cases():
        n, neighbors = field.num_sites, field.compiled.neighbors
        slots = max(len(nbrs) for nbrs in field.adjacency)
        assert neighbors.shape == (slots, n)
        for s, nbrs in enumerate(field.adjacency):
            assert neighbors[:, s].tolist() == list(nbrs) + [n] * (slots - len(nbrs))
    assert Field(1, 2, [()], []).compiled.neighbors.shape == (0, 1)


def test_clique_slots_list_each_sites_cliques_in_id_order_then_padding():
    fields = [field for field, _data in cases()]  # unary, pair and triple cliques
    fields.append(build_edge_field(5, 4, EdgePotentials()))
    for field in fields:
        incident = [[] for _ in range(field.num_sites)]
        for cid, clique in enumerate(field.cliques):
            for s in clique.members:
                incident[s].append(cid)
        cliques_at = field.compiled.cliques_at
        slots = max(len(ids) for ids in incident)
        assert cliques_at.shape == field.compiled.offsets.shape == (slots, field.num_sites)
        for s, ids in enumerate(incident):
            assert cliques_at[:, s].tolist() == ids + [-1] * (slots - len(ids))
    assert Field(1, 2, [()], []).compiled.cliques_at.shape == (0, 1)


def compile_cases():
    """Random pair fields at 2 and 3 labels, triple cliques, chains whose
    cliques are not listed in site order, shared tables, unary cliques
    only, and no cliques."""
    for field, _data in cases():
        yield field
    for seed in range(6):
        yield random_chain(seed)[0]  # scrambled site ids
    yield build_edge_field(5, 4, EdgePotentials())  # blocks of cliques sharing tables
    rng = np.random.default_rng(8)
    pair, triple = rng.uniform(-1.0, 1.0, (3, 3)), rng.uniform(-1.0, 1.0, (3, 3, 3))
    unary = rng.uniform(-1.0, 1.0, 3)
    # a triangle with a tail, its cliques listed from the last site down
    yield Field(4, 3, [(1, 2), (0, 2), (0, 1, 3), (2,)],
                [Clique((3, 2), pair), Clique((2, 0, 1), triple), Clique((2,), unary),
                 Clique((2, 1), pair), Clique((1, 0), pair), Clique((0, 2), pair),
                 Clique((0,), unary), Clique((3,), unary)])
    yield Field(3, 2, [()] * 3, [Clique((2,), [0.5, -0.5]), Clique((0,), [1.0, 2.0]),
                                 Clique((2,), [0.25, 0.0])])
    yield Field(3, 2, [(1,), (0,), ()], [])


def test_compile_matches_the_argsort_construction():
    fields = list(compile_cases())
    assert {len(c.members) for field in fields for c in field.cliques} == {1, 2, 3}
    assert any(not field.cliques for field in fields)
    for field in fields:
        comp = field.compiled
        for name, want in reference_compiled(field).items():
            got = getattr(comp, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name


def test_a_full_evaluation_frees_its_table_rows_before_the_scatter():
    # at the scatter of one energy() only the taken terms and their clique
    # indices, two (slots, sites) arrays, are live beside the term array
    field, data = noisy_board(40)
    comp = field.compiled
    cfg = tlr(field, data)
    energy(field, data, cfg)
    tracemalloc.start()
    try:
        energy(field, data, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    slots = comp.offsets.nbytes
    assert peak < _no_terms(comp).nbytes + 2.75 * slots  # 3.56 with the row indices kept


def rewrite_cases():
    """(field, data, ranks): random and triple-clique fields at 2 and 3
    labels, all-zero lattices, whose runs take the tie fallback, the 4x4
    lattice with -0.0 tables and data, whose quiet fallback commits chain
    (a site's rows move as its neighbors commit, from +0.0 zero rows to
    -0.0 table rows), and a field without cliques, whose slot arrays have
    no rows."""
    for field, data in cases():
        yield field, data, None
    for size in (3, 4):
        field, data = zero_lattice(size)
        yield field, data, assign_ranks(field, "seeded-permutation", size)
    field, _data = zero_lattice(4)
    negative = [Clique(c.members, np.full(c.table.shape, -0.0)) for c in field.cliques]
    field = Field(field.num_sites, 2, field.adjacency, negative)
    yield field, DataTerm(np.full((field.num_sites, 2), -0.0)), assign_ranks(
        field, "seeded-permutation", 5)
    data = DataTerm(np.random.default_rng(9).uniform(-2.0, 2.0, (6, 3)))
    yield Field(6, 3, [()] * 6, []), data, None


def test_run_rewrites_each_sweeps_terms_as_rescore_does(monkeypatch):
    calls = []

    def checked(comp, values, cfg, terms, rows, changed):
        want = terms.copy()
        rescore(comp, values, cfg, want, changed)
        _write_terms(comp, values, cfg, terms, rows, changed)
        assert terms.tobytes() == want.tobytes()
        # and the kept array is the one scoring cfg from scratch builds
        fresh = _no_terms(comp)
        rescore(comp, values, cfg, fresh, np.flatnonzero(cfg[:-1] >= 0))
        assert terms.tobytes() == fresh.tobytes()
        calls.append(changed.size)

    monkeypatch.setattr(local_hcf_module, "_write_terms", checked)
    fallbacks = 0
    for field, data, ranks in rewrite_cases():
        calls.clear()
        _cfg, trace = local_hcf_run(field, data, ranks)
        assert calls == [r.changed for r in trace.rows if r.changed]
        # a quiet sweep that is not the last is followed by a tie fallback
        fallbacks += sum(r.changed == 0 for r in trace.rows[1:-1])
    assert fallbacks


def test_sweep_selection_matches_the_per_site_rule():
    rng = np.random.default_rng(3)
    outcomes = set()
    for field, data, ranks in selection_cases():
        comp = field.compiled
        rank = _checked_ranks(field, ranks)
        lower = _lower(comp, rank)
        states = list(configurations(field, rng))
        cfg = new_configuration(field.num_sites)
        for _ in range(field.num_sites * field.num_labels):  # the states a run passes through
            cfg, step = local_hcf_step(field, data, cfg, rank[:-1])
            states.append(cfg)
            if not step.any_change:
                break
        for cfg in states:
            g, _best, changed, _rows = _sweep(comp, data.values,
                                              _checked_labels(field, data, cfg), lower,
                                              np.full(field.num_sites + 1, np.inf))
            want = reference_eligible(field, g, cfg, rank)
            assert changed.tolist() == want
            can_act = np.flatnonzero((g < 0) | ((g == 0) & (cfg < 0)))
            outcomes.add((bool(want), len(want) < can_act.size))
    # sweeps where a neighbor blocks a site that can act, with and without
    # a change (the second only under exact ties), and quiet local minima
    assert outcomes >= {(True, True), (False, True), (False, False)}


def test_an_uncommitted_other_reads_a_zero_row_before_its_table():
    for field, _data in cases():
        comp = field.compiled
        flat = comp.tables.reshape(-1, field.num_labels)
        for s in range(field.num_sites):
            degree = sum(s in c.members for c in field.cliques)
            assert (comp.offsets[:degree, s] > 0).all() and not comp.offsets[degree:, s].any()
            rows = flat[comp.offsets[:degree, s] - 1]
            assert rows.tobytes() == np.zeros_like(rows).tobytes()


def test_uncommitted_others_in_the_first_table_and_in_triple_cliques_match_the_clique_walk():
    # pairwise: row -1 of stacked table 1 is table 0's zero last row;
    # triple cliques take the zero row through the `where` of the readers
    rng = np.random.default_rng(4)
    seen = {1: 0, 2: 0}
    for field, data in cases():
        comp = field.compiled
        n = field.num_sites
        m = len(comp.strides)
        if m == 1:
            slot, site = np.nonzero(comp.offsets == comp.height)
            targets = [t for t in comp.others[0, slot, site].tolist() if t < n]
        else:
            targets = sorted({t for c in field.cliques if len(c.members) == 3 for t in c.members})
        seen[m] += len(targets)
        for uncommitted in [[t] for t in targets] + [targets]:
            cfg = rng.integers(0, field.num_labels, n)
            cfg[uncommitted] = -1
            want = np.array(reference_local_rows(field, data, cfg))
            assert local_energies(field, data, cfg).tobytes() == want.tobytes()
            assert bits(augmented_energy(field, data, cfg)) == \
                bits(reference_augmented_energy(field, data, cfg))
    assert seen[1] and seen[2]


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
        g, sweep_best, _changed, _rows = _sweep(
            field.compiled, data.values, _checked_labels(field, data, [own]),
            _lower(field.compiled, _checked_ranks(field, None)), np.array([0.0, np.inf]))
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
    for name in ("tables", "offsets", "others", "cliques_at", "strides", "neighbors", "sites"):
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
