"""The wavefront sweeps of ICM, annealing and MPM against the scalar references.

Every case must match the one-site-at-a-time reference of tests/support.py
bit for bit: configurations, MPM marginals and the repr of every trace row.
"""

import math
import warnings

import numpy as np
import pytest

from mrfhcf import (AnnealSchedule, Clique, DataTerm, EdgeModel, EdgePotentials, Field,
                    MpmParams, anneal_run, build_edge_field, compute_llr, icm_run,
                    make_chain_fixture, make_checkerboard, mpm_marginals, mpm_run, tlr)
from mrfhcf import baselines
from mrfhcf.baselines import _gibbs_labels, _local_rows, _Wave
from mrfhcf.cli import main
from support import (chain8_field, noisy_board, random_field, reference_anneal_run,
                     reference_gibbs_draw, reference_icm_run, reference_levels,
                     reference_mpm_marginals, triple_clique_field, zero_lattice)


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


# four labels take the running sums past one column add, end to end
GIBBS_CASES = {
    **CASES,
    **{f"random{seed}-4": (lambda seed=seed: random_field(seed, labels=4)) for seed in range(6)},
}


def same_run(got, want):
    (got_cfg, got_trace), (want_cfg, want_trace) = got, want
    assert got_cfg.dtype == np.int64
    assert got_cfg.tolist() == want_cfg.tolist()
    assert list(map(repr, got_trace.rows)) == list(map(repr, want_trace.rows))


@pytest.mark.parametrize("name", list(CASES))
def test_icm_matches_the_scalar_reference(name):
    field, data = CASES[name]()
    n = field.num_sites
    drawn = np.random.default_rng(sum(name.encode())).integers(field.num_labels, size=n)
    for init in (tlr(field, data), drawn):
        for order, seed in (("scan", None), ("random", 0), ("random", 1)):
            want = reference_icm_run(field, data, init, order, seed)
            same_run(icm_run(field, data, init, order, seed), want)
            # the closing quiet sweep counts toward the cap
            needed = len(want[1].rows) - 1
            for cap in (0, 1, 2):
                if cap < needed:
                    with pytest.raises(RuntimeError, match=rf"sweep cap \({cap}\)"):
                        icm_run(field, data, init, order, seed, max_sweeps=cap)
                else:
                    same_run(icm_run(field, data, init, order, seed, max_sweeps=cap), want)


def clean_board(size):
    image = make_checkerboard(size, size, 4, 64, 192, 8.0, 1)
    return build_edge_field(size, size, EdgePotentials()), compute_llr(image, EdgeModel())


@pytest.fixture
def icm_calls(monkeypatch):
    """The waves ``icm_run`` builds and the ``(sites, labels)`` of each local-energy read."""
    calls = {"waves": [], "reads": []}

    def wave(*args):
        calls["waves"].append(args)
        return _Wave(*args)

    def local_rows(comp, values, cfg, sites=None):
        calls["reads"].append((sites, cfg[:comp.sites.size].copy()))
        return _local_rows(comp, values, cfg, sites)

    monkeypatch.setattr(baselines, "_Wave", wave)
    monkeypatch.setattr(baselines, "_local_rows", local_rows)
    return calls


@pytest.mark.parametrize("name", ["clean-board", "zero-lattice", "chain8"])
def test_icm_from_a_fixpoint_builds_no_wave(name, icm_calls):
    field, data = {"clean-board": lambda: clean_board(12), "zero-lattice": lambda: zero_lattice(6),
                   "chain8": chain8_field}[name]()
    init = tlr(field, data)
    if name == "chain8":  # its TLR start moves; start from where ICM ends
        init = reference_icm_run(field, data, init)[0]
    for order, seed in (("scan", None), ("random", 4)):
        want = reference_icm_run(field, data, init, order, seed)
        assert len(want[1].rows) == 2
        got = icm_run(field, data, init, order, seed)
        same_run(got, want)
        assert got[0].flags.owndata  # not a view of the padded configuration
    assert icm_calls["waves"] == []
    assert [sites for sites, _ in icm_calls["reads"]] == [None, None]


@pytest.mark.parametrize("name", ["chain8", "triple1-3", "random5-2", "random17-3", "board16"])
def test_icm_rereads_exactly_the_flipped_sites_neighbours(name, icm_calls):
    field, data = CASES[name]()
    n = field.num_sites
    init = np.random.default_rng(2).integers(field.num_labels, size=n)
    for order, seed in (("scan", None), ("random", 3)):
        icm_calls["reads"].clear()
        icm_calls["waves"].clear()
        icm_run(field, data, init, order, seed)
        reads = icm_calls["reads"]
        assert reads[0][0] is None
        for (_, before), (sites, after) in zip(reads, reads[1:]):
            flipped = (before != after).nonzero()[0]
            assert flipped.size
            near = sorted({r for s in flipped.tolist() for r in field.adjacency[s]})
            assert sites.dtype == np.int64
            assert sites.tolist() == near
        # a wave per moving sweep in random order, one in all in scan order
        assert len(icm_calls["waves"]) == (len(reads) - 1 if order == "random" else 1)


def test_icm_without_cliques_ends_on_an_empty_read(icm_calls):
    rng = np.random.default_rng(6)
    field = Field(7, 3, [()] * 7, [])
    data = DataTerm(rng.uniform(-2.0, 2.0, (7, 3)))
    init = (tlr(field, data) + 1) % 3
    cfg, trace = icm_run(field, data, init)
    assert cfg.tolist() == tlr(field, data).tolist()
    assert trace.changed.tolist() == [0, 7, 0]
    (first, _), (last, _) = icm_calls["reads"]
    assert first is None and last.size == 0
    assert len(icm_calls["waves"]) == 1


@pytest.mark.parametrize("name", list(GIBBS_CASES))
def test_annealing_matches_the_scalar_reference(name):
    field, data = GIBBS_CASES[name]()
    init = tlr(field, data)
    for schedule in (AnnealSchedule(), AnnealSchedule(1e-9, 0.5, 30)):
        same_run(anneal_run(field, data, init, schedule, 3),
                 reference_anneal_run(field, data, init, schedule, 3))


@pytest.mark.parametrize("name", list(GIBBS_CASES))
def test_mpm_matches_the_scalar_reference(name):
    field, data = GIBBS_CASES[name]()
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
        wave = _Wave(field, data, order, 1)
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
    assert len(_Wave(field, data, range(8), 1).bounds) - 1 == 8
    assert _Wave(field, data, range(7, -1, -1), 1).depth == 8  # from either end
    field, data = noisy_board(16)
    assert len(_Wave(field, data, range(field.num_sites), 1).bounds) - 1 == 32


def reference_layout(field, order, sweeps):
    """``(level, stride, sites, bounds, ends)`` of ``_Wave`` from :func:`reference_levels`."""
    n = field.num_sites
    level = reference_levels(field, order)
    depth = max(level) + 1
    stride = depth
    if sweeps > 1:
        when = {int(s): i for i, s in enumerate(order)}
        pace = 1 + max((level[r] - level[s] for s in range(n) for r in field.adjacency[s]
                        if when[s] < when[r]), default=0)
        stride = max(pace, -(-depth // max(1, baselines._IN_FLIGHT // n)))
    sites = sorted(range(n), key=lambda s: (level[s] % stride, level[s], s))
    laid = [level[s] for s in sites]
    bounds = [laid.index(v) for v in range(depth)]
    ends = [b + laid.count(v) for v, b in enumerate(bounds)]
    return level, stride, sites, bounds + [n], ends


def same_layout(wave, field, order, sweeps):
    level, stride, sites, bounds, ends = reference_layout(field, order, sweeps)
    assert wave.level.tolist() == level
    assert (wave.depth, wave.stride) == (len(ends), stride)
    assert wave.sites.tolist() == sites
    assert (wave.bounds, wave.ends) == (bounds, ends)
    if sweeps == 1:  # one sweep in flight: the levels come in order
        assert wave.stride == wave.depth
        assert wave.ends == wave.bounds[1:]
    for a, b in zip(wave.bounds, wave.ends):
        assert np.all(np.diff(wave.sites[a:b]) > 0)  # ascending within a level


@pytest.mark.parametrize("name", list(CASES))
def test_wave_layout_equals_the_reference_levels(name, monkeypatch):
    field, data = CASES[name]()
    n = field.num_sites
    orders = [range(n)] + [np.random.default_rng(s).permutation(n) for s in range(5)]
    for order in orders:
        for sweeps in (1, 2, 100):
            same_layout(_Wave(field, data, order, sweeps), field, order, sweeps)
        # two sweeps' visits in flight at most: the stride widens past the pace
        monkeypatch.setattr(baselines, "_IN_FLIGHT", 2 * n)
        same_layout(_Wave(field, data, order, 100), field, order, 100)
        monkeypatch.undo()


PAIR = np.ones((2, 2))


@pytest.mark.parametrize("field", [
    Field(3, 2, [(1,), (0,), ()], [Clique((0, 1), PAIR)]),  # site 2 is isolated
    Field(1, 2, [()], [Clique((0,), np.ones(2))]),
    chain8_field()[0],
], ids=["isolated", "one-site", "chain8"])
def test_wave_layout_on_edge_cases(field):
    n = field.num_sites
    data = DataTerm(np.zeros((n, 2)))
    for order in (range(n), range(n - 1, -1, -1), np.random.default_rng(3).permutation(n)):
        for sweeps in (1, 2, 100):
            same_layout(_Wave(field, data, order, sweeps), field, order, sweeps)


@pytest.mark.parametrize("name", ["chain8", "triple1-3", "random5-2", "random17-3", "board16"])
def test_scan_wave_from_the_site_array_equals_the_range_wave(name):
    # icm_run and _gibbs_run pass comp.sites: numpy converts a range element by element
    field, data = CASES[name]()
    n = field.num_sites
    for sweeps in (1, 100):
        got = _Wave(field, data, field.compiled.sites, sweeps)
        want = _Wave(field, data, range(n), sweeps)
        for attr in ("level", "sites", "position", "visit", "lap", "others", "offsets", "values"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr
        for attr in ("bounds", "ends", "stride", "depth"):
            assert getattr(got, attr) == getattr(want, attr), attr


class FixedUniform:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def draw_cases():
    """``(rows, uniforms, temperature)``: 2-4 labels, temperatures down to 1e-300.

    Every seventh row has equal energies in its first two labels and every
    third uniform is the largest, ``1 - 2**-53``.
    """
    rng = np.random.default_rng(11)
    for num_labels in (2, 3, 4):
        for temperature in (5.0, 1.0, 0.05, 1e-300):
            rows = rng.uniform(-3.0, 3.0, (400, num_labels))
            rows[::7, 1] = rows[::7, 0]  # equal energies
            uniforms = rng.random(400)
            uniforms[::3] = 1.0 - 2.0 ** -53
            yield rows, uniforms, temperature


def scalar_draws(rows, uniforms, temperature):
    return [reference_gibbs_draw(row, temperature, FixedUniform(u))
            for row, u in zip(rows.tolist(), uniforms.tolist())]


def test_draw_matches_the_scalar_draw():
    last_branch = 0
    for rows, uniforms, temperature in draw_cases():
        got = _gibbs_labels(rows, uniforms, temperature)
        assert got.tolist() == scalar_draws(rows, uniforms, temperature)
        for row, u in zip(rows.tolist(), uniforms.tolist()):
            weights = [math.exp(-(v - min(row)) / max(temperature, 1e-300)) for v in row]
            acc = 0.0
            for w in weights:
                acc += w
            last_branch += u * math.fsum(weights) >= acc
    # the fall-through to the last label must be exercised
    assert last_branch > 0


@pytest.fixture
def redrawn(monkeypatch):
    """The row counts that ``_gibbs_labels`` hands to the exact draw, one per call."""
    counts = []
    exact = baselines._exact_labels

    def counted(rows, uniforms, temperature):
        counts.append(len(rows))
        return exact(rows, uniforms, temperature)

    monkeypatch.setattr(baselines, "_exact_labels", counted)
    return counts


def test_rows_within_the_margin_are_drawn_by_the_exact_rule(monkeypatch, redrawn):
    # thresholds and running sums lie in [0, total], so a margin of the
    # whole total puts every row near a running sum
    monkeypatch.setattr(baselines, "_MARGIN", 1.0)
    for rows, uniforms, temperature in draw_cases():
        want = scalar_draws(rows, uniforms, temperature)
        for t in (temperature, np.full(len(rows), temperature)):
            redrawn.clear()
            assert _gibbs_labels(rows, uniforms, t).tolist() == want
            assert redrawn == [len(rows)]


def test_rows_on_a_threshold_are_drawn_by_the_exact_rule(redrawn):
    # equal weights put u * total on a running sum for u = k / 2 or k / 4;
    # energy 1000 weighs exactly 0
    cases = [
        ([[0.5, 0.5], [-2.0, -2.0], [0.0, 0.0]], [0.5, 0.5, 0.5]),
        ([[1.0, 1.0, 1000.0], [1.0, 1000.0, 1.0]], [0.5, 0.5]),
        ([[1.0, 1.0, 1.0, 1.0]] * 3 + [[0.5, 0.5, 1000.0, 1000.0], [0.0, 1000.0, 0.0, 1000.0]],
         [0.25, 0.5, 0.75, 0.5, 0.5]),
    ]
    for rows, uniforms in cases:
        rows, uniforms = np.array(rows), np.array(uniforms)
        for temperature in (1.0, 1e-300):
            redrawn.clear()
            got = _gibbs_labels(rows, uniforms, temperature)
            assert got.tolist() == scalar_draws(rows, uniforms, temperature)
            assert redrawn == [len(rows)]


@pytest.mark.parametrize("low", [-745.0, -50.0, -1.0])
def test_np_exp_is_within_one_ulp_of_math_exp(low):
    # the margin of the column draw rests on this
    x = np.random.default_rng(17).uniform(low, 0.0, 200_000)
    want = np.array([math.exp(v) for v in x.tolist()])
    small = np.concatenate([np.exp(part) for part in np.array_split(x[:2000], 250)])
    for got in (np.exp(x), np.concatenate((small, np.exp(x[2000:])))):
        off = np.abs(got - want) > np.spacing(want)
        assert not off.any(), (
            f"np.exp is more than 1 ulp from math.exp at {x[off][:3].tolist()}: "
            "baselines._MARGIN assumes 1 ulp and is to be revisited on this platform")


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
