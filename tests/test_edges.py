import warnings

import numpy as np
import pytest

from mrfhcf import (EDGE, EdgeLattice, EdgeModel, EdgePotentials, Image,
                    build_edge_field, compute_llr, edge_llr, llr_data_term,
                    make_chain_fixture, make_checkerboard, render_overlay,
                    validate_field)


def corners(info):
    kind, x, y = info
    if kind == "v":
        return {(x + 1, y), (x + 1, y + 1)}
    return {(x, y + 1), (x + 1, y + 1)}


def geometric_neighbors(a, b):
    """Independent statement of the neighborhood: shared endpoint or
    nearest parallel edge of the same orientation."""
    if corners(a) & corners(b):
        return True
    ka, xa, ya = a
    kb, xb, yb = b
    if ka == kb == "v":
        return ya == yb and abs(xa - xb) == 1
    if ka == kb == "h":
        return xa == xb and abs(ya - yb) == 1
    return False


def test_site_counts():
    assert EdgeLattice(2, 2).num_sites == 4
    lat = EdgeLattice(50, 50)
    assert lat.num_vertical == 49 * 50
    assert lat.num_horizontal == 50 * 49
    assert lat.num_sites == 4900


def test_lattice_requires_two_by_two():
    with pytest.raises(ValueError):
        EdgeLattice(1, 5)
    with pytest.raises(ValueError):
        EdgeLattice(5, 1)


def test_site_ids_are_a_bijection():
    lat = EdgeLattice(5, 4)
    seen = []
    for y in range(4):
        for x in range(4):
            seen.append(lat.vertical_id(x, y))
    for y in range(3):
        for x in range(5):
            seen.append(lat.horizontal_id(x, y))
    assert sorted(seen) == list(range(lat.num_sites))
    for s in range(lat.num_sites):
        kind, x, y = lat.site_info(s)
        back = lat.vertical_id(x, y) if kind == "v" else lat.horizontal_id(x, y)
        assert back == s
    with pytest.raises(ValueError):
        lat.vertical_id(4, 0)
    with pytest.raises(ValueError):
        lat.site_info(lat.num_sites)


def test_interior_sites_have_eight_neighbors():
    lat = EdgeLattice(10, 10)
    adjacency = build_edge_field(10, 10).adjacency
    for y in range(1, 9):
        for x in range(1, 7):
            assert len(adjacency[lat.vertical_id(x, y)]) == 8
    for y in range(1, 7):
        for x in range(1, 8):
            assert len(adjacency[lat.horizontal_id(x, y)]) == 8
    # a corner-most vertical site touches fewer
    assert len(adjacency[lat.vertical_id(0, 0)]) == 4


def test_neighbors_match_the_geometric_definition():
    for w, h in ((5, 5), (2, 2), (2, 5), (5, 2), (3, 4), (7, 3)):
        lat = EdgeLattice(w, h)
        adjacency = build_edge_field(w, h).adjacency
        infos = [lat.site_info(s) for s in range(lat.num_sites)]
        for s in range(lat.num_sites):
            near = set(adjacency[s])
            for t in range(lat.num_sites):
                if t == s:
                    continue
                assert (t in near) == geometric_neighbors(infos[s], infos[t])


def test_neighborhood_is_symmetric_and_irreflexive():
    for w, h in ((6, 4), (2, 2), (2, 5), (5, 2)):
        adjacency = build_edge_field(w, h).adjacency
        for s, near in enumerate(adjacency):
            assert s not in near
            assert len(set(near)) == len(near)
            for t in near:
                assert s in adjacency[t]


def test_built_field_validates_clean():
    field = build_edge_field(6, 5)
    assert validate_field(field) == []
    lat = EdgeLattice(6, 5)
    assert field.num_sites == lat.num_sites
    assert field.num_labels == 2
    infos = [lat.site_info(s) for s in range(lat.num_sites)]
    for s in range(field.num_sites):
        assert field.adjacency[s] == tuple(
            t for t in range(field.num_sites)
            if t != s and geometric_neighbors(infos[s], infos[t]))
    # every neighbor pair shares exactly one pair clique
    pairs = [tuple(sorted(c.members)) for c in field.cliques if len(c.members) == 2]
    assert len(pairs) == len(set(pairs))
    assert sorted(pairs) == sorted((s, t) for s in range(field.num_sites)
                                   for t in field.adjacency[s] if s < t)


# clique members of build_edge_field(3, 4) in clique id order, which fixes
# the summation order of every energy
GOLDEN_3X4_MEMBERS = (
    [(s,) for s in range(17)]
    + [(0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7)]
    + [(8, 9), (9, 10), (11, 12), (12, 13), (14, 15), (15, 16)]
    + [(0, 8), (0, 9), (1, 9), (1, 10), (2, 8), (2, 9), (2, 11), (2, 12),
       (3, 9), (3, 10), (3, 12), (3, 13), (4, 11), (4, 12), (4, 14), (4, 15),
       (5, 12), (5, 13), (5, 15), (5, 16), (6, 14), (6, 15), (7, 15), (7, 16)]
    + [(0, 1), (2, 3), (4, 5), (6, 7)]
    + [(8, 11), (9, 12), (10, 13), (11, 14), (12, 15), (13, 16)])


def test_clique_order_golden():
    field = build_edge_field(3, 4)
    assert [c.members for c in field.cliques] == GOLDEN_3X4_MEMBERS


def test_clique_census():
    w, h = 16, 16
    field = build_edge_field(w, h)
    n = (w - 1) * h + w * (h - 1)
    want = n + 6 * (w - 1) * (h - 1) + (w - 2) * h + w * (h - 2)
    assert len(field.cliques) == want == 2278
    arity = [0, 0, 0]
    for c in field.cliques:
        arity[len(c.members)] += 1
    assert arity[1] == n
    assert arity[2] == want - n


def test_clique_tables_are_shared_objects():
    field = build_edge_field(8, 8, EdgePotentials(-0.5, 0.25, 0.35, 0.4))
    unary_ids = {id(c.table) for c in field.cliques if len(c.members) == 1}
    assert len(unary_ids) == 1
    by_value = {}
    for c in field.cliques:
        if len(c.members) == 2:
            by_value.setdefault(float(c.table[EDGE, EDGE]), set()).add(id(c.table))
    assert set(by_value) == {-0.5, 0.25, 0.35}
    assert all(len(ids) == 1 for ids in by_value.values())


def test_pair_energy_is_zero_unless_both_are_edges():
    field = build_edge_field(4, 4)
    for c in field.cliques:
        table = np.asarray(c.table)
        if len(c.members) == 1:
            assert table[0] == 0.0
            assert table[1] == 0.4
        else:
            masked = table.copy()
            masked[EDGE, EDGE] = 0.0
            assert (masked == 0.0).all()


def test_llr_hand_values():
    model = EdgeModel(mu_e=128.0, sigma=8.0)
    half = Image(np.array([[0, 64], [0, 64]], dtype=np.uint8))
    assert edge_llr(half, model).tolist() == [0.0, 0.0, -128.0, -128.0]
    full = Image(np.array([[0, 128], [0, 128]], dtype=np.uint8))
    assert edge_llr(full, model).tolist() == [128.0, 128.0, -128.0, -128.0]
    flat = Image(np.zeros((2, 2), dtype=np.uint8))
    assert edge_llr(flat, model).tolist() == [-128.0] * 4


def test_llr_data_term_layout():
    llr = np.array([2.0, -3.0, 0.5])
    data = llr_data_term(llr)
    assert data.values[:, 0].tolist() == [0.0, 0.0, 0.0]
    assert data.values[:, 1].tolist() == [-2.0, 3.0, -0.5]


def test_compute_llr_uses_the_default_model():
    image = make_checkerboard(6, 6, 3, 64, 192, 0.0, seed=1)
    direct = llr_data_term(edge_llr(image, EdgeModel()))
    assert np.array_equal(compute_llr(image).values, direct.values)


def test_checkerboard_basics():
    board = make_checkerboard(4, 4, 4, 64, 192, 0.0, seed=3)
    assert (board.pixels == 64).all()
    a = make_checkerboard(20, 20, 5, 64, 192, 8.0, seed=7)
    b = make_checkerboard(20, 20, 5, 64, 192, 8.0, seed=7)
    assert np.array_equal(a.pixels, b.pixels)
    c = make_checkerboard(20, 20, 5, 64, 192, 8.0, seed=8)
    assert not np.array_equal(a.pixels, c.pixels)
    clean = make_checkerboard(6, 6, 2, 10, 250, 0.0, seed=1)
    assert set(np.unique(clean.pixels)) == {10, 250}


def test_checkerboard_boundary_contrast():
    board = make_checkerboard(50, 50, 10, 64, 192, 8.0, seed=1)
    lat = EdgeLattice(50, 50)
    yy = np.arange(50)[:, None] // 10
    xx = np.arange(50)[None, :] // 10
    parity = (yy + xx) % 2
    pix = board.pixels.astype(np.int64)
    diffs = []
    for s in range(lat.num_sites):
        (x0, y0), (x1, y1) = lat.pixel_pair(s)
        if parity[y0, x0] != parity[y1, x1]:
            diffs.append(abs(pix[y0, x0] - pix[y1, x1]))
    assert len(diffs) == 400
    mean = float(np.mean(diffs))
    assert 120.0 < mean < 136.0


def test_llr_is_invariant_under_intensity_flip():
    model = EdgeModel()
    board = make_checkerboard(8, 8, 2, 40, 200, 0.0, seed=1)
    flipped = Image(255 - board.pixels.astype(np.int64))
    assert np.array_equal(edge_llr(board, model), edge_llr(flipped, model))


def test_checkerboard_validation():
    with pytest.raises(ValueError):
        make_checkerboard(10, 10, 0, 64, 192, 8.0, seed=1)
    with pytest.raises(ValueError):
        make_checkerboard(10, 10, 2, 192, 64, 8.0, seed=1)
    with pytest.raises(ValueError):
        make_checkerboard(10, 10, 2, 64, 300, 8.0, seed=1)
    with pytest.raises(ValueError):
        make_checkerboard(10, 10, 2, 64, 192, -1.0, seed=1)
    with pytest.raises(ValueError):
        make_checkerboard(0, 10, 2, 64, 192, 8.0, seed=1)
    for args, message in [
        ((2.5, 2, 1, 64, 192, 0, 1), "width must be an integer"),
        ((2, 2.0, 1, 64, 192, 0, 1), "height must be an integer"),
        ((4, 4, 2.0, 64, 192, 0, 1), "square must be an integer"),
        ((4, 4, 2, True, 192, 0, 1), "low must be an integer"),
        ((4, 4, 2, 64, 192.0, 0, 1), "high must be an integer"),
        ((4, 4, 2, 64, 192, 8.0, "1"), "seed must be an integer"),
        ((4, 4, 2, 64, 192, 8.0, -1), "seed must be non-negative"),
        ((4, 4, 2, 64, 192, "1", 1), "noise_sigma must be non-negative"),
        ((4, 4, 2, 64, 192, True, 1), "noise_sigma must be non-negative"),
        ((4, 4, 2, 64, 192, float("nan"), 1), "noise_sigma must be non-negative"),
        ((4, 4, 2, 64, 192, float("inf"), 1), "noise_sigma must be non-negative"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_checkerboard(*args)


def test_chain_fixture_shape(chain):
    field, data = chain
    assert field.num_sites == 8
    assert field.num_labels == 2
    assert len(field.cliques) == 7
    assert all(len(c.members) == 2 for c in field.cliques)
    assert validate_field(field) == []
    assert data.values[0].tolist() == [0.0, -4.0]
    assert data.values[5].tolist() == [0.0, -0.1]
    fresh_field, fresh_data = make_chain_fixture()
    assert np.array_equal(fresh_data.values, data.values)
    assert fresh_field.num_sites == 8


def test_render_overlay_geometry():
    image = Image(np.array([[10, 20], [30, 40]], dtype=np.uint8))
    overlay = render_overlay(image, np.array([1, 0, 0, 1]))
    canvas = overlay.pixels
    assert canvas.shape == (5, 5)
    assert canvas[1, 1] == 10 and canvas[1, 3] == 20
    assert canvas[3, 1] == 30 and canvas[3, 3] == 40
    assert canvas[1, 2] == 0
    assert canvas[2, 3] == 0
    assert canvas[3, 2] == 255
    assert canvas[2, 1] == 255
    mask = np.ones((5, 5), dtype=bool)
    mask[1::2, 1::2] = False
    mask[1, 2] = mask[2, 3] = False
    assert (canvas[mask] == 255).all()
    with pytest.raises(ValueError):
        render_overlay(image, np.array([1, 0, 0]))


@pytest.mark.parametrize("labels", [np.full(12, 0.5), np.full(12, 7), np.full(12, -2),
                                    [True] * 12, np.ones(12, bool), [True] + [0] * 11,
                                    [2**70] * 12])
def test_render_overlay_refuses_what_is_no_label(labels):
    with pytest.raises(ValueError, match="^labels must "):
        render_overlay(make_checkerboard(3, 3, 1, 64, 192, 0.0, 1), labels)


@pytest.mark.parametrize("w, h", [(3, 2), (2, 4), (5, 3)])
def test_render_overlay_matches_the_pixel_pairs(w, h):
    rng = np.random.default_rng(w * 10 + h)
    image = Image(rng.integers(1, 256, (h, w)))
    lat = EdgeLattice(w, h)
    config = rng.integers(-1, 2, lat.num_sites)
    want = np.full((2 * h + 1, 2 * w + 1), 255, dtype=np.uint8)
    want[1::2, 1::2] = image.pixels
    for s in range(lat.num_sites):
        if config[s] == EDGE:
            (x0, y0), (x1, y1) = lat.pixel_pair(s)
            want[y0 + y1 + 1, x0 + x1 + 1] = 0
    assert np.array_equal(render_overlay(image, config).pixels, want)


def test_edge_potentials_warn_on_unusual_signs():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        EdgePotentials()
    with pytest.warns(UserWarning):
        EdgePotentials(continuity=0.1)
    with pytest.warns(UserWarning):
        EdgePotentials(turn=-0.2)
    with pytest.raises(ValueError):
        EdgePotentials(edge_prior=float("nan"))


def test_edge_model_validation():
    with pytest.raises(ValueError):
        EdgeModel(mu_e=0.0)
    with pytest.raises(ValueError):
        EdgeModel(sigma=-1.0)
    with pytest.raises(ValueError):
        EdgeModel(mu_e=float("inf"))
    with pytest.raises(ValueError, match="^sigma must be a positive real$"):
        EdgeModel(sigma="2")
    with pytest.raises(ValueError, match="^sigma must be a positive real$"):
        EdgeModel(sigma=True)
    with pytest.raises(ValueError, match="^mu_e must be a positive real$"):
        EdgeModel(mu_e=None)


# (mu_e, sigma) pairs whose ratio leaves the float range for some pixel step
NON_FINITE_MODELS = [(128.0, 1e200), (128.0, 1e-200), (1e200, 8.0), (1e154, 1e-154),
                     (1e-300, 1e-300), (128.0, np.float64(1e200)), (np.float64(1e200), 8.0),
                     (128.0, np.float64(1.2e154)),
                     pytest.param(10**200, 8, id="int-mu_e"),
                     pytest.param(128, 10**200, id="int-sigma")]


@pytest.mark.parametrize("mu_e, sigma", NON_FINITE_MODELS)
def test_edge_model_refuses_non_finite_ratios_without_a_warning(mu_e, sigma):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match="^mu_e and sigma give non-finite log likelihood ratios$"):
            EdgeModel(mu_e, sigma)


@pytest.mark.parametrize("mu_e, sigma", [(128.0, 8.0), (100.5, 5.25), (0.5, 1e-150),
                                         (1e150, 1e150), (128.0, 1.2e154), (1e-300, 1e-100),
                                         (np.float64(3e150), np.float32(7.5)), (200, 3)])
def test_edge_model_keeps_the_ratio_bits_of_every_pair_it_accepts(mu_e, sigma):
    # the second row is black, so the horizontal sites see every step 0..255
    image = Image(np.stack([np.arange(256), np.zeros(256, dtype=np.int64)]))
    d = np.concatenate([np.ones(255), np.zeros(255), np.arange(256.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        llr = edge_llr(image, EdgeModel(mu_e, sigma))
    assert np.isfinite(llr).all()
    assert llr.tobytes() == (mu_e * (2.0 * d - mu_e) / (2.0 * sigma ** 2)).tobytes()


@pytest.mark.parametrize("name", ["continuity", "turn", "parallel", "edge_prior"])
@pytest.mark.parametrize("value", ["1", True, None, float("inf")])
def test_edge_potentials_validation(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        EdgePotentials(**{name: value})


def test_image_validation():
    with pytest.raises(ValueError):
        Image(np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError):
        Image(np.array([[0, 300]]))
    with pytest.raises(ValueError):
        Image(np.array([[0.5, 1.0]]))
    image = Image(np.array([[0, 255]]))
    assert image.pixels.dtype == np.uint8
    assert image.width == 2 and image.height == 1
