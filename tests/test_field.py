"""The array form of a field: both constructors, and the structural check against a plain loop."""

import numpy as np
import pytest

from mrfhcf import (Clique, DataTerm, Field, build_edge_field, energy, hcf_run, icm_run,
                    local_hcf_run, make_checkerboard, tlr, validate_field)
from mrfhcf.cli import main
from mrfhcf.fileio import write_pgm
from support import random_field, reference_structure_problems, triple_clique_field

PAIR = np.zeros((2, 2))
TRIANGLE = [(1, 2), (0, 2), (0, 1)]
PATH = [(1,), (0, 2), (1,)]


def broken_fields():
    nan = np.array([[0.0, np.nan], [0.0, 0.0]])
    wide = np.zeros((2, 3))
    return {
        "adjacency length": Field(2, 2, [(1,), (0,), ()], []),
        "self-loop": Field(2, 2, [(0, 1), (0,)], []),
        "neighbor out of range": Field(3, 2, [(1, 5, -1), (0, 2), (1,)], []),
        "duplicate neighbor": Field(3, 2, [(1, 1, 2, 2, 1), (0, 2), (1, 0)], []),
        "one asymmetric neighbor": Field(2, 2, [(1,), ()], []),
        # a set of these neighbors iterates as 17, 18, 9, 1
        "several asymmetric neighbors": Field(
            20, 2, [(17, 9, 1, 18)] + [()] * 17 + [(0,), ()], []),
        "repeated member": Field(3, 2, PATH, [Clique((1, 1), PAIR), Clique((0, 1, 0), PAIR)]),
        "member out of range": Field(3, 2, PATH, [Clique((0, 7), PAIR), Clique((-3, 1), PAIR),
                                                  Clique((9, -1, 1), PAIR)]),
        "members not adjacent": Field(3, 2, PATH, [Clique((0, 1), PAIR), Clique((2, 0), PAIR)]),
        "empty clique": Field(2, 2, [(1,), (0,)], [Clique((0, 1), PAIR), Clique((), 7.0)]),
        "bad table shape": Field(3, 2, PATH, [Clique((0, 1), wide), Clique((2,), PAIR)]),
        "non-finite table": Field(3, 2, PATH, [Clique((1, 2), nan)]),
        "shared bad table": Field(3, 2, TRIANGLE, [Clique((0, 2), nan), Clique((0, 1), PAIR),
                                                   Clique((1, 2), nan)]),
        "arity-3 clique": Field(3, 2, PATH, [Clique((0, 1, 2), PAIR), Clique((1, 2, 0), PAIR),
                                             Clique((0, 1, 2), np.zeros((2, 2, 2)))]),
        "everything at once": Field(4, 2, [(1, 1, 4), (0, 3), (2,), (1,)],
                                    [Clique((), PAIR), Clique((0, 3), nan), Clique((3, 1), wide),
                                     Clique((2, 2), PAIR), Clique((0, 1), wide)]),
    }


@pytest.mark.parametrize("name", list(broken_fields()))
def test_check_matches_the_reference_loop(name):
    field = broken_fields()[name]
    problems = validate_field(field)
    assert problems
    assert problems == reference_structure_problems(field)


def test_check_matches_the_reference_loop_on_random_fields():
    for seed in range(60):
        field, _data = random_field(seed)
        assert validate_field(field) == reference_structure_problems(field) == []
    for labels in (2, 3):
        field, _data = triple_clique_field(0, labels)
        assert validate_field(field) == reference_structure_problems(field) == []


def test_asymmetric_neighbors_are_reported_in_ascending_order():
    field = broken_fields()["several asymmetric neighbors"]
    assert validate_field(field) == [
        f"adjacency asymmetric: {r} neighbors 0 but not conversely" for r in (1, 9, 17)]


def test_an_empty_clique_is_reported_and_readers_refuse_the_field():
    field = Field(2, 2, [(1,), (0,)], [Clique((0, 1), PAIR), Clique((), 7.0)])
    assert validate_field(field) == ["clique 1: no members"]
    data = DataTerm(np.zeros((2, 2)))
    with pytest.raises(ValueError, match=r"invalid field: clique 1: no members"):
        energy(field, data, [0, 0])
    with pytest.raises(ValueError, match=r"invalid field: clique 1: no members"):
        local_hcf_run(field, data)


def test_site_ids_beyond_64_bits_are_refused():
    with pytest.raises(ValueError, match="64-bit"):
        Field(2, 2, [(1,), (2 ** 70,)], [])
    with pytest.raises(ValueError, match="64-bit"):
        Field(2, 2, [(1,), (0,)], [Clique((0, -2 ** 70), PAIR)])


@pytest.mark.parametrize("indptr", [[0, 2, 1], [0, 1, 3], [1, 1, 2], [0, 1, 1]])
def test_array_constructor_reports_offsets_that_do_not_index_the_neighbors(indptr):
    field = Field.from_arrays(2, 2, indptr, [1, 0], [])
    assert validate_field(field) == ["adjacency offsets do not index its 2 neighbor entries"]
    with pytest.raises(ValueError, match="invalid field: adjacency offsets"):
        field.compiled


def test_array_constructor_numbers_cliques_block_by_block():
    unary, pair = np.zeros(2), np.ones((2, 2))
    field = Field.from_arrays(3, 2, [0, 1, 3, 4], [1, 0, 2, 1],
                              [([[0], [2]], unary), (np.zeros((0, 3)), pair),
                               ([[0, 1], [2, 1]], pair), ([[1]], unary)])
    assert validate_field(field) == []
    assert [c.members for c in field.cliques] == [(0,), (2,), (0, 1), (2, 1), (1,)]
    assert [c.table is unary for c in field.cliques] == [True, True, False, False, True]
    assert len(field.tables) == 2 and field.tables[0] is unary and field.tables[1] is pair
    assert len(field.members) == 2  # the empty arity-3 block adds no row
    assert field.adjacency == ((1,), (0, 2), (1,))


COMPILED = ("tables", "offsets", "others", "cliques_at", "neighbors", "sites")


@pytest.mark.parametrize("size", [(w, h) for w in range(2, 13) for h in range(2, 13)]
                         + [(50, 50)])
def test_list_and_array_constructors_agree(size):
    built = build_edge_field(*size)
    listed = Field(built.num_sites, built.num_labels, built.adjacency, built.cliques)
    for name in COMPILED:
        want, got = getattr(built.compiled, name), getattr(listed.compiled, name)
        assert want.dtype == got.dtype and np.array_equal(want, got), name
    assert listed.adjacency == built.adjacency
    assert [c.members for c in listed.cliques] == [c.members for c in built.cliques]
    assert all(a.table is b.table for a, b in zip(listed.cliques, built.cliques))
    assert validate_field(listed) == validate_field(built) == []


def test_hand_built_field_keeps_its_cliques_and_lists_its_neighbors():
    cliques = [Clique((0, 1), PAIR), Clique((2, 1), PAIR), Clique((1,), np.zeros(2))]
    field = Field(3, 2, [[1], np.array([0, 2]), (1,)], cliques)
    assert field.cliques == tuple(cliques)
    assert field.adjacency == ((1,), (0, 2), (1,))
    assert field.table_ids.tolist() == [0, 0, 1]
    assert field.members.tolist() == [[0, 2, 3], [1, 1, 1]]
    assert field.arity.tolist() == [2, 2, 1]
    with pytest.raises(AttributeError):
        field.cliques = ()


@pytest.fixture
def no_list_views(monkeypatch):
    def refuse(name):
        def get(self):
            raise AssertionError(f"Field.{name} built on the estimator path")
        return property(get)

    monkeypatch.setattr(Field, "cliques", refuse("cliques"))
    monkeypatch.setattr(Field, "adjacency", refuse("adjacency"))


def test_estimators_never_build_the_list_views(no_list_views):
    field = build_edge_field(9, 7)
    data = DataTerm(np.random.default_rng(0).normal(size=(field.num_sites, 2)))
    local_hcf_run(field, data)
    hcf_run(field, data)
    icm_run(field, data, tlr(field, data))
    icm_run(field, data, tlr(field, data), order="random", seed=1)


@pytest.mark.parametrize("estimator", ["local-hcf", "hcf", "icm-scan"])
def test_label_never_builds_the_list_views(no_list_views, tmp_path, capsys, estimator):
    board = tmp_path / "board.pgm"
    write_pgm(board, make_checkerboard(12, 10, 4, 64, 192, 30.0, 3))
    assert main(["label", "--in", str(board), "--estimator", estimator,
                 "-o", str(tmp_path / "out")]) == 0
    assert "energy:" in capsys.readouterr().out
