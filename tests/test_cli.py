import numpy as np
import pytest

from mrfhcf import (EdgeModel, EdgePotentials, assign_ranks, build_edge_field, edge_llr,
                    hcf_run, llr_data_term, read_mrfl, read_pgm, write_mrfl, write_mrfllr)
from mrfhcf.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_defaults(tmp_path, capsys):
    out = tmp_path / "board.pgm"
    code, stdout, _ = run(capsys, "generate", "-o", str(out))
    assert code == 0
    assert f"wrote {out}" in stdout
    image = read_pgm(out)
    assert image.width == 50 and image.height == 50
    first = out.read_bytes()
    code, _, _ = run(capsys, "generate", "-o", str(out))
    assert code == 0
    assert out.read_bytes() == first


def test_generate_rejects_bad_arguments(tmp_path, capsys):
    out = str(tmp_path / "x.pgm")
    assert run(capsys, "generate", "--square", "0", "-o", out)[0] == 2
    assert run(capsys, "generate", "--checker", "5", "-o", out)[0] == 2
    assert run(capsys, "generate", "--low", "200", "--high", "100", "-o", out)[0] == 2
    with pytest.raises(SystemExit):
        main(["generate"])
    capsys.readouterr()


def test_label_chain_fixture_local_hcf(capsys):
    code, stdout, _ = run(capsys, "label", "--chain-fixture")
    assert code == 0
    assert "labeling: e n n n n n n n" in stdout
    assert "sites: 8" in stdout
    assert "energy: -6.0" in stdout
    assert "iterations: 3" in stdout


def test_label_chain_fixture_hcf(capsys):
    code, stdout, _ = run(capsys, "label", "--chain-fixture", "--estimator", "hcf")
    assert code == 0
    assert "labeling: e e e e e e e e" in stdout
    assert "energy: -5.499999999999999" in stdout
    assert "iterations: 8" in stdout


def test_label_image_writes_outputs(tmp_path, capsys):
    board = tmp_path / "board.pgm"
    run(capsys, "generate", "--checker", "12x12", "--square", "4", "-o", str(board))
    outdir = tmp_path / "run"
    code, stdout, _ = run(capsys, "label", "--in", str(board), "-o", str(outdir))
    assert code == 0
    labels = outdir / "labels.mrfl"
    trace = outdir / "trace.csv"
    overlay = outdir / "overlay.pgm"
    for p in (labels, trace, overlay):
        assert p.exists()
        assert f"wrote {p}" in stdout
    width, height, config = read_mrfl(labels)
    assert (width, height) == (12, 12)
    assert config.size == 11 * 12 + 12 * 11
    lines = trace.read_text().splitlines()
    assert lines[0] == "iteration,energy,committed,changed"
    assert lines[1] == "0,0.0,0,0"
    canvas = read_pgm(overlay)
    assert (canvas.width, canvas.height) == (25, 25)
    first = [p.read_bytes() for p in (labels, trace, overlay)]
    run(capsys, "label", "--in", str(board), "-o", str(outdir))
    assert [p.read_bytes() for p in (labels, trace, overlay)] == first


def test_label_from_llr_file_matches_image_run(tmp_path, capsys):
    board = tmp_path / "board.pgm"
    run(capsys, "generate", "--checker", "10x8", "--square", "3", "-o", str(board))
    image = read_pgm(board)
    llr_path = tmp_path / "values.mrfllr"
    write_mrfllr(llr_path, image.width, image.height, edge_llr(image, EdgeModel()))
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    assert run(capsys, "label", "--in", str(board), "-o", str(dir_a))[0] == 0
    assert run(capsys, "label", "--llr", str(llr_path), "-o", str(dir_b))[0] == 0
    _w, _h, from_image = read_mrfl(dir_a / "labels.mrfl")
    _w, _h, from_llr = read_mrfl(dir_b / "labels.mrfl")
    assert (from_image == from_llr).all()
    assert not (dir_b / "overlay.pgm").exists()


def test_compare_on_the_chain_fixture(tmp_path, capsys):
    table = tmp_path / "table.csv"
    code, stdout, _ = run(capsys, "compare", "--chain-fixture",
                          "--seeds", "1,2", "-o", str(table))
    assert code == 0
    assert f"wrote {table}" in stdout
    lines = table.read_text().splitlines()
    assert lines[0] == "method,energy_mean,energy_best,runs,iterations_mean"
    body = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in body] == ["tlr", "annealing", "mpm", "icm-scan",
                                        "icm-random", "hcf", "local-hcf"]
    by_method = {row[0]: row for row in body}
    assert float(by_method["local-hcf"][1]) == pytest.approx(-6.0, abs=1e-9)
    assert float(by_method["hcf"][1]) == pytest.approx(-5.5, abs=1e-6)
    assert by_method["annealing"][3] == "2"
    assert by_method["tlr"][3] == "1"
    first = table.read_bytes()
    run(capsys, "compare", "--chain-fixture", "--seeds", "1,2", "-o", str(table))
    assert table.read_bytes() == first


def test_oracle_on_the_chain_fixture(capsys):
    code, stdout, _ = run(capsys, "oracle", "--chain-fixture")
    assert code == 0
    assert "method: chain-dp" in stdout
    assert "optimum: e n n n n n n n" in stdout
    assert "energy: -6.0" in stdout
    assert "ties: 1" in stdout


def test_oracle_verifies_a_labeling(tmp_path, capsys):
    probe = tmp_path / "all_edges.mrfl"
    write_mrfl(probe, np.ones(8, dtype=np.int64))
    code, stdout, _ = run(capsys, "oracle", "--chain-fixture",
                          "--verify", str(probe))
    assert code == 0
    assert "verify_energy: -5.499999999999999" in stdout
    assert "local_minimum: true" in stdout
    gap = [line for line in stdout.splitlines() if line.startswith("gap:")][0]
    assert float(gap.split()[1]) == pytest.approx(0.5, abs=1e-9)


def test_oracle_uses_brute_force_off_chains(tmp_path, capsys):
    board = tmp_path / "tiny.pgm"
    run(capsys, "generate", "--checker", "2x2", "--square", "1", "-o", str(board))
    code, stdout, _ = run(capsys, "oracle", "--in", str(board))
    assert code == 0
    assert "method: brute-force" in stdout
    assert "ties:" in stdout


def test_oracle_refuses_oversized_state_spaces(tmp_path, capsys):
    board = tmp_path / "big.pgm"
    run(capsys, "generate", "--checker", "5x4", "--square", "2", "-o", str(board))
    code, _, stderr = run(capsys, "oracle", "--in", str(board))
    assert code == 4
    assert "refusing" in stderr


def test_config_file_sets_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("estimator = hcf\n")
    code, stdout, _ = run(capsys, "label", "--chain-fixture", "--config", str(cfg))
    assert code == 0
    assert "labeling: e e e e e e e e" in stdout
    code, stdout, _ = run(capsys, "label", "--chain-fixture", "--config", str(cfg),
                          "--estimator", "local-hcf")
    assert code == 0
    assert "labeling: e n n n n n n n" in stdout


def test_config_file_errors(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("estimator = hcf\nbogus = 3\n")
    code, _, stderr = run(capsys, "label", "--chain-fixture", "--config", str(cfg))
    assert code == 3
    assert ":2:" in stderr
    cfg.write_text("estimator = nonsense\n")
    code, _, stderr = run(capsys, "label", "--chain-fixture", "--config", str(cfg))
    assert code == 2
    assert "estimator" in stderr


def test_input_selection_errors(tmp_path, capsys):
    code, _, stderr = run(capsys, "label", "--in", str(tmp_path / "missing.pgm"))
    assert code == 3
    code, _, stderr = run(capsys, "label", "--in", str(tmp_path / "x.pgm"),
                          "--chain-fixture")
    assert code == 2
    assert "exactly one input" in stderr
    code, _, stderr = run(capsys, "label")
    assert code == 2


def test_runtime_parameter_errors(capsys):
    code, _, stderr = run(capsys, "label", "--chain-fixture",
                          "--estimator", "annealing", "--t0", "-1")
    assert code == 4
    code, _, stderr = run(capsys, "label", "--chain-fixture", "--threads", "0")
    assert code == 2
    code, _, stderr = run(capsys, "label", "--chain-fixture",
                          "--ranks", "seeded-permutation")
    assert code == 2
    assert "rank-seed" in stderr


def test_bad_flags_exit_through_argparse(capsys):
    with pytest.raises(SystemExit) as info:
        main(["label", "--chain-fixture", "--estimator", "bogus"])
    assert info.value.code == 2
    capsys.readouterr()


def test_rank_flags_reach_the_run(capsys):
    code, stdout, _ = run(capsys, "label", "--chain-fixture",
                          "--ranks", "seeded-permutation", "--rank-seed", "11")
    assert code == 0
    assert "energy:" in stdout


@pytest.mark.filterwarnings("ignore:.* is usually positive")
def test_rank_flags_reach_serial_hcf(tmp_path, capsys):
    # on a zero-LLR lattice every uncommitted stability ties, so the rank
    # order decides which sites commit first and the labeling they reach
    llr_path = tmp_path / "zero.mrfllr"
    write_mrfllr(llr_path, 4, 4, np.zeros(24))
    model = ("--continuity", "-0.5", "--turn", "0", "--parallel", "0.3",
             "--edge-prior", "-0.4")
    field = build_edge_field(4, 4, EdgePotentials(-0.5, 0.0, 0.3, -0.4))
    data = llr_data_term(np.zeros(24))
    labelings = set()
    for seed in (None, 0, 1, 2, 3, 4):
        ranks = ("--ranks", "seeded-permutation", "--rank-seed", str(seed)) if seed is not None \
            else ()
        outdir = tmp_path / f"run{seed}"
        code, _, _ = run(capsys, "label", "--llr", str(llr_path), "--estimator", "hcf",
                         *model, *ranks, "-o", str(outdir))
        assert code == 0
        _w, _h, got = read_mrfl(outdir / "labels.mrfl")
        want, _trace = hcf_run(field, data, ranks=None if seed is None else
                               assign_ranks(field, "seeded-permutation", seed))
        assert got.tolist() == want.tolist()
        labelings.add(tuple(got.tolist()))
    assert len(labelings) > 1


def test_label_rejects_pgm_pixels_above_maxval(tmp_path, capsys):
    board = tmp_path / "bright.pgm"
    board.write_bytes(b"P5\n2 2\n100\n\x00\xc8\xff\x10")
    code, _, stderr = run(capsys, "label", "--in", str(board))
    assert code == 3
    assert "maxval" in stderr
