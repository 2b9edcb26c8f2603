import hashlib
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from mrfhcf import (EdgeModel, EdgePotentials, assign_ranks, build_edge_field, edge_llr,
                    hcf_run, llr_data_term, read_mrfl, read_pgm, write_mrfl, write_mrfllr)
from mrfhcf.cli import CONFIG_SCHEMA, RunConfig, _build_parser, main, resolve_run_config


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
    assert run(capsys, "generate", "--noise-sigma", "nan", "-o", out)[0] == 2
    assert run(capsys, "generate", "--noise-sigma", "inf", "-o", out)[0] == 2
    assert run(capsys, "generate", "--checker", "0x5", "-o", out)[0] == 2
    assert run(capsys, "generate", "--checker", "\u00b2x5", "-o", out)[0] == 2
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


def sha(data):
    return hashlib.sha256(data).hexdigest()[:16]


# the first 16 hex digits of the SHA-256 of each `label -o` output, and of the
# stdout without its `wrote` lines: on a 16x16 board with noise 40 and model
# sigma 40, where serial HCF revises 3 sites and Local HCF 3, and on the chain
# fixture; any change to a trace, labeling or overlay byte shows here
PINNED_LABEL = {
    "tlr": ("6910081f789ec140", "d4c41a4ac6b64e67", "2b3c858790e0739d",
            "sites: 480\nenergy: -605.0600000000004\niterations: 0\n"),
    "annealing": ("132b1195e80ff18f", "57fb89b8ec300958", "26d1691a27e5ff2d",
                  "sites: 480\nenergy: -613.8200000000003\niterations: 99\n"),
    "mpm": ("24362644d5a414af", "9f2977867835f15b", "701978427aca6205",
            "sites: 480\nenergy: -612.4800000000004\niterations: 120\n"),
    "icm-scan": ("132b1195e80ff18f", "3a52f1547dc72d00", "26d1691a27e5ff2d",
                 "sites: 480\nenergy: -613.8200000000003\niterations: 2\n"),
    "icm-random": ("132b1195e80ff18f", "170855af63c2e777", "26d1691a27e5ff2d",
                   "sites: 480\nenergy: -613.8200000000003\niterations: 2\n"),
    "hcf": ("9018d07bbe9c9d83", "2c0f3baf94ef5f3d", "82f2df83ff5e4612",
            "sites: 480\nenergy: -613.7600000000003\niterations: 483\n"),
    "local-hcf": ("9018d07bbe9c9d83", "5d187517d427438b", "82f2df83ff5e4612",
                  "sites: 480\nenergy: -613.7600000000003\niterations: 17\n"),
    "chain-hcf": ("8800b625bcc5e829", "996bf9a02eaff661", None,
                  "labeling: e e e e e e e e\nsites: 8\nenergy: -5.499999999999999\n"
                  "iterations: 8\n"),
}
PINNED_COMPARE = "0d07f6786fd1c8e9"


@pytest.fixture(scope="module")
def pin_board(tmp_path_factory):
    board = tmp_path_factory.mktemp("pin") / "board.pgm"
    assert main(["generate", "--checker", "16x16", "--square", "4", "--noise-sigma", "40",
                 "--seed", "1", "-o", str(board)]) == 0
    return board


@pytest.mark.parametrize("name", list(PINNED_LABEL))
def test_label_outputs_are_pinned_byte_for_byte(tmp_path, capsys, pin_board, name):
    capsys.readouterr()
    source = (("--chain-fixture", "--estimator", "hcf") if name == "chain-hcf" else
              ("--in", str(pin_board), "--sigma", "40", "--estimator", name))
    code, stdout, _ = run(capsys, "label", *source, "-o", str(tmp_path))
    assert code == 0
    labels, trace, overlay, text = PINNED_LABEL[name]
    assert "".join(line for line in stdout.splitlines(True)
                   if not line.startswith("wrote ")) == text
    assert sha((tmp_path / "labels.mrfl").read_bytes()) == labels
    assert sha((tmp_path / "trace.csv").read_bytes()) == trace
    if overlay is None:
        assert not (tmp_path / "overlay.pgm").exists()
    else:
        assert sha((tmp_path / "overlay.pgm").read_bytes()) == overlay


def test_compare_output_is_pinned_byte_for_byte(tmp_path, capsys, pin_board):
    table = tmp_path / "table.csv"
    assert run(capsys, "compare", "--in", str(pin_board), "--sigma", "40", "--seeds", "1,2",
               "-o", str(table))[0] == 0
    assert sha(table.read_bytes()) == PINNED_COMPARE


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


@pytest.mark.parametrize("labels", [[0] * 5, [0, 0, 0, 2, 0, 0, 0, 0]], ids=["5-sites", "label-2"])
def test_oracle_refuses_a_labeling_that_does_not_fit_the_field(tmp_path, capsys, labels):
    probe = tmp_path / "misfit.mrfl"
    write_mrfl(probe, labels)
    code, stdout, stderr = run(capsys, "oracle", "--chain-fixture", "--verify", str(probe))
    assert code == 3
    assert stderr.startswith(f"error: {probe}: ")
    assert "verify_energy" not in stdout


def test_oracle_refuses_a_labeling_whose_site_count_exceeds_its_body(tmp_path, capsys):
    probe = tmp_path / "huge.mrfl"
    probe.write_text("MRFL 1\n0 0 1000000000000\n0 0\n")
    code, stdout, stderr = run(capsys, "oracle", "--chain-fixture", "--verify", str(probe))
    assert code == 3
    assert stderr == f"error: {probe}: 999999999999 sites missing a label\n"
    assert "verify_energy" not in stdout


def test_oracle_refuses_a_label_past_int64(tmp_path, capsys):
    probe = tmp_path / "wide.mrfl"
    probe.write_text("MRFL 1\n0 0 8\n0 18446744073709551616\n"
                     + "".join(f"{s} 0\n" for s in range(1, 8)))
    code, stdout, stderr = run(capsys, "oracle", "--chain-fixture", "--verify", str(probe))
    assert code == 3
    assert stderr == f"error: {probe}:3: label must be a non-negative 64-bit integer\n"
    assert "verify_energy" not in stdout


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


# every setting, at a value other than its default: (flag, text)
EVERY_SETTING = {
    "estimator": ("--estimator", "hcf"),
    "mu_e": ("--mu-e", "100.5"),
    "sigma": ("--sigma", "5.25"),
    "continuity": ("--continuity", "-1.5"),
    "turn": ("--turn", "0.75"),
    "parallel": ("--parallel", "0.625"),
    "edge_prior": ("--edge-prior", "0.125"),
    "t0": ("--t0", "3.5"),
    "alpha": ("--alpha", "0.875"),
    "sweeps": ("--sweeps", "7"),
    "burn_in": ("--burn-in", "3"),
    "samples": ("--samples", "9"),
    "seed": ("--seed", "11"),
    "seeds": ("--seeds", "4,5"),
    "rank_mode": ("--ranks", "seeded-permutation"),
    "rank_seed": ("--rank-seed", "13"),
    "max_iterations": ("--max-iterations", "17"),
}


def test_config_file_sets_every_setting_as_its_flag_does(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {text}\n" for key, (_flag, text) in EVERY_SETTING.items()))
    flags = [arg for flag, text in EVERY_SETTING.values() for arg in (flag, text)]
    parser = _build_parser()
    from_file = resolve_run_config(parser.parse_args(["label", "--chain-fixture",
                                                      "--config", str(cfg)]))
    from_flags = resolve_run_config(parser.parse_args(["label", "--chain-fixture", *flags]))
    assert from_file == from_flags
    assert all(getattr(from_file, key) != value for key, value in vars(RunConfig()).items())


def test_flags_config_keys_and_run_config_name_the_same_settings():
    parser = _build_parser()
    not_settings = {"command", "func", "image", "llr", "chain_fixture", "config", "output",
                    "verify"}
    settings = set(vars(RunConfig()))
    assert set(CONFIG_SCHEMA) == settings == set(EVERY_SETTING)
    for command in (["label"], ["compare", "-o", "x.csv"], ["oracle"]):
        assert set(vars(parser.parse_args(command))) - not_settings == settings


def test_readme_lists_every_settings_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"Estimator and model settings \((.*?)\)", readme, re.S).group(1)
    label = _build_parser()._subparsers._group_actions[0].choices["label"]
    group, = (g for g in label._action_groups if g.title == "model and estimator settings")
    assert re.findall(r"`(--[\w-]+)`", listed) == [a.option_strings[0]
                                                   for a in group._group_actions]


def test_max_iterations_help_says_it_caps_local_hcf_only(capsys):
    with pytest.raises(SystemExit):
        main(["label", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "--max-iterations MAX_ITERATIONS cap on Local HCF sweeps (local-hcf only)" in text


def test_threads_is_no_setting(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["label", "--chain-fixture", "--threads", "2"])
    assert info.value.code == 2
    assert "--threads" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threads = 2\n")
    code, _, stderr = run(capsys, "label", "--chain-fixture", "--config", str(cfg))
    assert code == 3
    assert ":1:" in stderr and "unknown key" in stderr


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
    code, _, stderr = run(capsys, "label", "--chain-fixture",
                          "--ranks", "seeded-permutation")
    assert code == 2
    assert "rank-seed" in stderr


@pytest.mark.parametrize("flag, value", [("--sigma", "1e200"), ("--sigma", "1e-200"),
                                         ("--mu-e", "1e200")])
def test_model_values_past_the_float_range_exit_4_without_a_warning(tmp_path, capsys,
                                                                    flag, value):
    board = tmp_path / "board.pgm"
    run(capsys, "generate", "--checker", "8x8", "--square", "2", "-o", str(board))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = run(capsys, "label", "--in", str(board), flag, value)
    assert (code, stdout) == (4, "")
    assert stderr == "error: mu_e and sigma give non-finite log likelihood ratios\n"


@pytest.mark.parametrize("estimator", ["hcf", "local-hcf", "icm-scan", "tlr"])
def test_llrs_whose_energies_overflow_exit_4_without_a_warning(tmp_path, capsys, estimator):
    # 24 finite LLRs of 1e307 sum past the float range
    llr = tmp_path / "big.llr"
    write_mrfllr(llr, 4, 4, np.full(24, 1e307))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = run(capsys, "label", "--llr", str(llr), "--estimator", estimator)
    assert (code, stdout) == (4, "")
    assert stderr == ("error: energies could overflow: the largest clique and data terms sum "
                      "in magnitude to more than half the largest float\n")


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
