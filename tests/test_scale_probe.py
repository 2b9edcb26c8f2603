"""Smoke test of tools/scale_probe.py on a small board."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "scale_probe.py"


def load_probe():
    spec = importlib.util.spec_from_file_location("scale_probe", TOOL)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe


def test_probe_needs_an_output_file(capsys):
    with pytest.raises(SystemExit) as exit_info:
        load_probe().main(["--size", "8"])
    assert exit_info.value.code == 2
    assert "-o/--output" in capsys.readouterr().err


def test_probe_writes_every_layer_estimator_and_label_record(tmp_path, capsys):
    probe = load_probe()
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"entries": {"parent": {"kept": True}}}))
    assert probe.main(["--size", "8", "--entry", "change", "-o", str(out)]) == 0
    assert "change: build" in capsys.readouterr().out

    entries = json.loads(out.read_text())["entries"]
    assert entries["parent"] == {"kept": True}
    entry = entries["change"]
    assert set(entry) == {"size", "sites", "machine", "layers_s", "estimators", "label",
                          "label_hcf", "compile_peak_mb", "energy_peak_mb", "hcf_peak_mb"}
    # the compile's transients outgrow one energy() of the same field
    assert entry["compile_peak_mb"] > entry["energy_peak_mb"] > 0
    assert entry["hcf_peak_mb"] > 0
    assert entry["size"] == 8 and entry["sites"] == 2 * 8 * 7
    assert set(entry["layers_s"]) == {
        "read_s", "llr_s", "build_edge_field_s", "check_s", "compile_s", "local_hcf_s",
        "hcf_s", "icm_s", "icm_random_s", "anneal_s", "mpm_s", "noisy_local_hcf_s",
        "noisy_hcf_s", "noisy_icm_s", "noisy_icm_random_s", "noisy_anneal_s", "noisy_mpm_s",
        "zero_local_hcf_s"}
    assert set(entry["estimators"]) == {"local_hcf", "hcf", "icm", "icm_random", "anneal", "mpm",
                                        "noisy_local_hcf", "noisy_hcf", "noisy_icm",
                                        "noisy_icm_random", "noisy_anneal", "noisy_mpm",
                                        "zero_local_hcf"}
    # a clean board: every deterministic estimator finds the same labeling
    deterministic = [entry["estimators"][name]
                     for name in ("local_hcf", "hcf", "icm", "icm_random")]
    assert len({e["energy"] for e in deterministic}) == 1
    assert all(e["iterations"] > 0 for e in deterministic[:2])
    # ICM from the TLR start of a clean board need change no site, but it sweeps
    assert all(e["sweeps"] > 0 for e in deterministic[2:])
    # no Gibbs sweep need flip a site of a clean board, but every sweep is counted
    assert entry["estimators"]["anneal"]["sweeps"] == 100
    assert entry["estimators"]["mpm"]["sweeps"] == 120
    # on the noisy board the Gibbs sweeps do flip sites
    noisy = {name: entry["estimators"][f"noisy_{name}"] for name in ("anneal", "mpm")}
    assert noisy["anneal"]["sweeps"] == 100 and noisy["mpm"]["sweeps"] == 120
    assert all(e["flips"] > 0 and e["iterations"] > 0 for e in noisy.values())
    for name in ("icm", "icm_random", "noisy_icm", "noisy_icm_random"):
        assert set(entry["estimators"][name]) == {"energy", "iterations", "sweeps", "flips"}
    for name in ("local_hcf", "noisy_local_hcf"):
        assert set(entry["estimators"][name]) == {"energy", "iterations", "sweeps",
                                                  "trace_digest"}
        assert entry["estimators"][name]["sweeps"] > 0
        assert re.fullmatch("[0-9a-f]{16}", entry["estimators"][name]["trace_digest"])
    # the two boards descend differently
    assert (entry["estimators"]["local_hcf"]["trace_digest"]
            != entry["estimators"]["noisy_local_hcf"]["trace_digest"])
    # on the all-zero lattice sweep 1 commits the sites that rank below
    # their neighbours and sweep 2 is quiet; the tie fallback then commits
    # the rest one row at a time, each followed by a quiet row
    zero = entry["estimators"]["zero_local_hcf"]
    assert set(zero) == {"iterations", "sweeps", "trace_digest"}
    assert zero["iterations"] > 1 and zero["sweeps"] == 2 * zero["iterations"]
    assert re.fullmatch("[0-9a-f]{16}", zero["trace_digest"])
    for name in ("hcf", "noisy_hcf"):
        assert set(entry["estimators"][name]) == {"energy", "iterations", "trace_digest"}
        assert re.fullmatch("[0-9a-f]{16}", entry["estimators"][name]["trace_digest"])
    assert (entry["estimators"]["hcf"]["trace_digest"]
            != entry["estimators"]["noisy_hcf"]["trace_digest"])
    # serial HCF steps at least once per site on the noisy board too
    assert entry["estimators"]["noisy_hcf"]["iterations"] >= entry["sites"]
    for label in (entry["label"], entry["label_hcf"]):
        assert set(label) == {
            "runs", "wall_s", "peak_rss_mb", "wall_s_median", "peak_rss_mb_median",
            "target_wall_s", "target_peak_rss_mb", "wall_target_met", "rss_target_met"}
        assert len(label["wall_s"]) == len(label["peak_rss_mb"]) == label["runs"]
        assert label["peak_rss_mb_median"] > 0
    assert (entry["label"]["target_peak_rss_mb"], entry["label_hcf"]["target_peak_rss_mb"]) == (
        100.0, 125.0)


def test_trace_digest_hashes_the_exact_bits_in_order():
    digest = load_probe().trace_digest
    assert digest([0.0, 1.5]) == digest(iter([0.0, 1.5]))
    assert len({digest([0.0, 1.5]), digest([1.5, 0.0]), digest([-0.0, 1.5]),
                digest([0.0, 1.5 + 2**-52])}) == 4
