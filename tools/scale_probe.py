"""Large-board probe: every set-up layer and estimator timed once, and ``label`` wall time.

Usage, from the root of a checkout::

    python3 tools/scale_probe.py --size 200 --entry change -o BENCH_26.json
    python3 tools/scale_probe.py --size 200 --entry parent --src OTHER/src -o BENCH_26.json

On a clean ``size`` x ``size`` checkerboard (squares of 10, intensities
64/192, noise 8, seed 1; default model and potentials) it times, in
process and once each: the PGM read, the LLR, ``build_edge_field``, the
structural check on its own (``core._structure_problems``) and the first
``Field.compiled``. On a second field built the same way it records the
tracemalloc peak of that field's first ``Field.compiled``
(``compile_peak_mb``), and after the runs the tracemalloc peaks of one
warm ``energy()`` of the clean board's TLR labeling (``energy_peak_mb``)
and of one warm ``hcf_run`` on the clean board (``hcf_peak_mb``), all in
MiB. It then runs every estimator once on that board and
once on a noisy board of the same size (noise ``NOISY_SIGMA``, the model
at the same sigma; entries ``noisy_*``), where the Gibbs sweeps flip
sites and the HCF drivers revise them: ``local_hcf_run``, ``hcf_run``,
and from the TLR start ``icm_run`` in scan order and in random order
(seed 1), ``anneal_run`` (default schedule, seed 1) and ``mpm_run``
(default parameters). Next to each run it records, from the trace's
columns, the energy of its labeling and its iteration count
(``RunTrace.iterations``: the sweeps or, for serial HCF, the steps that
changed a site), so that a speed-up shows it kept the answer; for ICM,
annealing and MPM also the sweep count and the number of flips. For Local
HCF it records the sweep count and ``trace_digest``, a short hash of every
trace energy's exact bits, and for serial HCF a ``trace_digest`` of each
step's stability and then its energy, in step order, so that the whole
descent shows unchanged. After those runs it times ``local_hcf_run`` on
the all-zero edge lattice of ``min(size, ZERO_MAX_SIZE)`` (all potentials
and data 0, ranks seeded with 1), where every stability ties and the run
ends in the tie fallback: ``zero_local_hcf_s``, with the sweep and
iteration counts and the ``trace_digest`` under ``zero_local_hcf``.
Before that, it runs ``python -m mrfhcf label`` on the same board
``LABEL_RUNS`` times with Local HCF (``label``) and ``LABEL_RUNS`` times
with serial HCF (``label_hcf``), and records each child's wall time and
peak RSS, and the medians against the targets of at most
``TARGET_LABEL_S`` seconds and below ``TARGET_RSS_MB`` MB
(``TARGET_HCF_RSS_MB`` MB for serial HCF).

``--src`` probes the ``mrfhcf`` package of another checkout (its ``src``
directory), so two commits can be measured with one probe. It reads the
columnar ``RunTrace``, so a checkout from before that schema is probed
with its own copy of this file. The result is
stored under ``entries[ENTRY]`` of the output JSON; other entries already
in the file are kept. ``-o`` has no default, so that a plain run cannot
add to an earlier record by mistake. Single runs on a shared machine:
expect noise of tens of percent between runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LABEL_RUNS = 3
TARGET_LABEL_S = 1.5
TARGET_RSS_MB = 100.0
TARGET_HCF_RSS_MB = 125.0
NOISY_SIGMA = 40.0
ZERO_MAX_SIZE = 50


def _timed(layers, name, call, *args, **kwargs):
    start = time.perf_counter()
    out = call(*args, **kwargs)
    layers[name] = time.perf_counter() - start
    return out


def traced_peak_mb(call) -> float:
    """The tracemalloc peak of the allocations ``call()`` makes, in MiB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def trace_digest(values) -> str:
    """The first 16 hex digits of SHA-256 over the ``float.hex`` of ``values``, in order."""
    text = ",".join(value.hex() for value in values)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def probe_layers(size: int, board: Path) -> dict:
    """In-process layer times and estimator results on the board file."""
    import warnings

    import numpy as np

    from mrfhcf import (AnnealSchedule, DataTerm, EdgeModel, EdgePotentials, MpmParams,
                        anneal_run, assign_ranks, build_edge_field, compute_llr, energy,
                        hcf_run, icm_run, local_hcf_run, make_checkerboard, mpm_run, tlr)
    from mrfhcf.core import _structure_problems
    from mrfhcf.fileio import read_pgm

    layers = {}
    image = _timed(layers, "read_s", read_pgm, board)
    data = _timed(layers, "llr_s", compute_llr, image)
    field = _timed(layers, "build_edge_field_s", build_edge_field, size, size)
    problems = _timed(layers, "check_s", _structure_problems, field)
    if problems:
        raise RuntimeError(f"invalid field: {problems[:3]}")
    _timed(layers, "compile_s", lambda: field.compiled)
    fresh = build_edge_field(size, size)
    compile_peak = traced_peak_mb(lambda: fresh.compiled)
    del fresh

    noisy = compute_llr(make_checkerboard(size, size, 10, 64, 192, NOISY_SIGMA, 1),
                        EdgeModel(sigma=NOISY_SIGMA))
    waves = (("icm", icm_run, ("scan", 1)), ("icm_random", icm_run, ("random", 1)),
             ("anneal", anneal_run, (AnnealSchedule(), 1)), ("mpm", mpm_run, (MpmParams(),)))
    estimators = {}
    for prefix, llr in (("", data), ("noisy_", noisy)):
        def run(name, call, *args):
            cfg, trace = _timed(layers, f"{prefix}{name}_s", call, field, llr, *args)
            estimators[prefix + name] = {"energy": energy(field, llr, cfg)}
            return estimators[prefix + name], trace

        entry, trace = run("local_hcf", local_hcf_run)
        entry.update(iterations=trace.iterations, sweeps=trace.energy.size - 1,
                     trace_digest=trace_digest(trace.energy.tolist()))
        entry, trace = run("hcf", hcf_run)
        steps = zip(trace.stability.tolist(), trace.energy[1:].tolist())
        entry.update(iterations=trace.iterations,
                     trace_digest=trace_digest(value for step in steps for value in step))
        init = tlr(field, llr)
        for name, call, args in waves:
            entry, trace = run(name, call, init, *args)
            entry.update(iterations=trace.iterations, sweeps=trace.energy.size - 1,
                         flips=int(trace.changed.sum()))
    side = min(size, ZERO_MAX_SIZE)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero potentials are legal, just unusual
        zero = build_edge_field(side, side, EdgePotentials(0.0, 0.0, 0.0, 0.0))
    zero.compiled  # compiled outside the timed run, as the boards are
    _cfg, trace = _timed(layers, "zero_local_hcf_s", local_hcf_run, zero,
                         DataTerm(np.zeros((zero.num_sites, 2))),
                         assign_ranks(zero, "seeded-permutation", 1))
    estimators["zero_local_hcf"] = {"iterations": trace.iterations,
                                    "sweeps": trace.energy.size - 1,
                                    "trace_digest": trace_digest(trace.energy.tolist())}
    init = tlr(field, data)
    energy(field, data, init)
    return {"sites": field.num_sites, "layers_s": layers, "estimators": estimators,
            "compile_peak_mb": compile_peak,
            "energy_peak_mb": traced_peak_mb(lambda: energy(field, data, init)),
            "hcf_peak_mb": traced_peak_mb(lambda: hcf_run(field, data))}


def probe_label(src: Path, board: Path, outdir: Path, estimator: str,
                target_rss_mb: float) -> dict:
    """``label`` with ``estimator`` on the board ``LABEL_RUNS`` times: each child's
    wall time and peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "mrfhcf", "label", "--in", str(board), "--estimator",
            estimator, "-o", str(outdir)]
    walls, rss = [], []
    for _ in range(LABEL_RUNS):
        start = time.perf_counter()
        child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
        _pid, status, usage = os.wait4(child.pid, 0)
        walls.append(time.perf_counter() - start)
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
        if child.returncode:
            raise RuntimeError(f"label exited with {child.returncode}")
        rss.append(usage.ru_maxrss / 1024)  # KiB on Linux
    wall, peak = statistics.median(walls), statistics.median(rss)
    return {"runs": LABEL_RUNS, "wall_s": walls, "peak_rss_mb": rss,
            "wall_s_median": wall, "peak_rss_mb_median": peak,
            "target_wall_s": TARGET_LABEL_S, "target_peak_rss_mb": target_rss_mb,
            "wall_target_met": wall <= TARGET_LABEL_S,
            "rss_target_met": peak < target_rss_mb}


def probe(size: int, src: Path) -> dict:
    sys.path.insert(0, str(src))
    import numpy as np

    from mrfhcf import make_checkerboard
    from mrfhcf.fileio import write_pgm

    with tempfile.TemporaryDirectory() as tmp:
        board = Path(tmp) / "board.pgm"
        write_pgm(board, make_checkerboard(size, size, 10, 64, 192, 8.0, 1))
        # label first: on Linux a child's ru_maxrss also counts the address
        # space it was started from, so the probe must still be small
        label = probe_label(src, board, Path(tmp) / "out", "local-hcf", TARGET_RSS_MB)
        label_hcf = probe_label(src, board, Path(tmp) / "out_hcf", "hcf", TARGET_HCF_RSS_MB)
        entry = probe_layers(size, board)
    entry.update(label=label, label_hcf=label_hcf, size=size, machine={
        "python": platform.python_version(), "numpy": np.__version__,
        "cpus": os.cpu_count(), "platform": platform.platform()})
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--size", type=int, default=200)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--entry", default="change")
    parser.add_argument("-o", "--output", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.size < 2:
        parser.error("--size must be at least 2")
    entry = probe(args.size, args.src.resolve())
    record = json.loads(args.output.read_text()) if args.output.exists() else {}
    record.setdefault("entries", {})[args.entry] = entry
    args.output.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    label, label_hcf = entry["label"], entry["label_hcf"]
    print(f"{args.entry}: build {entry['layers_s']['build_edge_field_s']:.3f} s, "
          f"label {label['wall_s_median']:.2f} s, {label['peak_rss_mb_median']:.0f} MB, "
          f"label hcf {label_hcf['wall_s_median']:.2f} s, "
          f"{label_hcf['peak_rss_mb_median']:.0f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
