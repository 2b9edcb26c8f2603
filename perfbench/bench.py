"""Workloads, timed rounds, traced rounds and output checks of the benchmark.

``perfbench/run.py`` is the entry point; this module expects ``mrfhcf`` to
be importable and does all the work. See run.py for the metrics.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import sys
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mrfhcf
from mrfhcf import (AnnealSchedule, EdgeModel, EdgePotentials, Image, MpmParams,
                    UNCOMMITTED, anneal_run, assign_ranks, augmented_energy,
                    build_edge_field, compute_llr, energy, fully_committed, hcf_run,
                    icm_run, is_local_minimum, llr_data_term, local_energies,
                    local_hcf_run, local_hcf_step, make_checkerboard, mpm_run,
                    new_configuration, read_mrfl, read_mrfllr, read_pgm,
                    render_overlay, tlr, validate_field, write_mrfl, write_mrfllr,
                    write_pgm, write_trace_csv)
from mrfhcf.trace import TraceRow

from benchlib import (ChildRunner, Tracer, digest, hcf_counters, local_hcf_counters,
                      median, no_span, reference_loop_s, scaled)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

# inputs after the first of a batch take seed + STRIDE * index
STRIDE = 1_000_003


@dataclass(frozen=True)
class Workload:
    """One seeded batch of inputs and the operations run on it.

    ``size`` is the image width and height, ``count`` the number of
    inputs in the batch. The CLI command runs on the first input; the
    in-process estimators run on every input.
    """
    name: str
    kind: str            # "board" (PGM checkerboard) or "ties" (all-zero MRFLLR)
    size: int
    count: int
    cli: str             # "label" or "compare"
    noise: float = 8.0   # checkerboard noise sigma
    sigma: float = 8.0   # model noise sigma (--sigma)


WORKLOADS = {
    "board-clean": Workload("board-clean", "board", 20, 8, "label"),
    "board-noisy": Workload("board-noisy", "board", 16, 8, "compare",
                            noise=40.0, sigma=40.0),
    "ties-zero": Workload("ties-zero", "ties", 9, 4, "label"),
}

# the sizes the workloads were first specified at; one input each
FULL_SIZES = {"board-clean": 128, "board-noisy": 50, "ties-zero": 24}

DETERMINISTIC = ("local_hcf", "hcf", "icm")
LAYERS = ("cli", "fileio", "edges", "core", "local_hcf", "hcf", "baselines", "oracles")


def full_scale(w: Workload) -> Workload:
    return Workload(w.name, w.kind, FULL_SIZES[w.name], 1, w.cli, w.noise, w.sigma)


def machine_record() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mrfhcf": mrfhcf.__version__,
        "platform": platform.platform(),
    }


class Checks:
    """Operations attempted, operations whose output check failed, and why."""

    def __init__(self):
        self.attempted = 0
        self.failed_ops: set = set()
        self.messages: list[str] = []

    def op(self, key) -> tuple:
        self.attempted += 1
        return key

    def expect(self, ok: bool, key, message: str) -> None:
        if not ok:
            self.failed_ops.add(key)
            self.messages.append(f"{key}: {message}")


class Bench:
    """Inputs, library settings and check state of one benchmark run."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, runner: ChildRunner):
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.runner = runner
        self.checks = Checks()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.model = EdgeModel(128.0, workload.sigma)
        if workload.kind == "ties":
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # zero potentials warn by design
                self.potentials = EdgePotentials(0.0, 0.0, 0.0, 0.0)
        else:
            self.potentials = EdgePotentials()
        self.inputs = self._write_inputs()
        # round 0: (estimator, input) -> (labels, trace digest); "local_rows" -> input 0's trace
        self.first: dict = {}
        self.cli_first: dict | None = None

    # -- inputs -------------------------------------------------------------

    def _write_inputs(self) -> list[Path]:
        w = self.w
        paths = []
        for i in range(w.count):
            if w.kind == "board":
                image = make_checkerboard(w.size, w.size, 10, 64, 192, w.noise,
                                          self.seed + STRIDE * i)
                path = self.workdir / f"input{i}.pgm"
                write_pgm(path, image)
            else:
                num_sites = 2 * w.size * (w.size - 1)
                path = self.workdir / f"input{i}.mrfllr"
                write_mrfllr(path, w.size, w.size, np.zeros(num_sites))
            paths.append(path)
        return paths

    def rank_seed(self, i: int) -> int:
        return self.seed + STRIDE * i

    def ranks(self, field, i: int):
        if self.w.kind == "ties":
            return assign_ranks(field, "seeded-permutation", self.rank_seed(i))
        return None

    def cli_argv(self, outdir: Path) -> list[str]:
        w = self.w
        argv = [sys.executable, "-m", "mrfhcf", w.cli]
        if w.kind == "board":
            argv += ["--in", str(self.inputs[0]), "--sigma", repr(w.sigma)]
        else:
            argv += ["--llr", str(self.inputs[0]), "--continuity", "0", "--turn", "0",
                     "--parallel", "0", "--edge-prior", "0",
                     "--ranks", "seeded-permutation", "--rank-seed", str(self.rank_seed(0))]
        if w.cli == "compare":
            return argv + ["--seeds", str(self.seed), "-o", str(outdir / "compare.csv")]
        return argv + ["-o", str(outdir)]

    def input_record(self) -> list[dict]:
        out = []
        for i, path in enumerate(self.inputs):
            field, _data, _image, _problems = self.setup(i, no_span)
            out.append({"file": path.name, "bytes": path.stat().st_size,
                        "sites": field.num_sites, "cliques": len(field.cliques)})
        return out

    # -- library calls ------------------------------------------------------

    def setup(self, i: int, span):
        """Input file on disk -> validated (field, data), one span per layer call."""
        path = self.inputs[i]
        image = None
        if self.w.kind == "board":
            with span("fileio.read"):
                image = read_pgm(path)
            with span("edges.compute_llr"):
                data = compute_llr(image, self.model)
            width, height = image.width, image.height
        else:
            with span("fileio.read"):
                width, height, llr = read_mrfllr(path)
            with span("edges.compute_llr"):
                data = llr_data_term(llr)
        with span("edges.build_edge_field"):
            field = build_edge_field(width, height, self.potentials)
        with span("core.validate_field"):
            problems = validate_field(field)
        return field, data, image, problems

    def run_cli(self, r: int):
        """One CLI run on input 0, with its checks; returns the ChildResult."""
        outdir = self.workdir / f"cli{r % 2}"
        outdir.mkdir(exist_ok=True)
        result = self.runner.run(self.cli_argv(outdir), self.env, self.workdir)
        key = self.checks.op(("cli", r))
        self.checks.expect(result.returncode == 0, key,
                           f"exit code {result.returncode}: {result.stderr.strip()[-300:]}")
        files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
        hashes = {name: digest(data) for name, data in files.items()}
        if self.cli_first is None:
            self.cli_first = {"key": key, "stdout": result.stdout, "files": files,
                              "hashes": hashes}
        else:
            self.checks.expect(hashes == self.cli_first["hashes"], key,
                               "output bytes differ from the first run")
        return result

    def check_cli_against_library(self, field, data) -> None:
        """The first CLI run's outputs against the in-process results on input 0."""
        first = self.cli_first
        key = first["key"]
        files = first["files"]
        if self.w.cli == "compare":
            self._check_compare_csv(key, files.get("compare.csv", b""), field, data)
            return
        wanted = ("labels.mrfl", "trace.csv") + (("overlay.pgm",) if self.w.kind == "board" else ())
        for name in wanted:
            self.checks.expect(name in files, key, f"{name} not written")
        try:
            _w, _h, labels = read_mrfl(self.workdir / "cli0" / "labels.mrfl")
        except (OSError, ValueError) as exc:
            self.checks.expect(False, key, f"labels.mrfl unreadable: {exc}")
            return
        lines = [l for l in first["stdout"].splitlines() if l.startswith("energy: ")]
        expected = repr(energy(field, data, labels))
        self.checks.expect(lines == [f"energy: {expected}"], key,
                           f"energy line {lines} is not energy() of labels.mrfl {expected}")
        self.checks.expect(np.array_equal(labels, self.first[("local_hcf", 0)][0]), key,
                           "CLI labeling differs from local_hcf_run")

    def _check_compare_csv(self, key, text: bytes, field, data) -> None:
        rows = {}
        for line in text.decode("ascii", errors="replace").splitlines()[1:]:
            parts = line.split(",")
            if len(parts) == 5:
                rows[parts[0]] = parts[1]
        self.checks.expect(len(rows) == 7, key, f"compare table has {len(rows)} methods")
        expected = {"tlr": tlr(field, data)}
        for name, method in (("local_hcf", "local-hcf"), ("hcf", "hcf"), ("icm", "icm-scan")):
            expected[method] = self.first[(name, 0)][0]
        for method, cfg in expected.items():
            want = repr(energy(field, data, cfg))
            self.checks.expect(rows.get(method) == want, key,
                               f"compare {method} energy {rows.get(method)} != {want}")

    def solve_all(self, r: int, i: int, field, data, times: dict) -> None:
        """The three timed estimator calls on one input, with their checks."""
        ranks = self.ranks(field, i)
        cfg, trace = _timed(times, ("local_hcf_s", i), local_hcf_run, field, data, ranks=ranks)
        times["local_hcf_sweeps", i] = len(trace.rows) - 1
        self._record(r, i, "local_hcf", cfg, trace.rows)
        if r == 0 and i == 0:
            self.first["local_rows"] = trace.rows

        hcfg, htrace = _timed(times, ("hcf_s", i), hcf_run, field, data, ranks=ranks)
        self._record(r, i, "hcf", hcfg, htrace.steps)

        init = tlr(field, data)
        icfg, itrace = _timed(times, ("icm_s", i), icm_run, field, data, init, order="scan")
        self._record(r, i, "icm", icfg, itrace.rows)

    def _record(self, r: int, i: int, name: str, cfg, trace) -> None:
        """Keep round 0's result; later rounds must reproduce it exactly."""
        key = self.checks.op((name, r, i))
        found = (cfg, digest(trace))
        first = self.first.setdefault((name, i), found)
        if first is not found:
            self.checks.expect(np.array_equal(first[0], cfg) and first[1] == found[1], key,
                               "result differs from the first round")

    def step_loop(self, field, data, ranks, span):
        """Drive ``local_hcf_step`` from outside until the first quiet sweep.

        Returns the trace rows this produces (row 0 included), built the
        way ``local_hcf_run`` builds its own.
        """
        cfg = new_configuration(field.num_sites)
        rows = [TraceRow(0, 0.0, 0, 0)]
        committed = 0
        while True:
            with span("local_hcf.step"):
                cfg, step = local_hcf_step(field, data, cfg, ranks)
            committed += step.new_commits
            rows.append(TraceRow(len(rows), step.energy_after, committed,
                                 len(step.changed_sites)))
            if not step.any_change:
                return rows

    def verify(self) -> list:
        """Checks made once, after the timed rounds; returns the reference entry."""
        entry = []
        for i in range(self.w.count):
            field, data, _image, _problems = self.setup(i, no_span)
            ranks = self.ranks(field, i)
            key = self.checks.op(("local_hcf_t2", 0, i))
            cfg2, trace2 = local_hcf_run(field, data, ranks=ranks, threads=2)
            self.checks.expect(np.array_equal(cfg2, self.first[("local_hcf", i)][0])
                               and digest(trace2.rows) == self.first[("local_hcf", i)][1],
                               key, "threads=2 result or trace differs from threads=1")
            results = {}
            for name in DETERMINISTIC:
                cfg = self.first[(name, i)][0]
                ok = fully_committed(cfg) and is_local_minimum(field, data, cfg)
                self.checks.expect(ok, (name, 0, i), "not a fully committed local minimum")
                results[name] = [digest(cfg), repr(energy(field, data, cfg))]
            entry.append(results)
            if i == 0:
                key = self.checks.op(("step_loop", 0))
                rows = self.step_loop(field, data, ranks, no_span)
                self.checks.expect(tuple(rows) == self.first["local_rows"][:len(rows)], key,
                                   "local_hcf_step loop does not reproduce local_hcf_run")
        self._check_reference(entry)
        return entry

    def _check_reference(self, entry) -> None:
        if self.w != WORKLOADS[self.w.name]:
            return  # recorded for the standard sizes only
        try:
            known = json.loads(REFERENCE.read_text())
        except (OSError, ValueError):
            return
        ref = known.get(self.w.name, {}).get(str(self.seed))
        if ref is None:
            return
        for i, (got, want) in enumerate(zip(entry, ref)):
            for name in DETERMINISTIC:
                self.checks.expect(got[name] == want[name], (name, 0, i),
                                   f"labeling {got[name]} differs from reference {want[name]}")


def _timed(times: dict, key, fn, *args, **kwargs):
    """Call ``fn`` from a freshly collected heap, between two speed probes.

    ``times[key]`` gets (wall seconds, mean probe seconds). Collecting
    first keeps the benchmark's own garbage from being charged to
    whichever call happens to trigger the next collection.
    """
    gc.collect()
    before = reference_loop_s()
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    wall = time.perf_counter() - start
    times[key] = (wall, (before + reference_loop_s()) / 2)
    return out


# -- timed run (tracing off) ------------------------------------------------

E2E_UNITS = {
    "setup_s": "s", "cli_s": "s", "peak_rss_mb": "MB", "local_hcf_s": "s",
    "hcf_s": "s", "icm_s": "s", "local_hcf_sweeps": "count",
}


def timed_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Rounds of every operation until ``seconds`` are used.

    A timing is the median over rounds of each input's scaled time (see
    ``benchlib.scaled``), summed over the batch; the unscaled medians go
    to the detail record. The peak RSS is the median over rounds; the
    sweep count repeats exactly.
    """
    samples = defaultdict(list)     # (metric, input index) -> one value per round
    start = time.perf_counter()
    r = 0
    while True:
        round_start = time.perf_counter()
        gc.collect()
        before = reference_loop_s()
        result = bench.run_cli(r)
        samples["cli_s", 0].append((result.wall_s, (before + reference_loop_s()) / 2))
        samples["peak_rss_mb", 0].append(result.peak_rss_mb)
        times = {}
        for i in range(bench.w.count):
            field, data, _image, problems = _timed(times, ("setup_s", i), bench.setup, i,
                                                   no_span)
            key = bench.checks.op(("setup", r, i))
            bench.checks.expect(not problems, key, f"invalid field: {problems[:3]}")
            bench.solve_all(r, i, field, data, times)
            if r == 0 and i == 0:
                bench.check_cli_against_library(field, data)
        for key, value in times.items():
            samples[key].append(value)
        r += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    entry = bench.verify()
    metrics, unscaled = {}, {}
    for name, unit in E2E_UNITS.items():
        series = [v for (metric, _i), v in samples.items() if metric == name]
        if unit == "s":
            value = sum(median([scaled(*pair) for pair in v]) for v in series)
            unscaled[name] = sum(median([wall for wall, _probe in v]) for v in series)
        else:
            value = sum(median(v) for v in series)
        metrics[name] = {"value": value, "unit": unit}
    raw = {f"{name}/{i}": v for (name, i), v in samples.items()}
    return metrics, {"rounds": r, "unscaled_s": unscaled, "samples": raw,
                     "reference_entry": entry}


# -- traced run ---------------------------------------------------------------

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "fileio.read_s": "s", "fileio.write_s": "s", "fileio.bytes_written": "bytes",
    "edges.compute_llr_s": "s", "edges.build_edge_field_s": "s",
    "edges.render_overlay_s": "s",
    "core.validate_field_s": "s", "core.incident_s": "s", "core.local_energies_s": "s",
    "core.augmented_energy_s": "s", "core.energy_s": "s",
    "local_hcf.step_s_median": "s", "local_hcf.step_s_max": "s",
    "local_hcf.fallback_commits": "count", "local_hcf.quiet_sweeps": "count",
    "local_hcf.site_reads": "count", "local_hcf.useful_ratio": "ratio",
    "local_hcf.revisions": "count", "local_hcf.committed_frac_15": "ratio",
    "local_hcf.threads2_s": "s", "local_hcf.threads2_ratio": "ratio",
    "hcf.steps": "count", "hcf.revisions": "count", "hcf.fallback_steps": "count",
    "hcf.step_us": "us", "heap.updates": "count",
    "baselines.tlr_s": "s", "baselines.icm_sweeps": "count",
    "baselines.icm_sweep_s": "s", "baselines.anneal_sweep_s": "s",
    "baselines.mpm_sweep_s": "s", "baselines.gibbs_flip_ratio": "ratio",
    "oracles.is_local_minimum_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "quality.tlr_energy": "energy", "quality.local_hcf_energy": "energy",
    "quality.hcf_energy": "energy", "quality.icm_energy": "energy",
    "quality.anneal_energy": "energy", "quality.mpm_energy": "energy",
    "trace.overhead_s": "s", "trace.spans": "count",
}

# span name -> per-layer metric holding its self time
SPAN_METRICS = {
    "cli.import": "cli.import_s",
    "fileio.read": "fileio.read_s",
    "fileio.write": "fileio.write_s",
    "edges.compute_llr": "edges.compute_llr_s",
    "edges.build_edge_field": "edges.build_edge_field_s",
    "edges.render_overlay": "edges.render_overlay_s",
    "core.validate_field": "core.validate_field_s",
    "core.local_energies": "core.local_energies_s",
    "core.augmented_energy": "core.augmented_energy_s",
    "core.energy": "core.energy_s",
    "baselines.tlr": "baselines.tlr_s",
    "oracles.is_local_minimum": "oracles.is_local_minimum_s",
}


def trace_round(bench: Bench, tracer: Tracer, r: int) -> tuple[dict, dict]:
    """Every layer probe once on input 0; returns (timings, counts)."""
    gc.collect()
    span = tracer.span
    first_span = len(tracer.spans)
    checks = bench.checks
    seed = bench.seed

    checks.op(("import", r))
    with span("cli.import"):
        child = bench.runner.run([sys.executable, "-c", "import mrfhcf"], bench.env,
                                 bench.workdir)
    checks.expect(child.returncode == 0, ("import", r), child.stderr[-300:])

    key = checks.op(("setup", r, 0))
    with span("bench.setup"):
        field, data, image, problems = bench.setup(0, span)
    checks.expect(not problems, key, f"invalid field: {problems[:3]}")
    n = field.num_sites

    with span("baselines.tlr"):
        init = tlr(field, data)
    half = init.copy()
    half[1::2] = UNCOMMITTED
    # first reads on a fresh field pay for its lazy caches
    cold = time.perf_counter()
    local_energies(field, data, half)
    augmented_energy(field, data, half)
    cold = time.perf_counter() - cold
    with span("core.local_energies"):
        local_energies(field, data, half)
    with span("core.augmented_energy"):
        augmented_energy(field, data, half)
    with span("core.energy"):
        energy(field, data, init)

    ranks = bench.ranks(field, 0)
    key_loop = checks.op(("step_loop", r))
    loop_first = len(tracer.spans)
    loop_rows = bench.step_loop(field, data, ranks, span)
    step_times = [s.end - s.start for s in tracer.spans[loop_first:]]

    key_l = checks.op(("local_hcf", r, 0))
    with span("local_hcf.run"):
        cfg, trace = local_hcf_run(field, data, ranks=ranks)
    untraced = time.perf_counter()
    local_hcf_run(field, data, ranks=ranks)
    untraced = time.perf_counter() - untraced
    checks.expect(tuple(loop_rows) == trace.rows[:len(loop_rows)], key_loop,
                  "local_hcf_step loop does not reproduce local_hcf_run's trace")
    checks.op(("local_hcf_t2", r, 0))
    with span("local_hcf.run_threads2"):
        cfg2, trace2 = local_hcf_run(field, data, ranks=ranks, threads=2)
    checks.expect(np.array_equal(cfg, cfg2) and trace2.rows == trace.rows,
                  ("local_hcf_t2", r, 0), "threads=2 result or trace differs")

    key_h = checks.op(("hcf", r, 0))
    with span("hcf.run"):
        hcfg, htrace = hcf_run(field, data, ranks=ranks)
    key_i = checks.op(("icm", r, 0))
    with span("baselines.icm"):
        icfg, itrace = icm_run(field, data, init, order="scan")
    schedule = AnnealSchedule()
    params = MpmParams(seed=seed)
    checks.op(("anneal", r, 0))
    with span("baselines.anneal"):
        acfg, atrace = anneal_run(field, data, init, schedule, seed)
    checks.op(("mpm", r, 0))
    with span("baselines.mpm"):
        mcfg, mtrace = mpm_run(field, data, init, params)

    for k, name, result in ((key_l, "local_hcf", cfg), (key_h, "hcf", hcfg),
                            (key_i, "icm", icfg)):
        checks.op((name, "local_minimum", r))
        with span("oracles.is_local_minimum"):
            ok = is_local_minimum(field, data, result)
        checks.expect(ok and fully_committed(result), k, "not a committed local minimum")

    checks.op(("write", r))
    outdir = bench.workdir / "traced"
    outdir.mkdir(exist_ok=True)
    with span("fileio.write"):
        write_mrfl(outdir / "labels.mrfl", cfg, bench.w.size, bench.w.size)
        write_trace_csv(outdir / "trace.csv", trace.rows)
        with span("edges.render_overlay"):
            overlay = render_overlay(image if image is not None else _blank(bench.w.size), cfg)
        write_pgm(outdir / "overlay.pgm", overlay)
    written = sum(p.stat().st_size for p in outdir.iterdir())

    timings = defaultdict(float)
    spans = tracer.self_times(first_span)
    for name, own in spans:
        if name in SPAN_METRICS:
            timings[SPAN_METRICS[name]] += own
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            timings[f"{layer}.self_s"] += own
    by_name = {name: own for name, own in spans}
    timings["core.incident_s"] = cold - (by_name["core.local_energies"]
                                         + by_name["core.augmented_energy"])
    timings["local_hcf.step_s_median"] = median(step_times)
    timings["local_hcf.step_s_max"] = max(step_times)
    timings["local_hcf.threads2_s"] = by_name["local_hcf.run_threads2"]
    timings["local_hcf.threads2_ratio"] = (by_name["local_hcf.run_threads2"]
                                           / by_name["local_hcf.run"])
    timings["trace.overhead_s"] = by_name["local_hcf.run"] - untraced

    lc = local_hcf_counters(trace.rows, n)
    hc = hcf_counters(htrace.steps, field.adjacency, n)
    icm_sweeps = len(itrace.rows) - 1
    timings["hcf.step_us"] = by_name["hcf.run"] / hc["steps"] * 1e6
    timings["baselines.icm_sweep_s"] = by_name["baselines.icm"] / icm_sweeps
    timings["baselines.anneal_sweep_s"] = by_name["baselines.anneal"] / schedule.sweeps
    timings["baselines.mpm_sweep_s"] = (by_name["baselines.mpm"]
                                        / (params.burn_in + params.samples))
    gibbs_rows = atrace.rows[1:] + mtrace.rows[1:]
    counts = {
        "fileio.bytes_written": written,
        **{f"local_hcf.{k}": lc[k] for k in ("fallback_commits", "quiet_sweeps",
                                            "site_reads", "useful_ratio", "revisions",
                                            "committed_frac_15")},
        "hcf.steps": hc["steps"], "hcf.revisions": hc["revisions"],
        "hcf.fallback_steps": hc["fallback_steps"], "heap.updates": hc["heap_updates"],
        "baselines.icm_sweeps": icm_sweeps,
        "baselines.gibbs_flip_ratio": sum(r.changed for r in gibbs_rows) / (n * len(gibbs_rows)),
        "quality.tlr_energy": energy(field, data, init),
        "quality.local_hcf_energy": energy(field, data, cfg),
        "quality.hcf_energy": energy(field, data, hcfg),
        "quality.icm_energy": energy(field, data, icfg),
        "quality.anneal_energy": energy(field, data, acfg),
        "quality.mpm_energy": energy(field, data, mcfg),
        "trace.spans": len(tracer.spans) - first_span,
    }
    return dict(timings), counts


def _blank(size: int) -> Image:
    return Image(np.zeros((size, size), dtype=np.uint8))


def traced_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Rounds of layer probes until ``seconds`` are used; medians over rounds."""
    tracer = Tracer(f"{bench.w.name}/seed{bench.seed}")
    samples = defaultdict(list)
    first_counts = None
    start = time.perf_counter()
    r = 0
    while True:
        round_start = time.perf_counter()
        timings, counts = trace_round(bench, tracer, r)
        for name, value in timings.items():
            samples[name].append(value)
        if first_counts is None:
            first_counts = counts
        else:
            bench.checks.expect(counts == first_counts, ("counts", r),
                                "counters or energies differ from the first round")
        r += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    values = {name: median(v) for name, v in samples.items()}
    values.update(first_counts)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER_UNITS.items()}
    spans = [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
              "workload": s.workload} for s in tracer.spans]
    return metrics, {"rounds": r, "samples": dict(samples), "spans": spans}
