"""Benchmark of mrfhcf: labeling wall time, set-up time and labeling quality.

Usage, from the root of a checkout (needs only Python and numpy)::

    python3 perfbench/run.py --workload board-clean --seed 1 --seconds 30 --trace 0

Workloads (each a seeded batch of inputs, written to files before timing;
closed loop, one operation at a time, at most one child process and two
threads):

* ``board-clean``: eight 20x20 checkerboards (noise 8), default model. Every
  site commits once and all deterministic estimators agree; time goes to
  set-up and to Local HCF re-reading every site each sweep. CLI: ``label``.
* ``board-noisy``: eight 16x16 checkerboards with noise 40, model
  ``--sigma 40``. The estimators disagree and Local HCF revises sites;
  the CLI ``compare`` spends most of its time in annealing and MPM sweeps.
* ``ties-zero``: four 9x9 edge lattices, all LLRs and potentials 0, read
  from MRFLLR files, seeded rank permutations. Every stability is
  exactly 0, so both HCF solvers take their tie fallbacks (Local HCF
  about 2n sweeps). CLI: ``label``.

With ``--trace 0`` one round runs the CLI command on the first input,
then, for every input, set-up (read, LLR, ``build_edge_field``,
``validate_field``), ``local_hcf_run``, ``hcf_run`` and ``icm_run`` from the
TLR start. Rounds repeat until ``--seconds`` are used. The end-to-end
metrics are ``setup_s``, ``cli_s`` (wall time of the CLI child),
``peak_rss_mb`` (that child's own peak RSS), ``local_hcf_s``, ``hcf_s``,
``icm_s`` and ``local_hcf_sweeps`` (synchronous iterations, quiet and
tie-fallback rows included), each summed over the batch.

Timings are scaled to one machine speed. The shared 2-vCPU VM the
benchmark was defined on runs the same code up to 2x slower in phases
lasting from seconds to minutes, so raw seconds varied by 30% between
runs. Right before and after each timed call the benchmark times a fixed
pure-Python loop (``benchlib.reference_loop_s``, no library code), and
reports ``seconds * REFERENCE_S / loop seconds``: the call's time at the
speed at which that loop takes ``REFERENCE_S``. Each timing is the median
over rounds of these scaled times; the unscaled medians are kept in the
detail record. The process, the child-runner helper and the CLI children
are pinned to one CPU so the loop and the calls see the same core.

With ``--trace 1`` rounds of layer probes run on the first input, each
public call inside a span; each round also runs ``local_hcf_run`` with
two threads, annealing and MPM. Per-layer metrics are span self times
(median over rounds), per-layer self-time totals, counters computed from
the returned traces, the final energy of every estimator, and the
tracing overhead (spanned minus plain ``local_hcf_run``). These timings
are not scaled, and the traced run is not pinned, so the two-thread run
can use both CPUs. ``core.incident_s`` is the first-use cost of the field's lazy caches: the
first ``local_energies`` plus ``augmented_energy`` on a fresh field minus
the same calls once warm.

Every output is checked (exit codes, the printed energy against
``energy()`` of the written labels, CLI against library, threads=2
against threads=1, identical bytes and results across rounds,
committed local minima, the ``local_hcf_step`` loop against
``local_hcf_run``, and labelings against ``perfbench/reference.json``).
An operation with a failed check counts in ``failed``. The last line of
stdout is the JSON result; a fuller record (machine, inputs, raw samples,
spans) goes to ``perfbench/out/``.

``--full`` runs the workloads at the sizes they were first specified at
(128x128, 50x50 and 24x24, one input each); it is for reference records,
not for repeated runs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full", action="store_true",
                        help="use the original, larger workload sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mrfhcf" / "__init__.py").is_file():
        print(f"error: no mrfhcf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = bench.WORKLOADS[args.workload]
    if args.full:
        workload = bench.full_scale(workload)

    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}{'-full' if args.full else ''}"
    workdir = OUT / f"work-{tag}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    if not args.trace:
        # one CPU for this process, the child-runner helper and every child,
        # so the speed probes and the timed calls run on the same core
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        with bench.ChildRunner() as runner:
            b = bench.Bench(workload, args.seed, workdir, runner)
            # an untimed import compiles the sources and warms the file cache
            runner.run([sys.executable, "-c", "import mrfhcf"], b.env, workdir)
            run = bench.traced_run if args.trace else bench.timed_run
            metrics, detail = run(b, args.seconds)
        record = {
            "workload": workload.__dict__, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": bench.machine_record(),
            "inputs": b.input_record(), "metrics": metrics,
            "attempted": b.checks.attempted, "failed": len(b.checks.failed_ops),
            "failures": b.checks.messages, **detail,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for message in b.checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not b.checks.failed_ops,
                      "attempted": b.checks.attempted,
                      "failed": len(b.checks.failed_ops),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
