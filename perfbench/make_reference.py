"""Record the labelings the benchmark checks against: perfbench/reference.json.

For every workload and seed, the hash and ``repr`` energy of the
``local_hcf_run``, ``hcf_run`` and ``icm_run`` results on each input of the
batch. Run from the root of a checkout whose outputs are known good::

    python3 perfbench/make_reference.py --seeds 0-31

A later run of the benchmark with one of these seeds counts any other
labeling or energy as a failed check. An existing reference.json is
checked, not overwritten, when it disagrees; delete it to record anew.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
from benchlib import no_span  # noqa: E402


def dump(reference: dict) -> str:
    """JSON with one line per workload and seed."""
    blocks = []
    for name, seeds in reference.items():
        lines = [f"  {json.dumps(seed)}: {json.dumps(entry, sort_keys=True)}"
                 for seed, entry in sorted(seeds.items(), key=lambda kv: int(kv[0]))]
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(lines) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="range FIRST-LAST")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))

    reference = {}
    failures = []
    workdir = HERE / "out" / "work-reference"
    for name, workload in bench.WORKLOADS.items():
        reference[name] = {}
        for seed in range(first, last + 1):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            try:
                b = bench.Bench(workload, seed, workdir, runner=None)
                times = defaultdict(float)
                for i in range(workload.count):
                    field, data, _image, _problems = b.setup(i, no_span)
                    b.solve_all(0, i, field, data, times)
                reference[name][str(seed)] = b.verify()
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            failures += b.checks.messages
            print(name, seed, "ok" if not b.checks.messages else "FAILED", flush=True)
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    if failures:
        return 1
    bench.REFERENCE.write_text(dump(reference))
    return 0


if __name__ == "__main__":
    sys.exit(main())
