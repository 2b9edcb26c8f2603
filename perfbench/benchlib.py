"""Helpers for perfbench/run.py that need no solver: run-trace counters,
child processes measured on their own, spans, digests and medians.

Everything here works on public return values of the library
(``RunTrace``, ``HCFTrace``, configurations), so the counters stay valid
however the solvers are implemented inside.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass


def local_hcf_counters(rows, num_sites: int) -> dict:
    """Counters of one ``local_hcf_run`` trace (rows include row 0).

    A sweep is every row after row 0, quiet and tie-fallback rows
    included. A fallback row is a changed row that directly follows a
    quiet row; row 0 does not count as quiet.
    """
    sweeps = len(rows) - 1
    changed = sum(r.changed for r in rows[1:])
    quiet = sum(1 for r in rows[1:] if r.changed == 0)
    fallback = sum(r.changed for prev, r in zip(rows[1:], rows[2:])
                   if prev.changed == 0 and r.changed > 0)
    site_reads = num_sites * sweeps
    return {
        "sweeps": sweeps,
        "iterations": sweeps - quiet,
        "quiet_sweeps": quiet,
        "fallback_commits": fallback,
        "site_reads": site_reads,
        "useful_ratio": changed / site_reads,
        "revisions": changed - num_sites,
        "committed_frac_15": rows[min(15, sweeps)].committed / num_sites,
    }


def hcf_counters(steps, adjacency, num_sites: int) -> dict:
    """Counters of one ``hcf_run`` trace; heap updates are 1 + degree per step."""
    return {
        "steps": len(steps),
        "revisions": len(steps) - num_sites,
        "fallback_steps": sum(1 for st in steps if st.stability == 0),
        "heap_updates": sum(1 + len(adjacency[st.site]) for st in steps),
    }


# Time of reference_loop_s() in a quiet phase of the 2-vCPU VM the benchmark
# was defined on; scaled timings are seconds at that machine speed.
REFERENCE_S = 0.010


def reference_loop_s() -> float:
    """Wall time of a fixed pure-Python loop: the machine's current speed.

    The loop does what the solvers' inner loops do (list indexing, dict
    lookups, float adds) and touches no code of the library, so a change
    to the library cannot move it.
    """
    start = time.perf_counter()
    rows = [[float(i % 7), float(i % 5), float(i % 3)] for i in range(1000)]
    index = {i: rows[i] for i in range(0, 1000, 3)}
    acc = 0.0
    for _ in range(80):
        for i, row in enumerate(rows):
            e = row[0] * 0.5 + row[1]
            if i in index:
                e += index[i][2]
            acc += e
    return time.perf_counter() - start


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` measured right after a ``reference_loop_s()`` of ``probe_s``,
    expressed at the reference machine speed."""
    return seconds * REFERENCE_S / probe_s


def digest(data) -> str:
    """Short stable hash of bytes, of an int array, or of any repr-able value."""
    if hasattr(data, "tobytes"):
        data = data.astype("<i8").tobytes()
    elif not isinstance(data, bytes):
        data = repr(data).encode()
    return hashlib.sha256(data).hexdigest()[:16]


@dataclass(frozen=True)
class ChildResult:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_child(argv, env, out_dir, timeout: float = 150.0) -> ChildResult:
    """Run one process to its end; its wall time and its ``ru_maxrss``.

    The peak comes from ``os.wait4`` on the child's pid, not from
    ``RUSAGE_CHILDREN``, which is the high-water mark over every child
    reaped so far. Output goes to files in ``out_dir``, so no pipe can
    fill up while we wait.
    """
    out_path = os.path.join(out_dir, "child.out")
    err_path = os.path.join(out_dir, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
    with open(out_path, encoding="utf-8", errors="replace") as f:
        stdout = f.read()
    with open(err_path, encoding="utf-8", errors="replace") as f:
        stderr = f.read()
    # ru_maxrss is in KiB on Linux
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout, stderr)


class ChildRunner:
    """Starts child processes from a small helper process.

    On Linux a child's ``ru_maxrss`` also covers the memory of the process
    it was started from (the exec'd-over address space counts), so
    children started straight from the benchmark would report at least
    the benchmark's own, growing, peak. The helper stays small, so each
    child reports its own peak. Use as a context manager; leaving it
    stops the helper and waits for it.
    """

    def __init__(self):
        self._helper = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                        text=True)

    def run(self, argv, env, out_dir, timeout: float = 150.0) -> ChildResult:
        request = {"argv": [str(a) for a in argv], "env": env, "out_dir": str(out_dir),
                   "timeout": timeout}
        self._helper.stdin.write(json.dumps(request) + "\n")
        self._helper.stdin.flush()
        reply = self._helper.stdout.readline()
        if not reply:
            raise RuntimeError("child-runner helper exited")
        return ChildResult(**json.loads(reply))

    def close(self) -> None:
        self._helper.stdin.close()
        try:
            self._helper.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._helper.kill()
            self._helper.wait()
        self._helper.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _serve() -> None:
    # helper side of ChildRunner: one JSON request per line, one reply per line
    for line in sys.stdin:
        result = run_child(**json.loads(line))
        print(json.dumps(asdict(result)), flush=True)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    workload: str


class Tracer:
    """In-memory spans around calls into the library, written out at the end."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.workload))
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._open.pop()

    def self_times(self, first: int = 0) -> list[tuple[str, float]]:
        """(name, own duration minus its children's) for spans from ``first`` on.

        Children of one span run one after another, so their durations
        never overlap and simply add up.
        """
        own = {i: s.end - s.start for i, s in enumerate(self.spans) if i >= first}
        for i, s in enumerate(self.spans):
            if i >= first and s.parent is not None and s.parent in own:
                own[s.parent] -= s.end - s.start
        return [(self.spans[i].name, own[i]) for i in sorted(own)]


def no_span(_name: str):
    """Stand-in for ``Tracer.span`` when tracing is off."""
    return nullcontext()


def median(values) -> float:
    return float(statistics.median(values))


if __name__ == "__main__":
    _serve()
