"""Synchronous, locally parallel HCF with a bit-exact determinism contract.

Each iteration reads every site's stability from the pre-iteration
configuration, then changes all eligible sites at once. A site is eligible
when its ordered stability (stability, rank) is strictly below the minimum
ordered stability over all of its neighbors, and either its stability is
negative or it is uncommitted with stability exactly 0. Two neighbors can
never change in the same iteration, so the sweep is safe to evaluate in
parallel. The sweep itself runs on the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import UNCOMMITTED, _local_row, augmented_energy
from .hcf import _check_ranks, _check_runnable, _row_stats
from .trace import RunTrace, TraceRow


@dataclass(frozen=True)
class StepResult:
    changed_sites: tuple[int, ...]
    new_commits: int
    energy_after: float
    any_change: bool


def assign_ranks(field, mode: str = "site-index", seed: int | None = None) -> np.ndarray:
    """Distinct per-site ranks used to break stability ties.

    ``site-index`` ranks sites by their index; ``seeded-permutation`` draws
    a reproducible random permutation for experiments with tie-break order.
    """
    n = field.num_sites
    if mode == "site-index":
        return np.arange(n, dtype=np.int64)
    if mode == "seeded-permutation":
        if seed is None:
            raise ValueError("seeded-permutation rank mode needs a seed")
        return np.random.default_rng(seed).permutation(n).astype(np.int64)
    raise ValueError(f"unknown rank mode: {mode!r}")


def _sweep(field, data, cfg, rank):
    """Read every site of ``cfg`` (a list of labels), then select the eligible ones.

    Returns (g, best, changed, commits): every site's stability and best
    label, the eligible sites in ascending order, and how many of those are
    uncommitted. ``cfg`` is not modified.
    """
    n = field.num_sites
    g = [0.0] * n
    best = [0] * n
    for s in range(n):
        best[s], _bv, g[s] = _row_stats(_local_row(field, data, cfg, s), cfg[s])

    adjacency = field.adjacency
    changed = []
    commits = 0
    for s in range(n):
        gs = g[s]
        if gs < 0 or (gs == 0 and cfg[s] == UNCOMMITTED):
            rs = rank[s]
            eligible = True
            for r in adjacency[s]:
                gr = g[r]
                if not (gs < gr or (gs == gr and rs < rank[r])):
                    eligible = False
                    break
            if eligible:
                changed.append(s)
                if cfg[s] == UNCOMMITTED:
                    commits += 1
    return g, best, changed, commits


def local_hcf_step(field, data, config, ranks, threads: int = 1):
    """One synchronous iteration; returns (new configuration, StepResult).

    Reads all stabilities and best labels from ``config``, then writes the
    changes of every eligible site. The input configuration is not
    modified. ``energy_after`` is the augmented energy of the returned
    configuration. ``threads`` is accepted and has no effect on results;
    the sweep runs on the calling thread and starts no other.
    """
    cfg = np.asarray(config).tolist()
    _g, best, changed, commits = _sweep(field, data, cfg, _check_ranks(field, ranks))
    for s in changed:
        cfg[s] = best[s]
    new_cfg = np.array(cfg, dtype=np.int64)
    energy_after = augmented_energy(field, data, new_cfg)
    return new_cfg, StepResult(tuple(changed), commits, energy_after, bool(changed))


def local_hcf_run(field, data, ranks=None, max_iterations: int | None = None,
                  threads: int = 1):
    """Iterate synchronous sweeps from all-uncommitted until nothing changes.

    Returns (configuration, RunTrace). Trace row 0 describes the initial
    all-uncommitted state; each subsequent row records one sweep with the
    augmented energy of the configuration it produced. The returned
    configuration is fully committed; output and trace are bit-identical
    across repeated runs. ``threads`` is accepted and has no effect on
    results; the run starts no thread.
    """
    _check_runnable(field, data)
    n = field.num_sites
    rank = _check_ranks(field, ranks)
    cap = max_iterations if max_iterations is not None else 100 * n * field.num_labels

    cfg = [UNCOMMITTED] * n
    rows = [TraceRow(0, 0.0, 0, 0)]
    committed = 0
    iteration = 0

    while True:
        iteration += 1
        if iteration > cap:
            raise RuntimeError(f"local HCF exceeded its iteration cap ({cap}); "
                               "check the inputs for pathological values")
        g, best, changed, commits = _sweep(field, data, cfg, rank)
        for s in changed:
            cfg[s] = best[s]
        committed += commits
        rows.append(TraceRow(iteration, augmented_energy(field, data, cfg), committed,
                             len(changed)))
        if changed:
            continue
        leftovers = [s for s in range(n) if cfg[s] == UNCOMMITTED]
        if not leftovers:
            break
        # Exact-tie degenerate case: a zero-stability uncommitted site can
        # be blocked forever by a committed neighbor of equal stability and
        # lower rank. The quiet sweep just read every leftover on this very
        # configuration, so commit the lowest ordered stability among them
        # by hand, then resume the synchronous sweeps.
        iteration += 1
        if iteration > cap:
            raise RuntimeError(f"local HCF exceeded its iteration cap ({cap})")
        s = min(leftovers, key=lambda t: (g[t], rank[t]))
        cfg[s] = best[s]
        committed += 1
        rows.append(TraceRow(iteration, augmented_energy(field, data, cfg), committed, 1))

    return np.array(cfg, dtype=np.int64), RunTrace(tuple(rows))
