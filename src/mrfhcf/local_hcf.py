"""Synchronous, locally parallel HCF with a bit-exact determinism contract.

Each iteration reads every site's stability from the pre-iteration
configuration, then changes all eligible sites at once. A site is eligible
when its ordered stability (stability, rank) is strictly below the minimum
ordered stability over all of its neighbors, and either its stability is
negative or it is uncommitted with stability exactly 0. Two neighbors can
never change in the same iteration, so the sweep is safe to evaluate in
parallel. The sweep runs as whole-array numpy work on the field's compiled
arrays (read, stability, eligibility, energy), on the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (UNCOMMITTED, _augmented_sum, _checked_labels, _extended,
                   _local_rows, _stabilities, new_configuration)
from .hcf import _check_ranks, _check_runnable
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


def _sweep(comp, values, cfg, rank):
    """Read every site of ``cfg`` at once, then select the eligible ones.

    ``cfg`` is the configuration with label 0 appended for the padding
    site and ``rank`` the ranks with ``n`` appended. Returns (g, best,
    changed): every site's stability and best label, and the eligible
    sites in ascending order. ``cfg`` is not modified.
    """
    own = cfg[:len(values)]
    g, best = _stabilities(_local_rows(comp, comp.others, comp.offsets, values, cfg), own)

    # eligible: can act, and (g, rank) below every neighbor's; the
    # padding neighbor n stands at (+inf, n)
    can = np.flatnonzero((g < 0) | ((g == 0) & (own == UNCOMMITTED)))
    nbrs = comp.neighbors[can]
    g_ext = np.append(g, np.inf)
    gs, gn = g[can, None], g_ext[nbrs]
    first = ((gs < gn) | ((gs == gn) & (rank[can, None] < rank[nbrs]))).all(axis=1)
    return g, best, can[first]


def _apply(cfg, best, changed):
    """Move the changed sites to their best labels; returns how many were uncommitted."""
    commits = int(np.count_nonzero(cfg[changed] == UNCOMMITTED))
    cfg[changed] = best[changed]
    return commits


def _ranks(field, ranks):
    """Checked ranks as an int64 array with ``n`` appended for the padding site."""
    return np.array(_check_ranks(field, ranks) + [field.num_sites], dtype=np.int64)


def local_hcf_step(field, data, config, ranks, threads: int = 1):
    """One synchronous iteration; returns (new configuration, StepResult).

    Reads all stabilities and best labels from ``config``, then writes the
    changes of every eligible site. The input configuration is not
    modified. ``energy_after`` is the augmented energy of the returned
    configuration. ``threads`` is accepted and has no effect on results;
    the sweep runs on the calling thread and starts no other.
    """
    _check_runnable(field, data)
    cfg = _extended(_checked_labels(field, data, config))
    comp = field.compiled
    _g, best, changed = _sweep(comp, data.values, cfg, _ranks(field, ranks))
    commits = _apply(cfg, best, changed)
    energy_after = _augmented_sum(comp, data.values, cfg)
    return cfg[:-1].copy(), StepResult(tuple(changed.tolist()), commits, energy_after,
                                       bool(changed.size))


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
    rank = _ranks(field, ranks)
    cap = max_iterations if max_iterations is not None else 100 * n * field.num_labels
    comp = field.compiled
    values = data.values

    cfg = _extended(new_configuration(n))
    rows = [TraceRow(0, 0.0, 0, 0)]
    committed = 0
    iteration = 0

    while True:
        iteration += 1
        if iteration > cap:
            raise RuntimeError(f"local HCF exceeded its iteration cap ({cap}); "
                               "check the inputs for pathological values")
        g, best, changed = _sweep(comp, values, cfg, rank)
        committed += _apply(cfg, best, changed)
        rows.append(TraceRow(iteration, _augmented_sum(comp, values, cfg), committed,
                             int(changed.size)))
        if changed.size:
            continue
        leftovers = np.flatnonzero(cfg[:n] == UNCOMMITTED)
        if not leftovers.size:
            break
        # Exact-tie degenerate case: a zero-stability uncommitted site can
        # be blocked forever by a committed neighbor of equal stability and
        # lower rank. The quiet sweep just read every leftover on this very
        # configuration, so commit the lowest ordered stability among them
        # by hand, then resume the synchronous sweeps.
        iteration += 1
        if iteration > cap:
            raise RuntimeError(f"local HCF exceeded its iteration cap ({cap})")
        tied = leftovers[g[leftovers] == g[leftovers].min()]
        s = tied[np.argmin(rank[tied])]
        cfg[s] = best[s]
        committed += 1
        rows.append(TraceRow(iteration, _augmented_sum(comp, values, cfg), committed, 1))

    return cfg[:-1].copy(), RunTrace(tuple(rows))
