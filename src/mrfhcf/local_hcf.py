"""Synchronous, locally parallel HCF with a bit-exact determinism contract.

Each iteration reads every site's stability from the pre-iteration
configuration, then changes all eligible sites at once. A site is eligible
when its ordered stability (stability, rank) is strictly below the minimum
ordered stability over all of its neighbors, and either its stability is
negative or it is uncommitted with stability exactly 0. Two neighbors can
never change in the same iteration, so the sweep is safe to evaluate in
parallel. The sweep runs as whole-array numpy work on the field's compiled
arrays (read, stability, eligibility, energy), on the calling thread.
``local_hcf_step`` scores its result in full. A run keeps the energy
terms, and after each sweep the term writer ``core._write_terms``
rewrites only the changed sites' terms from the table rows that the
row former ``core._slot_rows`` made for the sweep's read
(``core._local_rows``), as no neighbor of a changed site moved; every
trace energy has the bits of a full evaluation. This module reads no
compiled array but ``neighbors``.
The eligibility test compares every site with its neighbors one slot of
the slot-major ``neighbors`` array at a time; the rank comparisons do
not change between sweeps, so a run makes them once. The input checks,
the padded configuration and ranks, and the per-site ranks of
``assign_ranks`` come from ``core``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .core import (UNCOMMITTED, _augmented_sum, _check_count, _check_runnable, _checked_labels,
                   _checked_ranks, _local_rows, _no_terms, _stabilities, _total, _write_terms,
                   new_configuration)
from .trace import RunTrace


@dataclass(frozen=True)
class StepResult:
    changed_sites: tuple[int, ...]
    new_commits: int
    energy_after: float
    any_change: bool


def _lower(comp, rank):
    """``lower[j, s]``: site ``s`` ranks below its ``j``-th neighbor.

    ``rank`` holds the ranks with ``n`` appended, so every site ranks
    below the padding neighbor. The order is the same in every sweep of
    a run.
    """
    return rank[:-1] < rank[comp.neighbors]


def _sweep(comp, values, cfg, lower, padded):
    """Read every site of ``cfg`` at once, then select the eligible ones.

    ``cfg`` is the configuration with label 0 appended for the padding
    site and ``lower`` the rank order of :func:`_lower`. Every site is
    tested in one pass, slot by slot of ``comp.neighbors``: its (g,
    rank) must be below each neighbor's, the padding neighbor standing at
    (+inf, n); ``padded`` holds n + 1 floats ending in +inf. Returns (g,
    best, changed, rows): every site's stability and best label, the
    eligible sites that can act, in ascending order, and the table rows
    the read went through. ``cfg`` is not modified.
    """
    own = cfg[:-1]
    e, rows = _local_rows(comp, values, cfg)
    g, best = _stabilities(e, own)
    padded[:-1] = g
    gn = padded[comp.neighbors]
    first = ((g < gn) | ((g == gn) & lower)).all(axis=0)
    can_act = (g < 0) | ((g == 0) & (own == UNCOMMITTED))
    return g, best, np.flatnonzero(first & can_act), rows


def _apply(cfg, best, changed):
    """Move the changed sites to their best labels; returns how many were uncommitted."""
    commits = int(np.count_nonzero(cfg[changed] == UNCOMMITTED))
    cfg[changed] = best[changed]
    return commits


def local_hcf_step(field, data, config, ranks):
    """One synchronous iteration; returns (new configuration, StepResult).

    Reads all stabilities and best labels from ``config``, then writes the
    changes of every eligible site. The input configuration is not
    modified. ``energy_after`` is the augmented energy of the returned
    configuration. The sweep runs on the calling thread and starts no
    other.
    """
    comp = _check_runnable(field, data)
    cfg = _checked_labels(field, data, config)
    lower = _lower(comp, _checked_ranks(field, ranks))
    _g, best, changed, _rows = _sweep(comp, data.values, cfg, lower, np.full(len(cfg), np.inf))
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
    across repeated runs. ``threads`` must be a positive integer and has
    no effect on results; the run starts no thread.
    """
    comp = _check_runnable(field, data)
    n = field.num_sites
    rank = _checked_ranks(field, ranks)
    cap = _check_count("max_iterations", max_iterations, default=100 * n * field.num_labels)
    _check_count("threads", threads, least=1)
    values = data.values
    lower = _lower(comp, rank)

    cfg = np.append(new_configuration(n), 0)  # label 0 for the padding site
    terms = _no_terms(comp)  # the energy terms of cfg
    sums = np.empty_like(terms)
    padded = np.full(n + 1, np.inf)
    # the trace's columns: row 0 is the all-uncommitted start
    energies, commits, changes = array("d", [0.0]), array("q", [0]), array("q", [0])
    committed = 0
    fallback = None  # the site the tie fallback commits in the next iteration

    for _ in range(cap):
        if fallback is None:
            g, best, changed, rows = _sweep(comp, values, cfg, lower, padded)
        else:
            changed, fallback = fallback, None
        if not changed.size:
            # a quiet sweep leaves the configuration, so its energy, as it was
            energies.append(energies[-1])
            commits.append(committed)
            changes.append(0)
            left = cfg[:n] == UNCOMMITTED
            if not left.any():
                return cfg[:-1].copy(), RunTrace(energies, commits, changes)
            # Exact-tie degenerate case: a zero-stability uncommitted site
            # can be blocked forever by a committed neighbor of equal
            # stability and lower rank. The quiet sweep just read every
            # leftover on this very configuration, so the next iteration
            # commits only the lowest ordered stability among them.
            g = np.where(left, g, np.inf)
            fallback = np.argmin(np.where(g == g.min(), rank[:-1], n), keepdims=True)
            continue
        committed += _apply(cfg, best, changed)
        _write_terms(comp, values, cfg, terms, rows.take(changed, axis=1), changed)
        del rows  # before the next sweep reads its own
        energies.append(_total(terms, sums))
        commits.append(committed)
        changes.append(changed.size)
    raise RuntimeError(f"local HCF exceeded its iteration cap ({cap}); "
                       "check the inputs for pathological values")
