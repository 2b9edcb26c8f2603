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
A sweep that changes nothing while sites are uncommitted starts the tie
phase. After such a quiet sweep every leftover has stability exactly 0
(the least (g, rank) site is committed with g >= 0), so the tie fallback
commits the lowest-ranked leftover at its best label, one per iteration.
When that commit is quiet (``core._quiet_commits``) no other site's local
energies and no eligibility change, so the next sweep is quiet as well:
its row is recorded without a read, and the next leftover in the rank
order of the last quiet sweep follows. A loud fallback commit is followed
by a full sweep.
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
                   _checked_ranks, _local_rows, _no_terms, _quiet_commits, _stabilities, _total,
                   _write_terms, new_configuration)
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

    After a quiet sweep with sites left uncommitted, all of which then
    have stability 0, the tie fallback commits the lowest-ranked leftover
    in the next iteration. If that commit is quiet the sweep after it
    would be quiet too, so its row is recorded without a read and the
    fallback goes on in the same rank order; every row, read or not,
    counts toward ``max_iterations``.
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
    ties = None  # after a quiet sweep: the leftovers by rank, which the tie fallback commits
    quiet_at = None  # core._quiet_commits, made at the first tie
    quiet = False  # the last iteration was a quiet fallback commit, so this sweep is quiet

    for _ in range(cap):
        if quiet:
            changed, quiet = ties[:0], False  # no site changes: the sweep is not run
        elif ties is not None:
            # the tie fallback: commit the lowest-ranked leftover. Its best
            # label is the last sweep's, as only quiet commits came since;
            # they may have moved its table rows, so it forms them afresh
            changed, ties = ties[:1], ties[1:]
            rows = _local_rows(comp, values, cfg, changed)[1]
            quiet = quiet_at[changed[0], best[changed[0]]]
            if not quiet:
                ties = None
        else:
            _g, best, changed, rows = _sweep(comp, values, cfg, lower, padded)
            rows = rows.take(changed, axis=1)
        if not changed.size:
            # a quiet sweep leaves the configuration, so its energy, as it was
            energies.append(energies[-1])
            commits.append(committed)
            changes.append(0)
            if ties is None:
                # Exact-tie degenerate case: a zero-stability uncommitted
                # site can be blocked forever by a committed neighbor of
                # equal stability and lower rank. Every leftover is at
                # stability 0 here, so the fallback takes them by rank.
                ties = np.flatnonzero(cfg[:n] == UNCOMMITTED)
                ties = ties[np.argsort(rank[ties])]
            if not ties.size:
                return cfg[:-1].copy(), RunTrace(energies, commits, changes)
            if quiet_at is None:
                quiet_at = _quiet_commits(comp)
            continue
        committed += _apply(cfg, best, changed)
        _write_terms(comp, values, cfg, terms, rows, changed)
        energies.append(_total(terms, sums))
        commits.append(committed)
        changes.append(changed.size)
    raise RuntimeError(f"local HCF exceeded its iteration cap ({cap}); "
                       "check the inputs for pathological values")
