"""Serial highest-confidence-first relaxation driven by a priority queue.

Every site starts uncommitted and carries a stability value: for an
uncommitted site the (non-positive) negated gap between its best and
second-best local energies, for a committed site the gap between its
current label and the best alternative (negative exactly when a strictly
better label exists). Stabilities are ordered lexicographically with a
per-site rank as tie-break, and the site with the minimum ordered
stability acts first. Only sites that can act wait in the queue: the
uncommitted ones and the committed ones with negative stability.

Local energies come from the array reader ``core._local_rows`` and
stabilities from ``core._stabilities``, the kernels Local HCF's sweep
uses: the run reads every site once, then only each move's closed
neighbourhood.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .core import (UNCOMMITTED, _check_problem, _checked_labels, _extended, _local_rows,
                   _rows_at, _stabilities, new_configuration)


@dataclass(frozen=True)
class HCFStep:
    step: int
    site: int
    label: int
    stability: float
    energy_after: float
    committed_after: int


@dataclass(frozen=True)
class HCFTrace:
    steps: tuple[HCFStep, ...]


def _site_stats(field, data, config, site):
    """(local energies, stability, best label) of one site; the last two as Python values."""
    cfg = _extended(_checked_labels(field, data, config))
    if not 0 <= site < field.num_sites:
        raise ValueError(f"site {site} out of range")
    e = _rows_at(field.compiled, data.values, cfg, [site])
    g, best = _stabilities(e, cfg[site:site + 1])
    return e[0], g.item(), best.item()


def best_label(field, data, config, site: int) -> tuple[int, float]:
    """Committed label with the lowest local energy at ``site`` and that energy.

    Ties go to the smallest label index; the site's own current label does
    not influence the result.
    """
    row, _g, best = _site_stats(field, data, config, site)
    return best, row[best].item()


def stability(field, data, config, site: int) -> float:
    """Stability of one site under the current configuration.

    Uncommitted sites get the negated best-versus-second-best gap (always
    <= 0); committed sites get the best-alternative gap relative to their
    current label (negative iff a strictly better label exists).
    """
    if field.num_labels < 2:
        raise ValueError("stability needs at least two labels")
    return _site_stats(field, data, config, site)[1]


def _check_runnable(field, data):
    if field._problems:
        raise ValueError("invalid field: " + "; ".join(field._problems[:3]))
    if field.num_labels < 2:
        raise ValueError("estimators need at least two labels")
    _check_problem(field, data)


def _check_ranks(field, ranks):
    if ranks is None:
        return list(range(field.num_sites))
    arr = np.asarray(ranks)
    if arr.shape != (field.num_sites,) or not np.array_equal(
            np.sort(arr), np.arange(field.num_sites)):
        raise ValueError("ranks must be a permutation of the site indices")
    return [int(r) for r in arr]


def hcf_run(field, data, ranks=None, max_steps: int | None = None):
    """Run serial HCF from the all-uncommitted configuration.

    A priority queue holds the sites that can act: every uncommitted site
    and every committed site with negative stability, keyed by the ordered
    stability (stability, rank). The loop pops the minimum, moves that site
    to its best label, and re-keys the site and its neighbors; entries whose
    key has since changed are skipped when popped. Negative stabilities
    therefore act first, and uncommitted sites whose labels tie exactly
    (stability 0) commit after them in rank order, so the run ends fully
    committed when the queue is empty.

    Returns (configuration, HCFTrace). The trace's energy entries are the
    augmented energy maintained incrementally from the exact per-step
    deltas; each change of an already committed site lowers it by exactly
    the magnitude of that site's stability.
    """
    _check_runnable(field, data)
    n = field.num_sites
    rank = _check_ranks(field, ranks)
    cap = max_steps if max_steps is not None else 100 * n * field.num_labels

    comp = field.compiled
    values = data.values

    cfg = _extended(new_configuration(n))
    # every site's local energies and best label, kept current: a move
    # changes only the rows of its neighbours, and a site's own label
    # never enters its own row
    e = _local_rows(comp, comp.others, comp.offsets, values, cfg)
    g, best = _stabilities(e, cfg[:n])
    # each site's queued (stability, rank); None when it cannot act
    key = list(zip(g.tolist(), rank))
    queue = [(k, s) for s, k in enumerate(key)]
    heapq.heapify(queue)

    steps = []
    aug = 0.0
    committed = 0
    while queue:
        k, s = heapq.heappop(queue)
        if k != key[s]:
            continue
        if len(steps) >= cap:
            raise RuntimeError(f"HCF exceeded its step cap ({cap}); "
                               "check the inputs for pathological values")
        row = e[s].tolist()
        b = int(best[s])
        prev = int(cfg[s])
        cfg[s] = b
        if prev == UNCOMMITTED:
            committed += 1
            aug += row[b]
        else:
            aug += row[b] - row[prev]
        # re-read the site and its neighbours, then re-key them
        block = np.array((s,) + field.adjacency[s])
        own = cfg[block]
        e[block] = block_e = _rows_at(comp, values, cfg, block)
        g, best[block] = _stabilities(block_e, own)
        for t, gt, lab in zip(block.tolist(), g.tolist(), own.tolist()):
            kt = (gt, rank[t]) if lab == UNCOMMITTED or gt < 0 else None
            if kt != key[t]:
                key[t] = kt
                if kt is not None:
                    heapq.heappush(queue, (kt, t))
        steps.append(HCFStep(len(steps), s, b, k[0], aug, committed))

    return cfg[:n].copy(), HCFTrace(tuple(steps))
