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
neighbourhood. The input checks and padding come from ``core`` too, as
do the one-site readers ``stability`` and ``best_label``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .core import (UNCOMMITTED, _check_count, _check_runnable, _checked_labels, _checked_ranks,
                   _local_rows, _rows_at, _stabilities, new_configuration)


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
    comp = _check_runnable(field, data)
    n = field.num_sites
    rank = _checked_ranks(field, ranks).tolist()
    cap = _check_count("max_steps", max_steps, default=100 * n * field.num_labels)

    values = data.values
    nbrs, ptr = field.indices.tolist(), field.indptr.tolist()

    cfg = _checked_labels(field, data, new_configuration(n))
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
        block = np.array([s] + nbrs[ptr[s]:ptr[s + 1]])
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
