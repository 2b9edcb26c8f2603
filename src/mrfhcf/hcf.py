"""Serial highest-confidence-first relaxation driven by a priority queue.

Every site starts uncommitted and carries a stability value: for an
uncommitted site the (non-positive) negated gap between its best and
second-best local energies, for a committed site the gap between its
current label and the best alternative (negative exactly when a strictly
better label exists). Stabilities are ordered lexicographically with a
per-site rank as tie-break, and the site with the minimum ordered
stability acts first. Only sites that can act wait in the queue: the
uncommitted ones and the committed ones with negative stability.

Local energies come from the block reader ``core._local_rows`` (table
rows from the row former ``core._slot_rows``) and stabilities from
``core._stabilities``, the kernels Local HCF's sweep uses: the run reads
every site once, then, in one call per batch of moves, only the sites
whose rows or labels the moves changed. ``core._quiet_commits`` tells
which commits change no other site's rows. The input checks and padding
come from ``core`` too, as do the one-site readers ``stability`` and
``best_label``.
"""

from __future__ import annotations

import heapq
from array import array

import numpy as np

from .core import (UNCOMMITTED, _check_count, _check_runnable, _checked_labels, _checked_ranks,
                   _local_rows, _quiet_commits, _stabilities, new_configuration)
from .trace import RunTrace


def hcf_run(field, data, ranks=None, max_steps: int | None = None):
    """Run serial HCF from the all-uncommitted configuration.

    A priority queue holds the sites that can act: every uncommitted site
    and every committed site with negative stability, keyed by the ordered
    stability (stability, rank). Each step moves the minimum to its best
    label and re-keys the site and its neighbors; entries whose key has
    since changed are skipped when popped. Negative stabilities therefore
    act first, and uncommitted sites whose labels tie exactly (stability 0)
    commit after them in rank order, so the run ends fully committed when
    the queue is empty.

    Steps are taken in batches, with the same result. A batch pops entries
    in order, moves them all and re-reads their blocks in one call. A
    quiet move, an uncommitted site's commit to a label where each of its
    cliques is zero, changes no other site's row: its block is its own
    site, and it stops the batch if it lies in an earlier loud move's
    closed neighbourhood. Any other move is loud: its block is its closed
    neighbourhood, which must miss every earlier block, so it lies at
    distance 3 or more from the earlier loud moves and no row it re-reads
    reads one of theirs. The batch keeps the longest prefix in which no
    key re-keyed by an earlier step sorts below the next site's (the
    queue would pop that site first), and undoes and re-queues the rest.
    A quiet move after a loud one is the batch's last. That rule is not
    needed for the result, which the prefix rule keeps exact; it limits
    the speculative reads undone: a loud move re-keys its neighbours, and
    one of those keys often sorts below the candidates taken after it.

    Returns (configuration, RunTrace) with one row per step after row 0 and
    the step's site, label and stability in the move columns. The energy
    column is the augmented energy maintained incrementally from the exact
    per-step deltas; each change of an already committed site lowers it by
    exactly the magnitude of that site's stability.
    """
    comp = _check_runnable(field, data)
    n = field.num_sites
    rank = _checked_ranks(field, ranks).tolist()
    cap = _check_count("max_steps", max_steps, default=100 * n * field.num_labels)

    values = data.values
    nbrs, ptr = field.indices.tolist(), field.indptr.tolist()

    cfg = _checked_labels(field, data, new_configuration(n))
    # every site's best label, kept current: a move changes only the rows
    # of its neighbours, and a site's own label never enters its own row
    g, best = _stabilities(_local_rows(comp, values, cfg)[0], cfg[:n])
    # whether each site's move is a quiet commit, kept current with best
    quiet_at = _quiet_commits(comp)
    quiet = quiet_at[comp.sites, best]
    # each site's queued stability, None when it cannot act; the queue
    # holds (stability, rank, site) entries
    key = g.tolist()
    queue = [(k, rank[s], s) for s, k in enumerate(key)]
    heapq.heapify(queue)

    # the trace's columns: row 0 is the all-uncommitted start
    energies, commits = array("d", [0.0]), array("q", [0])
    movers, labels, stabilities = array("q"), array("q"), array("d")
    aug = 0.0
    committed = 0
    while queue:
        # collect valid entries in heap order, up to the step cap or the
        # first that meets an earlier one (it stays); a quiet commit after
        # a loud move is the last
        cands, block, bounds, taken, loud = [], [], [], set(), False
        while queue:
            k, _, s = queue[0]
            if k != key[s]:
                heapq.heappop(queue)
                continue
            if len(movers) + len(cands) == cap:
                if cands:
                    break
                raise RuntimeError(f"HCF exceeded its step cap ({cap}); "
                                   "check the inputs for pathological values")
            is_quiet = quiet[s]
            hood = [s] if is_quiet else [s] + nbrs[ptr[s]:ptr[s + 1]]
            if not taken.isdisjoint(hood):
                break
            heapq.heappop(queue)
            taken.update(hood)
            cands.append(s)
            block += hood
            bounds.append(len(block))
            if not is_quiet:
                loud = True
            elif loud:
                break
        if not cands:
            break
        # move every candidate, then re-read all their blocks at once
        at = np.array(cands)
        prev = cfg[at].tolist()
        cfg[at] = moves = best[at]
        sites = np.array(block)
        own = cfg[sites]
        block_e = _local_rows(comp, values, cfg, sites)[0]
        g, block_best = _stabilities(block_e, own)
        # a candidate's row before its move opens its block: neither its own
        # label nor another candidate's move changes it
        rows = block_e[[0, *bounds[:-1]]].tolist()
        block_quiet = quiet_at[sites, block_best] & (own == UNCOMMITTED)
        g, own = g.tolist(), own.tolist()
        # keep the prefix serial HCF would take; low is the least entry
        # queued by the steps kept so far
        low, start = (np.inf,), 0
        for j, (s, b, row, was, end) in enumerate(zip(cands, moves.tolist(), rows, prev, bounds)):
            k = key[s]
            if low < (k, rank[s], s):
                # undo the rest; their rows and keys were never written
                cfg[at[j:]] = prev[j:]
                for s in cands[j:]:
                    heapq.heappush(queue, (key[s], rank[s], s))
                break
            if was == UNCOMMITTED:
                committed += 1
                aug += row[b]
            else:
                aug += row[b] - row[was]
            for t, gt, lt in zip(block[start:end], g[start:end], own[start:end]):
                kt = gt if lt == UNCOMMITTED or gt < 0 else None
                if kt != key[t]:
                    key[t] = kt
                    if kt is not None:
                        entry = (kt, rank[t], t)
                        heapq.heappush(queue, entry)
                        if entry < low:
                            low = entry
            movers.append(s)
            labels.append(b)
            stabilities.append(k)
            energies.append(aug)
            commits.append(committed)
            start = end
        best[sites[:start]] = block_best[:start]
        quiet[sites[:start]] = block_quiet[:start]

    return cfg[:n].copy(), RunTrace(energies, commits, [0] + [1] * len(movers),
                                    movers, labels, stabilities)
