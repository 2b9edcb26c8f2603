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
every site once and keeps those local energies. A site's own label never
enters its own row, and a quiet commit (``core._quiet_commits``) changes
no other site's row, so a row changes only when a neighbour makes a loud
move; in one call per batch, the run re-reads the loud moves' closed
neighbourhoods, sliced from the field's CSR arrays, and a quiet move
reads nothing. The input checks and padding come from ``core`` too, as
do the one-site readers ``stability`` and ``best_label``.
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

    Steps are taken in batches, with the same result. The run keeps every
    site's local energies from its first read; a move's row is the kept
    one. A batch pops entries in order, moves them all, re-reads the
    blocks of its loud moves in one call and keeps those rows. A quiet
    move, an uncommitted site's commit to a label where each of its
    cliques is zero, changes no other site's row, and a site's own label
    never enters its own: it reads nothing, leaves the queue (at its best
    label its stability is at least 0), and stops the batch if it lies in
    an earlier loud move's closed neighbourhood. A batch of quiet moves
    reads nothing at all. Any other move is loud: its block is its closed
    neighbourhood, which must miss every earlier move and block, so it lies
    at distance 3 or more from the earlier loud moves and no row it
    re-reads reads one of theirs. The batch keeps the longest prefix in
    which no key re-keyed by an earlier step sorts below the next site's
    (the queue would pop that site first), and undoes and re-queues the
    rest. A quiet move after a loud one is the batch's last. That rule is not
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
    indices, ptr = field.indices, field.indptr.tolist()

    cfg = _checked_labels(field, data, new_configuration(n))
    # every site's local energies and best label, kept current: a row
    # changes only when a neighbour makes a loud move, and the batch that
    # keeps the move re-reads the row; a site's own label never enters it
    e = _local_rows(comp, values, cfg)[0]
    g, best = _stabilities(e, cfg[:n])
    # whether each site's move is a quiet commit, kept current with best for
    # every site that can act
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
            hood = [s] if is_quiet else [s, *indices[ptr[s]:ptr[s + 1]].tolist()]
            if not taken.isdisjoint(hood):
                break
            heapq.heappop(queue)
            taken.update(hood)
            if not is_quiet:
                block += hood
                loud = True
            cands.append(s)
            bounds.append(len(block))
            if is_quiet and loud:
                break
        if not cands:
            break
        # each candidate's row before its move: neither its own label nor
        # another candidate's move changes it
        at = np.array(cands)
        rows = e[at].tolist()
        prev = cfg[at].tolist()
        cfg[at] = moves = best[at]
        # re-read the loud moves' blocks at once; quiet moves need no read
        entries = []
        if block:
            sites = np.array(block)
            own = cfg[sites]
            block_e = _local_rows(comp, values, cfg, sites)[0]
            g, block_best = _stabilities(block_e, own)
            block_quiet = quiet_at[sites, block_best] & (own == UNCOMMITTED)
            entries = list(zip(block, g.tolist(), own.tolist()))
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
            # at its best label a site's stability is >= 0: it cannot act
            key[s] = None
            for t, gt, lt in entries[start:end]:
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
        if start:
            kept = sites[:start]
            e[kept] = block_e[:start]
            best[kept] = block_best[:start]
            quiet[kept] = block_quiet[:start]

    return cfg[:n].copy(), RunTrace(energies, commits, [0] + [1] * len(movers),
                                    movers, labels, stabilities)
