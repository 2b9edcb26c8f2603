"""Serial highest-confidence-first relaxation driven by a priority queue.

Every site starts uncommitted and carries a stability value: for an
uncommitted site the (non-positive) negated gap between its best and
second-best local energies, for a committed site the gap between its
current label and the best alternative (negative exactly when a strictly
better label exists). Stabilities are ordered lexicographically with a
per-site rank as tie-break, and the site with the minimum ordered
stability acts first. Only sites that can act wait in the queue: the
uncommitted ones and the committed ones with negative stability.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .core import UNCOMMITTED, _check_problem, _checked_labels, _local_row


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


def _argmin_row(row):
    # smallest index wins ties
    best = 0
    best_val = row[0]
    for l in range(1, len(row)):
        if row[l] < best_val:
            best = l
            best_val = row[l]
    return best, best_val


def _row_stats(row, current):
    """(best label, best value, stability) for one site's local energy row.

    ``current`` is the site's committed label or UNCOMMITTED. Needs at
    least two labels.
    """
    best, best_val = _argmin_row(row)
    if current == UNCOMMITTED:
        second = min(row[l] for l in range(len(row)) if l != best)
        return best, best_val, -(second - best_val)
    alt = min(row[l] for l in range(len(row)) if l != current)
    return best, best_val, alt - row[current]


def best_label(field, data, config, site: int) -> tuple[int, float]:
    """Committed label with the lowest local energy at ``site`` and that energy.

    Ties go to the smallest label index; the site's own current label does
    not influence the result.
    """
    cfg = _checked_labels(field, data, config).tolist()
    if not 0 <= site < field.num_sites:
        raise ValueError(f"site {site} out of range")
    return _argmin_row(_local_row(field, data, cfg, site))


def stability(field, data, config, site: int) -> float:
    """Stability of one site under the current configuration.

    Uncommitted sites get the negated best-versus-second-best gap (always
    <= 0); committed sites get the best-alternative gap relative to their
    current label (negative iff a strictly better label exists).
    """
    if field.num_labels < 2:
        raise ValueError("stability needs at least two labels")
    cfg = _checked_labels(field, data, config).tolist()
    if not 0 <= site < field.num_sites:
        raise ValueError(f"site {site} out of range")
    row = _local_row(field, data, cfg, site)
    return _row_stats(row, cfg[site])[2]


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

    cfg = [UNCOMMITTED] * n
    key = [None] * n  # each site's queued (stability, rank); None when it cannot act
    queue = []

    def refresh(t, row):
        g = _row_stats(row, cfg[t])[2]
        k = (g, rank[t]) if cfg[t] == UNCOMMITTED or g < 0 else None
        if k != key[t]:
            key[t] = k
            if k is not None:
                heapq.heappush(queue, (k, t))

    for s in range(n):
        refresh(s, _local_row(field, data, cfg, s))

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
        # the site's own label does not enter its row, so one read serves
        # both the move and the site's new stability
        row = _local_row(field, data, cfg, s)
        best, best_val = _argmin_row(row)
        prev = cfg[s]
        cfg[s] = best
        if prev == UNCOMMITTED:
            committed += 1
            aug += best_val
        else:
            aug += best_val - row[prev]
        refresh(s, row)
        for r in field.adjacency[s]:
            refresh(r, _local_row(field, data, cfg, r))
        steps.append(HCFStep(len(steps), s, best, k[0], aug, committed))

    return np.array(cfg, dtype=np.int64), HCFTrace(tuple(steps))
