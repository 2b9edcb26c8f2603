"""Exact references: exhaustive search, chain dynamic programming, flip checks.

These exist to pin down ground truth on small instances. Both MAP oracles
share one tie-break: among equal-energy optima they return the labeling
that is lexicographically smallest in site-id order (label 0 preferred,
earliest site first).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _check_problem, _checked_labels, energy, local_energies

SEARCH_GUARD = 1 << 24


@dataclass(frozen=True)
class OracleResult:
    """Optimal configuration, its energy, and the number of exact-tie optima."""
    config: np.ndarray
    energy: float
    optimal_count: int


def brute_force_map(field, data) -> OracleResult:
    """Exhaustive minimum-energy search over every committed configuration.

    Enumerates configurations in lexicographic order (site 0 most
    significant) and accumulates each energy in the same fixed summation
    order as :func:`mrfhcf.core.energy`, so the reported energy matches an
    energy() call on the returned configuration bit for bit. Refuses state
    spaces larger than 2**24.
    """
    _check_problem(field, data)
    n = field.num_sites
    num_labels = field.num_labels
    total = num_labels ** n
    if total > SEARCH_GUARD:
        raise ValueError(
            f"refusing: state space {num_labels}**{n} exceeds the exhaustive-search guard "
            f"(2**24); use the chain oracle or a smaller field")

    powers = np.array([num_labels ** (n - 1 - j) for j in range(n)], dtype=np.int64)
    values = data.values
    best_value = 0.0
    best_index = -1
    count = 0
    chunk = 1 << 16
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        indices = np.arange(start, stop, dtype=np.int64)
        labels = (indices[:, None] // powers) % num_labels
        acc = np.zeros(stop - start, dtype=np.float64)
        for c in field.cliques:
            acc += c.table[tuple(labels[:, m] for m in c.members)]
        for s in range(n):
            acc += values[s, labels[:, s]]
        i = int(np.argmin(acc))
        v = float(acc[i])
        ties = int(np.count_nonzero(acc == v))
        if best_index < 0 or v < best_value:
            best_value = v
            best_index = start + i
            count = ties
        elif v == best_value:
            count += ties
    config = ((best_index // powers) % num_labels).astype(np.int64)
    return OracleResult(config, best_value, count)


def _path_order(field):
    """Site ids along the path, starting from the smaller-id endpoint.

    Raises ValueError when the neighborhood graph is not a simple path.
    """
    n = field.num_sites
    adjacency = [sorted(set(a)) for a in field.adjacency]
    if n == 1:
        if adjacency[0]:
            raise ValueError("field is not a simple path")
        return [0]
    degrees = [len(a) for a in adjacency]
    endpoints = [s for s in range(n) if degrees[s] == 1]
    if len(endpoints) != 2 or any(d not in (1, 2) for d in degrees):
        raise ValueError("field is not a simple path")
    prev, cur = -1, min(endpoints)
    order = [cur]
    while len(order) < n:
        following = [r for r in adjacency[cur] if r != prev]
        if len(following) != 1:
            raise ValueError("field is not a simple path")
        prev, cur = cur, following[0]
        order.append(cur)
    if cur not in endpoints:
        raise ValueError("field is not a simple path")
    return order


def _chain_potentials(field, data, order):
    """Per-position site costs and forward pair costs along the path."""
    n = field.num_sites
    num_labels = field.num_labels
    position = {site: i for i, site in enumerate(order)}
    site_cost = [[0.0] * num_labels for _ in range(n)]
    pair_cost = [[[0.0] * num_labels for _ in range(num_labels)] for _ in range(n - 1)] \
        if n > 1 else []
    for c in field.cliques:
        if len(c.members) == 1:
            i = position[c.members[0]]
            table = c.table.tolist()
            for l in range(num_labels):
                site_cost[i][l] += table[l]
        elif len(c.members) == 2:
            a, b = c.members
            ia, ib = position[a], position[b]
            if abs(ia - ib) != 1:
                raise ValueError("field is not a simple path")
            table = c.table.tolist()
            if ia < ib:
                for la in range(num_labels):
                    for lb in range(num_labels):
                        pair_cost[ia][la][lb] += table[la][lb]
            else:
                for la in range(num_labels):
                    for lb in range(num_labels):
                        pair_cost[ib][lb][la] += table[la][lb]
        else:
            raise ValueError("chain oracle supports cliques of size 1 and 2 only")
    rows = data.values.tolist()
    for i, site in enumerate(order):
        for l in range(num_labels):
            site_cost[i][l] += rows[site][l]
    return site_cost, pair_cost


def _chain_min(site_cost, pair_cost, num_labels, fixed, order):
    """Minimum path cost with some sites pinned to a single label."""
    domains = [range(num_labels) if fixed[site] is None else (fixed[site],)
               for site in order]
    f = {l: site_cost[0][l] for l in domains[0]}
    for i in range(1, len(order)):
        nf = {}
        w = pair_cost[i - 1]
        cost = site_cost[i]
        for l2 in domains[i]:
            best = min(f[l1] + w[l1][l2] for l1 in f)
            nf[l2] = best + cost[l2]
        f = nf
    return min(f.values())


def _chain_min_count(site_cost, pair_cost, num_labels, order):
    """(minimum path cost, number of exact-tie optimal labelings)."""
    f = {l: (site_cost[0][l], 1) for l in range(num_labels)}
    for i in range(1, len(order)):
        nf = {}
        w = pair_cost[i - 1]
        cost = site_cost[i]
        for l2 in range(num_labels):
            vals = [(f[l1][0] + w[l1][l2], f[l1][1]) for l1 in range(num_labels)]
            m = min(v for v, _cnt in vals)
            cnt = sum(c for v, c in vals if v == m)
            nf[l2] = (m + cost[l2], cnt)
        f = nf
    m = min(v for v, _cnt in f.values())
    return m, sum(c for v, c in f.values() if v == m)


def chain_dp_map(field, data) -> OracleResult:
    """Exact MAP on path-shaped fields by forward minimization.

    Works for unary and pair cliques on a simple path (any site-id
    arrangement) and reproduces the exhaustive oracle's tie-break by
    greedily pinning sites in id order to the smallest label that still
    achieves the optimum. The reported energy is computed by
    :func:`mrfhcf.core.energy` on the selected configuration.
    """
    _check_problem(field, data)
    order = _path_order(field)
    num_labels = field.num_labels
    site_cost, pair_cost = _chain_potentials(field, data, order)
    optimum, count = _chain_min_count(site_cost, pair_cost, num_labels, order)

    fixed = [None] * field.num_sites
    for site in range(field.num_sites):
        for l in range(num_labels):
            fixed[site] = l
            if _chain_min(site_cost, pair_cost, num_labels, fixed, order) == optimum:
                break
        else:
            raise AssertionError("chain selection failed to reach the optimum")
    config = np.array(fixed, dtype=np.int64)
    return OracleResult(config, energy(field, data, config), count)


def is_local_minimum(field, data, config, tolerance: float = 1e-12) -> bool:
    """True when no single-site relabeling lowers the total energy.

    For a fully committed configuration the energy change of one flip
    equals the local energy difference at that site, so the check runs on
    per-site local energies. A flip must be more than ``tolerance`` below
    the current label to disqualify.
    """
    cfg = _checked_labels(field, data, config)
    if (cfg < 0).any():
        raise ValueError("local minimum check needs a fully committed configuration")
    e = local_energies(field, data, cfg)
    own = e[np.arange(len(cfg)), cfg]
    return not (e < (own - tolerance)[:, None]).any()
