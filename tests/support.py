"""Shared builders for randomized test instances."""

import numpy as np

from mrfhcf import Clique, DataTerm, Field


def random_field(seed, max_sites=12, labels=None):
    """Small random field: random graph, pair cliques on every edge.

    Potentials are drawn from U[-1, 1] and data terms from U[-2, 2], the
    same ranges the oracle-equivalence checks use, so energies stay well
    away from float trouble.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_sites + 1))
    num_labels = int(rng.choice([2, 3])) if labels is None else labels

    neighbor_sets = [set() for _ in range(n)]
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.4:
                neighbor_sets[a].add(b)
                neighbor_sets[b].add(a)
                edges.append((a, b))
    adjacency = [tuple(sorted(s)) for s in neighbor_sets]

    cliques = []
    for a, b in edges:
        table = rng.uniform(-1.0, 1.0, (num_labels, num_labels))
        cliques.append(Clique((a, b), table))
    if rng.random() < 0.5:
        site = int(rng.integers(n))
        cliques.append(Clique((site,), rng.uniform(-1.0, 1.0, num_labels)))

    data = DataTerm(rng.uniform(-2.0, 2.0, (n, num_labels)))
    return Field(n, num_labels, adjacency, cliques), data


def random_chain(seed, max_sites=10, shuffle_ids=True):
    """Random path-shaped field, optionally with scrambled site ids.

    Consecutive path positions are neighbors; pair potentials U[-1, 1],
    data U[-2, 2], and sometimes a unary clique, matching the ranges of
    the oracle-equivalence checks.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_sites + 1))
    num_labels = int(rng.choice([2, 3]))

    order = rng.permutation(n).tolist() if shuffle_ids and n > 1 else list(range(n))
    neighbor_sets = [set() for _ in range(n)]
    for i in range(n - 1):
        a, b = order[i], order[i + 1]
        neighbor_sets[a].add(b)
        neighbor_sets[b].add(a)
    adjacency = [tuple(sorted(s)) for s in neighbor_sets]

    cliques = []
    for i in range(n - 1):
        table = rng.uniform(-1.0, 1.0, (num_labels, num_labels))
        cliques.append(Clique((order[i], order[i + 1]), table))
    if rng.random() < 0.5:
        site = int(rng.integers(n))
        cliques.append(Clique((site,), rng.uniform(-1.0, 1.0, num_labels)))

    data = DataTerm(rng.uniform(-2.0, 2.0, (n, num_labels)))
    return Field(n, num_labels, adjacency, cliques), data


def exact_marginals(field, data):
    """Per-site Boltzmann marginals at unit temperature by full enumeration."""
    from mrfhcf import energy

    n = field.num_sites
    num_labels = field.num_labels
    weights = np.zeros((n, num_labels))
    total = 0.0
    config = [0] * n
    while True:
        w = np.exp(-energy(field, data, config))
        total += w
        for s in range(n):
            weights[s, config[s]] += w
        # odometer increment over configurations
        pos = 0
        while pos < n:
            config[pos] += 1
            if config[pos] < num_labels:
                break
            config[pos] = 0
            pos += 1
        if pos == n:
            break
    return weights / total


def reference_local_rows(field, data, config):
    """Local energies of every site and label, walking ``field.cliques`` directly.

    Per site: a +0.0 start, each clique containing the site in ascending
    clique id order (skipped when another member is uncommitted), then the
    data row. The plain reference the compiled readers must match bit for bit.
    """
    cfg = [int(l) for l in config]
    num_labels = field.num_labels
    out = []
    for s in range(field.num_sites):
        e = [0.0] * num_labels
        for c in field.cliques:
            if s not in c.members:
                continue
            pos = c.members.index(s)
            if any(cfg[m] < 0 for i, m in enumerate(c.members) if i != pos):
                continue
            for l in range(num_labels):
                labels = [cfg[m] for m in c.members]
                labels[pos] = l
                e[l] += float(c.table[tuple(labels)])
        for l in range(num_labels):
            e[l] += float(data.values[s, l])
        out.append(e)
    return out


def reference_augmented_energy(field, data, config):
    """Augmented energy walking ``field.cliques`` then the sites, from 0.0."""
    cfg = [int(l) for l in config]
    total = 0.0
    for c in field.cliques:
        if all(cfg[m] >= 0 for m in c.members):
            total += float(c.table[tuple(cfg[m] for m in c.members)])
    for s, lab in enumerate(cfg):
        if lab >= 0:
            total += float(data.values[s, lab])
    return total


def triple_clique_field(seed, num_labels):
    """Five sites with one 3-member clique on (0, 1, 2), plus pairs and a unary.

    Sites 0-2 form a triangle carrying both the triple and pair cliques;
    sites 3 and 4 hang off it, so the field mixes arities 1, 2 and 3.
    """
    rng = np.random.default_rng(seed)
    adjacency = [(1, 2, 3), (0, 2), (0, 1, 4), (0,), (2,)]
    cliques = [
        Clique((2, 4), rng.uniform(-1.0, 1.0, (num_labels, num_labels))),
        Clique((1, 0, 2), rng.uniform(-1.0, 1.0, (num_labels,) * 3)),
        Clique((3,), rng.uniform(-1.0, 1.0, num_labels)),
        Clique((0, 1), rng.uniform(-1.0, 1.0, (num_labels, num_labels))),
        Clique((0, 3), rng.uniform(-1.0, 1.0, (num_labels, num_labels))),
    ]
    data = DataTerm(rng.uniform(-2.0, 2.0, (5, num_labels)))
    return Field(5, num_labels, adjacency, cliques), data
