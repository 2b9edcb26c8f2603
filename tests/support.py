"""Shared builders for randomized test instances, and scalar reference estimators."""

import heapq
import math

import numpy as np

from mrfhcf import (UNCOMMITTED, Clique, DataTerm, EdgeModel, EdgePotentials, Field,
                    HCFStep, HCFTrace, RunTrace, TraceRow, build_edge_field, compute_llr,
                    energy, make_checkerboard)


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


def noisy_board(size, seed=7):
    """A ``size`` x ``size`` checkerboard edge problem with noise 40."""
    image = make_checkerboard(size, size, 10, 64, 192, 40.0, seed)
    return (build_edge_field(size, size, EdgePotentials()),
            compute_llr(image, EdgeModel(128.0, 40.0)))


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


def chain8_field():
    """The 8-site, 2-label path with seeded pair and data terms (seed 97)."""
    rng = np.random.default_rng(97)
    n = 8
    adjacency = [tuple(r for r in (s - 1, s + 1) if 0 <= r < n) for s in range(n)]
    cliques = [Clique((s, s + 1), rng.uniform(-1.0, 1.0, size=(2, 2)))
               for s in range(n - 1)]
    return Field(n, 2, adjacency, cliques), DataTerm(rng.uniform(-2.0, 2.0, size=(n, 2)))


# Scalar reference estimators: one site at a time through a per-site
# reader built from ``field.cliques``, the order and arithmetic the array
# code of mrfhcf must reproduce bit for bit.

def scalar_reader(field, data):
    """A per-site reader ``read(cfg, site) -> list of floats`` of local energies.

    Each site's incident cliques are taken from ``field.cliques`` in
    ascending clique id order, each with its table arranged as rows of the
    site's own label indexed by the other members' labels (first other
    most significant). ``read`` sums them in the library's order: a +0.0
    row, each clique whose other members are all committed, then the data
    row. ``cfg`` must be a plain list of ints; the site's own entry is
    ignored. Build it once per run, not per sweep.
    """
    num_labels = field.num_labels
    arranged = {}
    incident = [[] for _ in range(field.num_sites)]
    for c in field.cliques:
        for pos, site in enumerate(c.members):
            key = (id(c.table), pos)
            if key not in arranged:
                arranged[key] = np.moveaxis(c.table, pos, -1).reshape(-1, num_labels).tolist()
            incident[site].append((arranged[key], c.members[:pos] + c.members[pos + 1:]))
    data_rows = data.values.tolist()

    def read(cfg, site):
        e = [0.0] * num_labels
        for rows, others in incident[site]:
            r = 0
            for o in others:
                lab = cfg[o]
                if lab < 0:
                    break
                r = r * num_labels + lab
            else:
                sel = rows[r]
                for l in range(num_labels):
                    e[l] += sel[l]
        drow = data_rows[site]
        for l in range(num_labels):
            e[l] += drow[l]
        return e

    return read


def reference_argmin(row):
    """(label, value) of the least entry of a row; ties go to the smallest label."""
    best = 0
    best_val = row[0]
    for l in range(1, len(row)):
        if row[l] < best_val:
            best = l
            best_val = row[l]
    return best, best_val


def reference_row_stats(row, current):
    """(best label, best value, stability) for one site's local energy row.

    ``current`` is the site's committed label or UNCOMMITTED. An
    uncommitted site gets the negated best-versus-second-best gap, a
    committed one the best alternative minus its own label's energy.
    """
    best, best_val = reference_argmin(row)
    if current == UNCOMMITTED:
        second = min(row[l] for l in range(len(row)) if l != best)
        return best, best_val, -(second - best_val)
    alt = min(row[l] for l in range(len(row)) if l != current)
    return best, best_val, alt - row[current]


def reference_hcf_run(field, data, ranks=None):
    """Serial HCF one scalar row at a time: (configuration, HCFTrace).

    A heap of (stability, rank) keys over the sites that can act; each pop
    re-reads the site, moves it to its best label and re-keys it and its
    neighbours.
    """
    read = scalar_reader(field, data)
    n = field.num_sites
    rank = list(range(n)) if ranks is None else [int(r) for r in ranks]
    cfg = [UNCOMMITTED] * n
    key = [None] * n
    queue = []

    def refresh(t, row):
        g = reference_row_stats(row, cfg[t])[2]
        k = (g, rank[t]) if cfg[t] == UNCOMMITTED or g < 0 else None
        if k != key[t]:
            key[t] = k
            if k is not None:
                heapq.heappush(queue, (k, t))

    for s in range(n):
        refresh(s, read(cfg, s))
    steps = []
    aug = 0.0
    committed = 0
    while queue:
        k, s = heapq.heappop(queue)
        if k != key[s]:
            continue
        row = read(cfg, s)
        best, best_val = reference_argmin(row)
        prev = cfg[s]
        cfg[s] = best
        if prev == UNCOMMITTED:
            committed += 1
            aug += best_val
        else:
            aug += best_val - row[prev]
        refresh(s, row)
        for r in field.adjacency[s]:
            refresh(r, read(cfg, r))
        steps.append(HCFStep(len(steps), s, best, k[0], aug, committed))
    return np.array(cfg, dtype=np.int64), HCFTrace(tuple(steps))


def reference_gibbs_draw(row, temperature, rng):
    """One label drawn with probability proportional to exp(-energy / T)."""
    # the shift by the row minimum keeps the exponentials in range
    t = temperature if temperature > 1e-300 else 1e-300
    m = min(row)
    weights = [math.exp(-(v - m) / t) for v in row]
    u = rng.random() * math.fsum(weights)
    acc = 0.0
    for l, w in enumerate(weights):
        acc += w
        if u < acc:
            return l
    return len(row) - 1


def reference_gibbs_sweep(read, cfg, temperature, rng, current):
    """Resample every site of the list ``cfg`` in scan order, in place.

    ``read`` is the run's :func:`scalar_reader`. Returns ``current``
    updated by the per-flip deltas, and the change count.
    """
    changes = 0
    for s in range(len(cfg)):
        row = read(cfg, s)
        drawn = reference_gibbs_draw(row, temperature, rng)
        if drawn != cfg[s]:
            current += row[drawn] - row[cfg[s]]
            cfg[s] = drawn
            changes += 1
    return current, changes


def reference_icm_run(field, data, init, order="scan", seed=None):
    """ICM sweeps to a fixpoint, one site at a time: (configuration, RunTrace)."""
    read = scalar_reader(field, data)
    cfg = [int(l) for l in init]
    n = field.num_sites
    rng = np.random.default_rng(seed) if order == "random" else None
    current = energy(field, data, cfg)
    rows = [TraceRow(0, current, n, 0)]
    sweep = 0
    while True:
        sweep += 1
        visit = range(n) if rng is None else rng.permutation(n).tolist()
        changes = 0
        for s in visit:
            row = read(cfg, s)
            b, bv = reference_argmin(row)
            if b != cfg[s]:
                current += bv - row[cfg[s]]
                cfg[s] = b
                changes += 1
        rows.append(TraceRow(sweep, current, n, changes))
        if changes == 0:
            return np.array(cfg, dtype=np.int64), RunTrace(tuple(rows))


def reference_anneal_run(field, data, init, schedule, seed):
    """Annealing by scalar Gibbs sweeps: (best configuration, RunTrace)."""
    read = scalar_reader(field, data)
    cfg = [int(l) for l in init]
    n = field.num_sites
    rng = np.random.default_rng(seed)
    current = energy(field, data, cfg)
    best_cfg, best_energy = list(cfg), current
    rows = [TraceRow(0, current, n, 0)]
    for k in range(schedule.sweeps):
        temperature = schedule.t0 * schedule.alpha ** k
        current, changes = reference_gibbs_sweep(read, cfg, temperature, rng, current)
        rows.append(TraceRow(k + 1, current, n, changes))
        if current < best_energy:
            best_energy, best_cfg = current, list(cfg)
    return np.array(best_cfg, dtype=np.int64), RunTrace(tuple(rows))


def reference_mpm_marginals(field, data, init, params):
    """MPM marginals by scalar Gibbs sweeps at T = 1: (marginals, RunTrace)."""
    read = scalar_reader(field, data)
    cfg = [int(l) for l in init]
    n = field.num_sites
    rng = np.random.default_rng(params.seed)
    current = energy(field, data, cfg)
    rows = [TraceRow(0, current, n, 0)]
    counts = np.zeros((n, field.num_labels), dtype=np.int64)
    for k in range(params.burn_in + params.samples):
        current, changes = reference_gibbs_sweep(read, cfg, 1.0, rng, current)
        rows.append(TraceRow(k + 1, current, n, changes))
        if k >= params.burn_in:
            counts[np.arange(n), cfg] += 1
    return counts / params.samples, RunTrace(tuple(rows))
