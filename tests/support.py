"""Shared builders for randomized test instances, and scalar reference estimators."""

import heapq
import math
import warnings

import numpy as np

from mrfhcf import (UNCOMMITTED, Clique, DataTerm, EdgeModel, EdgePotentials, Field,
                    RunTrace, build_edge_field, compute_llr, energy, make_checkerboard)


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


def reference_compiled(field):
    """The compiled field's slot and table arrays, built the way the library once built them.

    Returns a dict of ``tables``, ``offsets``, ``others``, ``cliques_at``
    and ``neighbors``. Incidences are enumerated clique by clique, member
    by member, and ordered by a stable ``argsort`` of their sites; the
    slot arrays are filled through 2-D fancy indices, and each table is
    arranged by ``np.moveaxis`` into its own block before one ``np.stack``.
    """
    n, num_labels = field.num_sites, field.num_labels
    members, arity = field.members, field.arity
    k = len(members)
    height = num_labels ** (k - 1) + 1
    blocks = [np.zeros((height, num_labels))]
    first_block = []
    for table in field.tables:
        first_block.append(len(blocks))
        for pos in range(table.ndim):
            block = np.zeros((height, num_labels))
            block[:num_labels ** (table.ndim - 1)] = \
                np.moveaxis(table, pos, -1).reshape(-1, num_labels)
            blocks.append(block)
    base = np.array(first_block, dtype=np.int64)[field.table_ids]

    first = k - arity
    cid, col = np.nonzero(np.arange(k) >= first[:, None])
    order = np.argsort(members[col, cid], kind="stable")
    cid, col = cid[order], col[order]
    others = np.stack([members[q + (q >= col), cid] for q in range(k - 1)])
    site, tid = members[col, cid], base[cid] + col - first[cid]

    degree = np.bincount(site, minlength=n)
    slot = np.arange(site.size) - (np.cumsum(degree) - degree)[site]
    shape = (int(degree.max(initial=0)), n)
    out = {"tables": np.stack(blocks),
           "cliques_at": np.full(shape, -1, dtype=np.int64),
           "offsets": np.zeros(shape, dtype=np.int64),
           "others": np.full((k - 1,) + shape, n, dtype=np.int64)}
    out["cliques_at"][slot, site] = cid
    out["offsets"][slot, site] = tid * height
    out["others"][:, slot, site] = others

    counts = np.diff(field.indptr)
    owner = np.repeat(np.arange(n), counts)
    out["neighbors"] = np.full((int(counts.max(initial=0)), n), n, dtype=np.int64)
    out["neighbors"][np.arange(owner.size) - field.indptr[owner], owner] = field.indices
    return out


def reference_eligible(field, g, own, rank):
    """The sites a synchronous sweep changes, one site at a time over ``field.adjacency``.

    A site changes when it can act (stability below 0, or uncommitted at
    exactly 0) and its (stability, rank) is below the (stability, rank)
    of every neighbor. ``g``, ``own`` and ``rank`` hold one entry per
    site; returns the sites in ascending order.
    """
    n = field.num_sites
    g, own, rank = [float(v) for v in g[:n]], [int(v) for v in own[:n]], [int(v) for v in rank[:n]]
    out = []
    for s, nbrs in enumerate(field.adjacency):
        can_act = g[s] < 0 or (g[s] == 0 and own[s] == UNCOMMITTED)
        if can_act and all((g[s], rank[s]) < (g[r], rank[r]) for r in nbrs):
            out.append(s)
    return out


def reference_structure_problems(field):
    """The structural check as a plain loop over ``field.adjacency`` and ``field.cliques``.

    Messages in the library's order: each site's neighbor entries in list
    order, then asymmetric pairs by site and ascending neighbor, then each
    clique's problems in clique id order. Shared tables are checked once
    per (table, arity).
    """
    out = []
    n = field.num_sites
    num_labels = field.num_labels
    if n < 1:
        out.append("num_sites must be at least 1")
    if num_labels < 1:
        out.append("num_labels must be at least 1")
    if len(field.adjacency) != n:
        out.append(f"adjacency has {len(field.adjacency)} entries for {n} sites")
        return out
    neighbor_sets = []
    for s, nbrs in enumerate(field.adjacency):
        seen = set()
        for r in nbrs:
            if r == s:
                out.append(f"site {s}: self-loop in adjacency")
            elif not 0 <= r < n:
                out.append(f"site {s}: neighbor {r} out of range")
            elif r in seen:
                out.append(f"site {s}: duplicate neighbor {r}")
            else:
                seen.add(r)
        neighbor_sets.append(seen)
    for s, seen in enumerate(neighbor_sets):
        for r in sorted(seen):
            if s not in neighbor_sets[r]:
                out.append(f"adjacency asymmetric: {r} neighbors {s} but not conversely")
    table_problem = {}
    for cid, c in enumerate(field.cliques):
        k = len(c.members)
        if k == 0:
            out.append(f"clique {cid}: no members")
            continue
        if len(set(c.members)) != k:
            out.append(f"clique {cid}: repeated member")
            continue
        bad = False
        for m in c.members:
            if not 0 <= m < n:
                out.append(f"clique {cid}: member {m} out of range")
                bad = True
        if bad:
            continue
        for i in range(k):
            for j in range(i + 1, k):
                a, b = c.members[i], c.members[j]
                if b not in neighbor_sets[a]:
                    out.append(f"clique {cid}: members {a} and {b} are not neighbors")
        key = (id(c.table), k)
        if key not in table_problem:
            want = (num_labels,) * k
            if c.table.shape != want:
                table_problem[key] = f"table shape {c.table.shape} is not {want}"
            elif not np.isfinite(c.table).all():
                table_problem[key] = "table has non-finite entries"
            else:
                table_problem[key] = None
        if table_problem[key]:
            out.append(f"clique {cid}: {table_problem[key]}")
    return out


def noisy_board(size, seed=7):
    """A ``size`` x ``size`` checkerboard edge problem with noise 40."""
    image = make_checkerboard(size, size, 10, 64, 192, 40.0, seed)
    return (build_edge_field(size, size, EdgePotentials()),
            compute_llr(image, EdgeModel(128.0, 40.0)))


def zero_lattice(size):
    """The all-zero edge lattice: every stability is exactly 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero potentials are legal, just unusual
        field = build_edge_field(size, size, EdgePotentials(0.0, 0.0, 0.0, 0.0))
    return field, DataTerm(np.zeros((field.num_sites, 2)))


def sparse_field(seed, num_labels, max_sites=10):
    """Random field whose tables hold zero slices: pairs, triples and unaries.

    A random graph as in :func:`random_field`, a pair clique on every
    edge, a triple clique on some triangles and a unary on some sites.
    Each table then has, per axis with probability 1/2, one label's slice
    set to zero (a whole table one time in four, a -0.0 one time in
    eight), so many commits change no other site's local energies.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_sites + 1))
    nbrs = [set() for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.45:
                nbrs[a].add(b)
                nbrs[b].add(a)
    members = [(a, b) for a in range(n) for b in sorted(nbrs[a]) if a < b]
    members += [(a, b, c) for a, b in members for c in sorted(nbrs[a] & nbrs[b])
                if c > b and rng.random() < 0.5]
    members += [(s,) for s in range(n) if rng.random() < 0.3]
    cliques = []
    for m in members:
        table = rng.uniform(-1.0, 1.0, (num_labels,) * len(m))
        if rng.random() < 0.25:
            table[...] = 0.0
        for axis in range(len(m)):
            if rng.random() < 0.5:
                index = [slice(None)] * len(m)
                index[axis] = int(rng.integers(num_labels))
                table[tuple(index)] = -0.0 if rng.random() < 0.125 else 0.0
        cliques.append(Clique(m, table))
    data = DataTerm(rng.uniform(-2.0, 2.0, (n, num_labels)))
    return Field(n, num_labels, [tuple(sorted(s)) for s in nbrs], cliques), data


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
    """Serial HCF one scalar row at a time: (configuration, RunTrace).

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
    energies, commits, moves = [0.0], [0], []
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
        energies.append(aug)
        commits.append(committed)
        moves.append((s, best, k[0]))
    sites, labels, stabilities = zip(*moves) if moves else ((), (), ())
    return np.array(cfg, dtype=np.int64), RunTrace(
        energies, commits, [0] + [1] * len(moves), sites, labels, stabilities)


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


def reference_levels(field, order):
    """Each site's wavefront level for the visit ``order``, one site at a time.

    A site's level is one more than the highest level of its neighbours
    visited before it, and 0 when it has none.
    """
    order = [int(s) for s in order]
    when = {s: i for i, s in enumerate(order)}
    level = [0] * field.num_sites
    for s in order:
        earlier = [level[r] for r in field.adjacency[s] if when[r] < when[s]]
        level[s] = 1 + max(earlier, default=-1)
    return level


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
    energies, flips = [current], [0]
    while True:
        visit = range(n) if rng is None else rng.permutation(n).tolist()
        changes = 0
        for s in visit:
            row = read(cfg, s)
            b, bv = reference_argmin(row)
            if b != cfg[s]:
                current += bv - row[cfg[s]]
                cfg[s] = b
                changes += 1
        energies.append(current)
        flips.append(changes)
        if changes == 0:
            return np.array(cfg, dtype=np.int64), RunTrace(energies, [n] * len(flips), flips)


def reference_anneal_run(field, data, init, schedule, seed):
    """Annealing by scalar Gibbs sweeps: (best configuration, RunTrace)."""
    read = scalar_reader(field, data)
    cfg = [int(l) for l in init]
    n = field.num_sites
    rng = np.random.default_rng(seed)
    current = energy(field, data, cfg)
    best_cfg, best_energy = list(cfg), current
    energies, flips = [current], [0]
    for k in range(schedule.sweeps):
        temperature = schedule.t0 * schedule.alpha ** k
        current, changes = reference_gibbs_sweep(read, cfg, temperature, rng, current)
        energies.append(current)
        flips.append(changes)
        if current < best_energy:
            best_energy, best_cfg = current, list(cfg)
    return np.array(best_cfg, dtype=np.int64), RunTrace(energies, [n] * len(flips), flips)


def reference_mpm_marginals(field, data, init, params):
    """MPM marginals by scalar Gibbs sweeps at T = 1: (marginals, RunTrace)."""
    read = scalar_reader(field, data)
    cfg = [int(l) for l in init]
    n = field.num_sites
    rng = np.random.default_rng(params.seed)
    current = energy(field, data, cfg)
    energies, flips = [current], [0]
    counts = np.zeros((n, field.num_labels), dtype=np.int64)
    for k in range(params.burn_in + params.samples):
        current, changes = reference_gibbs_sweep(read, cfg, 1.0, rng, current)
        energies.append(current)
        flips.append(changes)
        if k >= params.burn_in:
            counts[np.arange(n), cfg] += 1
    return counts / params.samples, RunTrace(energies, [n] * len(flips), flips)


def tie_field(seed, num_labels=2, max_sites=12):
    """Random field of exact ties: tables in {-1, ±0.0, 1}, data in {±0.0, ±0.5}.

    A random graph as in :func:`random_field` with a pair clique on every
    edge. Most table entries are zeros of either sign, so many stabilities
    are exactly 0, and about a third of these fields end their runs in the
    tie fallback.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_sites + 1))
    nbrs = [set() for _ in range(n)]
    cliques = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.4:
                nbrs[a].add(b)
                nbrs[b].add(a)
                table = rng.choice([-1.0, -0.0, 0.0, 1.0], (num_labels, num_labels),
                                   p=[0.1, 0.35, 0.45, 0.1])
                cliques.append(Clique((a, b), table))
    data = DataTerm(rng.choice([-0.5, -0.0, 0.0, 0.5], (n, num_labels), p=[0.1, 0.3, 0.5, 0.1]))
    return Field(n, num_labels, [tuple(sorted(s)) for s in nbrs], cliques), data
