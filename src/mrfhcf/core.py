"""Gibbs energy model: fields, cliques, data terms, configurations.

A field is a set of sites 0..num_sites-1 with a symmetric, self-loop-free
neighborhood graph. Cliques of that graph carry dense potential tables and
each site carries a per-label data term (negated log likelihood up to an
arbitrary per-site constant). The energy of a fully committed labeling is
the clique sum plus the data sum.

Partially committed labelings use the special label UNCOMMITTED and are
scored by the augmented energy: any clique touching an uncommitted site
contributes nothing, and uncommitted sites contribute no data term. The
all-uncommitted configuration therefore has augmented energy exactly 0.

Summation order is fixed everywhere (ascending clique id, then ascending
site id) so repeated evaluations are reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

UNCOMMITTED = -1


class Clique:
    """Clique of the neighborhood graph with a dense potential table.

    ``table`` has shape ``(num_labels,) * len(members)`` and is indexed by
    the members' labels in member order. Tables may be shared between
    cliques; they are treated as immutable.
    """

    __slots__ = ("members", "table")

    def __init__(self, members, table):
        self.members = tuple(int(m) for m in members)
        self.table = np.asarray(table, dtype=np.float64)

    def __repr__(self):
        return f"Clique(members={self.members!r})"


class Field:
    """Immutable site graph plus clique potentials.

    ``adjacency[s]`` lists the neighbors of site ``s``. Every clique's
    members must be pairwise adjacent. The structural invariants are
    checked once, on construction, and :func:`validate_field` reports what
    that check found. Neither the field nor its clique tables may change
    after construction: that check and the nested-list caches below are
    computed once and never refreshed.
    """

    def __init__(self, num_sites, num_labels, adjacency, cliques):
        self.num_sites = int(num_sites)
        self.num_labels = int(num_labels)
        self.adjacency = tuple(tuple(int(r) for r in nbrs) for nbrs in adjacency)
        self.cliques = tuple(cliques)
        self._nested_tables = None
        self._incident = None
        self._problems = _structure_problems(self)

    @property
    def clique_tables(self):
        """Per-clique potential tables as nested Python lists (cached)."""
        if self._nested_tables is None:
            cache = {}
            tables = []
            for c in self.cliques:
                nested = cache.get(id(c.table))
                if nested is None:
                    nested = c.table.tolist()
                    cache[id(c.table)] = nested
                tables.append(nested)
            self._nested_tables = tables
        return self._nested_tables

    @property
    def incident(self):
        """Per site: (clique id, other members, table arranged others-then-own).

        The arranged table is a nested list indexed first by the other
        members' labels in member order, then by this site's own label.
        Entries are in ascending clique id order.
        """
        if self._incident is None:
            inc = [[] for _ in range(self.num_sites)]
            cache = {}
            for cid, c in enumerate(self.cliques):
                k = len(c.members)
                for pos in range(k):
                    s = c.members[pos]
                    others = c.members[:pos] + c.members[pos + 1:]
                    key = (id(c.table), pos)
                    arranged = cache.get(key)
                    if arranged is None:
                        if k == 1:
                            arranged = c.table.tolist()
                        else:
                            arranged = np.moveaxis(c.table, pos, -1).tolist()
                        cache[key] = arranged
                    inc[s].append((cid, others, arranged))
            self._incident = inc
        return self._incident

    def __repr__(self):
        return (f"Field(num_sites={self.num_sites}, num_labels={self.num_labels}, "
                f"cliques={len(self.cliques)})")


class DataTerm:
    """Per-site, per-label observation energies.

    ``values[s, l]`` is the energy added when site ``s`` takes label ``l``.
    Values must be finite; the array is frozen after construction.
    """

    def __init__(self, values):
        v = np.array(values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError("data term must be a (num_sites, num_labels) array")
        if not np.isfinite(v).all():
            raise ValueError("data term contains non-finite values")
        v.setflags(write=False)
        self.values = v
        self._rows = v.tolist()

    @property
    def num_sites(self):
        return self.values.shape[0]

    @property
    def num_labels(self):
        return self.values.shape[1]

    @property
    def rows(self):
        """The values as a list of per-site lists (cached, do not mutate)."""
        return self._rows

    def __repr__(self):
        return f"DataTerm(num_sites={self.num_sites}, num_labels={self.num_labels})"


def new_configuration(num_sites: int) -> np.ndarray:
    """All-uncommitted configuration array."""
    return np.full(int(num_sites), UNCOMMITTED, dtype=np.int64)


def fully_committed(config) -> bool:
    """True when no site carries the UNCOMMITTED label."""
    return bool((np.asarray(config) >= 0).all())


def _check_problem(field, data):
    if data.values.shape != (field.num_sites, field.num_labels):
        raise ValueError(
            f"data term shape {data.values.shape} does not match field "
            f"({field.num_sites} sites, {field.num_labels} labels)")


def _checked_labels(field, data, config):
    # the configuration as a plain list, after checking it fits the problem
    _check_problem(field, data)
    cfg = np.asarray(config, dtype=np.int64)
    if cfg.shape != (field.num_sites,):
        raise ValueError(f"configuration of shape {cfg.shape} does not fit "
                         f"{field.num_sites} sites")
    bad = np.flatnonzero((cfg < UNCOMMITTED) | (cfg >= field.num_labels))
    if bad.size:
        s = int(bad[0])
        raise ValueError(f"site {s}: label {cfg[s]} out of range")
    return cfg.tolist()


def energy(field: Field, data: DataTerm, config) -> float:
    """Total Gibbs energy of a fully committed configuration.

    Sums clique potentials in ascending clique id order, then data terms in
    ascending site id order. Raises ValueError if any site is uncommitted.
    """
    cfg = _checked_labels(field, data, config)
    if any(l < 0 for l in cfg):
        raise ValueError("energy of a partially committed configuration is undefined; "
                         "use augmented_energy")
    return _augmented_sum(field, data, cfg)


def augmented_energy(field: Field, data: DataTerm, config) -> float:
    """Energy of a partial configuration with uncommitted terms suppressed.

    A clique contributes only if every member is committed; a site's data
    term contributes only if the site is committed. Coincides with
    :func:`energy` on fully committed configurations and is exactly 0.0 on
    the all-uncommitted configuration.
    """
    return _augmented_sum(field, data, _checked_labels(field, data, config))


def _augmented_sum(field, data, cfg):
    total = 0.0
    tables = field.clique_tables
    for cid, c in enumerate(field.cliques):
        sel = tables[cid]
        live = True
        for m in c.members:
            lab = cfg[m]
            if lab < 0:
                live = False
                break
            sel = sel[lab]
        if live:
            total += sel
    rows = data.rows
    for s in range(field.num_sites):
        lab = cfg[s]
        if lab >= 0:
            total += rows[s][lab]
    return total


def _local_row(field, data, cfg, site):
    """Local energies of every label at one site, as a list of floats.

    cfg must be a plain list of ints. Cliques whose other members include
    an uncommitted site are suppressed; the site's own entry in cfg is
    ignored (it is overridden by the candidate label).
    """
    num_labels = field.num_labels
    e = [0.0] * num_labels
    for _cid, others, arranged in field.incident[site]:
        sel = arranged
        live = True
        for o in others:
            lab = cfg[o]
            if lab < 0:
                live = False
                break
            sel = sel[lab]
        if live:
            for l in range(num_labels):
                e[l] += sel[l]
    drow = data.rows[site]
    for l in range(num_labels):
        e[l] += drow[l]
    return e


def local_energy(field: Field, data: DataTerm, config, site: int, label: int) -> float:
    """Energy seen by one site when it takes ``label``.

    Sums the potentials of every clique containing the site, reading the
    other members' labels from ``config`` and suppressing cliques that
    touch an uncommitted other member, plus the site's own data term.
    The site's current label in ``config`` plays no role.
    """
    cfg = _checked_labels(field, data, config)
    if not 0 <= site < field.num_sites:
        raise ValueError(f"site {site} out of range")
    if not 0 <= label < field.num_labels:
        raise ValueError(f"label {label} is not a committed label")
    return _local_row(field, data, cfg, site)[label]


def local_energies(field: Field, data: DataTerm, config) -> np.ndarray:
    """Local energies for every site and label as a (num_sites, num_labels) array."""
    cfg = _checked_labels(field, data, config)
    return np.array([_local_row(field, data, cfg, s) for s in range(field.num_sites)],
                    dtype=np.float64)


def validate_field(field: Field) -> list[str]:
    """Human-readable violations of the structural invariants, empty if none.

    The check ran once when the field was built; this returns a copy of
    its findings.
    """
    return list(field._problems)


def _structure_problems(field):
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
        for r in seen:
            if s not in neighbor_sets[r]:
                out.append(f"adjacency asymmetric: {r} neighbors {s} but not conversely")
    shape_per_arity = {}
    for cid, c in enumerate(field.cliques):
        k = len(c.members)
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
        want = shape_per_arity.setdefault(k, (num_labels,) * k)
        if c.table.shape != want:
            out.append(f"clique {cid}: table shape {c.table.shape} is not {want}")
        elif not np.isfinite(c.table).all():
            out.append(f"clique {cid}: table has non-finite entries")
    return out
