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

Every reader works on one array form of the field, built on first use
(:class:`CompiledField`). Summation order is fixed everywhere so repeated
evaluations are reproducible bit for bit:

- a site's local energies start from a +0.0 row, add the incident cliques'
  rows one column of the padded per-site arrays at a time in ascending
  clique id order, then add the site's data row;
- an energy is ``np.add.accumulate`` over a leading +0.0, the clique terms
  in ascending clique id order, then the data terms in ascending site id
  order, never ``np.sum`` or a dot product, whose pairwise order differs.

A suppressed term (an uncommitted member, or padding) enters as +0.0. A
running sum that starts at +0.0 never becomes -0.0, so adding +0.0 leaves
it unchanged, and the leading +0.0 keeps an energy of -0.0 data terms at
0.0 as a plain Python sum from 0.0 would.
"""

from __future__ import annotations

from itertools import chain

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
    after construction: that check and the array form in :attr:`compiled`
    are computed once and never refreshed.
    """

    def __init__(self, num_sites, num_labels, adjacency, cliques):
        self.num_sites = int(num_sites)
        self.num_labels = int(num_labels)
        self.adjacency = tuple(tuple(int(r) for r in nbrs) for nbrs in adjacency)
        self.cliques = tuple(cliques)
        self._compiled = None
        self._problems = _structure_problems(self)

    @property
    def compiled(self) -> CompiledField:
        """The array form every reader uses, built on first access.

        Raises ValueError on a field that failed its structural check.
        """
        if self._compiled is None:
            if self._problems:
                raise ValueError("invalid field: " + "; ".join(self._problems[:3]))
            self._compiled = CompiledField(self)
        return self._compiled

    def __repr__(self):
        return (f"Field(num_sites={self.num_sites}, num_labels={self.num_labels}, "
                f"cliques={len(self.cliques)})")


class CompiledField:
    """Padded arrays of one field, shared by every estimator and reader.

    Index ``n = num_sites`` is a virtual site that pads the arrays; the
    array readers append label 0 for it to the configuration. With ``m``
    the largest clique arity minus one (at least 1) and ``D`` the largest
    number of cliques at one site:

    - ``tables[t]`` is a clique table arranged others-then-own and
      flattened to ``(height, num_labels)`` with ``height = num_labels**m
      + 1``. Row ``r`` holds the own-label energies when the other
      members' labels, read as the base-``num_labels`` digits of ``r``
      (first other most significant), are all committed. The last row is
      all zero and stands for an uncommitted other: a row index of -1
      (UNCOMMITTED) lands on it. A unary table repeats on every other row.
      Table 0 is all zero and serves the padding slots.
    - ``tids[j, s]`` and ``others[:, j, s]`` (``m`` sites, padded in front
      with ``n``) describe site ``s``'s ``j``-th incident clique in
      ascending clique id order, for ``D`` slots ``j``; the slots past the
      site's degree hold table 0.
      Slot-major, so that each slot is one contiguous column of the
      gather. ``strides`` turns ``m`` labels into a row index.
    - ``neighbors[s]`` lists the neighbors of ``s``, padded with ``n``.
    - ``members[:, c]`` lists clique ``c``'s members (``m + 1`` sites,
      padded in front with ``n``) and ``clique_tids[c]`` its table
      arranged for its last member, which is the table as given.
    - ``site_terms[s]`` holds the same entries for the scalar per-site
      reader, as lists taken once from the arrays: ``(table rows, other
      members)`` per incident clique, padding dropped.

    The arrays are read-only and the lists must not be mutated.
    """

    def __init__(self, field):
        n, num_labels = field.num_sites, field.num_labels
        member_lists = [c.members for c in field.cliques]
        arity = np.fromiter(map(len, member_lists), np.int64, len(member_lists))
        m = max(int(arity.max(initial=2)) - 1, 1)
        self.height = num_labels ** m + 1
        self.tables, base = _stacked_tables(field.cliques, self.height, num_labels)
        self.members, site, tid, oth = _incidences(member_lists, arity, base, n, m)

        degree = np.bincount(site, minlength=n)
        start = np.cumsum(degree) - degree
        slot = np.arange(site.size) - start[site]
        self.tids = np.zeros((int(degree.max(initial=0)), n), dtype=np.int64)
        self.tids[slot, site] = tid
        self.others = np.full((m,) + self.tids.shape, n, dtype=np.int64)
        self.others[:, slot, site] = oth

        counts = np.fromiter(map(len, field.adjacency), np.int64, n)
        owner = np.repeat(np.arange(n), counts)
        self.neighbors = np.full((n, int(counts.max(initial=0))), n, dtype=np.int64)
        self.neighbors[owner, np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]] = \
            np.fromiter(chain.from_iterable(field.adjacency), np.int64, owner.size)

        self.strides = num_labels ** np.arange(m - 1, -1, -1, dtype=np.int64)
        self.clique_tids = base + arity - 1
        self.sites = np.arange(n)
        for a in (self.tables, self.tids, self.others, self.strides, self.neighbors,
                  self.members, self.clique_tids, self.sites):
            a.setflags(write=False)

        # the scalar reader's lists, per site in clique id order: each
        # clique's table rows and its other members without the padding;
        # equal member tuples are one shared object
        table_rows = self.tables.tolist()
        distinct, inverse = _distinct_columns(oth)
        member_tuples = [tuple(o for o in col if o != n) for col in distinct.T.tolist()]
        terms = list(zip(map(table_rows.__getitem__, tid.tolist()),
                         map(member_tuples.__getitem__, inverse.tolist())))
        self.site_terms = [terms[i:j] for i, j in
                           zip(start.tolist(), (start + degree).tolist())]


def _stacked_tables(cliques, height, num_labels):
    """The stacked tables, and each clique's table id for its member at position 0.

    One stacked table per distinct (clique table, own position); position p
    of a clique uses its position-0 id plus p. Table 0 is all zero.
    """
    tables = [c.table for c in cliques]
    table_ids = list(map(id, tables))
    blocks = [np.zeros((height, num_labels))]
    block_of = {}
    for key, table in dict(zip(table_ids, tables)).items():
        block_of[key] = len(blocks)
        blocks.extend(_arranged(table, height))
    return (np.stack(blocks),
            np.fromiter(map(block_of.__getitem__, table_ids), np.int64, len(table_ids)))


def _arranged(table, height):
    """Per own position, the clique table arranged others-then-own and stacked."""
    k = table.ndim
    num_labels = table.shape[-1]
    out = []
    for pos in range(k):
        block = np.zeros((height, num_labels))
        if k == 1:
            block[:-1] = table
        else:
            block[:num_labels ** (k - 1)] = np.moveaxis(table, pos, -1).reshape(-1, num_labels)
        out.append(block)
    return out


def _incidences(member_lists, arity, base, n, m):
    """Clique members, and one incidence per (clique, member).

    Returns the ``(m + 1, cliques)`` member array padded in front with
    ``n``, then each incidence's site, table id and other members (``(m,
    incidences)``, padded in front with ``n``), ordered by site and, within
    a site, by clique id.
    """
    cid = np.repeat(np.arange(len(member_lists)), arity)
    site = np.fromiter(chain.from_iterable(member_lists), np.int64, cid.size)
    pos = np.arange(cid.size) - (np.cumsum(arity) - arity)[cid]
    col = m + 1 - arity[cid] + pos
    members = np.full((m + 1, len(member_lists)), n, dtype=np.int64)
    members[col, cid] = site
    tid = base[cid] + pos
    oth = np.stack([members[q + (q >= col), cid] for q in range(m)])
    order = np.argsort(site, kind="stable")
    return members, site[order], tid[order], oth[:, order]


def _distinct_columns(a):
    """(the distinct columns of a 2-D int array, each column's index among them).

    A sort-based ``np.unique(a, axis=1, return_inverse=True)``, which takes
    several times longer on these arrays.
    """
    order = np.lexsort(a)
    ordered = a[:, order]
    first = np.ones(a.shape[1], dtype=bool)
    first[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    inverse = np.empty(a.shape[1], dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return ordered[:, first], inverse


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
    # the configuration as an int64 array, after checking it fits the problem
    _check_problem(field, data)
    cfg = np.asarray(config, dtype=np.int64)
    if cfg.shape != (field.num_sites,):
        raise ValueError(f"configuration of shape {cfg.shape} does not fit "
                         f"{field.num_sites} sites")
    bad = np.flatnonzero((cfg < UNCOMMITTED) | (cfg >= field.num_labels))
    if bad.size:
        s = int(bad[0])
        raise ValueError(f"site {s}: label {cfg[s]} out of range")
    return cfg


def _extended(cfg):
    """The configuration with label 0 appended for the virtual padding site."""
    return np.append(cfg, 0)


def energy(field: Field, data: DataTerm, config) -> float:
    """Total Gibbs energy of a fully committed configuration.

    Sums clique potentials in ascending clique id order, then data terms in
    ascending site id order. Raises ValueError if any site is uncommitted.
    """
    cfg = _checked_labels(field, data, config)
    if (cfg < 0).any():
        raise ValueError("energy of a partially committed configuration is undefined; "
                         "use augmented_energy")
    return _augmented_sum(field.compiled, data.values, _extended(cfg))


def augmented_energy(field: Field, data: DataTerm, config) -> float:
    """Energy of a partial configuration with uncommitted terms suppressed.

    A clique contributes only if every member is committed; a site's data
    term contributes only if the site is committed. Coincides with
    :func:`energy` on fully committed configurations and is exactly 0.0 on
    the all-uncommitted configuration.
    """
    cfg = _checked_labels(field, data, config)
    return _augmented_sum(field.compiled, data.values, _extended(cfg))


def _table_rows(comp, labs):
    """Table row for each column of other members' labels ``labs[:, ...]``.

    The zero row (the last) where any of them is uncommitted.
    """
    rows = labs[0] * comp.strides[0]
    dead = labs[0] < 0
    for j in range(1, len(comp.strides)):
        rows += labs[j] * comp.strides[j]
        dead |= labs[j] < 0
    return np.where(dead, comp.height - 1, rows)


def _augmented_sum(comp, values, cfg):
    """Augmented energy of an extended configuration, as a Python float."""
    num_labels = values.shape[1]
    labs = cfg[comp.members]
    own = labs[-1]
    rows = _table_rows(comp, labs[:-1])
    # an uncommitted last member also takes the zero row, at any column
    rows[own < 0] = comp.height - 1
    cells = ((comp.clique_tids * comp.height + rows) * num_labels
             + np.maximum(own, 0))
    committed = cfg[:-1]
    terms = np.concatenate((
        [0.0],
        np.take(comp.tables, cells),
        np.where(committed >= 0, values[comp.sites, committed], 0.0)))
    return float(np.add.accumulate(terms)[-1])


def _local_rows(comp, values, cfg):
    """Local energies of every site and label of an extended configuration.

    The same sums as :func:`_local_row`, for all sites at once: one gather
    of each incident clique's row, added slot by slot in clique id order
    onto +0.0, then the data rows.
    """
    rows = _table_rows(comp, cfg[comp.others])
    terms = np.take(comp.tables.reshape(-1, values.shape[1]),
                    comp.tids * comp.height + rows, axis=0)
    e = np.zeros(values.shape)
    for column in terms:
        e += column
    e += values
    return e


def _local_row(field, data, cfg, site):
    """Local energies of every label at one site, as a list of floats.

    cfg must be a plain list of ints. Cliques whose other members include
    an uncommitted site are suppressed; the site's own entry in cfg is
    ignored (it is overridden by the candidate label).
    """
    num_labels = field.num_labels
    e = [0.0] * num_labels
    for rows, others in field.compiled.site_terms[site]:
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
    return _local_row(field, data, cfg.tolist(), site)[label]


def local_energies(field: Field, data: DataTerm, config) -> np.ndarray:
    """Local energies for every site and label as a (num_sites, num_labels) array."""
    cfg = _checked_labels(field, data, config)
    return _local_rows(field.compiled, data.values, _extended(cfg))


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
    # shared tables are checked once per arity; the field keeps every
    # table alive, so their ids stay distinct
    table_problem = {}
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
        key = (id(c.table), k)
        if key not in table_problem:
            table_problem[key] = _table_problem(c.table, (num_labels,) * k)
        if table_problem[key]:
            out.append(f"clique {cid}: {table_problem[key]}")
    return out


def _table_problem(table, want):
    if table.shape != want:
        return f"table shape {table.shape} is not {want}"
    if not np.isfinite(table).all():
        return "table has non-finite entries"
    return None
