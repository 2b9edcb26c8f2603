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

A :class:`Field` holds arrays, whichever of its two constructors built it:
CSR adjacency, one padded member array in clique id order, and per-clique
ids into a tuple of the distinct tables. ``Field(n, labels, adjacency,
cliques)`` turns hand-built lists into ``(members, table)`` blocks, which
:meth:`Field.from_arrays` takes from a builder such as
``build_edge_field``; both pad them with the same code. The structural
check runs once, over those arrays, and the list views ``Field.adjacency``
and ``Field.cliques`` are only built when read.

This module is the one home of the input contract. Every estimator,
oracle and reader checks its field, data term, configuration and ranks
here, and gets them back padded for the virtual site ``n`` (label 0, rank
``n``). All of them refuse a field that failed its structural check, and
a size, rank, label or site that is a float, string or bool.

Every reader works on one further array form of the field, compiled from
those arrays on first use (:class:`CompiledField`), whose encoding of
table rows and energy terms only this module knows: the row former
:func:`_slot_rows` turns slot columns and a configuration into table
rows, which the block reader :func:`_local_rows` sums and the term writer
:func:`_write_terms` scatters. Summation order is fixed everywhere so
repeated evaluations are reproducible bit for bit:

- a site's local energies start from a +0.0 row, add the incident cliques'
  rows in ascending clique id order, one slot of the padded per-site
  arrays after another (see :func:`_summed_rows`), then the data row;
- an energy is ``np.add.accumulate`` over a leading +0.0, the clique terms
  in ascending clique id order, then the data terms in ascending site id
  order, never ``np.sum`` or a dot product, whose pairwise order differs.
  Every committed site writes its cliques' terms and its data term
  through the same per-site slots into an all-+0.0 array. Local HCF
  keeps that array across a run and rewrites only the terms of the sites
  a sweep changed, from the rows that sweep read; the array, and so the
  sum, is the one a full evaluation builds.

A suppressed term (an uncommitted member, or padding) enters as +0.0. A
running sum that starts at +0.0 never becomes -0.0, so adding +0.0 leaves
it unchanged, and the leading +0.0 keeps an energy of -0.0 data terms at
0.0 as a plain Python sum from 0.0 would.
"""

from __future__ import annotations

import numbers
import operator
from itertools import chain, groupby

import numpy as np

UNCOMMITTED = -1


class Clique:
    """Clique of the neighborhood graph with a dense potential table.

    ``table`` has shape ``(num_labels,) * len(members)`` and is indexed by
    the members' labels in member order. Tables may be shared between
    cliques; they are treated as immutable. ``members`` holds Python ints;
    a member that is a bool or not a Python or numpy integer raises
    ValueError.
    """

    __slots__ = ("members", "table")

    def __init__(self, members, table):
        try:
            members = tuple(members)
            if any(isinstance(m, bool) for m in members):
                raise TypeError
            self.members = tuple(map(operator.index, members))
        except TypeError:
            raise ValueError("clique members must be integers") from None
        self.table = np.asarray(table, dtype=np.float64)

    def __repr__(self):
        return f"Clique(members={self.members!r})"


class Field:
    """Immutable site graph plus clique potentials, held as arrays.

    Whichever constructor builds it, a field keeps one array form:

    - CSR adjacency: the neighbors of site ``s`` are
      ``indices[indptr[s]:indptr[s + 1]]``;
    - ``members[:, c]`` lists clique ``c``'s members, padded in front with
      ``num_sites`` to ``max(largest arity, 2)`` rows, and ``arity[c]``
      counts them;
    - ``table_ids[c]`` indexes clique ``c``'s potential table in
      ``tables``, the distinct tables in order of first use.

    ``Field(num_sites, num_labels, adjacency, cliques)`` turns hand-built
    neighbor lists and :class:`Clique` objects into the CSR arrays and
    ``(members, table)`` blocks that :meth:`from_arrays` takes; both pad
    the blocks alike. Every clique's members must be pairwise adjacent.
    The structural invariants are checked once, on construction, over the
    arrays, and :func:`validate_field` reports what that check found.

    :attr:`adjacency` and :attr:`cliques` are read-only list views of the
    arrays, built on first access (a hand-built field keeps the cliques it
    was given); no estimator reads them. Neither the field nor its clique
    tables may change after construction: the check and the array form in
    :attr:`compiled` are computed once and never refreshed.
    """

    def __init__(self, num_sites, num_labels, adjacency, cliques):
        cliques = tuple(cliques)
        adjacency = [list(nbrs) for nbrs in adjacency]
        # each run of cliques of one arity sharing one table becomes a block
        runs = [list(run) for _key, run in
                groupby(cliques, lambda c: (len(c.members), id(c.table)))]
        self._setup(num_sites, num_labels, np.cumsum([0] + [len(nbrs) for nbrs in adjacency]),
                    _site_array(list(chain.from_iterable(adjacency)), 1, "adjacency"),
                    [([c.members for c in run], run[0].table) for run in runs])
        self._cliques = cliques

    @classmethod
    def from_arrays(cls, num_sites, num_labels, indptr, indices, blocks):
        """Field from CSR adjacency and blocks of cliques sharing a table.

        ``blocks`` holds ``(members, table)`` pairs in clique id order: the
        rows of the integer array ``members``, of shape ``(count,
        arity)``, become the next ``count`` cliques, each with the potential
        table ``table``. Tables are told apart by identity, as in the list
        constructor. Raises ValueError unless ``indptr`` and ``indices``
        are 1-D and every ``members`` 2-D, all with an integer dtype.
        """
        field = cls.__new__(cls)
        field._setup(num_sites, num_labels, _site_array(indptr, 1, "adjacency offsets"),
                     _site_array(indices, 1, "adjacency"), blocks)
        field._cliques = None
        return field

    def _setup(self, num_sites, num_labels, indptr, indices, blocks):
        self.num_sites = _checked_index(num_sites, "num_sites")
        self.num_labels = _checked_index(num_labels, "num_labels")
        blocks = [(_site_array(m, 2, "clique members"), t) for m, t in blocks]
        blocks = [(m, t) for m, t in blocks if len(m)]
        counts = [len(m) for m, _t in blocks]
        arity = [m.shape[1] for m, _t in blocks]
        k = max(arity + [2])
        members = np.full((k, sum(counts)), self.num_sites, dtype=np.int64)
        for (m, _t), start in zip(blocks, np.cumsum([0] + counts).tolist()):
            members[k - m.shape[1]:, start:start + len(m)] = m.T
        table_ids, tables = _distinct([t for _m, t in blocks])
        self.indptr, self.indices, self.members = indptr, indices, members
        self.arity, self.table_ids = (np.repeat(np.array(ids, dtype=np.int64), counts)
                                      for ids in (arity, table_ids))
        for a in (indptr, indices, members, self.arity, self.table_ids):
            a.setflags(write=False)
        self.tables = tuple(np.asarray(t, dtype=np.float64) for t in tables)
        self._adjacency = None
        self._compiled = None
        self._problems = _structure_problems(self)

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """``adjacency[s]`` lists the neighbors of site ``s``, from the CSR arrays."""
        if self._adjacency is None:
            flat, ptr = self.indices.tolist(), self.indptr.tolist()
            self._adjacency = tuple(tuple(flat[a:b]) for a, b in zip(ptr, ptr[1:]))
        return self._adjacency

    @property
    def cliques(self) -> tuple[Clique, ...]:
        """The cliques in clique id order, from the member and table arrays."""
        if self._cliques is None:
            k = len(self.members)
            self._cliques = tuple(
                Clique(col[k - a:], self.tables[t]) for col, a, t in
                zip(self.members.T.tolist(), self.arity.tolist(), self.table_ids.tolist()))
        return self._cliques

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
                f"cliques={len(self.arity)})")


def _distinct(tables):
    """Each table's index among the distinct ones, told apart by identity, and those."""
    index = {}
    ids = [index.setdefault(id(t), len(index)) for t in tables]
    return ids, list({id(t): t for t in tables}.values())


def _site_array(values, ndim, what):
    """``values``, of ``ndim`` dimensions and an integer dtype, as a new int64 array."""
    raw = np.asarray(values)
    # an empty list reads as float64, and Python ints past int64 as objects
    if (raw.ndim != ndim or (raw.size and raw.dtype.kind not in "iuO")
            or _first_bool(values, raw) >= 0):
        raise ValueError(f"{what} must be a {ndim}-D array of integers")
    try:
        return raw.astype(np.int64)
    except OverflowError:
        raise ValueError(f"{what} must fit in 64-bit integers") from None


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
      all zero and stands for an uncommitted other: a clique whose other
      members are not all committed adds nothing. With ``m == 1`` the
      readers use the other member's label as the row index unchanged, so
      UNCOMMITTED's -1 reaches, from a real table's first row, the last
      row of the table stacked before it, which is zero too. A unary
      table fills row 0 only. Table 0 is all zero and serves the padding
      slots; no real clique uses it, so a real table always has one before it.
    - ``offsets[j, s]`` and ``others[:, j, s]`` (``m`` sites, padded in
      front with ``n``) describe site ``s``'s ``j``-th incident clique in
      ascending clique id order, for ``D`` slots ``j``: the first row of
      its table in ``tables`` flattened to ``(rows, num_labels)``, and its
      other members. The slots past the site's degree hold table 0.
      Slot-major, so that each slot is one contiguous column of the
      gather. ``strides`` turns ``m`` labels into a row index.
    - ``cliques_at[j, s]`` is the id of that ``j``-th incident clique,
      so site ``s``'s clique ids in ascending order; the slots past its
      degree hold -1, which points the energy terms' rewrite (entry ``1 +
      c``) at their leading +0.0. Slot-major like ``offsets``.
    - ``neighbors[j, s]`` is site ``s``'s ``j``-th neighbor in the
      field's CSR order, for ``max_degree`` slots ``j``; the slots past
      its degree hold ``n``. Slot-major like ``offsets``.
    - ``num_cliques`` counts the cliques, which fixes the layout of the
      energy terms (:func:`_no_terms`).
    - ``bound`` sums over the cliques the largest magnitude in each one's
      table: no sum of clique terms is larger in magnitude.

    These per-site slots are the one clique layout: local energies read
    them, and energies write their clique terms through them. Built from
    the field's arrays alone, without a walk over its cliques: one sort of
    a unique int64 key per incidence, its site times ``members.size`` plus
    its index in ``members.T.ravel()``, then scatters through flat ``slot
    * n + site`` indices. The arrays are read-only.
    """

    def __init__(self, field):
        n, num_labels = field.num_sites, field.num_labels
        members, arity = field.members, field.arity
        k = len(members)
        m = k - 1
        self.height = num_labels ** m + 1
        self.num_cliques = arity.size
        self.tables, first = _stacked_tables(field.tables, self.height, num_labels)
        # a distinct table's first stacked arrangement holds all its entries
        peak = np.abs(self.tables).max(axis=(1, 2)).take(first)
        self.bound = _bound(peak.take(field.table_ids))

        # one incidence per member, keyed by its site, then its index in the
        # clique-major members: the keys are unique, so any sort orders the
        # incidences by site and, within a site, by clique id
        flat = members.T.ravel()
        key = np.flatnonzero(flat < n)
        key += flat[key] * flat.size
        key.sort()
        site, pos = np.divmod(key, flat.size, out=(None, key))
        degree = np.bincount(site, minlength=n)
        # each incidence's flat index slot * n + site in the slot-major arrays
        at = (np.arange(site.size) - (np.cumsum(degree) - degree)[site]) * n + site
        del site
        cid, col = np.divmod(pos, k)
        pos -= col  # the clique's first entry in flat
        shape = (int(degree.max(initial=0)), n)
        self.others = np.full((m,) + shape, n, dtype=np.int64)
        for q in range(m):
            self.others[q].reshape(-1)[at] = flat[pos + q + (col <= q)]
        del flat, pos
        self.cliques_at = np.full(shape, -1, dtype=np.int64)
        self.cliques_at.reshape(-1)[at] = cid
        # own position p of a clique uses its table's first arrangement plus p
        self.offsets = np.zeros(shape, dtype=np.int64)
        self.offsets.reshape(-1)[at] = (first[field.table_ids] + arity - k)[cid] + col
        self.offsets *= self.height
        del at, cid, col

        counts = np.diff(field.indptr)
        owner = np.repeat(np.arange(n), counts)
        self.neighbors = np.full((int(counts.max(initial=0)), n), n, dtype=np.int64)
        self.neighbors.reshape(-1)[(np.arange(owner.size) - field.indptr[owner]) * n + owner] = \
            field.indices

        self.strides = num_labels ** np.arange(m - 1, -1, -1, dtype=np.int64)
        self.sites = np.arange(n)
        for a in (self.tables, self.offsets, self.others, self.cliques_at, self.strides,
                  self.neighbors, self.sites):
            a.setflags(write=False)


def _stacked_tables(tables, height, num_labels):
    """The stacked tables, and each distinct table's index in them at own position 0.

    One stacked table per (distinct table, own position), in the order of
    ``tables``: its first rows hold the table transposed others-then-own,
    own position p following position 0 by p. Table 0 is all zero.
    """
    first = np.cumsum([1] + [t.ndim for t in tables])
    stack = np.zeros((first[-1], height, num_labels))
    for table, i in zip(tables, first.tolist()):
        for pos in range(table.ndim):
            axes = [a for a in range(table.ndim) if a != pos] + [pos]
            stack[i + pos, :table.size // num_labels].reshape(table.shape)[...] = \
                table.transpose(axes)
    return stack, first[:-1]


class DataTerm:
    """Per-site, per-label observation energies.

    ``values[s, l]`` is the energy added when site ``s`` takes label ``l``.
    Values must be finite; the array is frozen after construction.
    ``bound`` sums over the sites the largest magnitude in each one's row:
    no sum of data terms is larger in magnitude.
    """

    def __init__(self, values):
        v = np.array(values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError("data term must be a (num_sites, num_labels) array")
        if not np.isfinite(v).all():
            raise ValueError("data term contains non-finite values")
        v.setflags(write=False)
        self.values = v
        peak = np.zeros(len(v))
        for column in np.abs(v).T:  # numpy reduces many short rows slowly
            np.maximum(peak, column, out=peak)
        self.bound = _bound(peak)

    @property
    def num_sites(self):
        return self.values.shape[0]

    @property
    def num_labels(self):
        return self.values.shape[1]

    def __repr__(self):
        return f"DataTerm(num_sites={self.num_sites}, num_labels={self.num_labels})"


def _bound(magnitudes):
    """The sum of ``magnitudes`` as a float, +inf if it overflows."""
    with np.errstate(over="ignore"):
        return float(magnitudes.sum())


# no local energy, energy or difference of two of them can overflow on a
# problem whose clique and data bounds sum to at most this
_LARGEST_BOUND = np.finfo(np.float64).max / 2


def new_configuration(num_sites: int) -> np.ndarray:
    """All-uncommitted configuration array."""
    return np.full(_checked_index(num_sites, "num_sites"), UNCOMMITTED, dtype=np.int64)


def fully_committed(config) -> bool:
    """True when no site carries the UNCOMMITTED label."""
    return bool((np.asarray(config) >= 0).all())


def _check_problem(field, data):
    """The compiled field, after checking the field and that the data term fits it.

    Also refuses a problem whose energies could overflow: one where the
    largest magnitudes of every clique table and every data row sum to
    more than half the largest float.
    """
    comp = field.compiled
    if data.values.shape != (field.num_sites, field.num_labels):
        raise ValueError(
            f"data term shape {data.values.shape} does not match field "
            f"({field.num_sites} sites, {field.num_labels} labels)")
    if comp.bound + data.bound > _LARGEST_BOUND:
        raise ValueError(
            "energies could overflow: the largest clique and data terms sum in magnitude "
            "to more than half the largest float")
    return comp


def _check_runnable(field, data):
    """The compiled field, after checking that an estimator can run on the problem."""
    if field.num_labels < 2:
        raise ValueError("estimators need at least two labels")
    return _check_problem(field, data)


def _checked_labels(field, data, config, partial=None):
    """The configuration as int64 with label 0 appended for the padding site.

    Raises ValueError unless the data term fits the field and the
    configuration holds, for each site, a label or UNCOMMITTED as an
    integer that is not a bool; with a message ``partial``, also when a
    site is uncommitted.
    """
    _check_problem(field, data)
    raw = np.asarray(config)
    n = field.num_sites
    if raw.shape != (n,):
        raise ValueError(f"configuration of shape {raw.shape} does not fit {n} sites")
    cfg = np.zeros(n + 1, dtype=np.int64)
    if raw.dtype.kind in "iu" or (raw.dtype.kind == "f" and isinstance(config, np.ndarray)):
        with np.errstate(invalid="ignore"):  # NaN and infinities are refused below
            cfg[:n] = raw
        cast = cfg[:n] != raw
        if (first := _first_bool(config, raw)) >= 0:  # numpy reads them as ints
            cast[first] = True
    else:
        # one value at a time: bools, strings and objects such as None, and
        # a sequence numpy read as floats or objects, whose ints may be past int64
        exact = [_exact_label(v) for v in np.asarray(config, dtype=object).tolist()]
        cast = np.array([v is None for v in exact])
        cfg[:n] = [0 if v is None else v for v in exact]
    bad = np.flatnonzero(cast | (cfg[:n] < UNCOMMITTED) | (cfg[:n] >= field.num_labels))
    if bad.size:
        s = int(bad[0])
        if cast[s]:
            label = np.asarray(config, dtype=object).item(s)  # as given, not as numpy read it
            if isinstance(label, np.generic):
                label = label.item()
            raise ValueError(f"site {s}: label {label!r} is not an integer")
        raise ValueError(f"site {s}: label {cfg[s]} out of range")
    if partial is not None and not fully_committed(cfg):
        raise ValueError(partial)
    return cfg


def _exact_label(value):
    """``value`` as a Python int if it is a real number, no bool, equal to an int64; else None."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        return None
    try:
        exact = int(value)
    except (ValueError, OverflowError):  # NaN, infinities
        return None
    return exact if exact == value and -2**63 <= exact < 2**63 else None


def _checked_ranks(field, ranks):
    """The ranks (site order if None) as int64 with ``n`` appended for the padding site."""
    n = field.num_sites
    if ranks is None:
        return np.arange(n + 1, dtype=np.int64)
    arr = np.asarray(ranks)
    if (arr.shape != (n,) or arr.dtype.kind not in "iu" or _first_bool(ranks, arr) >= 0
            or not np.array_equal(np.sort(arr), np.arange(n))):
        raise ValueError("ranks must be a permutation of the site indices")
    return np.append(arr.astype(np.int64), n)


def _first_bool(values, raw):
    """Flat index of the first bool in ``values``, read as ``raw`` by ``np.asarray``, or -1."""
    if isinstance(values, np.ndarray) or raw.dtype == bool:
        return -1  # the dtype tells
    # numpy reads the bools in a Python sequence of numbers as numbers
    flags = [isinstance(v, (bool, np.bool_)) for v in np.asarray(values, dtype=object).flat]
    return flags.index(True) if True in flags else -1


def _real(value):
    """True for a real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_count(name, value, least=0, default=None):
    """``value``, checked to be a non-bool integer >= ``least``; ``default`` for None."""
    if value is None and default is not None:
        return default
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer")
    if value < least:
        raise ValueError(f"{name} must be {'positive' if least else 'non-negative'}")
    return value


RANK_MODES = ("site-index", "seeded-permutation")


def assign_ranks(field, mode: str = "site-index", seed: int | None = None) -> np.ndarray:
    """Distinct per-site ranks used to break stability ties.

    ``site-index`` ranks sites by their index; ``seeded-permutation`` draws
    a reproducible random permutation for experiments with tie-break order.
    """
    n = field.num_sites
    if mode == "site-index":
        return np.arange(n, dtype=np.int64)
    if mode == "seeded-permutation":
        _check_count("seed", seed)  # None too: this mode needs a seed
        return np.random.default_rng(seed).permutation(n).astype(np.int64)
    raise ValueError(f"unknown rank mode: {mode!r}")


def energy(field: Field, data: DataTerm, config) -> float:
    """Total Gibbs energy of a fully committed configuration.

    Sums clique potentials in ascending clique id order, then data terms in
    ascending site id order. Raises ValueError if any site is uncommitted.
    """
    cfg = _checked_labels(field, data, config,
                          "energy of a partially committed configuration is undefined; "
                          "use augmented_energy")
    return _augmented_sum(field.compiled, data.values, cfg)


def augmented_energy(field: Field, data: DataTerm, config) -> float:
    """Energy of a partial configuration with uncommitted terms suppressed.

    A clique contributes only if every member is committed; a site's data
    term contributes only if the site is committed. Coincides with
    :func:`energy` on fully committed configurations and is exactly 0.0 on
    the all-uncommitted configuration.
    """
    return _augmented_sum(field.compiled, data.values, _checked_labels(field, data, config))


def _slot_rows(comp, others, offsets, cfg):
    """Table row of each slot of a block of sites, the row former of every reader.

    ``others`` and ``offsets`` are the block's columns of ``comp.others``
    and ``comp.offsets``. The other members' labels in ``cfg`` are the
    digits of a row from the slot's first row ``offsets``, added in place.
    Where any of them is uncommitted, a zero row: with one other member
    its label -1 itself (the zero last row of the table before, see
    :class:`CompiledField`), with more the table's own last row.
    """
    labs = cfg[others]
    rows = labs[-1]  # the last stride is 1
    if len(comp.strides) > 1:
        dead = rows < 0
        for j in range(len(comp.strides) - 1):
            rows = rows + labs[j] * comp.strides[j]
            dead |= labs[j] < 0
        rows = np.where(dead, comp.height - 1, rows)
    rows += offsets
    return rows


def _columns(comp, sites):
    """``comp.others`` and ``comp.offsets``: whole for ``sites`` None, else the sites' columns."""
    if sites is None:
        return comp.others, comp.offsets
    return comp.others.take(sites, axis=2), comp.offsets.take(sites, axis=1)


def _no_terms(comp):
    """The augmented energy's terms under the all-uncommitted configuration: all +0.0.

    In summation order: a leading +0.0, then one term per clique in clique
    id order (entry ``1 + c``), then one data term per site in site order
    (entry ``1 + num_cliques + s``). A suppressed term is +0.0.
    """
    return np.zeros(1 + comp.num_cliques + len(comp.sites))


def _total(terms, out=None):
    """Sum of an energy's terms in their order, as a float; ``out`` takes the running sums."""
    return float(np.add.accumulate(terms, out=out)[-1])


def _augmented_sum(comp, values, cfg):
    """Augmented energy of an extended configuration, as a Python float.

    Every committed site writes its terms into :func:`_no_terms`, and the
    uncommitted ones keep their +0.0.
    """
    terms = _no_terms(comp)
    committed = np.flatnonzero(cfg[:-1] >= 0)
    sites = None if committed.size == len(comp.sites) else committed
    _write_terms(comp, values, cfg, terms, _slot_rows(comp, *_columns(comp, sites), cfg), sites)
    return _total(terms)


def _write_terms(comp, values, cfg, terms, rows, sites):
    """Write, in place, the terms of ``sites``' cliques and data rows for ``cfg``.

    ``terms`` holds the terms of a configuration that differs from ``cfg``
    only at ``sites``, all of which ``cfg`` commits; afterwards it holds
    those of ``cfg``. ``rows``, the sites' :func:`_slot_rows` under ``cfg``,
    is used up. ``sites`` None stands for every site, indexed whole. Each
    member reads a clique's term from its own arrangement of the table,
    which holds the table's entries, so all write the same float; a clique
    with an uncommitted member reads a zero row (+0.0), and a padding slot
    writes table 0's +0.0 over the leading +0.0.
    """
    if sites is None:
        sites, cliques = comp.sites, comp.cliques_at
    else:
        cliques = comp.cliques_at.take(sites, axis=1)
    own = cfg[sites]
    num_labels = values.shape[1]
    rows *= num_labels
    rows += own
    taken = comp.tables.take(rows)
    del rows  # so that two (slots, sites) arrays, not three, meet at the scatter
    terms[1 + cliques] = taken
    terms[1 + comp.num_cliques + sites] = values.take(sites * num_labels + own)


def _local_rows(comp, values, cfg, sites=None):
    """Local energies of every site, or of ``sites`` in that order, and their slot rows.

    Every label of each site under the extended configuration ``cfg``; a
    site's own label does not enter its row.
    """
    rows = _slot_rows(comp, *_columns(comp, sites), cfg)
    return _summed_rows(comp, rows, values if sites is None else values.take(sites, axis=0)), rows


def _summed_rows(comp, rows, values):
    """Local energies of a block from its :func:`_slot_rows` and its data rows ``values``.

    One gather of each incident clique's row, added slot by slot in clique
    id order onto +0.0, then the data rows. The slots are added by one
    ``np.add.reduce`` along the slot axis, which numpy runs element by
    element in slot order, except in a block of one row of one label:
    numpy sums a one-element reduction pairwise, so it is added one slot
    at a time.
    """
    terms = comp.tables.reshape(-1, values.shape[1]).take(rows, axis=0)
    if values.size == 1:
        e = np.zeros(values.shape)
        for column in terms:
            e += column
    else:
        e = np.add.reduce(terms, axis=0, initial=0.0)
    e += values
    return e


def _quiet_commits(comp):
    """(n, num_labels) bools: whether committing site ``s`` to ``b`` is quiet.

    Such a commit, from UNCOMMITTED, leaves every other site's local
    energies bit for bit as they were: each of the site's stacked tables
    holds only zeros in its own-label column ``b``, so the rows its
    neighbours read, a zero row before, are zero rows after. A ±0.0 term
    added to a running sum from +0.0 leaves it unchanged. The rows past a
    table's real ones are zero, and a padding slot's table 0 is all
    zero, so they let any commit be quiet. A unary clique enters only its
    own site's row, so a nonzero one only makes the test stricter.
    """
    zero = ~comp.tables.any(axis=1)  # (stacked table, own label)
    # per label, indexed by a slot's first row: one (slots, n) gather each
    by_row = zero.T.repeat(comp.height, axis=1)
    return np.stack([label[comp.offsets].all(axis=0) for label in by_row], axis=1)


def _stabilities(e, own):
    """(g, best): each row's stability and best label, from local energies ``e``.

    ``own`` holds each row's site label or UNCOMMITTED. The best label has
    the least energy, ties going to the lowest label. An uncommitted
    site's stability is the negated gap from its best to its second-best
    energy (at most 0); a committed site's is its best alternative's
    energy minus its own label's (negative iff a strictly better label
    exists). Needs at least two labels.
    """
    uncommitted = own == UNCOMMITTED
    # gap: the least other label's energy minus the reference label's,
    # the reference being the best label (uncommitted) or the own label
    if e.shape[1] == 2:
        e0, e1 = e[:, 0], e[:, 1]
        best = (e1 < e0).astype(np.int64)
        on1 = np.where(uncommitted, best, own) == 1
        gap = np.where(on1, e0, e1) - np.where(on1, e1, e0)
    else:
        rows = np.arange(len(e))
        best = e.argmin(axis=1)
        ref = np.where(uncommitted, best, own)
        masked = e.copy()
        masked[rows, ref] = np.inf
        gap = masked.min(axis=1) - e[rows, ref]
    return np.where(uncommitted, -gap, gap), best


def _checked_index(value, what):
    """``value`` as a Python int, if it is no bool and ``operator.index`` takes it."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    shown = repr(value) if isinstance(value, str) else value
    raise ValueError(f"{what} {shown} is not an integer")


def _site_read(field, data, config, site):
    """One site's local energies, shape ``(1, num_labels)``, and its label in ``config``.

    Raises ValueError on a configuration that does not fit, or a site that
    is not an integer or out of range.
    """
    cfg = _checked_labels(field, data, config)
    site = _checked_index(site, "site")
    if not 0 <= site < field.num_sites:
        raise ValueError(f"site {site} out of range")
    return _local_rows(field.compiled, data.values, cfg, [site])[0], cfg[site:site + 1]


def local_energy(field: Field, data: DataTerm, config, site: int, label: int) -> float:
    """Energy seen by one site when it takes ``label``.

    Sums the potentials of every clique containing the site, reading the
    other members' labels from ``config`` and suppressing cliques that
    touch an uncommitted other member, plus the site's own data term.
    The site's current label in ``config`` plays no role.
    """
    e, _own = _site_read(field, data, config, site)
    label = _checked_index(label, "label")
    if not 0 <= label < field.num_labels:
        raise ValueError(f"label {label} is not a committed label")
    return e[0, label].item()


def best_label(field: Field, data: DataTerm, config, site: int) -> tuple[int, float]:
    """Committed label with the lowest local energy at ``site`` and that energy.

    Ties go to the smallest label index; the site's own current label does
    not influence the result.
    """
    e, own = _site_read(field, data, config, site)
    best = _stabilities(e, own)[1].item()
    return best, e[0, best].item()


def stability(field: Field, data: DataTerm, config, site: int) -> float:
    """Stability of one site under the current configuration.

    Uncommitted sites get the negated best-versus-second-best gap (always
    <= 0); committed sites get the best-alternative gap relative to their
    current label (negative iff a strictly better label exists).
    """
    if field.num_labels < 2:
        raise ValueError("stability needs at least two labels")
    return _stabilities(*_site_read(field, data, config, site))[0].item()


def local_energies(field: Field, data: DataTerm, config) -> np.ndarray:
    """Local energies for every site and label as a (num_sites, num_labels) array."""
    cfg = _checked_labels(field, data, config)
    return _local_rows(field.compiled, data.values, cfg)[0]


def validate_field(field: Field) -> list[str]:
    """Human-readable violations of the structural invariants, empty if none.

    The check ran once when the field was built; this returns a copy of
    its findings.
    """
    return list(field._problems)


def _structure_problems(field):
    """Every violation of the structural invariants, over the field's arrays.

    Adjacency problems come first, in CSR order, then asymmetric pairs by
    site and neighbor, then clique problems by clique id and member
    position. Only offending items are formatted.
    """
    out = []
    n = field.num_sites
    if n < 1:
        out.append("num_sites must be at least 1")
    if field.num_labels < 1:
        out.append("num_labels must be at least 1")
    if len(field.indptr) - 1 != n:
        out.append(f"adjacency has {len(field.indptr) - 1} entries for {n} sites")
        return out
    if (field.indptr[:1].tolist() != [0] or field.indptr[-1] != len(field.indices)
            or (np.diff(field.indptr) < 0).any()):
        out.append(f"adjacency offsets do not index its {len(field.indices)} neighbor entries")
        return out
    edges = _neighbor_keys(field, out)
    _clique_problems(field, edges, out)
    return out


def _neighbor_keys(field, out):
    """Sorted keys ``s * n + r`` of the distinct in-range, non-self neighbors ``r`` of each ``s``.

    Reports self-loops, out-of-range and repeated neighbors, then the
    neighbor entries whose converse is missing.
    """
    n, indptr, indices = field.num_sites, field.indptr, field.indices
    site = np.repeat(np.arange(n), np.diff(indptr))
    loop = indices == site
    flagged = loop | (indices < 0) | (indices >= n)
    site, nbr = site[~flagged], indices[~flagged]
    keys = site * n + nbr
    if (np.diff(keys) <= 0).any():
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        repeat = np.append(False, keys[1:] == keys[:-1])
        flagged[np.flatnonzero(~flagged)[order[repeat]]] = True
        keys, site, nbr = keys[~repeat], site[order[~repeat]], nbr[order[~repeat]]
    bad = np.flatnonzero(flagged)
    for i, s in zip(bad.tolist(), (np.searchsorted(indptr, bad, side="right") - 1).tolist()):
        r = int(indices[i])
        if loop[i]:
            out.append(f"site {s}: self-loop in adjacency")
        elif not 0 <= r < n:
            out.append(f"site {s}: neighbor {r} out of range")
        else:
            out.append(f"site {s}: duplicate neighbor {r}")
    # symmetric iff the keys (r, s) sort to the keys (s, r)
    converse = nbr * n + site
    if not np.array_equal(np.sort(converse), keys):
        lonely = ~_contains(keys, converse)
        for s, r in zip(site[lonely].tolist(), nbr[lonely].tolist()):
            out.append(f"adjacency asymmetric: {r} neighbors {s} but not conversely")
    return keys


def _contains(sorted_keys, keys):
    """Whether each of the non-negative ``keys`` occurs in ``sorted_keys``."""
    return np.append(sorted_keys, -1)[np.searchsorted(sorted_keys, keys)] == keys


def _clique_problems(field, edges, out):
    """Reports empty, repeated, out-of-range and non-adjacent members and bad tables.

    A clique with no members, a repeated member or an out-of-range member
    gets only that report. Tables are checked once per (table, arity).
    """
    n, members, arity = field.num_sites, field.members, field.arity
    k = len(members)
    held = np.arange(k)[:, None] >= k - arity
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    repeated = np.zeros(arity.size, dtype=bool)
    for i, j in pairs:
        repeated |= held[i] & (members[i] == members[j])
    outside = held & ((members < 0) | (members >= n)) & ~repeated
    sound = (arity > 0) & ~repeated & ~outside.any(axis=0)

    found = [(c, 0, "no members") for c in np.flatnonzero(arity == 0).tolist()]
    found += [(c, 0, "repeated member") for c in np.flatnonzero(repeated).tolist()]
    for row, c in zip(*(a.tolist() for a in np.nonzero(outside))):
        found.append((c, 1 + row, f"member {int(members[row, c])} out of range"))
    for p, (i, j) in enumerate(pairs):
        both = np.flatnonzero(sound & held[i])
        apart = both[~_contains(edges, members[i, both] * n + members[j, both])]
        for c, a, b in zip(apart.tolist(), members[i, apart].tolist(),
                           members[j, apart].tolist()):
            found.append((c, 1 + k + p, f"members {a} and {b} are not neighbors"))
    # shared tables are checked once per arity
    key = field.table_ids * (k + 1) + arity
    problem = {}
    for t in np.flatnonzero(np.bincount(key[sound], minlength=1)).tolist():
        problem[t] = _table_problem(field.tables[t // (k + 1)],
                                    (field.num_labels,) * (t % (k + 1)))
    bad = sound & np.isin(key, [t for t, text in problem.items() if text])
    for c, t in zip(np.flatnonzero(bad).tolist(), key[bad].tolist()):
        found.append((c, 2 + k + len(pairs), problem[t]))
    out.extend(f"clique {c}: {text}" for c, _order, text in sorted(found))


def _table_problem(table, want):
    if table.shape != want:
        return f"table shape {table.shape} is not {want}"
    if not np.isfinite(table).all():
        return "table has non-finite entries"
    return None
