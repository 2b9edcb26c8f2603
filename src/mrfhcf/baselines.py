"""Reference estimators: likelihood thresholding, ICM, annealing, MPM.

All stochastic estimators draw from numpy's PCG64 generator seeded
explicitly, so runs are reproducible across platforms.

ICM, annealing and MPM sweep the sites one at a time, in scan order or
(random-order ICM) a seeded permutation per sweep: each site sees the
labels its earlier neighbours took in the same sweep and its later
neighbours in the sweep before. The results equal that visit's bit for
bit:

- ICM takes each row's argmin, ties to the lowest label;
- Gibbs sweep ``k`` draws one ``rng.random(n)``, sweep after sweep, and
  site ``s`` takes element ``s``. At temperature ``t = max(T, 1e-300)`` a
  row ``v`` weighs label ``l`` by ``math.exp(-(v[l] - min(v)) / t)``; the
  site takes the first label whose running weight sum (added label by
  label) exceeds ``u * math.fsum(weights)``, else the last label. A level
  draws down its label columns, with one ``np.exp`` for all its weights
  and its last running sum as the total; these may differ from the rule's
  in the last bits. A row whose threshold ``u * total`` lies within
  ``_MARGIN * total`` (``_MARGIN = 2**-36``) of a running sum is drawn
  again by the rule itself, element by element, so every label is the
  rule's;
- the sweep traces carry the total energy, updated by each flip's exact
  local-energy difference, added in visit order onto the running total.

A sweep runs as a wavefront (Lamport, "The Parallel Execution of DO
Loops", CACM 1974): a site's level ``L(s)`` is one more than the highest
level of its neighbours visited before it, so no two sites of a level are
neighbours and every earlier neighbour sits in a lower level. Reading one
level's local energies as one array therefore sees exactly what the
one-site-at-a-time visit sees. The levels are built in rounds, as in
Kahn's topological sort, one whole level per round. No wave is cached on
the field; ICM builds one only once a sweep moves a site (below).

A Gibbs run pipelines its whole budget as one space-time wavefront:
sweep ``k`` visits site ``s`` at level ``L(s) + k*S``. With the pace
``P``, one more than the largest ``L(r) - L(s)`` over neighbours ``s``
visited before ``r`` (at least 1), every stride ``S >= P`` is exact. When
``(r, k)`` runs, an earlier neighbour ``s`` has run sweep ``k``, at
``L(s) + k*S``, and not sweep ``k + 1``, because ``L(r) - L(s) < P <= S``;
by the same bound a later neighbour has run sweep ``k - 1`` and not sweep
``k``. Two visits share a level only if their sites' levels differ by a
multiple of ``S``, which neither two neighbours (``0 < |L(r) - L(s)| <
S``) nor one site in two sweeps can. The run takes ``depth + S*(K - 1)``
levels for ``K`` sweeps instead of ``depth * K``.

- Sweep ``k``'s uniforms are drawn when it enters the pipeline, at level
  ``k*S``. Sweeps enter in order, so the generator stream is that of
  sweeping one after another.
- When sweep ``k``'s last level has run, its flips are added in visit
  order onto the running energy and its labels handed to the caller.
- The sweeps in flight keep each visit's uniform, local energy row and
  label in a ring of ``ceil(depth / S)`` slots; a visit reads its
  temperature from the per-sweep temperatures by its sweep. The stride is
  widened past ``P`` until those slots hold at most ``_IN_FLIGHT`` site
  visits; a sweep with more sites than that runs alone.
- The read arrays are gathered once in ``(L(s) mod S, L(s))`` order, so
  each space-time level is one contiguous slice.

A wave schedules a known number of sweeps, all run by one ``_sweeps``
call; a one-sweep wave takes ``S = depth`` and computes no pace. ICM, whose
sweep count is not known in advance, runs one call per moving sweep on a
one-sweep wave, built at the first such sweep in scan order and for each
one in random order. Its closing quiet sweep is not run: a sweep changes
nothing iff every site's argmin (ties to the lowest label) under the
sweep's start labels is its label, since the first site in visit order
that fails the test still sees the start labels and moves. One read of
every site decides the first sweep; after a moving sweep only the flipped
sites' neighbours are read again, because every other site's row is the
one its visit read and its label that row's argmin. Annealing and MPM
share one run.

The start is checked and padded by ``core``, which also scores it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .core import (_augmented_sum, _check_count, _check_problem, _check_runnable,
                   _checked_labels, _local_rows, _real, _slot_rows, _summed_rows)
from .trace import RunTrace


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric cooling: temperature t0 * alpha**k during sweep k."""
    t0: float = 2.0
    alpha: float = 0.95
    sweeps: int = 100

    def __post_init__(self):
        if not (_real(self.t0) and math.isfinite(self.t0) and self.t0 > 0):
            raise ValueError("t0 must be a positive real")
        if not (_real(self.alpha) and 0.0 < self.alpha < 1.0):
            raise ValueError("alpha must be in (0, 1)")
        _check_count("sweeps", self.sweeps)


@dataclass(frozen=True)
class MpmParams:
    """Unit-temperature Gibbs sampling budget for marginal estimation."""
    burn_in: int = 20
    samples: int = 100
    seed: int = 0

    def __post_init__(self):
        _check_count("burn_in", self.burn_in)
        _check_count("samples", self.samples, 1)
        _check_count("seed", self.seed)


_PARTIAL_START = "initial configuration must be fully committed"


def tlr(field, data) -> np.ndarray:
    """Per-site argmin of the data term, ignoring all cliques.

    Ties go to label 0. Exact MAP whenever the field has no cliques.
    """
    _check_problem(field, data)
    return np.argmin(data.values, axis=1).astype(np.int64)


# a wave of several sweeps keeps at most this many site visits in flight (a
# uniform, a local energy row and a label: 32 bytes each at 2 labels, 8 MB
# in all), unless one sweep alone has more sites
_IN_FLIGHT = 1 << 18


class _Wave:
    """The schedule of ``sweeps`` sweeps in one visit order, cut into dependency levels.

    ``level[s]`` is site ``s``'s level (the round that placed it) and
    ``depth`` their number. One sweep takes ``stride = depth``; more take
    the least stride from the pace up (one more than the largest level step
    from a site to a later visited neighbour, at least 1) that keeps at
    most ``_IN_FLIGHT`` site visits in flight.

    ``sites`` lists the sites in ``(level % stride, level)`` order,
    ascending within a level: level ``v`` is ``sites[bounds[v]:ends[v]]``.
    With one sweep the levels come in order, so ``ends[v] == bounds[v +
    1]``. ``position[s]`` is site ``s``'s index in ``sites``, ``visit``
    lists those indices in visit order and ``lap`` holds each laid-out
    site's ``level // stride``. ``others``, ``offsets`` and ``values`` are
    the per-site arrays of the compiled field ``comp`` and the data rows,
    taken in the order of ``sites``; ``others`` holds the other members'
    indices in ``sites``, to read a configuration laid out in that order.
    """

    def __init__(self, field, data, order, sweeps):
        n = field.num_sites
        self.comp = comp = field.compiled
        self.sweeps = sweeps
        # a level depends only on the neighbours visited before the site;
        # the padding neighbour n counts as never visited
        when = np.full(n + 1, n)
        when[order] = np.arange(n)
        before = when[comp.neighbors] < when[:n]
        # a round places one level, ascending: the sites no earlier neighbour keeps waiting.
        # It counts down their later neighbours and themselves (to -1); padding n starts at -1
        waiting = np.append(before.sum(axis=0), -1)
        placed = np.vstack((np.where(before, n, comp.neighbors), np.arange(n)))
        levels = []
        while (ready := (waiting == 0).nonzero()[0]).size:
            levels.append(ready)
            np.subtract.at(waiting, placed[:, ready], 1)
        self.depth = depth = len(levels)
        sizes = np.array([len(v) for v in levels])
        self.level = level = np.empty(n, dtype=np.int64)
        level[np.concatenate(levels)] = np.repeat(np.arange(depth), sizes)
        self.stride = depth
        if sweeps > 1:
            steps = (level - np.append(level, 0)[comp.neighbors])[before]
            pace = 1 + int(steps.max(initial=0))
            flight = max(1, _IN_FLIGHT // n)
            self.stride = max(pace, -(-depth // flight))

        # the levels by residue, ascending within one
        laid = [v for r in range(self.stride) for v in range(r, depth, self.stride)]
        self.sites = np.concatenate([levels[v] for v in laid])
        self.position = np.empty(n, dtype=np.int64)
        self.position[self.sites] = np.arange(n)
        first = self.position[[v[0] for v in levels]]  # a level's least site comes first
        self.bounds = first.tolist() + [n]
        self.ends = (first + sizes).tolist()
        self.visit = self.position[order]
        self.lap = level[self.sites] // self.stride
        # the other members as indices into `sites`, the padding site n staying n
        self.others = np.append(self.position, n)[comp.others[:, :, self.sites]]
        self.offsets = comp.offsets[:, self.sites]
        self.values = data.values[self.sites]

    def spans(self):
        """``(t, (level, others, offsets, values))`` per space-time level of the sweeps.

        Level ``t`` visits ``sites[level]``, the site at index ``i`` for
        sweep ``t // stride - lap[i]``; ``others``, ``offsets`` and
        ``values`` are the slice's columns of the read arrays.
        """
        stride, last, count = self.stride, self.depth - 1, self.sweeps
        t = newest = oldest = 0  # the sweep that entered last, the first not ended
        while oldest < count:
            level = slice(self.bounds[t - newest * stride], self.ends[t - oldest * stride])
            yield t, (level, self.others[:, :, level], self.offsets[:, level], self.values[level])
            if t - oldest * stride == last:
                oldest += 1
            t += 1
            if t == (newest + 1) * stride and newest + 1 != count:
                newest += 1


def _sweeps(wave, start, current, temperatures=None, rng=None):
    """Run the ``wave.sweeps`` sweeps of ``wave`` from the labels ``start``.

    With ``temperatures`` (each at least 1e-300), sweep ``k`` is a Gibbs
    sweep at ``temperatures[k]`` drawing from ``rng``; without, every site
    takes its argmin. After each sweep, in order, yields the total energy
    ``current`` plus the sweep's flip deltas, the number of flips and the
    sweep's labels in site order.

    Sweep ``k`` enters at epoch ``k``, the levels ``t`` with ``t // stride
    == k``. Its visit of the site at index ``i`` of ``wave.sites`` keeps
    its uniform, its local energy row and its label in ring slot ``(k +
    lap[i]) % flight``: the epoch of its level, so that each level reads
    and writes one slice of one slot.
    """
    n, stride, depth = len(wave.sites), wave.stride, wave.depth
    # a slot is written again `flight` epochs later, after its sweep ended
    flight = min((depth - 1) // stride + 1, wave.sweeps)
    uniforms = np.empty((flight, n if temperatures is not None else 0))
    seen = np.empty((flight, n, wave.values.shape[1]))
    labels = np.empty((flight, n), dtype=np.int64)
    cfg = np.zeros(n + 1, dtype=np.int64)  # laid out as `wave.sites`, then the padding site
    cfg[:n] = before = start[wave.sites]
    # where sweep k's visits, in the order of `wave.sites`, sit in the flat
    # ring: row k % flight
    visits = (np.arange(flight)[:, None] * n + wave.lap * n + np.arange(n)) % (flight * n)

    done = 0
    for t, (level, others, offsets, values) in wave.spans():
        if t % stride == 0:
            # a new epoch: its sweep enters and the ring turns one slot
            epoch = t // stride
            slot = epoch % flight
            if temperatures is not None and epoch < wave.sweeps:
                uniforms.reshape(-1)[visits[slot]] = rng.random(n)[wave.sites]
            uniforms_at, seen_at, labels_at = uniforms[slot], seen[slot], labels[slot]
        rows = _summed_rows(wave.comp, _slot_rows(wave.comp, others, offsets, cfg), values)
        if temperatures is None:
            new = rows.argmin(axis=1)  # ties go to the lowest label
        else:
            new = _gibbs_labels(rows, uniforms_at[level],
                                temperatures[epoch - wave.lap[level]])
        seen_at[level] = rows
        labels_at[level] = cfg[level] = new
        if t - done * stride == depth - 1:
            # sweep `done` has run its last level
            at = visits[done % flight]
            after = labels.reshape(-1)[at]
            flips = wave.visit[(before != after)[wave.visit]]
            at = at[flips]
            rows = seen.reshape(-1, seen.shape[2])
            steps = rows[at, after[flips]] - rows[at, before[flips]]
            current = float(np.add.accumulate(np.concatenate(([current], steps)))[-1])
            before = after
            done += 1
            yield current, len(flips), after[wave.position]


def icm_run(field, data, init, order: str = "scan", seed: int | None = None,
            max_sweeps: int | None = None):
    """Iterated conditional modes: greedy per-site argmin sweeps to a fixpoint.

    ``order`` is "scan" for ascending site order or "random" for a fresh
    seeded permutation each sweep. Sites are updated in place, so later
    sites in a sweep see earlier changes. Stops after the first sweep that
    changes nothing; the fixpoint is a single-flip local minimum.

    That sweep is decided, not run: it is quiet iff every site's argmin
    under its start labels is its label, since the first site in visit
    order that fails this moves (see the module docstring). Its row
    repeats the energy with 0 changed and counts toward ``max_sweeps``.
    """
    comp = _check_runnable(field, data)
    cfg = _checked_labels(field, data, init, _PARTIAL_START)
    n = field.num_sites
    cap = _check_count("max_sweeps", max_sweeps, default=100 * n * field.num_labels)
    current = _augmented_sum(comp, data.values, cfg)
    if order == "random":
        _check_count("seed", seed)  # None too: a random order needs a seed
        rng = np.random.default_rng(seed)
    elif order != "scan":
        raise ValueError(f"unknown ICM order: {order!r}")

    energies, changes = array("d", [current]), array("q", [0])
    wave, dirty = None, None  # every site is read before the first sweep
    for _ in range(cap):
        rows = _local_rows(comp, data.values, cfg, dirty)[0]
        if (rows.argmin(axis=1) == (cfg[:n] if dirty is None else cfg[dirty])).all():
            # the sweep is quiet: every site would keep its label
            energies.append(current)
            changes.append(0)
            return cfg[:n].copy(), RunTrace(energies, np.full(len(energies), n), changes)
        if order == "random":
            wave = _Wave(field, data, rng.permutation(n), 1)
        elif wave is None:
            wave = _Wave(field, data, comp.sites, 1)
        current, changed, labels = next(_sweeps(wave, cfg, current))
        energies.append(current)
        changes.append(changed)
        # only the flipped sites' neighbours can read rows their visit did not
        near = np.zeros(n + 1, dtype=bool)
        near[comp.neighbors[:, (labels != cfg[:n]).nonzero()[0]]] = True
        dirty = np.flatnonzero(near[:n])
        cfg[:n] = labels
    raise RuntimeError(f"ICM exceeded its sweep cap ({cap})")


# a drawn row whose threshold lies within this share of its total from one
# of its running sums is drawn again by _exact_labels (see _gibbs_labels)
_MARGIN = 2.0 ** -36


def _gibbs_labels(rows, uniforms, temperature):
    """One label per row, drawn with probability proportional to exp(-energy / T).

    Row ``i`` (of two or more labels) uses the uniform ``uniforms[i]`` and
    the temperature ``temperature``, one for every row or
    ``temperature[i]``, at least 1e-300. The labels are those that
    :func:`_exact_labels` draws by the rule of the module docstring.

    The draw runs down the label columns: their minimum, one ``np.exp``
    over the ``(labels, rows)`` stack of ``-(v - min(v)) / t`` and running
    sums added column by column, the last being the total. ``np.exp`` is
    within 1 ulp of ``math.exp`` and that total within a few ulps of
    ``math.fsum``: errors 2**16 times smaller than ``_MARGIN``. So a row
    whose threshold ``u * total`` lies farther than ``_MARGIN * total``
    from each running sum compares as the exact rule does; the other rows
    are drawn again by :func:`_exact_labels`.
    """
    columns = rows.T
    low = columns[0]
    for column in columns[1:]:
        low = np.minimum(low, column)
    # low - v is -(v - low) bit for bit but for the sign of a zero, which
    # exp ignores; C order keeps each label's weights contiguous. A
    # difference or quotient past the float range is -inf and weighs 0,
    # as in Python
    with np.errstate(over="ignore"):
        weights = np.subtract(low, columns, order="C")
        np.divide(weights, temperature, out=weights)
    np.exp(weights, out=weights)
    sums = [weights[0]]
    for w in weights[1:]:
        sums.append(sums[-1] + w)
    total = sums.pop()
    threshold = uniforms * total
    # running sums never decrease, so a label is the number of them, the
    # total left out, that do not exceed the threshold
    drawn = (threshold >= sums[0]).view(np.int8)
    gap = abs(threshold - sums[0])
    for acc in sums[1:]:
        drawn = np.add(drawn, threshold >= acc, dtype=np.int64)
        gap = np.minimum(gap, abs(threshold - acc))
    near = (gap <= _MARGIN * total).nonzero()[0]
    if near.size:
        drawn[near] = _exact_labels(rows[near], uniforms[near],
                                    np.broadcast_to(temperature, uniforms.shape)[near])
    return drawn


def _exact_labels(rows, uniforms, temperature):
    """The draw of :func:`_gibbs_labels` element by element, as Python floats compute it.

    One ``math.exp`` per weight, ``np.add.accumulate`` along each row and
    ``math.fsum`` for the total: the rule of the module docstring.
    """
    t = np.reshape(temperature, (-1, 1))
    # the shift by the row minimum keeps the exponentials in range; a
    # quotient past the float range is -inf and weighs 0, as in Python
    with np.errstate(over="ignore"):
        x = -(rows - rows.min(axis=1, keepdims=True)) / t
    weights = np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size).reshape(x.shape)
    acc = np.add.accumulate(weights, axis=1)
    total = np.fromiter(map(math.fsum, weights.tolist()), float, len(weights))
    # running sums never decrease, so the labels before the last whose sum
    # exceeds u * total form a suffix, and the first of them is found by
    # counting; when there are none, the last label is taken
    taken = (uniforms * total)[:, None] < acc[:, :-1]
    return acc.shape[1] - 1 - taken.sum(axis=1)


def _gibbs_run(field, data, init, temperatures, seed):
    """Gibbs sweeps in scan order from ``init``, one per temperature, drawing from ``seed``.

    Yields the trace's columns so far and the labels in site order: first
    for the checked start, then after each sweep. Every site stays committed.
    """
    _check_count("seed", seed)
    comp = _check_runnable(field, data)
    cfg = _checked_labels(field, data, init, _PARTIAL_START)
    n = field.num_sites
    current = _augmented_sum(comp, data.values, cfg)
    energies, commits, changes = array("d", [current]), array("q", [n]), array("q", [0])
    yield (energies, commits, changes), cfg[:n].copy()
    wave = _Wave(field, data, comp.sites, len(temperatures))
    sweeps = _sweeps(wave, cfg, current, np.maximum(temperatures, 1e-300),
                     np.random.default_rng(seed))
    for current, changed, labels in sweeps:
        energies.append(current)
        commits.append(n)
        changes.append(changed)
        yield (energies, commits, changes), labels


def anneal_run(field, data, init, schedule: AnnealSchedule, seed: int):
    """Simulated annealing with Gibbs resampling sweeps under geometric cooling.

    Each sweep visits the sites in scan order and resamples every label
    from the conditional distribution at the sweep temperature. Returns the
    best-energy configuration seen at any sweep boundary (including the
    initial one), so a cooling run can never return something worse than
    its start.
    """
    temperatures = np.array([schedule.t0 * schedule.alpha ** k for k in range(schedule.sweeps)])
    for columns, labels in _gibbs_run(field, data, init, temperatures, seed):
        energies = columns[0]
        if len(energies) == 1 or energies[-1] < best_energy:
            best_energy, best_cfg = energies[-1], labels
    return best_cfg, RunTrace(*columns)


def _mpm_core(field, data, init, params):
    count = params.burn_in + params.samples
    counts = 0
    for columns, labels in _gibbs_run(field, data, init, np.ones(count), params.seed):
        if len(columns[0]) > 1 + params.burn_in:
            counts = counts + (labels[:, None] == np.arange(field.num_labels))
    return counts / params.samples, RunTrace(*columns)


def mpm_marginals(field, data, init, params: MpmParams) -> np.ndarray:
    """Empirical per-site label frequencies from unit-temperature Gibbs sampling.

    Runs ``burn_in`` discarded sweeps followed by ``samples`` recorded
    sweeps and returns the (num_sites, num_labels) frequency matrix that
    :func:`mpm_run` maximizes.
    """
    return _mpm_core(field, data, init, params)[0]


def mpm_run(field, data, init, params: MpmParams):
    """Maximizer of posterior marginals estimated by Gibbs sampling.

    Returns (configuration, RunTrace) where each site takes the label it
    held most often over the sample sweeps, ties to label 0.
    """
    marginals, trace = _mpm_core(field, data, init, params)
    return np.argmax(marginals, axis=1).astype(np.int64), trace
