"""Reference estimators: likelihood thresholding, ICM, annealing, MPM.

All stochastic estimators draw from numpy's PCG64 generator seeded
explicitly, so runs are reproducible across platforms.

ICM, annealing and MPM sweep the sites one at a time, in scan order or
(random-order ICM) a seeded permutation per sweep, and each site sees the
labels its earlier neighbours took in the same sweep. A sweep runs as a
wavefront (Lamport, "The Parallel Execution of DO Loops", CACM 1974): a
site's level is one more than the highest level of its neighbours visited
before it, so no two sites of a level are neighbours and every earlier
neighbour sits in a lower level. Reading one level's local energies as
one array therefore sees exactly what the one-site-at-a-time visit sees,
and the results equal that visit's bit for bit:

- ICM takes each row's argmin, ties to the lowest label;
- a Gibbs sweep draws one ``rng.random(n)`` and site ``s`` takes element
  ``s``. At temperature ``t = max(T, 1e-300)`` a row ``v`` weighs label
  ``l`` by ``math.exp(-(v[l] - min(v)) / t)``; the site takes the first
  label whose running weight sum (``np.add.accumulate`` along the row)
  exceeds ``u * math.fsum(weights)``, else the last label;
- the sweep traces carry the total energy, updated by each flip's exact
  local-energy difference, added in visit order onto the running total.

The start is checked and padded by ``core``, which also scores it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (_augmented_sum, _check_problem, _check_runnable, _checked_labels,
                   _local_rows)
from .trace import RunTrace, TraceRow


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric cooling: temperature t0 * alpha**k during sweep k."""
    t0: float = 2.0
    alpha: float = 0.95
    sweeps: int = 100

    def __post_init__(self):
        if not (math.isfinite(self.t0) and self.t0 > 0):
            raise ValueError("t0 must be a positive real")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must be in (0, 1)")
        _check_count("sweeps", self.sweeps, 0, "non-negative")


@dataclass(frozen=True)
class MpmParams:
    """Unit-temperature Gibbs sampling budget for marginal estimation."""
    burn_in: int = 20
    samples: int = 100
    seed: int = 0

    def __post_init__(self):
        _check_count("burn_in", self.burn_in, 0, "non-negative")
        _check_count("samples", self.samples, 1, "positive")


def _check_count(name, value, least, what):
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer")
    if value < least:
        raise ValueError(f"{name} must be {what}")


_PARTIAL_START = "initial configuration must be fully committed"


def tlr(field, data) -> np.ndarray:
    """Per-site argmin of the data term, ignoring all cliques.

    Ties go to label 0. Exact MAP whenever the field has no cliques.
    """
    _check_problem(field, data)
    return np.argmin(data.values, axis=1).astype(np.int64)


class _Wave:
    """A visit order cut into dependency levels, the read arrays in level order.

    ``sites[bounds[i]:bounds[i + 1]]`` is level ``i``, in ascending site
    order; ``visit`` lists the positions in ``sites`` in visit order.
    ``others``, ``offsets`` and ``values`` are the per-site arrays of the
    compiled field ``comp`` and the data rows, taken in the order of
    ``sites``, so that each level reads contiguous columns.
    """

    def __init__(self, field, data, order):
        n = field.num_sites
        self.comp = comp = field.compiled
        # a level depends only on the neighbours visited before the site;
        # the padding neighbour n counts as never visited
        when = np.full(n + 1, n)
        when[order] = np.arange(n)
        before = when[comp.neighbors] < when[:n, None]
        earlier = comp.neighbors[before].tolist()
        ends = np.cumsum(before.sum(axis=1)).tolist()
        starts = [0] + ends[:-1]
        level = [-1] * n
        get = level.__getitem__
        for s in order:
            level[s] = 1 + max(map(get, earlier[starts[s]:ends[s]]), default=-1)
        level = np.array(level)
        self.sites = np.argsort(level, kind="stable")
        self.bounds = [0] + np.cumsum(np.bincount(level)).tolist()
        position = np.empty(n, dtype=np.int64)
        position[self.sites] = np.arange(n)
        self.visit = position[order]
        self.others = comp.others[:, :, self.sites]
        self.offsets = comp.offsets[:, self.sites]
        self.values = data.values[self.sites]


def _wave_sweep(wave, cfg, pick, current):
    """Visit every site once, in the wave's order, in place on the extended ``cfg``.

    ``pick(rows, level)`` returns the new labels of the sites at positions
    ``level`` (a slice) from their local energy rows. Returns ``current``
    plus each flip's energy change, added in visit order, and the number of
    sites whose label changed.
    """
    before = cfg[wave.sites]
    seen = np.empty(wave.values.shape)
    for a, b in zip(wave.bounds, wave.bounds[1:]):
        level = slice(a, b)
        rows = _local_rows(wave.comp, wave.others[:, :, level], wave.offsets[:, level],
                           wave.values[level], cfg)
        seen[level] = rows
        cfg[wave.sites[level]] = pick(rows, level)
    after = cfg[wave.sites]
    flips = wave.visit[(before != after)[wave.visit]]
    steps = seen[flips, after[flips]] - seen[flips, before[flips]]
    return float(np.add.accumulate(np.concatenate(([current], steps)))[-1]), len(flips)


def _icm_labels(rows, level):
    # argmin ties go to the lowest label
    return rows.argmin(axis=1)


def icm_run(field, data, init, order: str = "scan", seed: int | None = None,
            max_sweeps: int | None = None):
    """Iterated conditional modes: greedy per-site argmin sweeps to a fixpoint.

    ``order`` is "scan" for ascending site order or "random" for a fresh
    seeded permutation each sweep. Sites are updated in place, so later
    sites in a sweep see earlier changes. Stops after the first sweep that
    changes nothing; the fixpoint is a single-flip local minimum.
    """
    comp = _check_runnable(field, data)
    cfg = _checked_labels(field, data, init, _PARTIAL_START)
    n = field.num_sites
    if order == "scan":
        rng = None
        wave = _Wave(field, data, range(n))
    elif order == "random":
        if seed is None:
            raise ValueError("random visit order needs a seed")
        rng = np.random.default_rng(seed)
    else:
        raise ValueError(f"unknown ICM order: {order!r}")
    cap = max_sweeps if max_sweeps is not None else 100 * n * field.num_labels

    current = _augmented_sum(comp, data.values, cfg)
    rows = [TraceRow(0, current, n, 0)]
    sweep = 0
    while True:
        sweep += 1
        if sweep > cap:
            raise RuntimeError(f"ICM exceeded its sweep cap ({cap})")
        if rng is not None:
            wave = _Wave(field, data, rng.permutation(n).tolist())
        current, changes = _wave_sweep(wave, cfg, _icm_labels, current)
        rows.append(TraceRow(sweep, current, n, changes))
        if changes == 0:
            break
    return cfg[:n].copy(), RunTrace(tuple(rows))


def _gibbs_labels(rows, uniforms, temperature):
    """One label per row, drawn with probability proportional to exp(-energy / T).

    Row ``i`` uses the uniform ``uniforms[i]``; the arithmetic is that of
    the module docstring, element by element as Python floats compute it.
    """
    t = temperature if temperature > 1e-300 else 1e-300
    # the shift by the row minimum keeps the exponentials in range; a
    # quotient past the float range is -inf and weighs 0, as in Python
    with np.errstate(over="ignore"):
        x = -(rows - rows.min(axis=1, keepdims=True)) / t
    weights = np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size).reshape(x.shape)
    total = np.fromiter(map(math.fsum, weights.tolist()), float, len(weights))
    acc = np.add.accumulate(weights, axis=1)
    # running sums never decrease, so the labels before the last whose sum
    # exceeds u * total form a suffix, and the first of them is found by
    # counting; when there are none, the last label is taken
    taken = (uniforms * total)[:, None] < acc[:, :-1]
    return acc.shape[1] - 1 - taken.sum(axis=1)


def _gibbs_sweep(wave, cfg, temperature, rng, current):
    """Resample every site of ``cfg`` once in the scan-order ``wave``, in place.

    Returns the total energy ``current`` updated by the exact per-flip
    deltas, and the number of sites whose label changed.
    """
    # site s takes uniform s: the scan visit draws them in site order
    uniforms = rng.random(len(wave.sites))[wave.sites]
    return _wave_sweep(wave, cfg,
                       lambda rows, level: _gibbs_labels(rows, uniforms[level], temperature),
                       current)


def anneal_run(field, data, init, schedule: AnnealSchedule, seed: int):
    """Simulated annealing with Gibbs resampling sweeps under geometric cooling.

    Each sweep visits the sites in scan order and resamples every label
    from the conditional distribution at the sweep temperature. Returns the
    best-energy configuration seen at any sweep boundary (including the
    initial one), so a cooling run can never return something worse than
    its start.
    """
    comp = _check_runnable(field, data)
    cfg = _checked_labels(field, data, init, _PARTIAL_START)
    n = field.num_sites
    rng = np.random.default_rng(seed)
    wave = _Wave(field, data, range(n))

    current = _augmented_sum(comp, data.values, cfg)
    best_cfg = cfg[:n].copy()
    best_energy = current
    rows = [TraceRow(0, current, n, 0)]
    for k in range(schedule.sweeps):
        temperature = schedule.t0 * schedule.alpha ** k
        current, changes = _gibbs_sweep(wave, cfg, temperature, rng, current)
        rows.append(TraceRow(k + 1, current, n, changes))
        if current < best_energy:
            best_energy = current
            best_cfg = cfg[:n].copy()
    return best_cfg, RunTrace(tuple(rows))


def _mpm_core(field, data, init, params):
    comp = _check_runnable(field, data)
    cfg = _checked_labels(field, data, init, _PARTIAL_START)
    n = field.num_sites
    rng = np.random.default_rng(params.seed)
    wave = _Wave(field, data, range(n))

    current = _augmented_sum(comp, data.values, cfg)
    rows = [TraceRow(0, current, n, 0)]
    counts = np.zeros((n, field.num_labels), dtype=np.int64)
    sites = np.arange(n)
    for k in range(params.burn_in + params.samples):
        current, changes = _gibbs_sweep(wave, cfg, 1.0, rng, current)
        rows.append(TraceRow(k + 1, current, n, changes))
        if k >= params.burn_in:
            counts[sites, cfg[:n]] += 1
    return counts / params.samples, RunTrace(tuple(rows))


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
