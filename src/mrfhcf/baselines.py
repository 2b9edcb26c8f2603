"""Reference estimators: likelihood thresholding, ICM, annealing, MPM.

All stochastic estimators draw from numpy's PCG64 generator seeded
explicitly, so runs are reproducible across platforms. Sweep traces carry
the total energy maintained incrementally from exact per-flip deltas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _check_problem, _checked_labels, _local_row, energy
from .hcf import _argmin_row, _check_runnable
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
        if self.sweeps < 0:
            raise ValueError("sweeps must be non-negative")


@dataclass(frozen=True)
class MpmParams:
    """Unit-temperature Gibbs sampling budget for marginal estimation."""
    burn_in: int = 20
    samples: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.burn_in < 0:
            raise ValueError("burn_in must be non-negative")
        if self.samples < 1:
            raise ValueError("samples must be positive")


def tlr(field, data) -> np.ndarray:
    """Per-site argmin of the data term, ignoring all cliques.

    Ties go to label 0. Exact MAP whenever the field has no cliques.
    """
    _check_problem(field, data)
    return np.argmin(data.values, axis=1).astype(np.int64)


def _check_init(field, data, init):
    cfg = _checked_labels(field, data, init)
    if (cfg < 0).any():
        raise ValueError("initial configuration must be fully committed")
    return cfg.tolist()


def icm_run(field, data, init, order: str = "scan", seed: int | None = None,
            max_sweeps: int | None = None):
    """Iterated conditional modes: greedy per-site argmin sweeps to a fixpoint.

    ``order`` is "scan" for ascending site order or "random" for a fresh
    seeded permutation each sweep. Sites are updated in place, so later
    sites in a sweep see earlier changes. Stops after the first sweep that
    changes nothing; the fixpoint is a single-flip local minimum.
    """
    _check_runnable(field, data)
    cfg = _check_init(field, data, init)
    n = field.num_sites
    if order == "scan":
        rng = None
    elif order == "random":
        if seed is None:
            raise ValueError("random visit order needs a seed")
        rng = np.random.default_rng(seed)
    else:
        raise ValueError(f"unknown ICM order: {order!r}")
    cap = max_sweeps if max_sweeps is not None else 100 * n * field.num_labels

    current = energy(field, data, cfg)
    rows = [TraceRow(0, current, n, 0)]
    sweep = 0
    while True:
        sweep += 1
        if sweep > cap:
            raise RuntimeError(f"ICM exceeded its sweep cap ({cap})")
        visit = range(n) if rng is None else rng.permutation(n).tolist()
        changes = 0
        for s in visit:
            row = _local_row(field, data, cfg, s)
            b, bv = _argmin_row(row)
            if b != cfg[s]:
                current += bv - row[cfg[s]]
                cfg[s] = b
                changes += 1
        rows.append(TraceRow(sweep, current, n, changes))
        if changes == 0:
            break
    return np.array(cfg, dtype=np.int64), RunTrace(tuple(rows))


def _gibbs_draw(row, temperature, rng):
    # conditional draw proportional to exp(-energy / T); the shift by the
    # row minimum keeps the exponentials in range
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


def _gibbs_sweep(field, data, cfg, temperature, rng, current):
    """Resample every site of ``cfg`` in scan order, in place.

    Returns the total energy ``current`` updated by the exact per-flip
    deltas, and the number of sites whose label changed.
    """
    changes = 0
    for s in range(field.num_sites):
        row = _local_row(field, data, cfg, s)
        drawn = _gibbs_draw(row, temperature, rng)
        if drawn != cfg[s]:
            current += row[drawn] - row[cfg[s]]
            cfg[s] = drawn
            changes += 1
    return current, changes


def anneal_run(field, data, init, schedule: AnnealSchedule, seed: int):
    """Simulated annealing with Gibbs resampling sweeps under geometric cooling.

    Each sweep visits the sites in scan order and resamples every label
    from the conditional distribution at the sweep temperature. Returns the
    best-energy configuration seen at any sweep boundary (including the
    initial one), so a cooling run can never return something worse than
    its start.
    """
    _check_runnable(field, data)
    cfg = _check_init(field, data, init)
    n = field.num_sites
    rng = np.random.default_rng(seed)

    current = energy(field, data, cfg)
    best_cfg = list(cfg)
    best_energy = current
    rows = [TraceRow(0, current, n, 0)]
    for k in range(schedule.sweeps):
        temperature = schedule.t0 * schedule.alpha ** k
        current, changes = _gibbs_sweep(field, data, cfg, temperature, rng, current)
        rows.append(TraceRow(k + 1, current, n, changes))
        if current < best_energy:
            best_energy = current
            best_cfg = list(cfg)
    return np.array(best_cfg, dtype=np.int64), RunTrace(tuple(rows))


def _mpm_core(field, data, init, params):
    _check_runnable(field, data)
    cfg = _check_init(field, data, init)
    n = field.num_sites
    rng = np.random.default_rng(params.seed)

    current = energy(field, data, cfg)
    rows = [TraceRow(0, current, n, 0)]
    counts = np.zeros((n, field.num_labels), dtype=np.int64)
    sites = np.arange(n)
    for k in range(params.burn_in + params.samples):
        current, changes = _gibbs_sweep(field, data, cfg, 1.0, rng, current)
        rows.append(TraceRow(k + 1, current, n, changes))
        if k >= params.burn_in:
            counts[sites, cfg] += 1
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
