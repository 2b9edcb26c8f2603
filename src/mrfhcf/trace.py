"""Run traces: one columnar schema shared by every estimator."""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

import numpy as np

# one row of a trace; the move fields are None but on a serial HCF step
TraceRow = namedtuple("TraceRow", ["iteration", "energy", "committed", "changed", "site",
                                   "label", "stability"], defaults=(None, None, None))


class RunTrace:
    """A run's trace as columns with one entry per row; row 0 describes the start.

    ``energy`` (float64) is the energy after each row, ``committed`` and
    ``changed`` (int64) the committed sites and the sites the row changed.
    A serial HCF trace has a row per step and, one entry shorter, the
    ``site``, new ``label`` and ``stability`` of each step (step ``k`` is row
    ``k + 1``); other traces have None there. Runs append to compact buffers
    (stdlib arrays) and hand them over once, at the end.
    """

    def __init__(self, energy, committed, changed, site=None, label=None, stability=None):
        self.energy = np.asarray(energy, dtype=np.float64)
        self.committed = np.asarray(committed, dtype=np.int64)
        self.changed = np.asarray(changed, dtype=np.int64)
        self.site, self.label, self.stability = (None, None, None) if site is None else (
            np.asarray(site, dtype=np.int64), np.asarray(label, dtype=np.int64),
            np.asarray(stability, dtype=np.float64))

    @cached_property
    def rows(self) -> tuple[TraceRow, ...]:
        """The rows as ``TraceRow``s, built on first read."""
        moves = () if self.site is None else (
            [None, *column.tolist()] for column in (self.site, self.label, self.stability))
        return tuple(map(TraceRow, range(self.energy.size), self.energy.tolist(),
                         self.committed.tolist(), self.changed.tolist(), *moves))

    @property
    def steps(self) -> tuple[TraceRow, ...]:
        """The rows after row 0; on a serial HCF trace ``steps[k]`` is step ``k``."""
        return self.rows[1:]

    @property
    def iterations(self) -> int:
        """Number of rows that changed a site: neither row 0 nor a quiet row counts."""
        return int(np.count_nonzero(self.changed))

    @property
    def final_energy(self) -> float:
        return float(self.energy[-1])

    @property
    def final_committed(self) -> int:
        return int(self.committed[-1])

    def __eq__(self, other):
        return isinstance(other, RunTrace) and self.rows == other.rows

    def __repr__(self):
        return f"RunTrace(rows={self.rows!r})"
