"""One trace schema: every estimator's run trace holds the same columns, and its rows
and steps are views of them."""

from array import array

import numpy as np
import pytest

from mrfhcf import RunTrace, TraceRow, hcf_run, make_chain_fixture
from mrfhcf.cli import ESTIMATORS, RunConfig, run_estimator

from support import noisy_board, random_field

CASES = {
    "board16": lambda: noisy_board(16),
    "chain8": make_chain_fixture,
    "random3": lambda: random_field(3, labels=3),
}


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("name", ESTIMATORS)
def test_every_estimator_writes_the_same_columns(case, name):
    field, data = CASES[case]()
    cfg = RunConfig(sweeps=7, burn_in=2, samples=3, seed=4)
    _out, trace = run_estimator(name, field, data, cfg)
    assert isinstance(trace, RunTrace)
    energy, committed, changed = trace.energy, trace.committed, trace.changed
    assert energy.dtype == np.float64
    assert committed.dtype == changed.dtype == np.int64
    assert energy.ndim == 1 and energy.shape == committed.shape == changed.shape
    assert changed[0] == 0  # row 0 is the start
    assert trace.iterations == np.count_nonzero(changed)
    assert trace.final_energy == energy[-1] and trace.final_committed == committed[-1]
    columns = zip(range(energy.size), energy.tolist(), committed.tolist(), changed.tolist())
    assert [tuple(row[:4]) for row in trace.rows] == list(columns)
    assert [row.energy.hex() for row in trace.rows] == [e.hex() for e in energy.tolist()]
    if name != "hcf":
        assert (trace.site, trace.label, trace.stability) == (None, None, None)
        assert {row[4:] for row in trace.rows} == {(None, None, None)}
        return
    assert trace.site.dtype == trace.label.dtype == np.int64
    assert trace.stability.dtype == np.float64
    assert trace.site.size == trace.label.size == trace.stability.size == energy.size - 1
    assert trace.iterations == len(trace.steps) == energy.size - 1
    assert trace.rows[0][4:] == (None, None, None)
    moves = zip(trace.site.tolist(), trace.label.tolist(), trace.stability.tolist())
    assert [row[4:] for row in trace.steps] == list(moves)
    assert trace.steps == trace.rows[1:]


def test_step_k_is_row_k_plus_one():
    field, data = make_chain_fixture()
    _cfg, trace = hcf_run(field, data)
    for k, step in enumerate(trace.steps):
        assert step == trace.rows[k + 1]
        assert step.iteration == k + 1 and step.changed == 1
        assert (step.site, step.label, step.stability) == (
            trace.site[k], trace.label[k], trace.stability[k])
    assert (trace.committed[-1], trace.energy[-1]) == (8, -5.499999999999999)


def test_trace_rows_are_plain_tuples():
    row = TraceRow(3, -1.5, 4, 2)
    assert row == (3, -1.5, 4, 2, None, None, None)
    assert (row.site, row.label, row.stability) == (None, None, None)
    assert TraceRow(1, 0.5, 1, 1, 7, 0, -2.0)[4:] == (7, 0, -2.0)


def test_a_trace_reads_any_sequence_once():
    energy, committed, changed = [0.0, -1.5, -1.5], [0, 2, 2], [0, 2, 0]
    from_lists = RunTrace(energy, committed, changed)
    from_arrays = RunTrace(array("d", energy), array("q", committed), array("q", changed))
    assert from_lists == from_arrays
    assert repr(from_lists) == repr(from_arrays) == (
        "RunTrace(rows=(TraceRow(iteration=0, energy=0.0, committed=0, changed=0, site=None, "
        "label=None, stability=None), TraceRow(iteration=1, energy=-1.5, committed=2, "
        "changed=2, site=None, label=None, stability=None), TraceRow(iteration=2, "
        "energy=-1.5, committed=2, changed=0, site=None, label=None, stability=None)))")
    assert from_lists.rows is from_lists.rows  # built on first read
    assert from_lists.iterations == 1
    assert from_lists != RunTrace(energy, committed, [0, 2, 1])
    assert from_lists != from_lists.rows
    with pytest.raises(TypeError):
        hash(from_lists)  # its columns are arrays
