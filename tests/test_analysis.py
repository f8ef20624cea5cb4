import tracemalloc

import numpy as np
import pytest

from opinet import (ConfigError, DebateOperator, Grid, LabeledFields,
                    PairField, RunReport, ScalarField, SimulationError,
                    consensus_value_cont, e_cont, fit_exponential_rate,
                    lyapunov_tilde)
from opinet.analysis import REPORT_COLUMNS

LIN = DebateOperator.linear()


def four_cell_pair():
    # path-graph pair density with sites at midpoints 1, 3, 6 of an 8-grid
    grid = Grid(8)
    vals = np.zeros((8, 8))
    for i, j in ((1, 3), (3, 1), (3, 6), (6, 3)):
        vals[i, j] = 0.25 / grid.dx ** 2
    return PairField(grid, vals)


def test_consensus_value_cont_hand_value():
    pf = four_cell_pair()
    assert consensus_value_cont(pf) == pytest.approx(-0.0625, abs=1e-12)


def test_consensus_value_cont_rejects_empty():
    grid = Grid(8)
    with pytest.raises(ConfigError):
        consensus_value_cont(PairField(grid, np.zeros((8, 8))))


def test_e_cont_hand_value():
    grid = Grid(2)
    f = ScalarField(grid, np.array([0.5, 0.5]))
    assert e_cont(f, 0.0) == pytest.approx(0.5)
    # shifting the reference enlarges the RMS distance
    assert e_cont(f, 0.5) == pytest.approx(np.sqrt(0.25 + 0.25))


def test_e_cont_accepts_labeled_fields():
    grid = Grid(2)
    f = np.array([[0.25, 0.25], [0.25, 0.25]])
    g = np.zeros((2, 2, 2, 2))
    lab = LabeledFields(grid, f, g)
    assert e_cont(lab, 0.0) == pytest.approx(0.5)


def test_e_cont_rejects_unnormalized():
    grid = Grid(2)
    with pytest.raises(ConfigError):
        e_cont(ScalarField(grid, np.zeros(2)), 0.0)


def test_lyapunov_hand_values():
    grid = Grid(2)
    diag = np.zeros((2, 2))
    diag[0, 0] = diag[1, 1] = 0.5 / grid.dx ** 2
    assert lyapunov_tilde(PairField(grid, diag), LIN) == pytest.approx(0.0)
    off = np.zeros((2, 2))
    off[0, 1] = off[1, 0] = 0.5 / grid.dx ** 2
    # all mass at opinion distance 1, so V = W(1) = 1/2
    assert lyapunov_tilde(PairField(grid, off), LIN) == pytest.approx(0.5)


def test_lyapunov_labeled_sums_blocks():
    # four blocks of mass 1/4 each, all at opinion distance 1
    grid = Grid(2)
    off = np.zeros((2, 2))
    off[0, 1] = off[1, 0] = 0.125 / grid.dx ** 2
    g = np.stack([np.stack([off, off]), np.stack([off, off])])
    lab = LabeledFields(grid, np.full((2, 2), 0.25), g)
    assert lyapunov_tilde(lab, LIN) == pytest.approx(0.5)


@pytest.mark.parametrize("k", [None, 3])
def test_lyapunov_tilde_forms_one_n_by_n_temporary(k):
    # W is a view of its 2n - 1 values, so the products (and for labeled
    # fields the block sum they are formed in) are the one n x n array;
    # a dense W matrix or a second temporary would pass 2 n^2 floats
    n = 300
    grid = Grid(n)
    vals = np.random.default_rng(2).uniform(0.0, 1.0, (n, n))
    if k is None:
        g = PairField(grid, vals)
    else:
        g = LabeledFields(grid, np.ones((k, n)),
                          np.broadcast_to(vals, (k, k, n, n)) / k ** 2)
    tracemalloc.start()
    try:
        lyapunov_tilde(g, LIN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n * n


def test_fit_exact_exponential():
    t = np.linspace(0.0, 5.0, 51)
    rate, err = fit_exponential_rate(t, 3.0 * np.exp(-2.0 * t))
    assert rate == pytest.approx(2.0, abs=1e-12)
    assert err < 1e-12


def test_fit_window_selection():
    # decay switches from rate 1 to rate 4 at t = 2; window isolates each
    t = np.linspace(0.0, 5.0, 101)
    v = np.where(t < 2.0, np.exp(-t), np.exp(-2.0) * np.exp(-4.0 * (t - 2.0)))
    r1, _ = fit_exponential_rate(t, v, t_hi=2.0, floor_factor=None)
    r2, _ = fit_exponential_rate(t, v, t_lo=2.0, floor_factor=None)
    assert r1 == pytest.approx(1.0, abs=1e-10)
    assert r2 == pytest.approx(4.0, abs=1e-10)


def test_fit_floor_truncation():
    # a measurement floor hides the tail; truncation recovers the true rate
    t = np.linspace(0.0, 5.0, 51)
    v = 3.0 * np.exp(-2.0 * t)
    floored = np.concatenate([v[:30], np.full(21, v[29])])
    rate, _ = fit_exponential_rate(t, floored)
    assert rate == pytest.approx(2.0, abs=1e-10)
    biased, _ = fit_exponential_rate(t, floored, floor_factor=None)
    assert biased < 1.5


def test_fit_needs_enough_samples():
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(SimulationError):
        fit_exponential_rate(t, np.exp(-t))


def test_fit_rejects_nonpositive_values():
    t = np.linspace(0.0, 1.0, 20)
    v = np.exp(-t)
    v[3] = 0.0
    with pytest.raises(SimulationError):
        fit_exponential_rate(t, v)


def test_report_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    # the series are filled in reverse, so the file's order must come from
    # REPORT_COLUMNS and not from the dict
    series = {name: rng.uniform(0.0, 1.0, 7)
              for name in reversed(REPORT_COLUMNS)}
    series["t"] = np.arange(7.0)
    report = RunReport(series)
    np.testing.assert_array_equal(report.t, np.arange(7.0))
    path = tmp_path / "report.tsv"
    report.write_tsv(path)
    with open(path) as fh:
        assert tuple(fh.readline().rstrip("\n").split("\t")) == REPORT_COLUMNS
    # %.17g keeps every bit of each value
    back = np.loadtxt(path, skiprows=1, ndmin=2)
    assert back.shape == (7, len(REPORT_COLUMNS))
    for name, column in zip(REPORT_COLUMNS, back.T):
        np.testing.assert_array_equal(series[name], column)
