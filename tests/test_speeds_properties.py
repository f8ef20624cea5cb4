"""Property tests of the linear D's speeds, taken from two row moments.

For D(z) = -z the stepper takes a = sum_j g_ij mid_j / sum_j g_ij - mid_i
and the row masses from one matmul of g with [mids, 1]; the reference in
tests/oracles.py streams g against the dense difference matrix of D.  On
random bit-symmetric g with vacuum rows the two must agree to round-off
and give vacuum rows exactly zero, and a non-finite cell must reach the
checked mass, also after a step at the speeds of another D.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from opinet import ContinuumParams, DebateOperator, Grid  # noqa: E402
from opinet.continuum import ContinuumStepper, _dt_bound  # noqa: E402
from oracles import cubic_d, difference_speeds  # noqa: E402

LIN = DebateOperator.linear()


@st.composite
def pair_densities(draw):
    k = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(3, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = rng.uniform(0.1, 1.0, (k, k, n, n))
    # vacuum cells (p, i) empty row i of label p and, for the symmetry,
    # column i of every block of label p
    empty = rng.uniform(size=(k, n)) < draw(st.sampled_from([0.0, 0.2, 0.6]))
    keep = ~empty
    g *= keep[:, None, :, None] & keep[None, :, None, :]
    g = g + g.transpose(1, 0, 3, 2)
    # an occupied row holds at least dx 0.2 10^-6 > 3e-9 of mass, far from
    # the 1e-10 cutoff that the two sums might round to different sides of
    g *= draw(st.sampled_from([1e-6, 1.0, 1e6]))
    return Grid(n), g, empty


@settings(max_examples=200, deadline=None)
@given(pair_densities())
def test_moment_speeds_match_the_difference_matrix(case):
    grid, g, empty = case
    params = ContinuumParams()
    a, rows = ContinuumStepper(grid, params).speeds(g)
    a_ref, rows_ref = difference_speeds(g, grid, LIN.d, params.eta_cutoff)
    np.testing.assert_allclose(a, a_ref, rtol=0, atol=1e-14)
    np.testing.assert_allclose(rows, rows_ref, rtol=1e-14, atol=0)
    # a row is vacuum when it is emptied, or when every column is
    vacuum = empty | empty.all()
    for values in (a, rows, a_ref, rows_ref):
        assert np.all(values[vacuum] == 0.0)
    assert np.all(rows[~vacuum] > 1e3 * params.eta_cutoff)


@pytest.mark.parametrize("speeds", ["linear", "quartic"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("k", [1, 3])
def test_a_non_finite_cell_reaches_the_checked_mass(speeds, bad, k):
    # the runner's finiteness check reads check's mass; the cell sits in
    # the middle column, where mid = 0, so inf mid is NaN in the first
    # moment and only the row mass carries the inf.  "quartic" first
    # advances the state at the cubic D's speeds of its finite cells,
    # which must carry the cell to the check
    n = 101
    grid = Grid(n)
    assert grid.mids[n // 2] == 0.0
    rng = np.random.default_rng(k)
    f = rng.uniform(0.0, 1.0, (k, n))
    g = rng.uniform(0.0, 1.0, (k, k, n, n))
    params = ContinuumParams()
    stepper = ContinuumStepper(grid, params)
    a = difference_speeds(g, grid, cubic_d, params.eta_cutoff)[0]
    g[k - 1, 0, 7, n // 2] = bad
    with np.errstate(invalid="ignore"):
        if speeds == "quartic":
            dt = 0.5 * _dt_bound(grid.dx, float(np.max(np.abs(a))), params)
            f, g = stepper.advance(f, g, dt, a)
        _, _, mass = stepper.check(f, g)
    assert not np.isfinite(mass)
