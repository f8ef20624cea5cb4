"""Property tests of the linear D's speeds, taken from two row moments.

For D(z) = -z the stepper takes a = sum_j g_ij mid_j / sum_j g_ij - mid_i
and the row masses from one matmul of g with [mids, 1]; every other D
streams g against its difference matrix.  On random bit-symmetric g with
vacuum rows the two paths must agree to round-off, give vacuum rows
exactly zero, and let a non-finite cell reach the checked mass.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from opinet import ContinuumParams, DebateOperator, Grid  # noqa: E402
from opinet.continuum import ContinuumStepper, _speeds  # noqa: E402
from oracles import QUARTIC  # noqa: E402

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
    a, rows = ContinuumStepper(grid, LIN, params).speeds(g)
    a_ref, rows_ref = _speeds(g, grid.difference_matrix(LIN.d), grid.dx,
                              params.eta_cutoff)
    np.testing.assert_allclose(a, a_ref, rtol=0, atol=1e-14)
    np.testing.assert_allclose(rows, rows_ref, rtol=1e-14, atol=0)
    # a row is vacuum when it is emptied, or when every column is
    vacuum = empty | empty.all()
    for values in (a, rows, a_ref, rows_ref):
        assert np.all(values[vacuum] == 0.0)
    assert np.all(rows[~vacuum] > 1e3 * params.eta_cutoff)


@pytest.mark.parametrize("operator", [LIN, QUARTIC], ids=["linear",
                                                           "quartic"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("k", [1, 3])
def test_a_non_finite_cell_reaches_the_checked_mass(operator, bad, k):
    # the runner's finiteness check reads check's mass; the cell sits in
    # the middle column, where mid = 0, so inf mid is NaN in the first
    # moment (as inf D(0) is on the difference path, which warns alike)
    # and only the row mass carries the inf
    n = 101
    grid = Grid(n)
    assert grid.mids[n // 2] == 0.0
    rng = np.random.default_rng(k)
    f = rng.uniform(0.0, 1.0, (k, n))
    g = rng.uniform(0.0, 1.0, (k, k, n, n))
    g[k - 1, 0, 7, n // 2] = bad
    stepper = ContinuumStepper(grid, operator, ContinuumParams())
    with np.errstate(invalid="ignore"):
        _, _, mass = stepper.check(f, g)
    assert not np.isfinite(mass)
