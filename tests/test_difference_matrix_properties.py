"""Property tests of Grid.difference_matrix, the D and W of the continuum.

The matrix of fn on the midpoint differences is a read-only view of fn's
2n - 1 distinct values; it must equal fn((i - j) dx) at (i, j) bit for
bit, inherit fn's parity exactly, agree with the dense construction in
tests/oracles.py to a few ulp of max |fn|, and hold O(n) bytes.
"""

import tracemalloc

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from opinet import DebateOperator, Grid  # noqa: E402
from oracles import (cubic_d, difference_matrix, quartic_w,  # noqa: E402
                     zero)

LIN = DebateOperator.linear()
# (D, W) of the linear rule, the quartic potential and the zero rule
OPERATORS = {"linear": (LIN.d, LIN.w), "quartic": (cubic_d, quartic_w),
             "zero": (zero, zero)}


@given(st.integers(2, 600), st.sampled_from(sorted(OPERATORS)),
       st.sampled_from(["d", "w"]))
def test_difference_matrix_is_fn_on_the_index_differences(n, name, which):
    grid = Grid(n)
    fn = OPERATORS[name][which == "w"]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mat = grid.difference_matrix(fn)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert mat.shape == (n, n)
    # 2n - 1 floats and a few array headers, where the dense matrix holds
    # n^2 floats
    assert held < 8 * (2 * n - 1) + 2048
    assert not mat.flags.writeable
    with pytest.raises(ValueError):
        mat[0, 0] = 1.0
    index = np.arange(n)
    exact = np.asarray(fn((index[:, None] - index[None, :]) * grid.dx),
                       dtype=float)
    assert np.array_equal(mat.view(np.int64), exact.view(np.int64))
    if which == "d":
        assert np.array_equal(mat, -mat.T)
    else:
        assert np.array_equal(mat, mat.T)
    dense = difference_matrix(grid, fn)
    assert np.max(np.abs(mat - dense)) \
        <= 4 * np.finfo(float).eps * np.max(np.abs(dense))
