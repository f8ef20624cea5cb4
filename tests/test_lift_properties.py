"""Property tests of the chunked pair-density lift on random graphs.

Small chunk sizes split a hub's neighbour list and the label segments over
several chunks; every block must still match the per-edge sum of
K[i] (x) K[j], stay bit-symmetric and carry mass 1.  At bandwidths down to
an eighth of a cell the kernel rows must keep the round-off of the
textbook formula.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from opinet import Grid, empirical_g_kde, split_by_group  # noqa: E402
from opinet import empirical  # noqa: E402
from oracles import graph_from_pairs  # noqa: E402


@st.composite
def lifts(draw):
    k = draw(st.sampled_from([1, 2, 3]))
    n_nodes = draw(st.integers(k + 2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # labels shuffled over the nodes, so the canonical i < j edges run
    # from label q to label p as well as from p to q
    community = 1 + rng.permutation(np.arange(n_nodes) % k)
    hub = int(rng.integers(n_nodes - 2))
    upper = np.arange(hub + 1, n_nodes)
    upper = upper[rng.uniform(size=upper.size) < 0.8]
    spokes = np.stack([np.full(upper.size + 1, hub),
                       np.append(upper, n_nodes - 1)], axis=1)
    pairs = rng.integers(0, n_nodes, size=(draw(st.integers(0, 60)), 2))
    pairs = np.concatenate([pairs[pairs[:, 0] != pairs[:, 1]], spokes])
    graph = graph_from_pairs(n_nodes, pairs, community=community)
    omega = rng.uniform(-0.95, 0.95, n_nodes)
    grid = Grid(draw(st.integers(2, 20)))
    bandwidth = draw(st.floats(0.05, 0.5))
    return graph, omega, grid, bandwidth, draw(st.sampled_from([1, 3, 7]))


def textbook_kernel(omega, grid, h):
    return np.exp(-0.5 * ((grid.mids[None, :] - omega[:, None]) / h) ** 2) \
        / (np.sqrt(2.0 * np.pi) * h)


def brute_force(graph, omega, grid, h):
    kern = textbook_kernel(omega, grid, h)
    k = graph.n_groups
    g = np.zeros((k, k, grid.n_cells, grid.n_cells))
    for i, j in graph.edges:
        p, q = graph.community[i] - 1, graph.community[j] - 1
        g[p, q] += np.outer(kern[i], kern[j])
        g[q, p] += np.outer(kern[j], kern[i])
    return g / (grid.dx ** 2 * g.sum())


@given(lifts())
def test_chunked_lift_matches_the_per_edge_sum(case):
    graph, omega, grid, h, chunk = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(empirical, "_CHUNK_CELLS", chunk * grid.n_cells)
        lab = split_by_group(graph, omega, grid, h)
        unl = empirical_g_kde(graph, omega, grid, h)
    brute = brute_force(graph, omega, grid, h)
    k = graph.n_groups
    for p in range(k):
        for q in range(k):
            np.testing.assert_allclose(lab.g[p, q], brute[p, q], rtol=1e-13,
                                       atol=1e-13 * brute.max())
            np.testing.assert_array_equal(lab.g[q, p], lab.g[p, q].T)
    np.testing.assert_allclose(unl.values, brute.sum(axis=(0, 1)),
                               rtol=1e-13, atol=1e-13 * brute.max())
    np.testing.assert_array_equal(unl.values, unl.values.T)
    assert abs(grid.dx ** 2 * lab.g.sum() - 1.0) < 1e-12
    assert abs(unl.mass() - 1.0) < 1e-12


@given(lifts(), st.integers(0, 2 ** 32 - 1), st.sampled_from([101, 404]),
       st.floats(0.125, 2.0))
def test_kernel_rows_keep_their_round_off_at_small_bandwidths(case, seed, n,
                                                              width):
    # h from dx / 8 to 2 dx, as small as Silverman's rule gets on a tight
    # mixture, and opinions out to the ends of [-1, 1], where a*mid -
    # a*omega would lose most; g from the lift's rows and from the
    # textbook formula's, summed in the same order, agree to 1e-13 in
    # every cell down to 1e-30 of the largest
    graph = case[0]
    omega = np.random.default_rng(seed).uniform(-1.0, 1.0, graph.n_nodes)
    omega[:2] = -1.0, 1.0
    grid = Grid(n)
    h = width * grid.dx
    labels, k = graph.community - 1, graph.n_groups

    def textbook_rows(nodes, out):
        out[:] = textbook_kernel(omega[nodes], grid, h)

    g = empirical._lift_g(graph, empirical._kernel_rows(omega, grid, h),
                          grid, labels, k)
    ref = empirical._lift_g(graph, textbook_rows, grid, labels, k)
    cells = ref > 1e-30 * ref.max()
    assert np.all(np.abs(g - ref)[cells] <= 1e-13 * ref[cells])
