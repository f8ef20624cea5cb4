"""Property tests of the micro step on random graphs with isolated nodes
and on bridged planted-partition graphs.

The reference right-hand sides are in tests/oracles.py: the gather over
the CSR half-edges, and the two np.bincount scatters that the step's
jagged-diagonal neighbour sums equal bit for bit.
"""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import opinet.graph  # noqa: E402
import opinet.micro  # noqa: E402
from opinet import (DebateOperator, GraphConfig,  # noqa: E402
                    conserved_quantity, ensure_connected, euler_step,
                    generate_community_graph, micro_rhs, potential_v,
                    step_size_bound)
import oracles  # noqa: E402
from oracles import graph_from_pairs  # noqa: E402

LIN = DebateOperator.linear()


@st.composite
def states(draw):
    """(graph, omega); a few nodes have no edges."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    active = draw(st.integers(2, 60))
    n = active + draw(st.integers(1, 5))
    pairs = rng.integers(0, active, size=(draw(st.integers(0, 4 * active)),
                                          2))
    # spread the isolated nodes among the others
    pairs = rng.permutation(n)[pairs[pairs[:, 0] != pairs[:, 1]]]
    omega = rng.uniform(-1.0, 1.0, n)
    return graph_from_pairs(n, pairs), omega


@settings(max_examples=200)
@given(states())
def test_rhs_matches_the_csr_gather(state):
    graph, omega = state
    rhs = micro_rhs(graph, omega, LIN)
    ref = oracles.micro_rhs(graph, omega, LIN)
    terms = LIN.d(omega[graph.tail] - omega[graph.head])
    scale = max(float(np.max(np.abs(terms), initial=0.0)), 1e-300)
    assert np.max(np.abs(rhs - ref)) <= 1e-13 * scale
    assert np.all(rhs[graph.degrees == 0] == 0.0)


@settings(max_examples=200)
@given(states(), st.booleans())
def test_the_linear_rhs_matches_the_csr_gather_without_edges(state, edgeless):
    # an isolated node gets exactly 0, and so does every node of an
    # edgeless graph, whose integer bincounts must not reach the float sums
    graph, omega = state
    if edgeless:
        graph = graph_from_pairs(graph.n_nodes, np.empty((0, 2), int))
    rhs = micro_rhs(graph, omega, LIN)
    assert rhs.dtype == float
    assert np.all(rhs[graph.degrees == 0] == 0.0)
    assert np.max(np.abs(rhs - oracles.micro_rhs(graph, omega, LIN))) <= 1e-15
    new = euler_step(graph, omega, LIN, 1.0)
    assert np.array_equal(new[graph.degrees == 0], omega[graph.degrees == 0])


@given(states())
def test_conserved_sum_holds_over_twenty_steps(state):
    graph, omega = state
    c0 = conserved_quantity(graph, omega)
    for _ in range(20):
        omega = euler_step(graph, omega, LIN, 0.5 * step_size_bound(LIN))
    drift = abs(conserved_quantity(graph, omega) - c0)
    assert drift <= 1e-13 * max(float(graph.degrees.sum()), 1.0)


@given(states())
def test_a_step_at_the_bound_stays_in_each_neighbourhood_hull(state):
    # criterion 4: dt = 1 / sup|D'| keeps every opinion in the hull of its
    # closed neighbourhood
    graph, omega = state
    new = euler_step(graph, omega, LIN, step_size_bound(LIN))
    for i, nbrs in enumerate(oracles.neighbor_lists(graph)):
        hood = omega[np.append(nbrs, i)]
        assert hood.min() - 1e-12 <= new[i] <= hood.max() + 1e-12


def _offset(view, base):
    # where a view of base starts in it, in elements
    return ((view.__array_interface__["data"][0]
             - base.__array_interface__["data"][0]) // base.itemsize)


def _slot_entries(graph):
    """Each node's two slots, read back from the graph's rows: {(node,
    "tail" or "head"): its entries, in the order the step adds them}."""
    chunks, sums, at_tail, at_head = graph._neighbour_rows
    index = np.concatenate([ends for ends, _, _ in chunks] + [[]])
    owner = {}
    for node in range(graph.n_nodes):
        owner[int(at_tail[node])] = (node, "tail")
        owner[int(at_head[node])] = (node, "head")
    entries = {key: [] for key in owner.values()}
    start = 0
    for ends, gathered, adds in chunks:
        for row, prior, into in adds:
            at = start + _offset(row, gathered)
            first = _offset(into, sums)
            # row 0 starts every slot from 0.0, each later row adds on
            if entries[owner[first]]:
                assert prior is into
            else:
                assert type(prior) is float and prior == 0.0
            for k in range(row.size):
                entries[owner[first + k]].append(int(index[at + k]))
        start += ends.size
    return entries


@st.composite
def planted(draw):
    """(bridged planted-partition graph, omega)."""
    n = draw(st.integers(30, 400))
    graph = ensure_connected(generate_community_graph(GraphConfig(
        n_nodes=n, n_groups=draw(st.integers(1, 3)),
        mean_degree=draw(st.floats(2.0, 8.0)), mixing_mu=0.05,
        seed=draw(st.integers(0, 2 ** 16)))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return graph, rng.uniform(-1.0, 1.0, n)


def _same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


@settings(max_examples=100)
@given(st.one_of(states(), planted()), st.booleans(),
       st.sampled_from([1, 3, 8, 64, 1 << 14]))
def test_rhs_equals_the_bincount_sums_bit_for_bit(state, edgeless, chunk):
    # the rows are cut into chunks of a few entries as well as the
    # default, so row pieces straddle chunks; every node sums from 0.0 in
    # edge order, as the two bincounts did, so no tolerance is needed,
    # over a step or over twenty
    graph, omega = state
    if edgeless:
        graph = graph_from_pairs(graph.n_nodes, np.empty((0, 2), int))
    with mock.patch.object(opinet.graph, "_ROW_CHUNK", chunk):
        rhs = micro_rhs(graph, omega, LIN)
    ref = oracles.bincount_rhs(graph, omega)
    assert np.array_equal(rhs, ref) and _same_bits(rhs, ref)
    new, old = omega, omega
    for _ in range(20):
        new = euler_step(graph, new, LIN, 0.5)
        old = old + 0.5 * oracles.bincount_rhs(graph, old)
    assert _same_bits(new, old)
    # the entry after the nonempty slots' sums stays the empty slots' 0.0
    assert graph._neighbour_rows[1][-1] == 0.0


@settings(max_examples=100)
@given(st.one_of(states(), planted()), st.sampled_from([1, 5, 64, 1 << 14]))
def test_the_rows_hold_each_half_edge_once_in_edge_order(state, chunk):
    graph, _ = state
    with mock.patch.object(opinet.graph, "_ROW_CHUNK", chunk):
        entries = _slot_entries(graph)
    # slot (i, "tail") lists the heads of the edges with tail i and slot
    # (j, "head") the tails of the edges with head j, each in edge order
    want = {key: [] for key in entries}
    for i, j in graph.edges.tolist():
        want[i, "tail"].append(j)
        want[j, "head"].append(i)
    assert entries == want
    chunks = graph._neighbour_rows[0]
    assert sum(ends.size for ends, _, _ in chunks) == 2 * graph.n_edges
    assert all(gathered.size <= chunk for _, gathered, _ in chunks)


@settings(max_examples=100)
@given(st.one_of(states(), planted()), st.sampled_from([1, 7, 1 << 14]))
def test_the_potential_matches_the_edge_order_sum(state, chunk):
    # one chunk is the edge-order pairwise sum itself; more chunks only
    # regroup it
    graph, omega = state
    with mock.patch.object(opinet.micro, "_CHUNK", chunk):
        v = potential_v(graph, omega, LIN)
    ref = oracles.edge_potential(graph, omega, LIN)
    assert isinstance(v, float)
    assert abs(v - ref) <= 1e-14 * abs(ref)
    if graph.n_edges <= chunk:
        assert v == ref
