"""Property tests of the micro step on random graphs with isolated nodes.

The reference right-hand side is the gather over the CSR half-edges in
tests/oracles.py; the step itself takes two neighbour sums per node.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from opinet import (DebateOperator, conserved_quantity,  # noqa: E402
                    euler_step, micro_rhs, step_size_bound)
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
