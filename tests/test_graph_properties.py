"""Property tests of the graph generator, the component labels and the
spectral gap on random configurations, against the set-based generator, the
depth-first labels and the dense Laplacian in tests/oracles.py."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from opinet import (GraphConfig, ensure_connected,  # noqa: E402
                    generate_community_graph)
from opinet.graph import _component_labels  # noqa: E402
import oracles  # noqa: E402
from oracles import graph_from_pairs, spectral_gap  # noqa: E402


@st.composite
def graph_configs(draw):
    k = draw(st.integers(1, 4))
    mu = draw(st.sampled_from([0.0, 1.0, None]))
    if mu is None:
        mu = draw(st.floats(0.0, 1.0))
    # low degrees leave many components
    degree = draw(st.floats(0.5, 12.0))
    # every community can host the intra-community degree target
    n = draw(st.integers(k * (int(degree) + 3), 300))
    return GraphConfig(n_nodes=n, n_groups=k, mean_degree=degree,
                       mixing_mu=mu, seed=draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=150)
@given(graph_configs())
def test_edges_and_labels_match_the_set_and_search_references(config):
    g = generate_community_graph(config)
    np.testing.assert_array_equal(
        g.edges, oracles.generate_community_graph(config).edges)
    label, count = _component_labels(g)
    ref_label, ref_count = oracles.component_labels(g)
    assert count == ref_count
    np.testing.assert_array_equal(label, ref_label)
    # the bridges follow the component numbering
    np.testing.assert_array_equal(ensure_connected(g).edges,
                                  oracles.ensure_connected(g).edges)


def dense_gap(graph):
    return np.linalg.eigvalsh(oracles.laplacian(graph))[1]


def tree_plus_chords(n, seed):
    """A connected n-node graph: a random tree and up to 2n random chords."""
    rng = np.random.default_rng(seed)
    pairs = [(i, int(rng.integers(i))) for i in range(1, n)]
    pairs += [tuple(rng.integers(n, size=2))
              for _ in range(int(rng.integers(2 * n + 1)))]
    return graph_from_pairs(n, [p for p in pairs if p[0] != p[1]])


@settings(max_examples=100)
@given(st.integers(2, 64), st.integers(0, 2 ** 32 - 1))
def test_spectral_gap_matches_the_dense_solve(n, seed):
    g = tree_plus_chords(n, seed)
    assert spectral_gap(g) == pytest.approx(dense_gap(g), rel=1e-9)


# N = 21-29 are the sizes where an undeflated eigsh(L, k=3, which="SA")
# with its default Krylov dimension missed the zero eigenvalue
for _n in range(21, 30):
    test_spectral_gap_matches_the_dense_solve = example(_n, 0)(
        test_spectral_gap_matches_the_dense_solve)


@pytest.mark.parametrize("seed", [0, 1])
def test_spectral_gap_of_weakly_mixed_communities(seed):
    # an undeflated eigsh(L, k=3, which="SA") missed the zero eigenvalue
    # on these graphs and returned lambda_2..lambda_4
    g = ensure_connected(generate_community_graph(
        GraphConfig(1000, 3, 10.0, 1e-3, seed=seed)))
    assert spectral_gap(g) == pytest.approx(dense_gap(g), rel=1e-9)
