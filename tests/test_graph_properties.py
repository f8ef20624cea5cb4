"""Property tests of the graph generator and the component labels on random
configurations, against the set-based generator and the depth-first labels
in tests/oracles.py."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from opinet import (GraphConfig, ensure_connected,  # noqa: E402
                    generate_community_graph)
from opinet.graph import _component_labels  # noqa: E402
import oracles  # noqa: E402


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
