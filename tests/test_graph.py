import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from opinet import (CommunityGraph, ConfigError, GraphConfig, ensure_connected,
                    generate_community_graph, load_config)
from opinet.graph import _component_labels
import oracles
from oracles import graph_from_pairs, spectral_gap

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads"


def path3():
    return graph_from_pairs(3, [(0, 1), (1, 2)])


def test_graph_from_pairs_basic():
    g = path3()
    assert g.n_nodes == 3
    assert g.n_edges == 2
    np.testing.assert_array_equal(g.degrees, [1, 2, 1])
    np.testing.assert_array_equal(g.community, [1, 1, 1])
    # one head per half-edge, which the benchmark counts
    np.testing.assert_array_equal(g.adj_heads, [0, 1, 1, 2])
    assert [h.tolist() for h in oracles.neighbor_lists(g)] == [[1], [0, 2],
                                                               [1]]


def test_edge_columns_are_views_of_the_edge_list():
    # tail and head are the contiguous columns of the one edge array,
    # whichever way the graph was built
    built = generate_community_graph(GraphConfig(
        n_nodes=300, n_groups=3, mean_degree=8.0, mixing_mu=0.2, seed=1))
    direct = CommunityGraph(n_nodes=3, edges=np.array([[0, 1], [1, 2]]),
                            community=np.ones(3, dtype=int))
    bridged = ensure_connected(graph_from_pairs(6, [(0, 1), (2, 3)]))
    for g in (path3(), built, direct, bridged):
        for column, values in ((g.tail, g.edges[:, 0]),
                               (g.head, g.edges[:, 1])):
            assert np.shares_memory(column, g.edges)
            assert column.flags.c_contiguous
            np.testing.assert_array_equal(column, values)
    np.testing.assert_array_equal(direct.tail, [0, 1])
    np.testing.assert_array_equal(direct.head, [1, 2])


def test_edges_are_canonical():
    # i < j, lexicographically sorted, no duplicates
    g = graph_from_pairs(4, [(3, 2), (1, 0), (0, 2)])
    np.testing.assert_array_equal(g.edges, [[0, 1], [0, 2], [2, 3]])


def test_pairs_deduplicate_and_reject_self_loops():
    # (1, 0) is the same undirected edge as (0, 1)
    g = graph_from_pairs(3, [(0, 1), (1, 0)])
    assert g.n_edges == 1
    with pytest.raises(ConfigError):
        graph_from_pairs(3, [(1, 1)])


def test_pairs_match_a_python_set_reference():
    # duplicates and both orientations of a pair collapse to one i < j row
    rng = np.random.default_rng(3)
    n = 30
    pairs = rng.integers(0, n, size=(400, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    pairs = np.concatenate([pairs, pairs[:50, ::-1], pairs[50:80]])
    reference = sorted({(min(i, j), max(i, j)) for i, j in pairs.tolist()})
    np.testing.assert_array_equal(graph_from_pairs(n, pairs).edges, reference)
    np.testing.assert_array_equal(
        graph_from_pairs(n, [tuple(p) for p in pairs]).edges, reference)


def test_pair_errors_name_the_pair():
    with pytest.raises(ConfigError, match=r"self loop \(2, 2\)"):
        graph_from_pairs(4, [(0, 1), (2, 2), (3, 3)])
    with pytest.raises(ConfigError, match="out of range"):
        graph_from_pairs(4, [(0, 4)])
    with pytest.raises(ConfigError, match="out of range"):
        graph_from_pairs(4, [(-1, 2)])


def test_direct_construction_rejects_duplicates():
    for edges in ([[0, 1], [0, 1]], [[0, 2], [1, 2], [1, 2]]):
        with pytest.raises(ConfigError, match="duplicate edge"):
            CommunityGraph(n_nodes=3, edges=np.array(edges),
                           community=np.ones(3, dtype=int))


def test_direct_construction_requires_canonical_order():
    # an unsorted list is named as such even when it also repeats a row
    for edges, message in (([[1, 2], [0, 1]], "lexicographically sorted"),
                           ([[0, 1], [0, 2], [0, 1]], "lexicographically"),
                           ([[0, 1], [2, 1]], "i < j")):
        with pytest.raises(ConfigError, match=message):
            CommunityGraph(n_nodes=3, edges=np.array(edges),
                           community=np.ones(3, dtype=int))


def test_ensure_connected_matches_the_per_component_reference():
    rng = np.random.default_rng(6)
    pairs = rng.integers(0, 6000, size=(2000, 2))
    g = graph_from_pairs(6000, pairs[pairs[:, 0] != pairs[:, 1]])
    label, count = _component_labels(g)
    assert count > 3000
    ref_label, ref_count = oracles.component_labels(g)
    assert count == ref_count
    np.testing.assert_array_equal(label, ref_label)
    new = ensure_connected(g)
    np.testing.assert_array_equal(new.edges, oracles.ensure_connected(g).edges)
    assert oracles.component_labels(new)[1] == 1


def test_the_bridged_micro_large_graph_matches_the_reference():
    # input seed 15 of the micro_large benchmark workload, the one seed of
    # 0-15 that leaves any workload's graph disconnected
    config = load_config(str(WORKLOADS / "micro_large.ini"))
    config.seed = 15
    g = generate_community_graph(replace(config.graph,
                                         seed=config.seeds()["graph"]))
    assert _component_labels(g)[1] == 2
    new, ref = ensure_connected(g), oracles.ensure_connected(g)
    np.testing.assert_array_equal(new.edges, ref.edges)
    np.testing.assert_array_equal(new.community, ref.community)
    assert new.n_edges == g.n_edges + 1
    assert oracles.component_labels(new)[1] == 1


def test_a_large_graph_matches_the_set_and_search_references():
    # the size of the fine_unlabeled benchmark workload's graph
    config = GraphConfig(n_nodes=20000, n_groups=3, mean_degree=10.0,
                         mixing_mu=0.05, seed=1)
    g = generate_community_graph(config)
    np.testing.assert_array_equal(
        g.edges, oracles.generate_community_graph(config).edges)
    label, count = _component_labels(g)
    ref_label, ref_count = oracles.component_labels(g)
    assert count == ref_count
    np.testing.assert_array_equal(label, ref_label)


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes traced during the call); numpy reports
    its array buffers to tracemalloc."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the micro_large graph family; seed 26 leaves two components at this size
WORKING_SET = GraphConfig(n_nodes=50000, n_groups=3, mean_degree=10.0,
                          mixing_mu=0.05, seed=26)


def test_generation_holds_a_bounded_working_set():
    # peaks measured at 1.90x the final edge list: the sorted keys beside
    # the edge list they are split into, plus the node arrays; the
    # generator that matched into one shared key list peaked at 3.21x
    generate_community_graph(replace(WORKING_SET, n_nodes=3000))   # warm-up
    g, peak = traced_peak(generate_community_graph, WORKING_SET)
    assert peak <= 2.3 * g.edges.nbytes


def test_bridging_holds_a_bounded_working_set():
    # peaks measured at 1.43x the final edge list: the merged list, its
    # row mask and the labels; gathering both endpoint roots as whole
    # arrays and inserting into a key copy peaked at 3.20x
    g = generate_community_graph(WORKING_SET)
    assert _component_labels(g)[1] == 2
    ensure_connected(graph_from_pairs(4, [(0, 1), (2, 3)]))   # warm-up
    new, peak = traced_peak(ensure_connected, g)
    assert new.n_edges == g.n_edges + 1
    assert peak <= 1.8 * new.edges.nbytes


def test_config_validation():
    with pytest.raises(ConfigError):
        GraphConfig(n_nodes=1).validate()
    with pytest.raises(ConfigError):
        GraphConfig(n_nodes=50, mean_degree=0.0).validate()
    with pytest.raises(ConfigError):
        GraphConfig(n_nodes=50, mixing_mu=1.5).validate()
    with pytest.raises(ConfigError):
        GraphConfig(n_nodes=50, mean_degree=49.0).validate()
    # intra-community degree demand must stay below the community size
    with pytest.raises(ConfigError):
        GraphConfig(n_nodes=20, n_groups=2, mean_degree=12.0,
                    mixing_mu=0.0).validate()
    GraphConfig(n_nodes=200, n_groups=3, mean_degree=10.0,
                mixing_mu=0.1).validate()


@pytest.mark.parametrize("seed", [1.5, -1, True, np.float64(2.0)])
def test_a_seed_other_than_a_nonnegative_integer_is_refused(seed):
    # numpy's own refusals name no key: a TypeError from SeedSequence for
    # 1.5, a ValueError for -1
    with pytest.raises(ConfigError, match=r"^graph\.seed: "):
        generate_community_graph(GraphConfig(n_nodes=200, n_groups=2,
                                             seed=seed))


def test_a_numpy_integer_seed_is_accepted():
    config = GraphConfig(n_nodes=200, n_groups=2, seed=3)
    np.testing.assert_array_equal(
        generate_community_graph(replace(config, seed=np.int64(3))).edges,
        generate_community_graph(config).edges)


def test_community_sizes_largest_remainder():
    cfg = GraphConfig(n_nodes=10, n_groups=3, mean_degree=3.0,
                      mixing_mu=0.5, seed=0)
    g = generate_community_graph(cfg)
    sizes = np.bincount(g.community - 1, minlength=3)
    np.testing.assert_array_equal(sizes, [4, 3, 3])
    assert sizes.sum() == 10
    # the communities are as equal as they can be, the larger ones first
    for n in range(2, 200):
        for k in range(1, min(n, 12) + 1):
            sizes = GraphConfig(n_nodes=n, n_groups=k).community_sizes()
            assert sum(sizes) == n and len(sizes) == k
            assert max(sizes) - min(sizes) <= 1
            assert sizes == sorted(sizes, reverse=True)


def test_generation_is_deterministic():
    cfg = GraphConfig(n_nodes=120, n_groups=3, mean_degree=8.0,
                      mixing_mu=0.2, seed=7)
    a = generate_community_graph(cfg)
    b = generate_community_graph(cfg)
    np.testing.assert_array_equal(a.edges, b.edges)
    np.testing.assert_array_equal(a.community, b.community)


def measured_mixing(g):
    """Fraction of edges whose endpoints sit in different communities."""
    c = g.community
    return np.mean(c[g.tail] != c[g.head])


def test_mixing_extremes():
    intra = generate_community_graph(GraphConfig(
        n_nodes=150, n_groups=3, mean_degree=8.0, mixing_mu=0.0, seed=3))
    assert measured_mixing(intra) == 0.0
    inter = generate_community_graph(GraphConfig(
        n_nodes=150, n_groups=3, mean_degree=8.0, mixing_mu=1.0, seed=3))
    assert measured_mixing(inter) == 1.0


def test_measured_mixing_hand_value():
    g = graph_from_pairs(4, [(0, 1), (1, 2), (2, 3)],
                         community=np.array([1, 1, 2, 2]))
    assert measured_mixing(g) == pytest.approx(1 / 3)


def test_measured_mixing_tracks_target():
    for seed in range(3):
        for mu in (0.05, 0.3, 0.7):
            cfg = GraphConfig(n_nodes=300, n_groups=3, mean_degree=12.0,
                              mixing_mu=mu, seed=seed)
            g = generate_community_graph(cfg)
            assert abs(measured_mixing(g) - mu) < 0.08


def test_mean_degree_tracks_target():
    g = generate_community_graph(GraphConfig(
        n_nodes=400, n_groups=2, mean_degree=10.0, mixing_mu=0.2, seed=5))
    assert abs(g.degrees.mean() - 10.0) < 1.0


def test_ensure_connected():
    cfg = GraphConfig(n_nodes=100, n_groups=2, mean_degree=3.0,
                      mixing_mu=0.02, seed=11)
    g = ensure_connected(generate_community_graph(cfg))
    assert oracles.component_labels(g)[1] == 1
    # bridging never removes edges
    raw = generate_community_graph(cfg)
    assert g.n_edges >= raw.n_edges


def test_laplacian_hand_value():
    L = oracles.laplacian(path3())
    np.testing.assert_allclose(L, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])


def test_spectral_gap_known_graphs():
    # path P3 has spectrum {0, 1, 3}; K_n has gap n; one edge has gap 2
    assert spectral_gap(path3()) == pytest.approx(1.0, abs=1e-12)
    k4 = graph_from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert spectral_gap(k4) == pytest.approx(4.0, abs=1e-12)
    assert spectral_gap(graph_from_pairs(2, [(0, 1)])) == pytest.approx(2.0)
    # one node has no second eigenvalue
    with pytest.raises(ConfigError, match="two nodes"):
        spectral_gap(graph_from_pairs(1, []))
    # a disconnected graph's second zero is exact, not solver round-off
    disc = graph_from_pairs(4, [(0, 1), (2, 3)])
    assert spectral_gap(disc) == 0.0
    triangles = graph_from_pairs(6, [(0, 1), (1, 2), (0, 2),
                                     (3, 4), (4, 5), (3, 5)])
    assert spectral_gap(triangles) == 0.0
    rng = np.random.default_rng(7)
    for _ in range(40):
        # a random tree per block plus random chords: two components
        a, b = (int(x) for x in rng.integers(3, 40, size=2))
        pairs = [(i, int(rng.integers(i))) for i in range(1, a)]
        pairs += [(a + i, a + int(rng.integers(i))) for i in range(1, b)]
        pairs += [tuple(rng.integers(a, size=2)) for _ in range(a)]
        pairs += [tuple(a + rng.integers(b, size=2)) for _ in range(b)]
        g = graph_from_pairs(a + b, [p for p in pairs if p[0] != p[1]])
        assert _component_labels(g)[1] == 2
        assert spectral_gap(g) == 0.0


def test_spectral_gap_star_graph():
    # star K_{1,4} Laplacian spectrum is {0, 1, 1, 1, 5}
    star = graph_from_pairs(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert spectral_gap(star) == pytest.approx(1.0, abs=1e-12)


def test_laplacian_rows_sum_to_zero():
    for seed in range(4):
        g = generate_community_graph(GraphConfig(
            n_nodes=60, n_groups=2, mean_degree=6.0, mixing_mu=0.3,
            seed=seed))
        L = oracles.laplacian(g)
        np.testing.assert_allclose(L @ np.ones(60), 0.0, atol=1e-12)
        np.testing.assert_allclose(L, L.T)


def test_spectral_gap_at_large_n_matches_closed_forms():
    # the hypercube Q_14 has gap 2; the m x m torus has the gap of the
    # m-cycle, 2 - 2 cos(2 pi / m)
    d = 14
    nodes = np.arange(1 << d)
    cube = graph_from_pairs(1 << d, np.concatenate(
        [np.stack([low, low | 1 << b], axis=1) for b in range(d)
         for low in [nodes[nodes & 1 << b == 0]]]))
    assert spectral_gap(cube) == pytest.approx(2.0, rel=1e-9)
    m = 141
    ij = np.arange(m * m).reshape(m, m)
    torus = graph_from_pairs(m * m, np.concatenate(
        [np.stack([ij.ravel(), np.roll(ij, 1, axis).ravel()], axis=1)
         for axis in (0, 1)]))
    gap = spectral_gap(torus)
    assert gap == pytest.approx(2.0 - 2.0 * np.cos(2.0 * np.pi / m), rel=1e-9)
    # the seeded start vector makes the solve deterministic
    assert spectral_gap(torus) == gap
