import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import opinet
from opinet import (ConfigError, GraphConfig, Grid, LabeledFields, MixtureSpec,
                    PairField, bandwidth_select, empirical_f, empirical_g_kde,
                    ensure_connected, generate_community_graph,
                    sample_initial_opinions, split_by_group)
from opinet.empirical import _CHUNK_CELLS
from oracles import cell_averages, community_pdf, exact_g_kde, graph_from_pairs


def crossing_graph(seed=0, n=120):
    cfg = GraphConfig(n_nodes=n, n_groups=2, mean_degree=8.0,
                      mixing_mu=0.1, seed=seed)
    return ensure_connected(generate_community_graph(cfg))


def test_grid_geometry():
    g = Grid(5)
    assert g.dx == pytest.approx(0.4)
    np.testing.assert_allclose(g.edges, [-1.0, -0.6, -0.2, 0.2, 0.6, 1.0])
    np.testing.assert_allclose(g.mids, [-0.8, -0.4, 0.0, 0.4, 0.8])
    # endpoints are pinned exactly and midpoints are exactly antisymmetric
    assert g.edges[0] == -1.0 and g.edges[-1] == 1.0
    np.testing.assert_array_equal(g.mids + g.mids[::-1], np.zeros(5))


def test_grid_rejects_degenerate():
    with pytest.raises(ConfigError):
        Grid(1)


def test_mixture_validation():
    # invalid component triples are rejected at construction time
    with pytest.raises(ConfigError):
        MixtureSpec((((1.0, 0.0, 0.0),),))  # zero width
    with pytest.raises(ConfigError):
        MixtureSpec((((1.0, 1.5, 0.1),),))  # center out of range
    with pytest.raises(ConfigError):
        MixtureSpec((((-0.5, 0.0, 0.1),),))  # nonpositive weight
    with pytest.raises(ConfigError):
        MixtureSpec(())


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_mixture_refuses_a_non_finite_weight_or_sigma(value):
    # a NaN weight passed a w <= 0 check and failed in the sampler
    with pytest.raises(ConfigError, match=re.escape(
            "mixture: component %g:0:0.1: weight" % value)):
        MixtureSpec((((value, 0.0, 0.1),),))
    with pytest.raises(ConfigError, match=re.escape(
            "mixture: component 1:0:%g: sigma" % value)):
        MixtureSpec((((1.0, 0.0, value),),))


def test_mixture_presets_shape():
    assert MixtureSpec.three_communities().n_groups == 3
    assert MixtureSpec.crossing().n_groups == 2


def test_community_pdf_normalized():
    """Truncation to [-1, 1] is renormalized, so each community pdf
    integrates to one even when a component leaks past the boundary, and
    component weights are normalized within the community."""
    mix = MixtureSpec((((0.7, -0.9, 0.3), (0.2, 0.5, 0.05)),))
    total, _ = quad(community_pdf(mix, 0), -1.0, 1.0, limit=200)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_cell_averages_exact_mass():
    # components narrower than a cell still carry exactly unit mass
    grid = Grid(101)
    mix = MixtureSpec.three_communities()
    for c in range(3):
        f = mix.community_cell_averages(grid, c)
        assert f.mass() == pytest.approx(1.0, abs=1e-13)
        assert f.values.min() >= 0.0
    blend = mix.cell_averages(grid, [0.2, 0.5, 0.3])
    assert blend.mass() == pytest.approx(1.0, abs=1e-13)
    rows = mix.weighted_cell_averages(grid, [0.2, 0.5, 0.3])
    np.testing.assert_allclose(grid.dx * rows.sum(axis=1), [0.2, 0.5, 0.3])
    np.testing.assert_array_equal(rows.sum(axis=0), blend.values)


def test_cell_averages_match_quadrature():
    # per-cell quadrature of the truncated pdf, leaking past both ends
    grid = Grid(40)
    mix = MixtureSpec((((0.7, -0.9, 0.3), (0.2, 0.5, 0.05)),))
    pdf = community_pdf(mix, 0)
    quadrature = [quad(pdf, lo, hi)[0] / grid.dx
                  for lo, hi in zip(grid.edges[:-1], grid.edges[1:])]
    np.testing.assert_allclose(mix.community_cell_averages(grid, 0).values,
                               quadrature, rtol=1e-9, atol=1e-12)


def test_cell_averages_match_scipy_ndtr():
    # the stdlib CDF against scipy's, cell by cell.  np.diff of two CDF
    # values near 1 cancels in both forms, so far-tail cells differ by up
    # to ~1e-7 of their own size: they are held to the column's max
    for n in (101, 202, 404):
        grid = Grid(n)
        for mix in (MixtureSpec.three_communities(), MixtureSpec.crossing()):
            for c in range(mix.n_groups):
                got = mix.community_cell_averages(grid, c).values
                ref = cell_averages(mix, grid, c)
                bulk = ref > 1e-12 * ref.max()
                np.testing.assert_allclose(got[bulk], ref[bulk], rtol=1e-12,
                                           atol=0)
                np.testing.assert_allclose(got[~bulk], ref[~bulk], rtol=0,
                                           atol=1e-13 * ref.max())


def test_fields_reject_bad_shapes():
    grid = Grid(8)
    with pytest.raises(ConfigError):
        PairField(grid, np.zeros((8, 7)))
    with pytest.raises(ConfigError):
        LabeledFields(grid, np.zeros((2, 8)), np.zeros((2, 3, 8, 8)))


def test_sampling_respects_communities():
    g = crossing_graph()
    mix = MixtureSpec.crossing()
    om = sample_initial_opinions(g, mix, np.random.default_rng(5))
    assert om.shape == (g.n_nodes,)
    assert om.min() > -1.0 and om.max() < 1.0
    # group means sit near the weighted component centers
    m1 = om[g.community == 1].mean()
    m2 = om[g.community == 2].mean()
    assert abs(m1 - (0.6 * -0.5 + 0.4 * 0.25)) < 0.1
    assert abs(m2 - (0.4 * -0.25 + 0.6 * 0.5)) < 0.1


def test_sampling_deterministic():
    g = crossing_graph()
    mix = MixtureSpec.crossing()
    a = sample_initial_opinions(g, mix, np.random.default_rng(9))
    b = sample_initial_opinions(g, mix, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)


def test_empirical_f_hand_value():
    grid = Grid(8)
    f = empirical_f(np.array([-0.5, 0.0, 0.5]), grid)
    expect = np.zeros(8)
    expect[[2, 4, 6]] = 1 / (3 * grid.dx)
    np.testing.assert_allclose(f.values, expect)
    assert f.mass() == pytest.approx(1.0)


def test_empirical_f_rejects_out_of_range():
    with pytest.raises(ConfigError):
        empirical_f(np.array([0.0, 1.5]), Grid(8))


def test_empirical_f_rejects_nan_opinions():
    # min and max comparisons pass NaN, which np.histogram then drops, so
    # the density would lose a third of its mass
    with pytest.raises(ConfigError, match=r"lie in \[-1, 1\]"):
        empirical_f(np.array([0.1, np.nan, 0.3]), Grid(10))


def test_kde_mass_and_symmetry():
    g = crossing_graph(seed=2)
    om = sample_initial_opinions(g, MixtureSpec.crossing(),
                                 np.random.default_rng(2))
    grid = Grid(64)
    for kde in (empirical_g_kde, exact_g_kde):
        pf = kde(g, om, grid, 0.08)
        assert pf.mass() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(pf.values, pf.values.T)
        assert pf.values.min() >= 0.0


def test_kde_modes_agree_at_moderate_bandwidth():
    g = crossing_graph(seed=4)
    om = sample_initial_opinions(g, MixtureSpec.crossing(),
                                 np.random.default_rng(4))
    grid = Grid(64)
    a = empirical_g_kde(g, om, grid, 0.1)
    b = exact_g_kde(g, om, grid, 0.1)
    assert np.max(np.abs(a.values - b.values)) < 2e-2 * np.max(a.values)


def test_kde_small_bandwidth_localizes_mass():
    # sites halfway between midpoints split each directed edge 2x2, 1/4 each
    g = graph_from_pairs(3, [(0, 1), (1, 2)])
    om = np.array([-0.5, 0.0, 0.5])
    grid = Grid(8)
    pf = empirical_g_kde(g, om, grid, grid.dx / 7.5)
    cell_mass = pf.values * grid.dx ** 2
    expect = np.zeros((8, 8))
    for i, j in ((1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (3, 6), (4, 5),
                 (4, 6)):
        expect[i, j] = 1 / 16
        expect[j, i] = 1 / 16
    np.testing.assert_allclose(cell_mass, expect, atol=1e-10)


def test_kde_refuses_a_bandwidth_below_the_grid_floor():
    # opinions at -1 and 1 lie dx / 2 from the nearest midpoint, the
    # farthest any opinion gets, so their product kernel peaks at
    # exp(-dx^2 / (4 h^2)): a normal double just above h = dx / 53.2
    g = graph_from_pairs(2, [(0, 1)])
    om = np.array([-1.0, 1.0])
    grid = Grid(50)
    pf = empirical_g_kde(g, om, grid, grid.dx / 53.0)
    assert np.all(np.isfinite(pf.values))
    assert pf.mass() == pytest.approx(1.0)
    with pytest.raises(ConfigError, match=r"h = .* below dx / 53\.2 .*"
                                          r"dx = 0\.04\b"):
        empirical_g_kde(g, om, grid, grid.dx / 53.5)


def test_silverman_formula_and_equivariance():
    rng = np.random.default_rng(31)
    x = rng.normal(0.0, 0.2, 500)
    h = bandwidth_select(x, "silverman")
    assert h == pytest.approx(1.06 * np.std(x, ddof=1) * 500 ** (-0.2))
    assert bandwidth_select(3.0 * x, "silverman") == pytest.approx(3.0 * h)


def test_bandwidth_select_rejects_unknown_method():
    with pytest.raises(ConfigError):
        bandwidth_select(np.zeros(10) + np.arange(10), "amise")


def test_bandwidth_refuses_an_all_equal_sample():
    # the rounded mean of three 0.2s leaves an sd of about 3e-17
    for data in ([0.2] * 3, [0.0] * 5):
        with pytest.raises(ConfigError, match="degenerate"):
            bandwidth_select(data)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_bandwidth_refuses_a_non_finite_sample(value):
    with pytest.raises(ConfigError, match="not finite"):
        bandwidth_select([0.1, value, 0.3])


def test_split_by_group_reductions():
    g = crossing_graph(seed=6)
    om = sample_initial_opinions(g, MixtureSpec.crossing(),
                                 np.random.default_rng(6))
    grid = Grid(64)
    h = bandwidth_select(om)
    lab = split_by_group(g, om, grid, h)
    assert lab.n_groups == 2
    # label sums recover the unlabeled empirical objects
    np.testing.assert_array_equal(lab.f_total(), empirical_f(om, grid).values)
    unl = empirical_g_kde(g, om, grid, h)
    np.testing.assert_allclose(lab.g_total(), unl.values,
                               rtol=0, atol=1e-12 * np.max(unl.values))
    assert lab.g_total().sum() * grid.dx ** 2 == pytest.approx(1.0, abs=1e-12)
    # block structure mirrors the pair symmetry exactly
    for p in range(2):
        for q in range(2):
            np.testing.assert_array_equal(lab.g[p, q], lab.g[q, p].T)


def test_split_by_group_with_interleaved_labels():
    # labels alternate along the node index, so the canonical i < j edges
    # run from label q to label p as well as from p to q
    rng = np.random.default_rng(9)
    n_nodes, k = 60, 3
    community = 1 + np.arange(n_nodes) % k
    pairs = {tuple(sorted(rng.choice(n_nodes, size=2, replace=False)))
             for _ in range(240)}
    g = graph_from_pairs(n_nodes, sorted(pairs), community=community)
    ca, cb = community[g.edges[:, 0]], community[g.edges[:, 1]]
    assert np.any(ca < cb) and np.any(ca > cb) and np.any(ca == cb)
    om = rng.uniform(-0.95, 0.95, n_nodes)
    grid = Grid(24)
    h = 0.1
    lab = split_by_group(g, om, grid, h)
    kern = np.exp(-0.5 * ((grid.mids[None, :] - om[:, None]) / h) ** 2) \
        / (np.sqrt(2.0 * np.pi) * h)
    brute = np.zeros((k, k, grid.n_cells, grid.n_cells))
    for i, j in g.edges:
        p, q = community[i] - 1, community[j] - 1
        brute[p, q] += np.outer(kern[i], kern[j])
        brute[q, p] += np.outer(kern[j], kern[i])
    brute /= grid.dx ** 2 * brute.sum()
    for p in range(k):
        for q in range(k):
            np.testing.assert_allclose(lab.g[p, q], brute[p, q], rtol=1e-13,
                                       atol=1e-13 * brute.max())
            np.testing.assert_array_equal(lab.g[q, p], lab.g[p, q].T)
    np.testing.assert_allclose(lab.g_total(),
                               empirical_g_kde(g, om, grid, h).values,
                               rtol=0, atol=1e-13 * brute.max())


def random_lift_case(n_nodes, n_pairs, seed=5):
    """(graph, opinions) of n_pairs random node pairs, loops dropped."""
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n_nodes, size=(n_pairs, 2))
    g = graph_from_pairs(n_nodes, pairs[pairs[:, 0] != pairs[:, 1]])
    return g, rng.uniform(-0.95, 0.95, n_nodes)


def lift_peak(g, om, grid):
    """Peak traced bytes of empirical_g_kde at bandwidth 0.1."""
    tracemalloc.start()
    try:
        empirical_g_kde(g, om, grid, 0.1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lift_working_set_does_not_grow_with_the_edges():
    # N = 2000, mean degree ~40, n = 202: two E x n gathers would take
    # 2 E n 8 bytes, ~129 MB.  One chunk holds the tails' rows; the heads'
    # rows (one per run), the edge indices and the block fit in a second
    grid = Grid(202)
    g, om = random_lift_case(2000, 40000)
    budget = 2 * _CHUNK_CELLS * 8
    assert 2 * g.n_edges * grid.n_cells * 8 > 8 * budget
    assert lift_peak(g, om, grid) < budget


def test_unlabeled_lift_holds_no_edge_sized_array():
    # N = 2000 and n = 202 at E ~ 4e4 and ~ 8e4, mean degrees high enough
    # that the heads' rows of a chunk stay small: the one-label lift takes
    # the edges in their stored order, so the added edges move its peak by
    # less than the 16 bytes per edge of an E-sized key and sort order
    grid = Grid(202)
    small = random_lift_case(2000, 40000)
    large = random_lift_case(2000, 80000)
    added = large[0].n_edges - small[0].n_edges
    assert added > 35000
    assert lift_peak(*large, grid) - lift_peak(*small, grid) < 8 * added


def test_lift_working_set_does_not_grow_with_the_nodes():
    # n = 202 and mean degree ~20 at N = 2000 and at N = 16000, where a
    # kernel matrix would take 26 MB
    grid = Grid(202)
    small = random_lift_case(2000, 20000)
    large = random_lift_case(16000, 160000)
    assert large[0].n_nodes * grid.n_cells * 8 > 6 * _CHUNK_CELLS * 8
    assert abs(lift_peak(*large, grid) - lift_peak(*small, grid)) \
        < _CHUNK_CELLS * 8


@pytest.mark.parametrize("lift", [empirical_g_kde, split_by_group])
def test_both_lifts_refuse_bad_opinions_before_forming_rows(lift,
                                                            monkeypatch):
    g = crossing_graph(seed=1, n=40)
    om = np.random.default_rng(1).uniform(-0.9, 0.9, g.n_nodes)

    def no_rows(*args):
        raise AssertionError("formed kernel rows")

    monkeypatch.setattr(opinet.empirical, "_kernel_rows", no_rows)
    for bad, what in ((om[:-1], "one opinion per node"),
                      (np.append(om, 0.0), "one opinion per node"),
                      (om.reshape(2, -1), "one opinion per node"),
                      (np.where(np.arange(g.n_nodes) == 3, 1.5, om),
                       r"lie in \[-1, 1\]"),
                      (np.where(np.arange(g.n_nodes) == 3, -1.0 - 1e-12, om),
                       r"lie in \[-1, 1\]"),
                      (np.where(np.arange(g.n_nodes) == 3, np.nan, om),
                       r"lie in \[-1, 1\]")):
        with pytest.raises(ConfigError, match=what):
            lift(g, bad, Grid(16), 0.1)


def run_fresh(code):
    """The stripped stdout of code run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(opinet.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout.strip()


def loads_scipy(code):
    """Whether running code in a fresh interpreter imports scipy."""
    return run_fresh(code + "import sys\n"
                            "print('scipy' in sys.modules)\n") == "True"


def test_building_the_preset_state_leaves_scipy_unloaded():
    # scipy.special alone costs a run ~0.17 s of start-up and ~20 MB
    assert not loads_scipy(
        "from opinet import build_initial_state, preset_three_communities\n"
        "build_initial_state(preset_three_communities())\n")


def test_import_and_a_preset_run_leave_scipy_unloaded(tmp_path):
    # the package imports no scipy (test_public_api checks its imports),
    # and scipy.sparse.linalg would add ~17% to a preset run's peak RSS
    assert not loads_scipy(
        "from dataclasses import replace\n"
        "import opinet\n"
        "opinet.run_experiment(replace(opinet.preset_three_communities(),\n"
        "                              output_dir=%r))\n" % str(tmp_path))


def test_the_first_preset_state_imports_no_module():
    # numpy loads numpy.random on first use, so a package that reaches it
    # through np.random would import it inside the first build
    assert run_fresh(
        "import sys\n"
        "from opinet import build_initial_state, preset_three_communities\n"
        "loaded = set(sys.modules)\n"
        "build_initial_state(preset_three_communities())\n"
        "print(sorted(set(sys.modules) - loaded))\n") == "[]"


def test_bridging_a_graph_imports_no_numpy_ma():
    # a run bridges a disconnected graph; a plain np.unique there would
    # import numpy.ma, about 1 MB of RSS, to rule out a masked array
    assert run_fresh(
        "import sys\n"
        "from opinet import CommunityGraph, ensure_connected\n"
        "g = ensure_connected(CommunityGraph(6, [[0, 1], [2, 3]], [1] * 6))\n"
        "assert g.n_edges == 5\n"
        "print([m for m in sys.modules\n"
        "       if m.split('.')[:2] == ['numpy', 'ma']])\n") == "[]"


def test_a_whole_run_and_bridging_leave_scipy_unloaded(tmp_path):
    # every variant, the outputs and a graph with stray components to bridge
    assert not loads_scipy(
        "from dataclasses import replace\n"
        "from opinet import (CommunityGraph, ensure_connected,\n"
        "                    preset_three_communities, run_experiment)\n"
        "config = preset_three_communities()\n"
        "config = replace(config, micro=replace(config.micro, t_end=0.5),\n"
        "                 continuum=replace(config.continuum, t_end=0.5),\n"
        "                 snapshot_times=(0.5,), output_dir=%r)\n"
        "assert 'micro' in config.model_variants\n"
        "run_experiment(config)\n"
        "g = ensure_connected(CommunityGraph(6, [[0, 1], [2, 3]], [1] * 6))\n"
        "assert g.n_edges == 5\n" % str(tmp_path))
