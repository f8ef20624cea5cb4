import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import opinet
from opinet import (ConfigError, DebateOperator, GraphConfig, conserved_quantity,
                    consensus_value, e_micro, ensure_connected, euler_maruyama_step,
                    euler_step, generate_community_graph, micro_rhs,
                    potential_v, step_size_bound)
import oracles
from oracles import graph_from_pairs


def path3():
    return graph_from_pairs(3, [(0, 1), (1, 2)])


def random_graph(seed, n=40):
    cfg = GraphConfig(n_nodes=n, n_groups=2, mean_degree=5.0,
                      mixing_mu=0.3, seed=seed)
    return ensure_connected(generate_community_graph(cfg))


def test_quartic_is_odd_and_even_bit_for_bit():
    rng = np.random.default_rng(8)
    z = rng.uniform(-2.0, 2.0, 100_000)
    d, w = oracles.cubic_d, oracles.quartic_w
    assert np.array_equal(d(-z).view(np.int64), (-d(z)).view(np.int64))
    assert np.array_equal(w(-z).view(np.int64), w(z).view(np.int64))
    # the products stay within round-off of the power forms
    np.testing.assert_allclose(d(z), -np.power(z, 3), rtol=1e-15, atol=0)
    np.testing.assert_allclose(w(z), 0.25 * np.power(z, 4), rtol=1e-15,
                               atol=0)


def test_linear_operators_are_equal():
    # the steppers are cached per operator, so every operator must hit
    assert DebateOperator.linear() == DebateOperator.linear()
    assert hash(DebateOperator.linear()) == hash(DebateOperator.linear())


def test_the_operator_takes_no_rule():
    # D(z) = -z is the one rule; d, w and lipschitz are class constants
    op = DebateOperator.linear()
    rule = {"d": op.d, "w": op.w, "lipschitz": op.lipschitz}
    for given in [rule] + [{key: value} for key, value in rule.items()]:
        with pytest.raises(TypeError):
            DebateOperator(**given)
    z = np.array([-2.0, -0.5, 0.0, 1.5])
    np.testing.assert_array_equal(op.d(z), -z)
    np.testing.assert_array_equal(op.w(z), 0.5 * z * z)
    assert op.lipschitz == 1.0


def test_step_size_bounds():
    assert step_size_bound(DebateOperator.linear()) == 1.0


def test_rhs_hand_value():
    om = np.array([-0.5, 0.0, 0.5])
    rhs = micro_rhs(path3(), om, DebateOperator.linear())
    np.testing.assert_allclose(rhs, [0.5, 0.0, -0.5])


def test_single_edge_swaps_at_full_step():
    g = graph_from_pairs(2, [(0, 1)])
    om = np.array([0.2, -0.7])
    out = euler_step(g, om, DebateOperator.linear(), dt=1.0)
    np.testing.assert_allclose(out, [-0.7, 0.2])


def test_step_rejects_dt_above_bound():
    g = graph_from_pairs(2, [(0, 1)])
    om = np.array([0.2, -0.7])
    with pytest.raises(ConfigError):
        euler_step(g, om, DebateOperator.linear(), dt=1.2)
    with pytest.raises(ConfigError):
        euler_step(g, om, DebateOperator.linear(), dt=0.0)


def test_conserved_quantity_and_consensus():
    om = np.array([-0.5, 0.0, 0.5])
    g = path3()
    assert conserved_quantity(g, om) == 0.0
    assert consensus_value(g, om) == 0.0
    om2 = np.array([-0.625, -0.125, 0.625])
    assert consensus_value(g, om2) == pytest.approx(-0.0625)


@pytest.mark.parametrize("omega", [np.zeros(1), np.zeros((3, 1)),
                                   np.zeros(4)])
def test_records_refuse_omega_of_the_wrong_shape(omega):
    # a broadcast against the degrees would return a plausible wrong sum
    g = path3()
    for record in (conserved_quantity, consensus_value, e_micro):
        with pytest.raises(ConfigError):
            record(g, omega)


def test_consensus_needs_edges():
    g = graph_from_pairs(3, [])
    with pytest.raises(ConfigError):
        consensus_value(g, np.zeros(3))


def test_conservation_along_trajectories():
    # degree-weighted mean is invariant under the update
    op = DebateOperator.linear()
    for seed in range(5):
        g = random_graph(seed)
        rng = np.random.default_rng(100 + seed)
        om = rng.uniform(-1.0, 1.0, g.n_nodes)
        c0 = conserved_quantity(g, om)
        dt = 0.5 * step_size_bound(op)
        for _ in range(200):
            om = euler_step(g, om, op, dt)
        assert abs(conserved_quantity(g, om) - c0) < 1e-11 * g.degrees.sum()


def test_hull_property_within_bound():
    # new opinion stays inside the closed neighborhood's previous hull
    for seed in range(20):
        g = random_graph(seed, n=25)
        rng = np.random.default_rng(500 + seed)
        om = rng.uniform(-1.0, 1.0, g.n_nodes)
        dt = rng.uniform(0.1, 1.0) * step_size_bound(DebateOperator.linear())
        new = euler_step(g, om, DebateOperator.linear(), dt)
        for i, nbrs in enumerate(oracles.neighbor_lists(g)):
            hood = np.append(nbrs, i)
            assert om[hood].min() - 1e-12 <= new[i] <= om[hood].max() + 1e-12


def test_potential_hand_values():
    lin = DebateOperator.linear()
    assert potential_v(path3(), np.array([-0.5, 0.0, 0.5]),
                       lin) == pytest.approx(0.25)
    g = graph_from_pairs(2, [(0, 1)])
    assert potential_v(g, np.array([0.0, 1.0]), lin) == pytest.approx(0.5)


def test_potential_decreases():
    g = random_graph(3)
    rng = np.random.default_rng(42)
    om = rng.uniform(-1.0, 1.0, g.n_nodes)
    lin = DebateOperator.linear()
    v = potential_v(g, om, lin)
    for _ in range(50):
        om = euler_step(g, om, lin, 0.2)
        v_new = potential_v(g, om, lin)
        assert v_new <= v + 1e-12
        v = v_new


def test_e_micro_hand_value():
    assert e_micro(path3(), np.array([-0.5, 0.0, 0.5])) == pytest.approx(
        np.sqrt(1 / 6))


def test_e_micro_decays_to_zero():
    g = random_graph(7)
    rng = np.random.default_rng(7)
    om = rng.uniform(-1.0, 1.0, g.n_nodes)
    lin = DebateOperator.linear()
    e0 = e_micro(g, om)
    for _ in range(2000):
        om = euler_step(g, om, lin, 0.5)
    assert e_micro(g, om) < 1e-6 * e0


def test_noise_zero_matches_deterministic_step_exactly():
    g = random_graph(1)
    rng = np.random.default_rng(0)
    om = rng.uniform(-1.0, 1.0, g.n_nodes)
    lin = DebateOperator.linear()
    a = euler_step(g, om, lin, 0.3)
    b = euler_maruyama_step(g, om, lin, 0.3, sigma=0.0,
                            rng=np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)


def test_noise_negative_sigma_rejected():
    g = path3()
    with pytest.raises(ConfigError):
        euler_maruyama_step(g, np.zeros(3), DebateOperator.linear(), 0.1,
                            sigma=-1.0, rng=np.random.default_rng(0))


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -1.0])
def test_noise_sigma_must_be_nonnegative_and_finite(sigma):
    # NaN and inf would otherwise step to an all-NaN state
    with pytest.raises(ConfigError, match=r"^micro: noise sigma must be >= 0 "
                       r"and finite$"):
        euler_maruyama_step(path3(), np.zeros(3), DebateOperator.linear(),
                            0.1, sigma=sigma, rng=np.random.default_rng(0))


def test_reflection_keeps_domain():
    # large noise exercises the reflecting boundary on both sides
    g = random_graph(2, n=60)
    rng = np.random.default_rng(11)
    om = rng.uniform(-1.0, 1.0, g.n_nodes)
    lin = DebateOperator.linear()
    for _ in range(300):
        om = euler_maruyama_step(g, om, lin, 0.5, sigma=0.5, rng=rng)
        assert om.min() >= -1.0 and om.max() <= 1.0


def test_noise_is_reproducible():
    g = random_graph(4)
    om0 = np.random.default_rng(1).uniform(-1.0, 1.0, g.n_nodes)
    lin = DebateOperator.linear()
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(123)
        om = om0.copy()
        for _ in range(20):
            om = euler_maruyama_step(g, om, lin, 0.1, sigma=0.05, rng=rng)
        runs.append(om)
    np.testing.assert_array_equal(runs[0], runs[1])


FAULTS_PER_STEP = """
import resource
import numpy as np
from opinet import (DebateOperator, GraphConfig, ensure_connected,
                    euler_step, generate_community_graph)
graph = ensure_connected(generate_community_graph(GraphConfig(
    n_nodes=50000, n_groups=3, mean_degree=10.0, mixing_mu=0.05, seed=1)))
omega = np.random.default_rng(0).uniform(-1.0, 1.0, graph.n_nodes)
lin = DebateOperator.linear()
for _ in range(10):
    omega = euler_step(graph, omega, lin, 0.01)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(100):
    omega = euler_step(graph, omega, lin, 0.01)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 100)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts Linux minor page faults")
def test_micro_steps_do_not_fault_their_memory_in_again():
    # a step that frees several edge-sized temporaries at the heap top has
    # glibc hand that memory back and fault it in again on the next step,
    # ~950 minor faults per step on this 2.5e5-edge graph; in a fresh
    # interpreter, the steps after the first few fault in almost nothing
    src = os.path.dirname(os.path.dirname(opinet.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", FAULTS_PER_STEP], env=env,
                         check=True, capture_output=True, text=True)
    assert float(out.stdout) < 50


def test_the_linear_rhs_allocates_less_than_one_edge_array():
    # the neighbour sums gather into the graph's per-edge scratch, so the
    # right-hand side allocates only node-sized arrays; a form on the edge
    # differences allocated the head gather and the negated differences,
    # two edge-sized arrays
    g = ensure_connected(generate_community_graph(GraphConfig(
        n_nodes=50000, n_groups=3, mean_degree=10.0, mixing_mu=0.05,
        seed=1)))
    assert g.n_edges > 2.4e5
    om = np.random.default_rng(3).uniform(-1.0, 1.0, g.n_nodes)
    lin = DebateOperator.linear()
    micro_rhs(g, om, lin)   # builds the scratch and the float degrees
    tracemalloc.start()
    try:
        rhs = micro_rhs(g, om, lin)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * g.n_edges
    np.testing.assert_allclose(rhs, oracles.micro_rhs(g, om, lin),
                               rtol=0, atol=1e-14)
