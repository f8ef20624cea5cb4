"""Acceptance suite: one test per advertised guarantee of the package.

Each test pins its tolerances inline and reports measured numbers in the
assertion message, so a red line carries the evidence with it.  Desk scale
throughout: 200 agents, 101 cells, mean degree 10.
"""

import numpy as np
import pytest
from dataclasses import replace

from opinet import (ContinuumParams, DebateOperator, GraphConfig, Grid,
                    LabeledFields, MixtureSpec, PairField, ScalarField,
                    bandwidth_select, build_initial_state, cfl_max_dt,
                    consensus_value, consensus_value_cont, conserved_quantity,
                    e_micro, empirical_f, empirical_g_kde, ensure_connected,
                    euler_maruyama_step, euler_step, fit_exponential_rate,
                    generate_community_graph, lyapunov_tilde, micro_rhs,
                    preset_crossing, preset_three_communities,
                    run_experiment, sample_initial_opinions, split_by_group,
                    step_labeled, step_unlabeled)
from opinet.continuum import ContinuumStepper
from oracles import (eta_discrete, graph_from_pairs, neighbor_lists,
                     spectral_gap)

LIN = DebateOperator.linear()


def desk_graph(mu, seed):
    cfg = GraphConfig(n_nodes=200, n_groups=3, mean_degree=10.0,
                      mixing_mu=mu, seed=seed)
    return ensure_connected(generate_community_graph(cfg))


def micro_series(graph, omega, dt, t_end, sample_every):
    """Euler trajectory with E_micro sampled every sample_every time units."""
    per = int(round(sample_every / dt))
    chunks = int(round(t_end / sample_every))
    times = np.arange(chunks + 1) * sample_every
    series = np.empty(chunks + 1)
    series[0] = e_micro(graph, omega)
    for k in range(1, chunks + 1):
        for _ in range(per):
            omega = euler_step(graph, omega, LIN, dt)
        series[k] = e_micro(graph, omega)
    return times, series, omega


def first_moment(grid, g_vals):
    return float(grid.dx ** 2 * np.sum(grid.mids[:, None] * g_vals))


def unlabeled_state(config):
    """A run's grid and its unlabeled initial (f, g)."""
    _, _, grid, fields = build_initial_state(config)
    lab = fields["cont_unlabeled"]
    return grid, ScalarField(grid, lab.f[0]), PairField(grid, lab.g[0, 0])


def test_a01_micro_conservation():
    # degree-weighted opinion sum drifts below 1e-9 relative over T=30
    config = preset_three_communities()
    graph, omega, _, _ = build_initial_state(config)
    c0 = conserved_quantity(graph, omega)
    for _ in range(3000):
        omega = euler_step(graph, omega, LIN, 0.01)
    drift = abs(conserved_quantity(graph, omega) - c0) / graph.degrees.sum()
    assert drift < 1e-9, "conserved quantity drift %.3e exceeds 1e-9" % drift


def test_a02_micro_consensus_all_mu():
    # every agent within 1e-4 of the predicted consensus at T=30
    config = preset_three_communities()
    misses = []
    for mu in (1e-3, 1e-2, 1e-1, 0.5):
        cfg = replace(config, graph=replace(config.graph, mixing_mu=mu))
        graph, omega, _, _ = build_initial_state(cfg)
        target = consensus_value(graph, omega)
        for _ in range(3000):
            omega = euler_step(graph, omega, LIN, 0.01)
        dev = float(np.max(np.abs(omega - target)))
        if dev >= 1e-4:
            # the slowest mode decays at a rate of at most lambda_2 over
            # the least degree, so a 1e4-fold decay needs lambda_2 T > 9.2
            gap = spectral_gap(graph)
            misses.append("mu=%g: max deviation %.3e, lambda_2 %.3g, "
                          "lambda_2*T %.3g" % (mu, dev, gap, 30 * gap))
    assert not misses, \
        "consensus not reached by T=30 at: " + "; ".join(misses)


def test_a03_rate_lower_bound():
    # fitted decay rate of E_micro beats 0.9 * spectral_gap / max_degree
    rows = []
    ok = True
    for s in range(5):
        graph = desk_graph(0.1, 100 + s)
        omega = sample_initial_opinions(graph, MixtureSpec.three_communities(),
                                        np.random.default_rng(200 + s))
        times, series, _ = micro_series(graph, omega, 0.01, 8.0, 0.1)
        rate, _ = fit_exponential_rate(times, series, t_lo=2.0, t_hi=8.0,
                                       floor_factor=None)
        bound = 0.9 * spectral_gap(graph) / graph.degrees.max()
        rows.append("seed %d: rate %.4f vs bound %.4f" % (s, rate, bound))
        ok = ok and rate >= bound
    assert ok, "rate bound violated: " + "; ".join(rows)


def test_a04_hull_property_and_power():
    # inside the step-size bound every opinion stays in its neighborhood hull
    rng = np.random.default_rng(5150)
    for _ in range(1000):
        n = int(rng.integers(5, 41))
        cfg = GraphConfig(n_nodes=n, n_groups=1,
                          mean_degree=float(rng.uniform(2.0, min(6.0, n - 2))),
                          seed=int(rng.integers(1 << 30)))
        graph = ensure_connected(generate_community_graph(cfg))
        omega = rng.uniform(-1.0, 1.0, n)
        dt = float(rng.uniform(0.01, 1.0))
        new = euler_step(graph, omega, LIN, dt)
        for i, nbrs in enumerate(neighbor_lists(graph)):
            hood = np.append(nbrs, i)
            lo, hi = omega[hood].min(), omega[hood].max()
            assert lo - 1e-12 <= new[i] <= hi + 1e-12, \
                "hull violated at node %d with dt=%.3f" % (i, dt)
    # sanity of test power: 4x the bound must produce violations
    violations = 0
    for _ in range(200):
        n = int(rng.integers(5, 41))
        cfg = GraphConfig(n_nodes=n, n_groups=1,
                          mean_degree=float(rng.uniform(2.0, min(6.0, n - 2))),
                          seed=int(rng.integers(1 << 30)))
        graph = ensure_connected(generate_community_graph(cfg))
        omega = rng.uniform(-1.0, 1.0, n)
        new = omega + 4.0 * micro_rhs(graph, omega, LIN)  # bound bypassed
        for i, nbrs in enumerate(neighbor_lists(graph)):
            hood = np.append(nbrs, i)
            if not (omega[hood].min() - 1e-12 <= new[i]
                    <= omega[hood].max() + 1e-12):
                violations += 1
    assert violations > 0, "oversized steps never left the hull"


@pytest.fixture(scope="module")
def scheme_trajectory():
    """10^4 unlabeled steps at dt = 0.9 dx / (2 ||D||) shared by a05-a07."""
    grid, f, g = unlabeled_state(preset_three_communities())
    params = ContinuumParams(dt=0.9 * cfl_max_dt(grid, LIN))
    mf0, mg0 = f.mass(), g.mass()
    min_f = min_g = np.inf
    for _ in range(10_000):
        f, g = step_unlabeled(f, g, LIN, params)
        min_f = min(min_f, float(f.values.min()))
        min_g = min(min_g, float(g.values.min()))
    return {"mass_drift_f": abs(f.mass() - mf0) / mf0,
            "mass_drift_g": abs(g.mass() - mg0) / mg0,
            "min_f": min_f, "min_g": min_g,
            "asym": float(np.max(np.abs(g.values - g.values.T))),
            "exact_sym": bool(np.array_equal(g.values, g.values.T))}


def test_a05_scheme_mass_conservation(scheme_trajectory):
    r = scheme_trajectory
    assert r["mass_drift_f"] < 1e-12 and r["mass_drift_g"] < 1e-12, \
        "mass drift f %.3e, g %.3e over 1e4 steps" % (
            r["mass_drift_f"], r["mass_drift_g"])


def test_a06_scheme_bit_symmetry(scheme_trajectory):
    r = scheme_trajectory
    assert r["exact_sym"], \
        "g symmetry broken after 1e4 steps, max |g - g.T| = %.3e" % r["asym"]


def test_a07_scheme_positivity(scheme_trajectory):
    r = scheme_trajectory
    assert r["min_f"] >= 0.0 and r["min_g"] >= 0.0, \
        "negative values appeared: min f %.3e, min g %.3e" % (
            r["min_f"], r["min_g"])


def test_a08_scaling_invariance():
    # doubling g leaves the f-trajectory unchanged to 1e-13 per step
    grid, f, g = unlabeled_state(preset_crossing())
    params = ContinuumParams(dt=0.9 * cfl_max_dt(grid, LIN))
    fa, ga = f, g
    fb, gb = f, PairField(grid, 2.0 * g.values)
    worst = 0.0
    for _ in range(100):
        fa, ga = step_unlabeled(fa, ga, LIN, params)
        fb, gb = step_unlabeled(fb, gb, LIN, params)
        worst = max(worst, float(np.max(np.abs(fa.values - fb.values))))
    assert worst < 1e-13, "f-trajectories diverged by %.3e per step" % worst


def test_a09_moment_defect_halving():
    """First-order moment conservation: halving dx halves the defect.

    The check needs the solution to stay resolved through T=2, so it uses
    a broad bimodal population; spike-width features break the scaling for
    any first-order scheme once they reach cell size."""
    mix = MixtureSpec((((0.5, -0.4, 0.15), (0.5, 0.4, 0.15)),))
    cfg = GraphConfig(n_nodes=200, n_groups=1, mean_degree=10.0,
                      mixing_mu=0.0, seed=12)
    graph = ensure_connected(generate_community_graph(cfg))
    omega = sample_initial_opinions(graph, mix, np.random.default_rng(23))
    h = bandwidth_select(omega)

    def defect(n_cells, t_end=2.0):
        grid = Grid(n_cells)
        f = mix.cell_averages(grid, [1.0])
        g = empirical_g_kde(graph, omega, grid, h)
        steps = int(np.ceil(t_end / (0.9 * cfl_max_dt(grid, LIN))))
        params = ContinuumParams(dt=t_end / steps)
        m0 = first_moment(grid, g.values)
        for _ in range(steps):
            f, g = step_unlabeled(f, g, LIN, params)
        return abs(first_moment(grid, g.values) - m0)

    d_coarse, d_fine = defect(101), defect(202)
    ratio = d_fine / d_coarse
    assert 0.4 <= ratio <= 0.6, \
        "defect ratio %.3f (coarse %.3e, fine %.3e) outside [0.4, 0.6]" % (
            ratio, d_coarse, d_fine)


def test_a10_lyapunov_slack():
    # labeled three-community run: V never rises by more than 10 dx dt
    config = preset_three_communities()
    _, _, grid, fields = build_initial_state(config)
    lab = fields["cont_labeled"]
    dt = 0.9 * cfl_max_dt(grid, LIN)
    params = ContinuumParams(dt=dt)
    slack = 10.0 * grid.dx * dt
    steps = int(np.ceil(config.continuum.t_end / dt))
    v = lyapunov_tilde(lab, LIN)
    worst = -np.inf
    for _ in range(steps):
        lab = step_labeled(lab, LIN, params)
        v_new = lyapunov_tilde(lab, LIN)
        worst = max(worst, v_new - v)
        v = v_new
    assert worst <= slack, \
        "V increment %.3e exceeds slack %.3e" % (worst, slack)


def test_a11_rate_increases_with_mu():
    # median fitted micro rate is strictly increasing in the mixing
    mus = (1e-3, 1e-2, 1e-1, 0.5)
    medians = []
    for mu in mus:
        rates = []
        for s in range(5):
            graph = desk_graph(mu, 100 + s)
            omega = sample_initial_opinions(
                graph, MixtureSpec.three_communities(),
                np.random.default_rng(200 + s))
            times, series, _ = micro_series(graph, omega, 0.01, 30.0, 0.1)
            rate, _ = fit_exponential_rate(times, series, t_lo=6.0)
            rates.append(rate)
        medians.append(float(np.median(rates)))
    pairs = ", ".join("mu=%g: %.4g" % (m, r) for m, r in zip(mus, medians))
    assert all(a < b for a, b in zip(medians, medians[1:])), \
        "rates not strictly increasing: " + pairs


def test_a12_labeling_matters(tmp_path):
    """At mu=1e-3 with crossing initial data the labeled continuum tracks
    the micro rate and the unlabeled one stalls in a spike near zero."""
    base = preset_crossing()
    diffs_lab, diffs_unl = [], []
    for s in range(5):
        config = replace(base, seed=2 + s,
                         output_dir=str(tmp_path / str(s)))
        report = run_experiment(config)
        t_lo = 0.2 * config.micro.t_end
        r_mic, r_lab, r_unl = (
            fit_exponential_rate(report.t, report.series[name], t_lo=t_lo)[0]
            for name in ("E_micro", "E_cont_labeled", "E_cont_unlabeled"))
        diffs_lab.append(abs(r_lab - r_mic))
        diffs_unl.append(abs(r_unl - r_mic))
    med_lab = float(np.median(diffs_lab))
    med_unl = float(np.median(diffs_unl))
    assert med_lab < med_unl, \
        "labeled rate gap %.4f not below unlabeled gap %.4f" % (
            med_lab, med_unl)

    # stationary-spike detection; 1000 agents sharpen the unlabeled spike
    # and by T=2.5 the bulks have crossed and separated again
    ratios = []
    for s in range(5):
        cfg = GraphConfig(n_nodes=1000, n_groups=2, mean_degree=10.0,
                          mixing_mu=1e-3, seed=300 + s)
        graph = ensure_connected(generate_community_graph(cfg))
        omega = sample_initial_opinions(graph, base.mixture,
                                        np.random.default_rng(400 + s))
        grid = Grid(101)
        shares = np.bincount(graph.community - 1, minlength=2) / 1000
        h = bandwidth_select(omega)
        f_unl = base.mixture.cell_averages(grid, shares)
        g_unl = empirical_g_kde(graph, omega, grid, h)
        lab = LabeledFields(
            grid, base.mixture.weighted_cell_averages(grid, shares),
            split_by_group(graph, omega, grid, h).g)
        dt_bound = 0.9 * cfl_max_dt(grid, LIN)
        steps = int(np.ceil(2.5 / dt_bound))
        params = ContinuumParams(dt=2.5 / steps)
        for _ in range(steps):
            f_unl, g_unl = step_unlabeled(f_unl, g_unl, LIN, params)
            lab = step_labeled(lab, LIN, params)
        window = np.abs(grid.mids) <= 0.15
        peak_unl = float(f_unl.values[window].max())
        peak_lab = float(lab.f.sum(axis=0)[window].max())
        ratios.append(peak_unl / peak_lab)
    med_ratio = float(np.median(ratios))
    assert med_ratio > 3.0, \
        "unlabeled/labeled peak ratio %.2f not above 3 (per seed: %s)" % (
            med_ratio, ", ".join("%.2f" % r for r in ratios))


def test_a13_single_group_reduction():
    # one labeled group must reproduce the unlabeled run bit for bit
    mix = MixtureSpec((((0.5, -0.4, 0.15), (0.5, 0.4, 0.15)),))
    cfg = GraphConfig(n_nodes=200, n_groups=1, mean_degree=10.0,
                      mixing_mu=0.0, seed=40)
    graph = ensure_connected(generate_community_graph(cfg))
    omega = sample_initial_opinions(graph, mix, np.random.default_rng(41))
    grid = Grid(101)
    h = bandwidth_select(omega)
    f = mix.cell_averages(grid, [1.0])
    g = empirical_g_kde(graph, omega, grid, h)
    lab = LabeledFields(grid, f.values[None, :].copy(),
                        g.values[None, None, :, :].copy())
    params = ContinuumParams(dt=0.9 * cfl_max_dt(grid, LIN))
    for _ in range(100):
        f, g = step_unlabeled(f, g, LIN, params)
        lab = step_labeled(lab, LIN, params)
        assert np.array_equal(lab.f[0], f.values) \
            and np.array_equal(lab.g[0, 0], g.values), \
            "labeled k=1 run departed from the unlabeled run"


def test_a14_noise_variance():
    # on an edgeless graph the drift is exactly 0, so the agents are
    # independent reflected random walks; far from the boundary their
    # variance grows like 2 sigma t
    n = 10_000
    isolated = graph_from_pairs(n, np.empty((0, 2), np.int64))
    omega = np.zeros(n)
    rng = np.random.default_rng(77)
    sigma, dt, t_end = 0.01, 0.01, 0.5
    for _ in range(int(round(t_end / dt))):
        omega = euler_maruyama_step(isolated, omega, LIN, dt, sigma, rng)
    var = float(np.var(omega))
    expect = 2 * sigma * t_end
    assert abs(var - expect) / expect < 0.05, \
        "variance %.5f vs 2 sigma t = %.5f (rel err %.3f)" % (
            var, expect, abs(var - expect) / expect)


def test_a15_three_node_oracle():
    # every stage of the pipeline against hand-derived numbers, tol 1e-10
    tol = 1e-10
    graph = graph_from_pairs(3, [(0, 1), (1, 2)])
    grid = Grid(8)

    # empirical one-body density: three cells of height 1/(3 dx)
    f = empirical_f(np.array([-0.5, 0.0, 0.5]), grid)
    expect_f = np.zeros(8)
    expect_f[[2, 4, 6]] = 1 / (3 * grid.dx)
    assert np.max(np.abs(f.values - expect_f)) < tol

    # KDE with h = dx/7.5: each directed edge splits evenly over a 2x2
    # block because the sites fall exactly between midpoints
    g = empirical_g_kde(graph, np.array([-0.5, 0.0, 0.5]), grid,
                        grid.dx / 7.5)
    cell_mass = g.values * grid.dx ** 2
    expect_g = np.zeros((8, 8))
    for i, j in ((1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (3, 6), (4, 5),
                 (4, 6)):
        expect_g[i, j] = expect_g[j, i] = 1 / 16
    assert np.max(np.abs(cell_mass - expect_g)) < tol

    # eta and velocity on a hand-built pair density at midpoint sites
    vals = np.zeros((8, 8))
    for i, j in ((1, 3), (3, 1), (3, 6), (6, 3)):
        vals[i, j] = 0.25 / grid.dx ** 2
    eta = eta_discrete(vals, grid.dx, 1e-10)
    assert abs(eta[3, 1] - 2.0) < tol and abs(eta[3, 6] - 2.0) < tol
    a, _ = ContinuumStepper(grid, ContinuumParams(dt=1.0)).speeds(
        vals[None, None])
    expect_a = np.zeros(8)
    expect_a[1], expect_a[3], expect_a[6] = 0.5, 0.125, -0.75
    assert np.max(np.abs(a[0] - expect_a)) < tol

    # consensus values: micro and continuum predictions coincide
    assert abs(consensus_value(graph, np.array([-0.5, 0.0, 0.5]))) < tol
    assert abs(consensus_value_cont(g)) < tol
    om2 = np.array([-0.625, -0.125, 0.625])
    assert abs(consensus_value(graph, om2) + 0.0625) < tol
    assert abs(consensus_value_cont(PairField(grid, vals)) + 0.0625) < tol
