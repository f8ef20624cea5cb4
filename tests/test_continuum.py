import tracemalloc

import numpy as np
import pytest

from opinet import (ConfigError, ContinuumParams, DebateOperator, GraphConfig,
                    Grid, LabeledFields, MixtureSpec, PairField, ScalarField,
                    bandwidth_select, cfl_max_dt, empirical_g_kde,
                    ensure_connected, generate_community_graph,
                    graph_from_pairs, sample_initial_opinions, split_by_group,
                    step_labeled, step_unlabeled)
from opinet.continuum import ContinuumStepper, stepper_for
from oracles import eta_discrete, llf_flux_f, llf_flux_g

LIN = DebateOperator.linear()


def speeds(g, grid):
    """Advection speeds of an unlabeled pair density (n, n)."""
    stepper = stepper_for(grid, LIN, ContinuumParams(dt=1.0))
    return stepper.speeds(np.asarray(g)[None, None])[0][0]


def kde_state(n_cells=48, seed=3):
    cfg = GraphConfig(n_nodes=120, n_groups=2, mean_degree=8.0,
                      mixing_mu=0.1, seed=seed)
    g = ensure_connected(generate_community_graph(cfg))
    om = sample_initial_opinions(g, MixtureSpec.crossing(),
                                 np.random.default_rng(seed))
    grid = Grid(n_cells)
    h = bandwidth_select(om)
    shares = np.bincount(g.community - 1, minlength=2) / g.n_nodes
    f = MixtureSpec.crossing().cell_averages(grid, shares)
    gk = empirical_g_kde(g, om, grid, h)
    return g, om, grid, h, f, gk


def test_eta_hand_value():
    eta = eta_discrete(np.array([[0.0, 2.0, 2.0, 0.0]]), 0.5, 1e-10)
    np.testing.assert_allclose(eta, [[0.0, 1.0, 1.0, 0.0]])


def test_eta_cutoff_zeroes_vacuum_rows():
    g = np.array([[1.0, 1.0], [1e-14, 1e-14]])
    eta = eta_discrete(g, 1.0, 1e-10)
    np.testing.assert_allclose(eta[1], 0.0)
    assert eta[0].sum() == pytest.approx(1.0)


def test_speeds_apply_the_eta_cutoff():
    # a row of label 0 with mass 1e-14 below the cutoff gets speed 0; every
    # other row is the eta-weighted mean of D over its label's blocks
    grid = Grid(12)
    params = ContinuumParams(eta_cutoff=1e-10)
    stepper = stepper_for(grid, DebateOperator.quartic(), params)
    rng = np.random.default_rng(4)
    g = rng.uniform(0.0, 1.0, (2, 2, 12, 12))
    g = g + g.transpose(1, 0, 3, 2)
    g[0, :, 5, :] *= 1e-14 / (grid.dx * g[0, :, 5, :].sum())
    a, rows = stepper.speeds(g)
    assert rows[0, 5] < params.eta_cutoff
    assert a[0, 5] == 0.0
    eta = eta_discrete(g.sum(axis=1), grid.dx, params.eta_cutoff)
    expect = grid.dx * np.einsum("pij,ij->pi", eta, stepper.dmat)
    np.testing.assert_allclose(a, expect, rtol=1e-13,
                               atol=1e-15 * np.max(np.abs(expect)))


def test_velocity_hand_value():
    # mass 1/4 at the four cells of a path whose sites are cell midpoints
    grid = Grid(8)
    vals = np.zeros((8, 8))
    for i, j in ((1, 3), (3, 1), (3, 6), (6, 3)):
        vals[i, j] = 0.25 / grid.dx ** 2
    a = speeds(vals, grid)
    expect = np.zeros(8)
    expect[1], expect[3], expect[6] = 0.5, 0.125, -0.75
    np.testing.assert_allclose(a, expect, atol=1e-12)


def test_velocity_vanishes_on_diagonal_mass():
    # opinions only meet equal opinions, so nothing moves
    grid = Grid(16)
    vals = np.diag(np.linspace(0.5, 1.5, 16))
    np.testing.assert_allclose(speeds(vals, grid), 0.0, atol=1e-14)


def test_velocity_scaling_invariance_is_exact():
    _, _, grid, _, _, gk = kde_state()
    np.testing.assert_array_equal(speeds(gk.values, grid),
                                  speeds(2.0 * gk.values, grid))


def test_velocity_is_bounded_by_operator_range():
    _, _, grid, _, _, gk = kde_state(seed=5)
    assert np.max(np.abs(speeds(gk.values, grid))) <= np.max(
        np.abs(LIN.d(np.array([-2.0, 2.0]))))


def test_llf_flux_hand_value():
    flux = llf_flux_f(np.array([2.0, 1.0]), np.array([0.1, 0.3]))
    # 0.5 * (a_l u_l + a_r u_r - (u_r - u_l) max(|a_l|, |a_r|))
    np.testing.assert_allclose(flux, [0.0, 0.4, 0.0])


def test_llf_boundary_fluxes_vanish():
    rng = np.random.default_rng(8)
    f = rng.uniform(0.0, 1.0, 33)
    a = rng.uniform(-1.0, 1.0, 33)
    flux = llf_flux_f(f, a)
    assert flux.shape == (34,)
    assert flux[0] == 0.0 and flux[-1] == 0.0


def test_llf_flux_g_mirror_symmetry():
    rng = np.random.default_rng(9)
    g = rng.uniform(0.0, 1.0, (12, 12))
    g = g + g.T
    a = rng.uniform(-1.0, 1.0, 12)
    fw, fm = llf_flux_g(g, a, a)
    np.testing.assert_array_equal(fm, fw.T)


def test_llf_flux_shape_checks():
    with pytest.raises(ConfigError):
        llf_flux_f(np.zeros(4), np.zeros(5))
    with pytest.raises(ConfigError):
        llf_flux_g(np.zeros((4, 3)), np.zeros(4), np.zeros(4))


def test_cfl_bound_values():
    # linear D spans [-2, 2], so |D| peaks at 2
    assert cfl_max_dt(Grid(303), LIN) == pytest.approx(1 / 606)
    assert cfl_max_dt(Grid(5), DebateOperator.zero()) == np.inf
    p = ContinuumParams(dt=1e-4, diffusion_sigma=0.05)
    assert cfl_max_dt(Grid(5), DebateOperator.zero(), p) == pytest.approx(
        0.4 ** 2 / (4 * 0.05))
    p2 = ContinuumParams(dt=1e-4, death_rate=100.0)
    assert cfl_max_dt(Grid(5), LIN, p2) == pytest.approx(0.01)


def test_step_rejects_dt_at_or_above_bound():
    # the step enforces the realized bound dx / (2 max|a|) of its own state,
    # which lies above the worst-case bound cfl_max_dt
    _, _, grid, _, f, gk = kde_state()
    bound = grid.dx / (2.0 * np.max(np.abs(speeds(gk.values, grid))))
    assert bound > cfl_max_dt(grid, LIN)
    for dt in (bound, 1.5 * bound, 0.0, -0.1, None):
        with pytest.raises(ConfigError, match="dt"):
            step_unlabeled(f, gk, LIN, ContinuumParams(dt=dt))
    step_unlabeled(f, gk, LIN, ContinuumParams(dt=0.99 * bound))


def test_params_validation():
    with pytest.raises(ConfigError):
        ContinuumParams(dt=0.001, diffusion_sigma=-1.0).validate()
    with pytest.raises(ConfigError):
        ContinuumParams(dt=0.001, birth_rate=-2.0).validate()
    with pytest.raises(ConfigError):
        ContinuumParams(dt=0.001, eta_cutoff=0.0).validate()


def test_grid_mismatch_rejected():
    _, _, grid, _, f, gk = kde_state()
    other = ScalarField(Grid(32), np.zeros(32))
    with pytest.raises(ConfigError):
        step_unlabeled(other, gk, LIN, ContinuumParams(dt=1e-3))


def test_conservation_positivity_symmetry():
    # one trajectory exercises the three structural scheme properties
    _, _, grid, _, f, gk = kde_state()
    params = ContinuumParams(dt=0.9 * cfl_max_dt(grid, LIN))
    mf0, mg0 = f.mass(), gk.mass()
    for k in range(300):
        f, gk = step_unlabeled(f, gk, LIN, params)
        if k % 60 == 0:
            assert f.values.min() >= 0.0 and gk.values.min() >= 0.0
    assert abs(f.mass() - mf0) < 1e-13
    assert abs(gk.mass() - mg0) < 1e-13
    assert f.values.min() >= 0.0 and gk.values.min() >= 0.0
    np.testing.assert_array_equal(gk.values, gk.values.T)


def test_f_trajectory_invariant_under_g_scaling():
    _, _, grid, _, f, gk = kde_state(seed=7)
    params = ContinuumParams(dt=0.9 * cfl_max_dt(grid, LIN))
    fa, ga = f, gk
    fb, gb = f, PairField(grid, 2.0 * gk.values)
    worst = 0.0
    for _ in range(50):
        fa, ga = step_unlabeled(fa, ga, LIN, params)
        fb, gb = step_unlabeled(fb, gb, LIN, params)
        worst = max(worst, float(np.max(np.abs(fa.values - fb.values))))
    assert worst < 1e-13


def test_single_group_matches_unlabeled_bitwise():
    g, om, grid, h, f, gk = kde_state()
    # collapse to one group: labeled arrays with k=1 must follow the same path
    lab = LabeledFields(grid, f.values[None, :].copy(),
                        gk.values[None, None, :, :].copy())
    params = ContinuumParams(dt=0.9 * cfl_max_dt(grid, LIN))
    fu, gu = f, gk
    for _ in range(50):
        fu, gu = step_unlabeled(fu, gu, LIN, params)
        lab = step_labeled(lab, LIN, params)
    np.testing.assert_array_equal(lab.f[0], fu.values)
    np.testing.assert_array_equal(lab.g[0, 0], gu.values)


def test_labeled_masses_conserved_per_block():
    g, om, grid, h, _, _ = kde_state(seed=11)
    lab = split_by_group(g, om, grid, h)
    shares = np.bincount(g.community - 1, minlength=2) / g.n_nodes
    fvals = np.stack([shares[c]
                      * MixtureSpec.crossing().community_cell_averages(
                          grid, c).values
                      for c in range(2)])
    lab = LabeledFields(grid, fvals, lab.g)
    params = ContinuumParams(dt=0.9 * cfl_max_dt(grid, LIN))
    mf0 = lab.f.sum(axis=1) * grid.dx
    mg0 = lab.g.sum(axis=(2, 3)) * grid.dx ** 2
    for _ in range(150):
        lab = step_labeled(lab, LIN, params)
    np.testing.assert_allclose(lab.f.sum(axis=1) * grid.dx, mf0, atol=1e-13)
    np.testing.assert_allclose(lab.g.sum(axis=(2, 3)) * grid.dx ** 2, mg0,
                               atol=1e-13)
    # cross blocks stay transposes of each other
    np.testing.assert_array_equal(lab.g[0, 1], lab.g[1, 0].T)


def test_diffusion_variance_growth():
    """With D = 0 the scheme is a pure heat equation; away from the
    boundary the discrete second moment grows by exactly 2 sigma t."""
    grid = Grid(101)
    mix = MixtureSpec((((1.0, 0.0, 0.1),),))
    f = mix.cell_averages(grid, [1.0])
    gk = PairField(grid, np.outer(f.values, f.values))
    zero = DebateOperator.zero()
    sigma = 0.005
    steps, t_end = 60, 0.5
    params = ContinuumParams(dt=t_end / steps, diffusion_sigma=sigma)

    def variance(field):
        m = np.sum(field.values * grid.mids) * grid.dx
        return np.sum(field.values * (grid.mids - m) ** 2) * grid.dx

    v0 = variance(f)
    for _ in range(steps):
        f, gk = step_unlabeled(f, gk, zero, params)
    assert variance(f) - v0 == pytest.approx(2 * sigma * t_end, rel=1e-10)
    assert f.mass() == pytest.approx(1.0, abs=1e-12)


def test_birth_death_exact_update():
    # with D = 0 and sigma = 0 the transport stage is the identity, so one
    # step applies exactly g + dt (birth f x f - death g)
    grid = Grid(21)
    mix = MixtureSpec((((1.0, 0.0, 0.2),),))
    f = mix.cell_averages(grid, [1.0])
    g0 = np.outer(f.values, f.values)
    gk = PairField(grid, g0.copy())
    zero = DebateOperator.zero()
    params = ContinuumParams(dt=0.01, birth_rate=2.0, death_rate=3.0)
    f1, g1 = step_unlabeled(f, gk, zero, params)
    np.testing.assert_array_equal(f1.values, f.values)
    expect = g0 + 0.01 * (2.0 * np.outer(f.values, f.values) - 3.0 * g0)
    np.testing.assert_array_equal(g1.values, expect)


def test_birth_death_labeled_blocks():
    grid = Grid(21)
    mix = MixtureSpec.crossing()
    fvals = np.stack([0.5 * mix.community_cell_averages(grid, c).values
                      for c in range(2)])
    gvals = np.einsum("pi,qj->pqij", fvals, fvals)
    lab = LabeledFields(grid, fvals, gvals.copy())
    params = ContinuumParams(dt=0.05, birth_rate=1.5, death_rate=0.5)
    out = step_labeled(lab, DebateOperator.zero(), params)
    for p in range(2):
        for q in range(2):
            expect = gvals[p, q] + 0.05 * (
                1.5 * np.outer(fvals[p], fvals[q]) - 0.5 * gvals[p, q])
            np.testing.assert_array_equal(out.g[p, q], expect)


def test_death_rate_tightens_dt_bound():
    grid = Grid(21)
    mix = MixtureSpec((((1.0, 0.0, 0.2),),))
    f = mix.cell_averages(grid, [1.0])
    gk = PairField(grid, np.outer(f.values, f.values))
    params = ContinuumParams(dt=0.5, death_rate=2.0)
    with pytest.raises(ConfigError):
        step_unlabeled(f, gk, DebateOperator.zero(), params)


def random_state(rng, grid, k):
    """A normalized random (f, g) with k labels and g[q, p] = g[p, q].T."""
    n = grid.n_cells
    f = rng.uniform(0.0, 1.0, (k, n))
    g = rng.uniform(0.0, 1.0, (k, k, n, n))
    g = g + g.transpose(1, 0, 3, 2)
    return f / (grid.dx * f.sum()), g / (grid.dx ** 2 * g.sum())


def test_a_shared_stepper_leaks_nothing_between_states():
    # a run advances its k = 1 and k = 3 closures on one stepper, whose
    # scratch buffers serve both; every step must equal a fresh stepper's
    grid = Grid(37)
    params = ContinuumParams(diffusion_sigma=1e-3, birth_rate=0.2,
                             death_rate=0.3)
    shared = ContinuumStepper(grid, LIN, params)
    rng = np.random.default_rng(11)
    for k in (1, 3, 1, 3, 3, 1, 1):
        f, g = random_state(rng, grid, k)
        dt = 0.5 * shared.max_dt(f, g)[0]
        f1, g1 = shared.advance(f, g, dt)
        f2, g2 = ContinuumStepper(grid, LIN, params).advance(f, g, dt)
        assert np.array_equal(f1.view(np.int64), f2.view(np.int64))
        assert np.array_equal(g1.view(np.int64), g2.view(np.int64))


def traced(call):
    """call() under tracemalloc: its result, the bytes it leaves allocated
    and its peak, both counted from the start of the call."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return out, held - before, peak - before


def test_a_step_allocates_only_its_outputs():
    n = 200
    grid = Grid(n)
    params = ContinuumParams(diffusion_sigma=1e-3, birth_rate=0.2,
                             death_rate=0.3)
    stepper = ContinuumStepper(grid, LIN, params)
    # k = 3 covers the off-diagonal blocks, which read their mirror's
    # transpose and are written back transposed
    for k in (1, 3):
        f, g = random_state(np.random.default_rng(5), grid, k)
        dt = 0.5 * stepper.max_dt(f, g)[0]
        stepper.advance(f, g, dt)
        out, _, peak = traced(lambda: stepper.advance(f, g, dt))
        assert out[1].shape == g.shape
        # the new f and g, and O(n) bytes of speeds and face weights; one
        # n x n temporary alone would be six times the margin
        assert peak < f.nbytes + g.nbytes + 32 * 8 * n, k


def test_a_stepper_holds_its_d_matrix_and_two_blocks():
    n = 200
    stepper, held, _ = traced(
        lambda: ContinuumStepper(Grid(n), LIN, ContinuumParams()))
    assert stepper.dmat.shape == (n, n)
    # D and two n x n scratch blocks, 3 n^2 floats, and O(n) bytes besides
    assert held < 3 * 8 * n * n + 32 * 8 * n
