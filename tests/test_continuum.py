import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from opinet import (ConfigError, ContinuumParams, DebateOperator, GraphConfig,
                    Grid, LabeledFields, MixtureSpec, PairField, ScalarField,
                    bandwidth_select, cfl_max_dt, empirical_g_kde,
                    ensure_connected, generate_community_graph,
                    sample_initial_opinions, split_by_group, step_labeled,
                    step_unlabeled)
from opinet.continuum import ContinuumStepper
from opinet.runner import CFL_SAFETY
from oracles import (bivariate_normal_state, difference_matrix, eta_discrete,
                     llf_flux_f, llf_flux_g)

LIN = DebateOperator.linear()


def speeds(g, grid):
    """Advection speeds of an unlabeled pair density (n, n)."""
    stepper = ContinuumStepper(grid, ContinuumParams(dt=1.0))
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
    stepper = ContinuumStepper(grid, params)
    rng = np.random.default_rng(4)
    g = rng.uniform(0.0, 1.0, (2, 2, 12, 12))
    g = g + g.transpose(1, 0, 3, 2)
    g[0, :, 5, :] *= 1e-14 / (grid.dx * g[0, :, 5, :].sum())
    a, rows = stepper.speeds(g)
    assert rows[0, 5] < params.eta_cutoff
    assert a[0, 5] == 0.0
    eta = eta_discrete(g.sum(axis=1), grid.dx, params.eta_cutoff)
    expect = grid.dx * np.einsum("pij,ij->pi", eta,
                                 difference_matrix(grid, LIN.d))
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
    # diffusion joins the transport limit, dt (2 |D| / dx + 4 sigma / dx^2)
    # < 1, at dx = 0.4
    p = ContinuumParams(dt=1e-4, diffusion_sigma=0.05)
    assert cfl_max_dt(Grid(5), LIN, p) == pytest.approx(
        1 / (2 * 2 / 0.4 + 4 * 0.05 / 0.4 ** 2))
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
    """At zero speed, the speeds of D = 0, the scheme is a pure heat
    equation; away from the boundary the discrete second moment grows by
    exactly 2 sigma t."""
    grid = Grid(101)
    mix = MixtureSpec((((1.0, 0.0, 0.1),),))
    f = mix.cell_averages(grid, [1.0])
    gk = PairField(grid, np.outer(f.values, f.values))
    sigma = 0.005
    steps, t_end = 60, 0.5
    params = ContinuumParams(dt=t_end / steps, diffusion_sigma=sigma)

    def variance(field):
        m = np.sum(field.values * grid.mids) * grid.dx
        return np.sum(field.values * (grid.mids - m) ** 2) * grid.dx

    v0 = variance(f)
    for _ in range(steps):
        f, gk = step_unlabeled(f, gk, LIN, params, speeds=np.zeros((1, 101)))
    assert variance(f) - v0 == pytest.approx(2 * sigma * t_end, rel=1e-10)
    assert f.mass() == pytest.approx(1.0, abs=1e-12)


def test_birth_death_exact_update():
    # at zero speed and sigma = 0 the transport stage is the identity, so one
    # step applies exactly the splitting stage g (1 - dt d) + dt b f x f,
    # in the stepper's order (each half of the diagonal block takes half
    # the birth term, prescaled), and g + dt (b f x f - d g) up to
    # round-off
    grid = Grid(21)
    mix = MixtureSpec((((1.0, 0.0, 0.2),),))
    f = mix.cell_averages(grid, [1.0])
    g0 = np.outer(f.values, f.values)
    gk = PairField(grid, g0.copy())
    params = ContinuumParams(dt=0.01, birth_rate=2.0, death_rate=3.0)
    f1, g1 = step_unlabeled(f, gk, LIN, params, speeds=np.zeros((1, 21)))
    np.testing.assert_array_equal(f1.values, f.values)
    half = g0 * (0.5 * (1.0 - 0.01 * 3.0))
    half += np.outer((0.5 * (0.01 * 2.0)) * f.values, f.values)
    np.testing.assert_array_equal(g1.values, half + half.T)
    unsplit = g0 + 0.01 * (2.0 * np.outer(f.values, f.values) - 3.0 * g0)
    np.testing.assert_allclose(g1.values, unsplit, rtol=1e-15, atol=0)


def test_birth_death_labeled_blocks():
    grid = Grid(21)
    mix = MixtureSpec.crossing()
    fvals = np.stack([0.5 * mix.community_cell_averages(grid, c).values
                      for c in range(2)])
    gvals = np.einsum("pi,qj->pqij", fvals, fvals)
    lab = LabeledFields(grid, fvals, gvals.copy())
    params = ContinuumParams(dt=0.05, birth_rate=1.5, death_rate=0.5)
    out = step_labeled(lab, LIN, params, speeds=np.zeros((2, 21)))
    for p in range(2):
        for q in range(2):
            # a diagonal block takes half the prescaled birth term on each
            # side of its mirror sum; the block above the diagonal takes
            # all of it after the sum, and the block below is its transpose
            if p == q:
                half = gvals[p, p] * (0.5 * (1.0 - 0.05 * 0.5))
                half += np.outer((0.5 * (0.05 * 1.5)) * fvals[p], fvals[p])
                expect = half + half.T
            else:
                lo, hi = min(p, q), max(p, q)
                expect = gvals[lo, hi] * (1.0 - 0.05 * 0.5)
                expect += np.outer((0.05 * 1.5) * fvals[lo], fvals[hi])
                if p > q:
                    expect = expect.T
            np.testing.assert_array_equal(out.g[p, q], expect)
            unsplit = gvals[p, q] + 0.05 * (
                1.5 * np.outer(fvals[p], fvals[q]) - 0.5 * gvals[p, q])
            np.testing.assert_allclose(out.g[p, q], unsplit, rtol=1e-15,
                                       atol=0)


def test_death_rate_tightens_dt_bound():
    grid = Grid(21)
    mix = MixtureSpec((((1.0, 0.0, 0.2),),))
    f = mix.cell_averages(grid, [1.0])
    gk = PairField(grid, np.outer(f.values, f.values))
    params = ContinuumParams(dt=0.5, death_rate=2.0)
    with pytest.raises(ConfigError):
        step_unlabeled(f, gk, LIN, params, speeds=np.zeros((1, 21)))


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
    shared = ContinuumStepper(grid, params)
    rng = np.random.default_rng(11)
    for k in (1, 3, 1, 3, 3, 1, 1):
        f, g = random_state(rng, grid, k)
        bound, a, _ = shared.check(f, g)
        f1, g1 = shared.advance(f, g, 0.5 * bound, a)
        fresh = ContinuumStepper(grid, params)
        f2, g2 = fresh.advance(f, g, 0.5 * bound, fresh.speeds(g)[0])
        assert np.array_equal(f1.view(np.int64), f2.view(np.int64))
        assert np.array_equal(g1.view(np.int64), g2.view(np.int64))


def test_concurrent_steps_match_serial_steps():
    # two threads, each stepping its own k = 3 state through step_labeled
    # on one shared grid with equal params, must each get its serial result
    grid = Grid(202)
    params = ContinuumParams(diffusion_sigma=1e-3, birth_rate=0.1,
                             death_rate=0.1)
    params = replace(params, dt=0.9 * cfl_max_dt(grid, LIN, params))
    rng = np.random.default_rng(7)
    starts = [LabeledFields(grid, *random_state(rng, grid, 3))
              for _ in range(2)]

    def steps(fields, ready=None):
        if ready is not None:
            ready.wait(timeout=30)
        for _ in range(30):
            fields = step_labeled(fields, LIN, params)
        return fields

    serial = [steps(fields) for fields in starts]
    for _ in range(5):
        ready = threading.Barrier(2)
        out = [None, None]

        def run(i):
            out[i] = steps(starts[i], ready)
        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        for got, want in zip(out, serial):
            assert np.array_equal(got.f.view(np.int64), want.f.view(np.int64))
            assert np.array_equal(got.g.view(np.int64), want.g.view(np.int64))


@pytest.mark.parametrize("grid_cells, sigma, message", [
    (13, 1e-3, "n_cells=13, not 12"),
    (12, 0.0, "diffusion_sigma=0, not 0.001")])
def test_a_step_refuses_a_stepper_built_for_other_cells_or_params(
        grid_cells, sigma, message):
    grid = Grid(12)
    params = ContinuumParams(dt=1e-3, diffusion_sigma=1e-3)
    stepper = ContinuumStepper(Grid(grid_cells),
                               replace(params, diffusion_sigma=sigma))
    fields = LabeledFields(grid, *random_state(np.random.default_rng(1),
                                               grid, 2))
    with pytest.raises(ConfigError, match="^continuum: stepper built for "
                       + message + "$"):
        step_labeled(fields, LIN, params, stepper=stepper)
    # the stepper of its own cells and params steps it as a fresh one does
    mine = step_labeled(fields, LIN, params,
                        stepper=ContinuumStepper(grid, params))
    fresh = step_labeled(fields, LIN, params)
    assert np.array_equal(mine.g.view(np.int64), fresh.g.view(np.int64))


def test_a_gaussian_pair_density_contracts_as_the_exact_solution():
    # for D(z) = -z a bivariate normal g of correlation rho keeps rho and
    # var(f) decays as exp(-2 (1 - rho) t), so E decays at rate 1 - rho;
    # the first-order scheme's numerical diffusion shows as extra variance
    # and lost correlation, which halve with each refinement (measured:
    # +10.3% / +4.67% / +2.21% and rho(T) 0.558 / 0.580 / 0.590)
    sd, rho, t_end = 0.12, 0.6, 1.0
    errors, rhos = [], []
    for n in (101, 202, 404):
        grid = Grid(n)
        mids, dx = grid.mids, grid.dx
        stepper = ContinuumStepper(grid, ContinuumParams())
        f, g = bivariate_normal_state(grid, sd, rho)
        var0 = dx * np.sum(mids ** 2 * f[0])
        t_left = t_end
        bound, a, _ = stepper.check(f, g)
        while t_left > 0:
            # the runner's adaptive step; the last one takes what is left
            dt = t_left / max(1, int(np.ceil(t_left / (CFL_SAFETY * bound))))
            t_left -= dt
            f, g = stepper.advance(f, g, dt, a)
            bound, a, _ = stepper.check(f, g)
        mean = dx * np.sum(mids * f[0])
        var = dx * np.sum(mids ** 2 * f[0]) - mean ** 2
        errors.append(var / (var0 * np.exp(-2.0 * (1.0 - rho) * t_end)) - 1)
        # the correlation of g's two axes, from g's own moments
        m1, m2, cross = (dx ** 2 * np.sum(w * g[0, 0]) for w in (
            mids[:, None], mids[:, None] ** 2, np.outer(mids, mids)))
        rhos.append((cross - m1 ** 2) / (m2 - m1 ** 2))
    assert all(e > 0 for e in errors), errors
    # first order in dx
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.8 <= coarse / fine <= 2.6, errors
    assert rhos[0] < rhos[1] < rhos[2] < rho, rhos


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
    stepper = ContinuumStepper(grid, params)
    # k = 3 covers the off-diagonal blocks, which read their mirror's
    # transpose and are written back transposed
    for k in (1, 3):
        f, g = random_state(np.random.default_rng(5), grid, k)
        bound, a, _ = stepper.check(f, g)
        stepper.advance(f, g, 0.5 * bound, a)
        out, _, peak = traced(lambda: stepper.advance(f, g, 0.5 * bound, a))
        assert out[1].shape == g.shape
        # the new f and g, and O(n) bytes of speeds and face weights; one
        # n x n temporary alone would be six times the margin
        assert peak < f.nbytes + g.nbytes + 32 * 8 * n, k


def test_a_stepper_holds_one_block():
    n = 200
    _, held, _ = traced(
        lambda: ContinuumStepper(Grid(n), ContinuumParams()))
    # one n x n scratch block, n^2 floats, and O(n) bytes besides: the
    # n x 2 matrix of the row moments
    assert held < 8 * n * n + 32 * 8 * n
