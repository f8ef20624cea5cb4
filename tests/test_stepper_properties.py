"""Property tests of the continuum step on random symmetric states.

The reference is the k^2 block update assembled from the flux functions
llf_flux_f / llf_flux_g, the padded zero-flux second difference and the
birth-death splitting stage in tests/oracles.py.  Each state is stepped at
the stepper's own speeds, those of the linear D, or at the speeds that
tests/oracles.py takes from the cubic D of the quartic potential.  The
step must also equal, bit for bit, the one with each row's update formed
as three row-scaled products, at whatever speeds it is given, and keep
every cell nonnegative up to 0.99 of the realized bound.  The step
functions given the speeds that check returns must equal the ones that
compute them.
"""

from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from opinet import (ContinuumParams, DebateOperator, Grid,  # noqa: E402
                    LabeledFields, PairField, ScalarField, step_labeled,
                    step_unlabeled)
from opinet.continuum import ContinuumStepper, _dt_bound  # noqa: E402
from oracles import (cubic_d, difference_speeds, llf_flux_f,  # noqa: E402
                     llf_flux_g, mirrored_laplacian, three_point_transport)

LIN = DebateOperator.linear()


def speeds_and_dt(name, grid, g, params, share):
    """The speeds of g under the linear or the cubic D, and share of the
    realized bound at them, or 0.1 when nothing limits the step."""
    if name == "linear":
        a = ContinuumStepper(grid, params).speeds(g)[0]
    else:
        a = difference_speeds(g, grid, cubic_d, params.eta_cutoff)[0]
    bound = _dt_bound(grid.dx, float(np.max(np.abs(a))), params)
    return a, share * bound if np.isfinite(bound) else 0.1


def reference_step(f, g, grid, a, params, dt):
    lam = dt / grid.dx
    nu = dt * params.diffusion_sigma / grid.dx ** 2
    k = f.shape[0]
    f_new = np.stack([f[p] - lam * np.diff(llf_flux_f(f[p], a[p]))
                      + nu * mirrored_laplacian(f[p]) for p in range(k)])
    g_new = np.empty_like(g)
    for p in range(k):
        for q in range(k):
            u = g[p, q]
            fw, fm = llf_flux_g(u, a[p], a[q])
            block = u - lam * (np.diff(fw, axis=0) + np.diff(fm, axis=1))
            block += nu * (mirrored_laplacian(u) + mirrored_laplacian(u.T).T)
            g_new[p, q] = block + dt * (
                params.birth_rate * np.outer(f_new[p], f_new[q])
                - params.death_rate * block)
    return f_new, g_new


@st.composite
def states(draw):
    k = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(2, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    grid = Grid(n)
    f = rng.uniform(0.0, 1.0, (k, n))
    g = rng.uniform(0.0, 1.0, (k, k, n, n))
    if draw(st.booleans()):
        # mass one cell off the diagonal moves at speed ~dx under the linear
        # D, so near n = 48 the transport and diffusion limits are close and
        # each alone allows a step that drains a cell more than once
        cells = np.arange(n)
        g *= np.abs(cells[:, None] - cells[None, :]) == 1
    # isolated cells between zero ones are drained by their own weight alone
    g[rng.uniform(size=g.shape) < draw(st.sampled_from([0.0, 0.5]))] = 0.0
    # vacuum cells exercise the eta cutoff and the zero-speed rows
    empty = rng.uniform(size=n) < draw(st.sampled_from([0.0, 0.3]))
    f[:, empty] = 0.0
    g[:, :, empty, :] = 0.0
    g[:, :, :, empty] = 0.0
    g = g + g.transpose(1, 0, 3, 2)
    f /= max(grid.dx * f.sum(), 1e-300)
    g /= max(grid.dx ** 2 * g.sum(), 1e-300)
    params = ContinuumParams(
        diffusion_sigma=draw(st.sampled_from([0.0, 1e-3])),
        birth_rate=draw(st.sampled_from([0.0, 0.2])),
        death_rate=draw(st.sampled_from([0.0, 0.2])))
    return grid, f, g, draw(st.sampled_from(["linear", "quartic"])), params


@settings(max_examples=200)
@given(states())
def test_stepper_matches_the_flux_reference(state):
    grid, f, g, name, params = state
    a, dt = speeds_and_dt(name, grid, g, params, 0.9)
    params = replace(params, dt=dt)
    # the linear D's step computes its own speeds
    given = None if name == "linear" else a
    out = step_labeled(LabeledFields(grid, f, g), LIN, params, speeds=given)
    f_ref, g_ref = reference_step(f, g, grid, a, params, dt)

    scale_f = max(float(np.max(np.abs(f_ref))), 1e-300)
    scale_g = max(float(np.max(np.abs(g_ref))), 1e-300)
    assert np.max(np.abs(out.f - f_ref)) <= 1e-13 * scale_f
    assert np.max(np.abs(out.g - g_ref)) <= 1e-13 * scale_g

    k = f.shape[0]
    for p in range(k):
        for q in range(k):
            assert np.array_equal(out.g[p, q], out.g[q, p].T)

    # transport and diffusion conserve every block's mass; birth-death
    # acts on g alone
    mass_f, mass_g = grid.dx * f.sum(axis=1), grid.dx ** 2 * g.sum(axis=(2, 3))
    assert np.all(np.abs(grid.dx * out.f.sum(axis=1) - mass_f)
                  <= 1e-12 * max(mass_f.sum(), 1e-300))
    if params.birth_rate == 0 and params.death_rate == 0:
        assert np.all(np.abs(grid.dx ** 2 * out.g.sum(axis=(2, 3)) - mass_g)
                      <= 1e-12 * max(mass_g.sum(), 1e-300))

    # the step bound combines the transport and diffusion limits, which
    # keeps positivity with diffusion and birth-death as well
    assert out.f.min() >= 0.0 and out.g.min() >= 0.0

    if k == 1:
        fu, gu = step_unlabeled(ScalarField(grid, f[0]),
                                PairField(grid, g[0, 0]), LIN, params,
                                speeds=given)
        assert np.array_equal(fu.values, out.f[0])
        assert np.array_equal(gu.values, out.g[0, 0])


@settings(max_examples=200)
@given(states())
def test_the_step_matches_three_products_bit_for_bit(state):
    # the einsum over a three-row view of g, and the three products of f,
    # form the same products and sums
    grid, f, g, name, params = state
    a, dt = speeds_and_dt(name, grid, g, params, 0.9)
    f_new, g_new = ContinuumStepper(grid, params).advance(f, g, dt, a)
    f_ref, g_ref = three_point_transport(f, g, a, dt, grid.dx, params)
    assert np.array_equal(f_new.view(np.int64), f_ref.view(np.int64))
    assert np.array_equal(g_new.view(np.int64), g_ref.view(np.int64))


@settings(max_examples=100)
@given(states(), st.integers(0, 2 ** 32 - 1))
def test_advance_follows_the_speeds_it_is_given(state, seed):
    # speeds of another state on the same grid: advance must step at them,
    # not at speeds of its own
    grid, f, g, name, params = state
    k, n = f.shape
    other = np.random.default_rng(seed).uniform(0.0, 1.0, (k, k, n, n))
    a, dt = speeds_and_dt(name, grid, other + other.transpose(1, 0, 3, 2),
                          params, 0.9)
    f_new, g_new = ContinuumStepper(grid, params).advance(f, g, dt, a)
    f_ref, g_ref = three_point_transport(f, g, a, dt, grid.dx, params)
    assert np.array_equal(f_new.view(np.int64), f_ref.view(np.int64))
    assert np.array_equal(g_new.view(np.int64), g_ref.view(np.int64))


@settings(max_examples=100)
@given(states().filter(lambda s: s[1].shape[0] in (1, 3)))
def test_given_speeds_step_as_computed_ones(state):
    # the runner passes the speeds of check; a one-shot call computes them
    grid, f, g, _, params = state
    bound, a, _ = ContinuumStepper(grid, params).check(f, g)
    params = replace(params, dt=0.9 * bound if np.isfinite(bound) else 0.1)
    if f.shape[0] == 1:
        args = (ScalarField(grid, f[0]), PairField(grid, g[0, 0]), LIN,
                params)
        (fa, ga), (fb, gb) = (step_unlabeled(*args, speeds=a),
                              step_unlabeled(*args))
        pairs = [(fa.values, fb.values), (ga.values, gb.values)]
    else:
        args = (LabeledFields(grid, f, g), LIN, params)
        explicit, computed = step_labeled(*args, speeds=a), step_labeled(*args)
        pairs = [(explicit.f, computed.f), (explicit.g, computed.g)]
    for x, y in pairs:
        assert np.array_equal(x.view(np.int64), y.view(np.int64))


@settings(max_examples=200)
@given(states())
def test_a_step_near_the_bound_stays_positive_and_symmetric(state):
    # each axis takes half of the bound, so a cell's own weight in U stays
    # nonnegative up to the bound
    grid, f, g, name, params = state
    a, dt = speeds_and_dt(name, grid, g, params, 0.99)
    f_new, g_new = ContinuumStepper(grid, params).advance(f, g, dt, a)
    assert f_new.min() >= 0.0 and g_new.min() >= 0.0
    k = f.shape[0]
    for p in range(k):
        for q in range(k):
            assert np.array_equal(g_new[p, q].view(np.int64),
                                  g_new[q, p].T.view(np.int64))
