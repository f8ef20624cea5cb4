"""The runner's continuum step policy: realized-speed steps on the sampling
clock when continuum.dt is unset, the fixed chunked step when it is set."""

from dataclasses import replace

import numpy as np
import pytest

from opinet import (ConfigError, ContinuumParams, Grid, SimulationError,
                    preset_three_communities, run_experiment)
import opinet.continuum
from opinet import runner
from opinet.continuum import ContinuumStepper
from opinet.runner import CFL_SAFETY, _chunked_dt


def cont_config(out, t_end=1.0, **continuum):
    config = preset_three_communities()
    return replace(config, model_variants=("cont_unlabeled", "cont_labeled"),
                   continuum=ContinuumParams(t_end=t_end, **continuum),
                   output_dir=str(out))


def record_steps(monkeypatch):
    """Wrap the runner's step functions; returns the list of
    (variant, dt, max|a| of the state the step advances, params) they see.

    The runner must pass the speeds and its one stepper by keyword, after
    the 3 or 4 positional arguments that perfbench's trace probes unpack,
    and the speeds must be those of the state, bit for bit."""
    seen = []
    steppers = set()
    step_unlabeled, step_labeled = runner.step_unlabeled, runner.step_labeled

    def speed(g4, grid, params, speeds, stepper):
        steppers.add(id(stepper))
        assert len(steppers) == 1
        a, _ = ContinuumStepper(grid, params).speeds(g4)
        assert np.array_equal(speeds.view(np.int64), a.view(np.int64))
        return float(np.max(np.abs(a)))

    def unlabeled(*args, speeds, stepper):
        assert len(args) == 4
        f, g, _, params = args
        seen.append(("cont_unlabeled", params.dt,
                     speed(g.values[None, None], f.grid, params, speeds,
                           stepper), params))
        return step_unlabeled(*args, speeds=speeds, stepper=stepper)

    def labeled(*args, speeds, stepper):
        assert len(args) == 3
        fields, _, params = args
        seen.append(("cont_labeled", params.dt,
                     speed(fields.g, fields.grid, params, speeds, stepper),
                     params))
        return step_labeled(*args, speeds=speeds, stepper=stepper)

    monkeypatch.setattr(runner, "step_unlabeled", unlabeled)
    monkeypatch.setattr(runner, "step_labeled", labeled)
    return seen


def test_chunks_land_on_the_sampling_clock(tmp_path):
    config = cont_config(tmp_path)
    si = config.sample_interval
    report = run_experiment(config)
    n_chunks = int(round(config.continuum.t_end / si))
    np.testing.assert_array_equal(report.t, np.arange(n_chunks + 1) * si)
    assert set(report.continuum_dts) == {"cont_unlabeled", "cont_labeled"}
    for name, chunks in report.continuum_dts.items():
        assert len(chunks) == n_chunks
        for dts in chunks:
            assert np.all(dts > 0)
            assert abs(np.sum(dts) - si) <= 1e-15, (name, np.sum(dts) - si)
            # the realized speeds allow far fewer steps than the worst case
            assert dts.size < _chunked_dt(si, CFL_SAFETY * 0.25 * Grid(
                config.grid_size).dx)[1]


@pytest.mark.parametrize("continuum", [
    {},
    {"diffusion_sigma": 0.004},
    {"birth_rate": 40.0, "death_rate": 40.0},
])
def test_every_step_respects_the_realized_bound(monkeypatch, tmp_path,
                                                continuum):
    seen = record_steps(monkeypatch)
    config = cont_config(tmp_path, **continuum)
    run_experiment(config)
    dx = Grid(config.grid_size).dx
    tol = 1.0 + 1e-12
    binding = 0
    for name, dt, amax, params in seen:
        # the combined positivity limit of transport and diffusion, which
        # implies each of the two limits alone
        rate = 2.0 * amax / dx + 4.0 * params.diffusion_sigma / dx ** 2
        assert dt * rate <= CFL_SAFETY * tol, (name, dt, amax)
        if params.diffusion_sigma > 0:
            binding += dt * rate > 0.5 * CFL_SAFETY
        if params.death_rate > 0:
            limit = CFL_SAFETY / params.death_rate
            assert dt <= limit * tol
            binding += dt > 0.5 * limit
    assert {name for name, *_ in seen} == {"cont_unlabeled", "cont_labeled"}
    # the diffusion and death cases do reach their own limits
    assert binding > 0 or not continuum


def test_explicit_dt_keeps_the_chunked_step(monkeypatch, tmp_path):
    seen = record_steps(monkeypatch)
    config = cont_config(tmp_path, dt=0.004)
    report = run_experiment(config)
    dt, steps = _chunked_dt(config.sample_interval, 0.004)
    for chunks in report.continuum_dts.values():
        for dts in chunks:
            assert dts.size == steps and np.all(dts == dt)
    assert len(seen) == 2 * steps * len(report.t[1:])
    assert all(s[1] == dt for s in seen)
    # a fixed step must be stable at the worst-case speed
    with pytest.raises(ConfigError, match="violates"):
        run_experiment(cont_config(tmp_path, dt=0.025))


@pytest.mark.parametrize("continuum, steps", [
    ({}, 1),
    ({"diffusion_sigma": 0.01}, int(np.ceil(0.1 / (
        CFL_SAFETY * (2.0 / 101) ** 2 / (4.0 * 0.01))))),
    ({"birth_rate": 1.0, "death_rate": 20.0}, int(np.ceil(
        0.1 / (CFL_SAFETY / 20.0)))),
])
def test_zero_speed_takes_the_fewest_steps(monkeypatch, tmp_path, continuum,
                                           steps):
    # at zero speed, the speeds of D = 0, nothing moves, so only the
    # diffusion and death limits bind
    moment_speeds = opinet.continuum._moment_speeds

    def zero_speeds(*args):
        a, rows = moment_speeds(*args)
        return np.zeros_like(a), rows

    monkeypatch.setattr(opinet.continuum, "_moment_speeds", zero_speeds)
    report = run_experiment(cont_config(tmp_path, **continuum))
    for chunks in report.continuum_dts.values():
        assert [dts.size for dts in chunks] == [steps] * len(chunks)


def test_non_finite_state_fails_with_its_step_and_time(monkeypatch,
                                                       tmp_path):
    step_labeled = runner.step_labeled
    clock = []

    def poisoned(fields, operator, params, **step):
        out = step_labeled(fields, operator, params, **step)
        clock.append(params.dt)
        if len(clock) == 5:
            out.g[1, 2, 40, 7] = np.nan
        return out

    monkeypatch.setattr(runner, "step_labeled", poisoned)
    with pytest.raises(SimulationError) as err:
        run_experiment(cont_config(tmp_path))
    assert str(err.value) == (
        "cont_labeled: step 5 returned a non-finite state at t=%.6g"
        % sum(clock))


def test_a_negative_cell_fails_the_run_at_its_sample(monkeypatch, tmp_path):
    step_labeled = runner.step_labeled
    config = cont_config(tmp_path, dt=0.004)
    _, steps = _chunked_dt(config.sample_interval, 0.004)
    clock = []

    def negative(fields, operator, params, **step):
        out = step_labeled(fields, operator, params, **step)
        clock.append(params.dt)
        if len(clock) == 2 * steps:
            # the last step of the second interval leaves a mirrored pair
            # of cells below zero
            out.g[1, 2, 40, 7] = out.g[2, 1, 7, 40] = -1e-12
        return out

    monkeypatch.setattr(runner, "step_labeled", negative)
    with pytest.raises(SimulationError) as err:
        run_experiment(config)
    assert str(err.value) == (
        "cont_labeled: steps %d-%d left a negative cell by t=%.6g"
        % (steps + 1, 2 * steps, 2 * config.sample_interval))
