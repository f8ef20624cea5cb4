"""Experiment driver: one run, or a sweep over the mixing parameter.

A run builds one community graph and one microscopic initial state, lifts
that state to continuum initial data (analytic one-body density, KDE pair
density), then advances the requested model variants on a shared sampling
clock and records the diagnostic time series.
"""

import os
from collections import namedtuple
from dataclasses import replace

import numpy as np
from numpy.random import default_rng

from .errors import ConfigError, SimulationError
from .graph import generate_community_graph, ensure_connected
from .micro import (DebateOperator, euler_maruyama_step, conserved_quantity,
                    potential_v, e_micro, step_size_bound)
from .empirical import (Grid, ScalarField, PairField, LabeledFields,
                        empirical_f, empirical_g_kde, split_by_group,
                        bandwidth_select, sample_initial_opinions)
from .continuum import (ContinuumStepper, cfl_max_dt, step_unlabeled,
                        step_labeled)
from .analysis import (REPORT_COLUMNS, RunReport, e_cont, consensus_value_cont,
                       first_moment, lyapunov_tilde, fit_exponential_rate,
                       write_table)
from .config import (MODEL_VARIANTS, SNAPSHOT_FILE, SWEEP_DIR,
                     replace_mixing, save_config)

# the report's error series; a sweep fits a decay rate to each of them
ERROR_SERIES = tuple(c for c in REPORT_COLUMNS if c.startswith("E_"))
RATE_COLUMNS = ("mu",) + tuple(prefix + c[2:]
                               for prefix in ("rate_", "fit_err_")
                               for c in ERROR_SERIES)

# share of the realized stability bound of each state that an adaptive
# continuum step takes; a configured fixed step is only checked against
# cfl_max_dt's worst-case bound, never scaled
CFL_SAFETY = 0.9


def _chunked_dt(sample_interval, dt_target):
    steps = max(1, int(np.ceil(sample_interval / dt_target - 1e-12)))
    return sample_interval / steps, steps


def _one_group(f, g):
    # the unlabeled fields as labeled ones with k = 1
    return LabeledFields(f.grid, f.values[None], g.values[None, None])


# the debate operator of every run: the paper's consensus model D(z) = -z
_OPERATOR = DebateOperator.linear()

# lift: (config, graph, omega, grid, community shares, bandwidth) ->
# LabeledFields; step: (state, params, speeds, stepper) -> state, with the
# run's ContinuumStepper and the state's speeds from its check; per_label:
# the snapshot adds one f_<name>_<p> column per label
_Closure = namedtuple("_Closure", "lift step per_label")

# The continuum closures of config.MODEL_VARIANTS, in the order a run
# lifts, steps and snapshots them; the first one requested records the
# pair-density moments.  The entries look the package functions up when
# called, not when the table is built, so a wrapper set on this module or
# on MixtureSpec after import sees every call.  The operator goes third,
# the speeds and the stepper by keyword, so such a wrapper sees three or
# four positional arguments, the ones perfbench's trace probes unpack.
_CLOSURES = {
    "cont_unlabeled": _Closure(
        lambda config, graph, omega, grid, shares, bandwidth: _one_group(
            config.mixture.cell_averages(grid, shares),
            empirical_g_kde(graph, omega, grid, bandwidth)),
        lambda s, p, speeds, stepper: _one_group(*step_unlabeled(
            ScalarField(s.grid, s.f[0]), PairField(s.grid, s.g[0, 0]),
            _OPERATOR, p, speeds=speeds, stepper=stepper)),
        False),
    "cont_labeled": _Closure(
        lambda config, graph, omega, grid, shares, bandwidth: LabeledFields(
            grid, config.mixture.weighted_cell_averages(grid, shares),
            split_by_group(graph, omega, grid, bandwidth).g),
        lambda s, p, speeds, stepper: step_labeled(
            s, _OPERATOR, p, speeds=speeds, stepper=stepper),
        True),
}


def build_initial_state(config):
    """The initial state of a run: (graph, omega, grid, fields).

    The graph and the opinions come from the config's derived seeds.
    fields maps each requested continuum variant, in _CLOSURES order, to
    its LabeledFields, the unlabeled closure as one group: f from the
    exact cell averages of the mixture at the realized community shares,
    g from a KDE over the edges with Silverman's bandwidth.
    """
    seeds = config.seeds()
    graph = ensure_connected(generate_community_graph(
        replace(config.graph, seed=seeds["graph"])))
    omega = sample_initial_opinions(graph, config.mixture,
                                    default_rng(seeds["sample"]))
    grid = Grid(config.grid_size)
    names = [name for name in _CLOSURES if name in config.model_variants]
    fields = {}
    if names:
        shares = np.bincount(graph.community - 1,
                             minlength=graph.n_groups) / graph.n_nodes
        bandwidth = bandwidth_select(omega, "silverman")
        for name in names:
            fields[name] = _CLOSURES[name].lift(config, graph, omega, grid,
                                                shares, bandwidth)
    return graph, omega, grid, fields


class _MicroVariant:
    """The agent-based model: step = (dt, steps) Euler-Maruyama steps per
    sample interval."""

    def __init__(self, config, graph, omega, grid, step):
        self.t_end = config.micro.t_end
        self._graph, self._omega, self._grid = graph, omega, grid
        self._sigma = config.micro.noise_sigma
        self._dt, self._steps = step
        self._rng = default_rng(config.seeds()["noise"])

    def advance(self, t_start, interval):
        for _ in range(self._steps):
            self._omega = euler_maruyama_step(
                self._graph, self._omega, _OPERATOR, self._dt,
                self._sigma, self._rng)

    def record(self, k, series):
        graph, omega = self._graph, self._omega
        series["E_micro"][k] = e_micro(graph, omega)
        series["conserved_micro"][k] = conserved_quantity(graph, omega)
        series["V_micro"][k] = potential_v(graph, omega, _OPERATOR)

    def snapshot(self, cols):
        cols["f_micro"] = empirical_f(self._omega, self._grid).values


class _ContinuumVariant:
    """One continuum closure on the sampling clock: state, steps and dts.

    The state is a LabeledFields, with the unlabeled closure as k = 1; the
    closure's _CLOSURES entry steps and snapshots it.  stepper is the
    ContinuumStepper of params.  With fixed = (dt, steps) each sample
    interval takes that many steps of that dt; with fixed = None each step
    takes CFL_SAFETY of the realized bound of the state it advances, shrunk
    so that the interval ends exactly on the sampling clock.  The variant
    with moments set also records the pair-density moments.
    """

    def __init__(self, name, state, params, stepper, fixed, moments):
        self.name = name
        self.state = state
        self.t_end = params.t_end
        self._closure = _CLOSURES[name]
        self._params = params
        self._stepper = stepper
        self._fixed = fixed
        self._moments = moments
        self.dts = []      # one array of step sizes per sample interval
        self._steps = 0
        self._bound = self._check(0.0)
        # the consensus prediction is fixed by the initial data
        self._omega_inf = consensus_value_cont(
            PairField(state.grid, state.g_total()))

    def advance(self, t_start, interval):
        dts = []
        if self._fixed is not None:
            dt, steps = self._fixed
            for i in range(steps):
                self._take(dt, t_start + (i + 1) * dt, dts)
        else:
            t_left = interval
            while t_left > 0:
                steps_left = max(1, int(np.ceil(
                    t_left / (CFL_SAFETY * self._bound))))
                # the last step (steps_left == 1) takes exactly t_left
                dt = t_left / steps_left
                t_left -= dt
                self._take(dt, t_start + interval - t_left, dts)
        self.dts.append(np.asarray(dts))
        # a step keeps every cell nonnegative in exact arithmetic; one pass
        # per sample, not per step, checks that it did
        if self.state.f.min() < 0 or self.state.g.min() < 0:
            raise SimulationError(
                "%s: steps %d-%d left a negative cell by t=%.6g"
                % (self.name, self._steps - len(dts) + 1, self._steps,
                   t_start + interval))

    def _take(self, dt, t, dts):
        self.state = self._closure.step(
            self.state, replace(self._params, dt=dt), self._speeds,
            self._stepper)
        self._steps += 1
        dts.append(dt)
        self._bound = self._check(t)

    def _check(self, t):
        # the realized bound's reductions double as the finiteness check;
        # the speeds are kept for the state's next step
        bound, self._speeds, mass = self._stepper.check(self.state.f,
                                                        self.state.g)
        if not np.isfinite(mass):
            raise SimulationError(
                "%s: step %d returned a non-finite state at t=%.6g"
                % (self.name, self._steps, t))
        return bound

    def record(self, k, series):
        series["E_" + self.name][k] = e_cont(self.state, self._omega_inf)
        if self._moments:
            g = PairField(self.state.grid, self.state.g_total())
            series["g_first_moment"][k] = first_moment(g)
            series["lyapunov_tilde"][k] = lyapunov_tilde(g, _OPERATOR)

    def snapshot(self, cols):
        cols["f_" + self.name] = self.state.f_total()
        if self._closure.per_label:
            for p in range(self.state.n_groups):
                cols["f_%s_%d" % (self.name, p + 1)] = self.state.f[p].copy()


def _checked_step(config, key, dt, bound, closed):
    """The (dt, steps) per sample interval of the configured step dt of
    key; ConfigError unless the chunked step lies below bound, or may
    reach it when closed."""
    step = _chunked_dt(config.sample_interval, dt)
    if not (step[0] <= bound if closed else step[0] < bound):
        raise ConfigError("%s: %g gives a step of %g, which violates "
                          "0 < dt %s %g" % (key, dt, step[0],
                                            "<=" if closed else "<", bound))
    return step


def _preflight(config):
    """(micro step, fixed continuum step) of a run, both checked before
    any set-up; a step is None when its variants do not run or, for
    continuum, dt is unset.

    euler_step allows a step equal to step_size_bound.  A fixed continuum
    step must be stable for every state, not only the first, so it must
    lie below cfl_max_dt, which needs neither the graph nor the lift and
    does not depend on the mixing parameter.
    """
    config.validate()
    sections = {MODEL_VARIANTS[v] for v in config.model_variants}
    micro = fixed = None
    if "micro" in sections:
        micro = _checked_step(config, "micro.dt", config.micro.dt,
                              step_size_bound(_OPERATOR), True)
    params = config.continuum
    if "continuum" in sections and params.dt is not None:
        fixed = _checked_step(config, "continuum.dt", params.dt,
                              cfl_max_dt(Grid(config.grid_size), _OPERATOR,
                                         params), False)
    return micro, fixed


def run_experiment(config):
    """Run the configured experiment; returns the RunReport.

    report.tsv, the resolved config, and any requested snapshots land in
    config.output_dir.
    """
    micro_step, fixed = _preflight(config)
    graph, omega, grid, fields = build_initial_state(config)
    micro = ([_MicroVariant(config, graph, omega, grid, micro_step)]
             if micro_step is not None else [])
    cont = []
    if fields:
        stepper = ContinuumStepper(grid, config.continuum)
        cont = [_ContinuumVariant(name, state, config.continuum, stepper,
                                  fixed, i == 0)
                for i, (name, state) in enumerate(fields.items())]
    variants = micro + cont

    si = config.sample_interval
    # validate puts every requested t_end on the sampling clock
    n_chunks = int(round(config.t_end() / si))
    times = np.arange(n_chunks + 1) * si
    ends = [int(round(v.t_end / si)) for v in variants]
    series = {name: times if name == "t" else np.full(n_chunks + 1, np.nan)
              for name in REPORT_COLUMNS}
    # validate keeps each snapshot time inside [0, config.t_end()]
    snap_idx = {int(round(t / si)) for t in config.snapshot_times}
    snapshots = {}

    for k in range(n_chunks + 1):
        # a variant past its t_end has no state at tick k
        running = [v for v, end in zip(variants, ends) if k <= end]
        for variant in running:
            if k > 0:
                variant.advance(times[k - 1], si)
            variant.record(k, series)
        if k in snap_idx:
            snapshots[k] = {"mid": grid.mids.copy()}
            for variant in running:
                variant.snapshot(snapshots[k])

    report = RunReport(series, {v.name: v.dts for v in cont})

    os.makedirs(config.output_dir, exist_ok=True)
    report.write_tsv(os.path.join(config.output_dir, "report.tsv"))
    save_config(config, os.path.join(config.output_dir, "config.ini"))
    for k, cols in snapshots.items():
        path = os.path.join(config.output_dir, SNAPSHOT_FILE % times[k])
        write_table(path, cols.keys(), cols.values())
    return report


def _fit_or_nan(times, values, t_lo):
    good = np.isfinite(values)
    if not good.any():
        return np.nan, np.nan
    try:
        return fit_exponential_rate(times[good], values[good], t_lo=t_lo)
    except SimulationError:
        return np.nan, np.nan


def run_mu_sweep(config):
    """Run the experiment per mixing value; fit decay rates per variant.

    The micro step and a fixed continuum.dt are checked once, before the
    first value.  Each mixing value gets its own derived seed.  A failing
    value is reported with NaN rates and the sweep continues.  Returns
    (rows, failures): rows are dicts keyed by RATE_COLUMNS, failures (mu,
    message) pairs.  The rates go to rates.tsv and the failures, one (mu,
    message) row each, to failures.tsv, which has only its header when
    every value ran.
    """
    # a step that fails one mixing value fails them all
    _preflight(config)
    if not config.mu_sweep:
        raise ConfigError("sweep: config.mu_sweep is empty")
    rows = []
    failures = []
    for i, mu in enumerate(config.mu_sweep):
        sub = replace_mixing(config, mu)
        sub = replace(sub, seed=config.seed + 1009 * (i + 1),
                      output_dir=os.path.join(config.output_dir,
                                              SWEEP_DIR % mu))
        row = {name: np.nan for name in RATE_COLUMNS}
        row["mu"] = mu
        try:
            report = run_experiment(sub)
            t_lo = 0.2 * float(report.t[-1])
            for name in ERROR_SERIES:
                rate, err = _fit_or_nan(report.t, report.series[name], t_lo)
                row["rate_" + name[2:]] = rate
                row["fit_err_" + name[2:]] = err
        except (ConfigError, SimulationError) as exc:
            failures.append((mu, str(exc)))
        rows.append(row)
    os.makedirs(config.output_dir, exist_ok=True)
    write_table(os.path.join(config.output_dir, "rates.tsv"),
                RATE_COLUMNS, [[row[c] for row in rows] for c in RATE_COLUMNS])
    write_table(os.path.join(config.output_dir, "failures.tsv"),
                ("mu", "message"), [[mu for mu, _ in failures],
                                    [text for _, text in failures]])
    _write_gnuplot(os.path.join(config.output_dir, "rates.gp"))
    return rows, failures


def _write_gnuplot(path):
    # rate_<name> is column 2 + i of rates.tsv for the i-th error series
    plots = ", \\\n     ".join(
        '"rates.tsv" skip 1 using 1:%d with linespoints title "%s"'
        % (2 + i, name[2:].removeprefix("cont_"))
        for i, name in enumerate(ERROR_SERIES))
    lines = [
        'set datafile separator "\\t"',
        "set logscale xy",
        'set xlabel "mixing parameter"',
        'set ylabel "fitted decay rate"',
        "plot " + plots,
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
