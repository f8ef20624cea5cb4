"""Experiment driver: one run, or a sweep over the mixing parameter.

A run builds one community graph and one microscopic initial state, lifts
that state to continuum initial data (analytic one-body density, KDE pair
density), then advances the requested model variants on a shared sampling
clock and records the diagnostic time series.
"""

import os
from dataclasses import replace

import numpy as np
from numpy.random import default_rng

from .errors import ConfigError, SimulationError
from .graph import generate_community_graph, ensure_connected
from .micro import (DebateOperator, euler_maruyama_step, conserved_quantity,
                    potential_v, e_micro)
from .empirical import (Grid, ScalarField, PairField, LabeledFields,
                        empirical_f, empirical_g_kde, split_by_group,
                        bandwidth_select, sample_initial_opinions)
from .continuum import cfl_max_dt, stepper_for, step_unlabeled, step_labeled
from .analysis import (REPORT_COLUMNS, RunReport, e_cont, consensus_value_cont,
                       first_moment, lyapunov_tilde, fit_exponential_rate,
                       write_table)
from .config import replace_mixing, save_config

RATE_COLUMNS = ("mu", "rate_micro", "rate_cont_labeled", "rate_cont_unlabeled",
                "fit_err_micro", "fit_err_cont_labeled",
                "fit_err_cont_unlabeled")

# share of the realized stability bound of each state that an adaptive
# continuum step takes; a configured fixed step is only checked against
# cfl_max_dt's worst-case bound, never scaled
CFL_SAFETY = 0.9


def _chunked_dt(sample_interval, dt_target):
    steps = max(1, int(np.ceil(sample_interval / dt_target - 1e-12)))
    return sample_interval / steps, steps


def _one_group(f, g):
    # the unlabeled fields as labeled ones with k = 1; the [None, None] view
    # keeps the identity that the stepper's speed memo keys on
    return LabeledFields(f.grid, f.values[None], g.values[None, None])


def build_initial_state(config):
    """The initial state of a run: (graph, omega, grid, fields).

    The graph and the opinions come from the config's derived seeds.
    fields maps each requested continuum variant to its LabeledFields, the
    unlabeled closure as one group: f from the exact cell averages of the
    mixture at the realized community shares, g from a KDE over the edges
    with Silverman's bandwidth.
    """
    seeds = config.seeds()
    graph = ensure_connected(generate_community_graph(
        replace(config.graph, seed=seeds["graph"])))
    omega = sample_initial_opinions(graph, config.mixture,
                                    default_rng(seeds["sample"]))
    grid = Grid(config.grid_size)
    variants = config.model_variants
    fields = {}
    if "cont_unlabeled" in variants or "cont_labeled" in variants:
        shares = np.bincount(graph.community - 1,
                             minlength=graph.n_groups) / graph.n_nodes
        bandwidth = bandwidth_select(omega, "silverman")
        if "cont_unlabeled" in variants:
            fields["cont_unlabeled"] = _one_group(
                config.mixture.cell_averages(grid, shares),
                empirical_g_kde(graph, omega, grid, bandwidth))
        if "cont_labeled" in variants:
            fields["cont_labeled"] = LabeledFields(
                grid, config.mixture.weighted_cell_averages(grid, shares),
                split_by_group(graph, omega, grid, bandwidth).g)
    return graph, omega, grid, fields


class _MicroVariant:
    """The agent-based model: a fixed Euler-Maruyama step per interval."""

    def __init__(self, config, graph, omega, grid, operator):
        self.t_end = config.micro.t_end
        self._graph, self._omega, self._grid = graph, omega, grid
        self._operator = operator
        self._sigma = config.micro.noise_sigma
        self._dt, self._steps = _chunked_dt(config.sample_interval,
                                            config.micro.dt)
        self._rng = default_rng(config.seeds()["noise"])

    def advance(self, t_start, interval):
        for _ in range(self._steps):
            self._omega = euler_maruyama_step(
                self._graph, self._omega, self._operator, self._dt,
                self._sigma, self._rng)

    def record(self, k, series):
        graph, omega = self._graph, self._omega
        series["E_micro"][k] = e_micro(graph, omega)
        series["conserved_micro"][k] = conserved_quantity(graph, omega)
        series["V_micro"][k] = potential_v(graph, omega, self._operator)

    def snapshot(self, cols):
        cols["f_micro"] = empirical_f(self._omega, self._grid).values


class _ContinuumVariant:
    """One continuum closure on the sampling clock: state, steps and dts.

    The state is a LabeledFields, with the unlabeled closure as k = 1.
    step(state, params) advances it by params.dt; stepper is the
    ContinuumStepper of params.  With fixed = (dt, steps) each sample
    interval takes that many steps of that dt; with fixed = None each step
    takes CFL_SAFETY of the realized bound of the state it advances, shrunk
    so that the interval ends exactly on the sampling clock.  The variant
    with moments set also records the pair-density moments.
    """

    def __init__(self, name, state, step, operator, params, stepper, fixed,
                 moments):
        self.name = name
        self.state = state
        self.t_end = params.t_end
        self._step = step
        self._operator = operator
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

    def _take(self, dt, t, dts):
        self.state = self._step(self.state, replace(self._params, dt=dt))
        self._steps += 1
        dts.append(dt)
        self._bound = self._check(t)

    def _check(self, t):
        # the realized bound's reductions double as the finiteness check
        bound, mass = self._stepper.max_dt(self.state.f, self.state.g)
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
            series["lyapunov_tilde"][k] = lyapunov_tilde(g, self._operator)

    def snapshot(self, cols):
        cols["f_" + self.name] = self.state.f_total()
        if self.name == "cont_labeled":
            for p in range(self.state.n_groups):
                cols["f_cont_labeled_%d" % (p + 1)] = self.state.f[p].copy()


def _continuum_variants(config, grid, operator, fields):
    if not fields:
        return []
    params = config.continuum
    stepper = stepper_for(grid, operator, params)
    fixed = None
    if params.dt is not None:
        # a fixed step must be stable for every state, not only the first
        fixed = _chunked_dt(config.sample_interval, params.dt)
        bound = cfl_max_dt(grid, operator, params)
        if not fixed[0] < bound:
            raise ConfigError("continuum: dt=%g violates 0 < dt < %g"
                              % (fixed[0], bound))
    steps = {
        "cont_unlabeled": lambda s, p: _one_group(*step_unlabeled(
            ScalarField(grid, s.f[0]), PairField(grid, s.g[0, 0]),
            operator, p)),
        "cont_labeled": lambda s, p: step_labeled(s, operator, p),
    }
    # the unlabeled closure, when it runs, gives the pair-density moments
    return [_ContinuumVariant(name, state, steps[name], operator, params,
                              stepper, fixed, i == 0)
            for i, (name, state) in enumerate(fields.items())]


def run_experiment(config, operator=None, write_outputs=True):
    """Run the configured experiment; returns the RunReport.

    When write_outputs is set, report.tsv, the resolved config, and any
    requested snapshots land in config.output_dir.
    """
    config.validate()
    if operator is None:
        operator = DebateOperator.linear()
    operator.validate()
    graph, omega, grid, fields = build_initial_state(config)
    micro = ([_MicroVariant(config, graph, omega, grid, operator)]
             if "micro" in config.model_variants else [])
    cont = _continuum_variants(config, grid, operator, fields)
    variants = micro + cont

    si = config.sample_interval
    n_chunks = max(1, int(round(config.t_end() / si)))
    times = np.arange(n_chunks + 1) * si
    ends = [min(n_chunks, int(round(v.t_end / si))) for v in variants]
    series = {name: times if name == "t" else np.full(n_chunks + 1, np.nan)
              for name in REPORT_COLUMNS}
    # validate keeps each snapshot time inside [0, config.t_end()]
    snap_idx = {int(round(t / si)) for t in config.snapshot_times}
    snapshots = {}

    for k in range(n_chunks + 1):
        for variant, end in zip(variants, ends):
            if 0 < k <= end:
                variant.advance(times[k - 1], si)
        for variant, end in zip(variants, ends):
            if k <= end:
                variant.record(k, series)
        if k in snap_idx:
            # a variant past its t_end has no state at this time
            snapshots[k] = {"mid": grid.mids.copy()}
            for variant, end in zip(variants, ends):
                if k <= end:
                    variant.snapshot(snapshots[k])

    report = RunReport(series, {v.name: v.dts for v in cont})

    if write_outputs:
        os.makedirs(config.output_dir, exist_ok=True)
        report.write_tsv(os.path.join(config.output_dir, "report.tsv"))
        save_config(config, os.path.join(config.output_dir, "config.ini"))
        for k, cols in snapshots.items():
            path = os.path.join(config.output_dir,
                                "snapshot_t%g.tsv" % times[k])
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


def run_mu_sweep(config, operator=None, write_outputs=True):
    """Run the experiment per mixing value; fit decay rates per variant.

    The operator is checked once, before the first value.  Each mixing
    value gets its own derived seed.  A failing value is reported with NaN
    rates and the sweep continues.  Returns (rows,
    failures): rows are dicts keyed by RATE_COLUMNS, failures (mu, message)
    pairs.
    """
    config.validate()
    if not config.mu_sweep:
        raise ConfigError("sweep: config.mu_sweep is empty")
    if operator is None:
        operator = DebateOperator.linear()
    operator.validate()
    rows = []
    failures = []
    for i, mu in enumerate(config.mu_sweep):
        sub = replace_mixing(config, mu)
        sub = replace(sub, seed=config.seed + 1009 * (i + 1),
                      output_dir=os.path.join(config.output_dir,
                                              "mu_%g" % mu))
        row = {name: np.nan for name in RATE_COLUMNS}
        row["mu"] = mu
        try:
            report = run_experiment(sub, operator=operator,
                                    write_outputs=write_outputs)
            t_lo = 0.2 * float(report.t[-1])
            for name in REPORT_COLUMNS:
                if not name.startswith("E_"):
                    continue
                rate, err = _fit_or_nan(report.t, report.series[name], t_lo)
                row["rate_" + name[2:]] = rate
                row["fit_err_" + name[2:]] = err
        except (ConfigError, SimulationError) as exc:
            failures.append((mu, str(exc)))
        rows.append(row)
    if write_outputs:
        os.makedirs(config.output_dir, exist_ok=True)
        write_table(os.path.join(config.output_dir, "rates.tsv"),
                    RATE_COLUMNS, [[row[c] for row in rows]
                                   for c in RATE_COLUMNS])
        _write_gnuplot(os.path.join(config.output_dir, "rates.gp"))
    return rows, failures


def _write_gnuplot(path):
    lines = [
        'set datafile separator "\\t"',
        "set logscale xy",
        'set xlabel "mixing parameter"',
        'set ylabel "fitted decay rate"',
        'plot "rates.tsv" skip 1 using 1:2 with linespoints title "micro", \\',
        '     "rates.tsv" skip 1 using 1:3 with linespoints title "labeled", \\',
        '     "rates.tsv" skip 1 using 1:4 with linespoints title "unlabeled"',
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
