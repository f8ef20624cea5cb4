"""Experiment driver: one run, or a sweep over the mixing parameter.

A run builds one community graph and one microscopic initial state, lifts
that state to continuum initial data (analytic one-body density, KDE pair
density), then advances the requested model variants on a shared sampling
clock and records the diagnostic time series.
"""

import os
from dataclasses import replace

import numpy as np

from .errors import ConfigError, SimulationError
from .graph import generate_community_graph, ensure_connected
from .micro import (DebateOperator, euler_maruyama_step, consensus_value,
                    conserved_quantity, potential_v, e_micro)
from .empirical import (Grid, PairField, LabeledFields, empirical_f,
                        empirical_g_kde, split_by_group, bandwidth_select,
                        sample_initial_opinions)
from .continuum import (ContinuumParams, cfl_max_dt, stepper_for,
                        step_unlabeled, step_labeled)
from .analysis import RunReport, e_cont, consensus_value_cont, lyapunov_tilde, \
    fit_exponential_rate
from .config import replace_mixing, save_config

RATE_COLUMNS = ("mu", "rate_micro", "rate_cont_labeled", "rate_cont_unlabeled",
                "fit_err_micro", "fit_err_cont_labeled",
                "fit_err_cont_unlabeled")

# share of the stability bound a step takes when no continuum step is
# configured: of the worst-case bound in cfl_max_dt for a fixed step, of the
# realized bound of each state for the adaptive step
CFL_SAFETY = 0.9


def _first_moment(grid, g_vals):
    vals = g_vals.sum(axis=(0, 1)) if g_vals.ndim == 4 else g_vals
    return float(grid.dx ** 2 * np.sum(grid.mids[:, None] * vals))


def _chunked_dt(sample_interval, dt_target):
    steps = max(1, int(np.ceil(sample_interval / dt_target - 1e-12)))
    return sample_interval / steps, steps


class _ContinuumVariant:
    """One continuum closure on the sampling clock: state, steps and dts.

    step(state, params) advances the state by params.dt and arrays(state)
    gives its (k, n) and (k, k, n, n) arrays; stepper is the
    ContinuumStepper of params.  With fixed = (dt, steps) each
    sample interval takes that many steps of that dt; with fixed = None each
    step takes CFL_SAFETY of the realized bound of the state it advances,
    shrunk so that the interval ends exactly on the sampling clock.
    """

    def __init__(self, name, state, step, arrays, params, stepper, fixed):
        self.name = name
        self.state = state
        self._step = step
        self._arrays = arrays
        self._params = params
        self._stepper = stepper
        self._fixed = fixed
        self.dts = []      # one array of step sizes per sample interval
        self._steps = 0
        self._bound = self._check(0.0)

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
        bound, mass = self._stepper.max_dt(*self._arrays(self.state))
        if not np.isfinite(mass):
            raise SimulationError(
                "%s: step %d returned a non-finite state at t=%.6g"
                % (self.name, self._steps, t))
        return bound


def _labeled_initial_f(grid, mixture, shares):
    rows = [shares[c] * mixture.community_cell_averages(grid, c).values
            for c in range(mixture.n_groups)]
    return np.asarray(rows)


def run_experiment(config, operator=None, write_outputs=True):
    """Run the configured experiment; returns the RunReport.

    When write_outputs is set, report.tsv, the resolved config, and any
    requested snapshots land in config.output_dir.
    """
    config.validate()
    if operator is None:
        operator = DebateOperator.linear()
    seeds = config.seeds()
    graph = ensure_connected(generate_community_graph(
        replace(config.graph, seed=seeds["graph"])))
    omega = sample_initial_opinions(graph, config.mixture,
                                    np.random.default_rng(seeds["sample"]))
    grid = Grid(config.grid_size)
    variants = config.model_variants

    do_micro = "micro" in variants
    do_unl = "cont_unlabeled" in variants
    do_lab = "cont_labeled" in variants

    t_ends = []
    if do_micro:
        t_ends.append(config.micro.t_end)
    if do_unl or do_lab:
        t_ends.append(config.continuum.t_end)
    si = config.sample_interval
    n_chunks = max(1, int(round(max(t_ends) / si)))
    times = np.arange(n_chunks + 1) * si

    chunks_micro = min(n_chunks, int(round(config.micro.t_end / si)))
    chunks_cont = min(n_chunks, int(round(config.continuum.t_end / si)))

    nan = np.full(n_chunks + 1, np.nan)
    series = {name: nan.copy() for name in
              ("e_micro", "e_cont_labeled", "e_cont_unlabeled",
               "conserved_micro", "g_first_moment", "v_micro",
               "lyapunov_tilde")}

    snap_idx = sorted({min(n_chunks, max(0, int(round(t / si))))
                       for t in config.snapshot_times})
    snapshots = {}

    # continuum initial data shared by both closures
    f_unl = g_unl = labeled = None
    cont = {}
    if do_unl or do_lab:
        shares = np.bincount(graph.community - 1,
                             minlength=graph.n_groups) / graph.n_nodes
        bandwidth = bandwidth_select(omega, "silverman")
        cp = config.continuum
        cont_params = ContinuumParams(dt=cp.dt, eta_cutoff=cp.eta_cutoff,
                                      diffusion_sigma=cp.diffusion_sigma,
                                      birth_rate=cp.birth_rate,
                                      death_rate=cp.death_rate)
        stepper = stepper_for(grid, operator, cont_params)
        fixed = None
        if cp.dt is not None:
            # a fixed step must be stable for every state, not only the first
            fixed = _chunked_dt(si, cp.dt)
            bound = cfl_max_dt(grid, operator, cont_params)
            if not fixed[0] < bound:
                raise ConfigError("continuum: dt=%g violates 0 < dt < %g"
                                  % (fixed[0], bound))
        if do_unl:
            f_unl = config.mixture.cell_averages(grid, shares)
            g_unl = empirical_g_kde(graph, omega, grid, bandwidth)
            cont["cont_unlabeled"] = _ContinuumVariant(
                "cont_unlabeled", (f_unl, g_unl),
                lambda s, p: step_unlabeled(*s, operator, p),
                lambda s: (s[0].values[None], s[1].values[None, None]),
                cont_params, stepper, fixed)
        if do_lab:
            lab0 = split_by_group(graph, omega, grid, bandwidth)
            labeled = LabeledFields(
                grid, _labeled_initial_f(grid, config.mixture, shares), lab0.g)
            cont["cont_labeled"] = _ContinuumVariant(
                "cont_labeled", labeled,
                lambda s, p: step_labeled(s, operator, p),
                lambda s: (s.f, s.g), cont_params, stepper, fixed)

    # consensus predictions are fixed by the initial data
    omega_inf_micro = consensus_value(graph, omega) if do_micro else np.nan
    omega_inf_unl = consensus_value_cont(g_unl) if do_unl else np.nan
    if do_lab:
        g_tot = PairField(grid, labeled.g.sum(axis=(0, 1)))
        omega_inf_lab = consensus_value_cont(g_tot)
    else:
        omega_inf_lab = np.nan

    dt_micro, steps_micro = _chunked_dt(si, config.micro.dt)
    rng_noise = np.random.default_rng(seeds["noise"])

    def record(k):
        if do_micro and k <= chunks_micro:
            series["e_micro"][k] = e_micro(graph, omega)
            series["conserved_micro"][k] = conserved_quantity(graph, omega)
            series["v_micro"][k] = potential_v(graph, omega, operator)
        if do_unl and k <= chunks_cont:
            series["e_cont_unlabeled"][k] = e_cont(f_unl, omega_inf_unl)
        if do_lab and k <= chunks_cont:
            series["e_cont_labeled"][k] = e_cont(labeled, omega_inf_lab)
        if k <= chunks_cont and (do_unl or do_lab):
            g_vals = g_unl.values if do_unl else labeled.g
            series["g_first_moment"][k] = _first_moment(grid, g_vals)
            holder = g_unl if do_unl else labeled
            series["lyapunov_tilde"][k] = lyapunov_tilde(holder, operator)
        if k in snap_idx:
            snapshots[k] = _snapshot_row(graph, omega, grid, f_unl, labeled,
                                         do_micro, do_unl, do_lab)

    record(0)
    for k in range(1, n_chunks + 1):
        if do_micro and k <= chunks_micro:
            for _ in range(steps_micro):
                omega = euler_maruyama_step(graph, omega, operator, dt_micro,
                                            config.micro.noise_sigma, rng_noise)
        if k <= chunks_cont:
            for variant in cont.values():
                variant.advance(times[k - 1], si)
            if do_unl:
                f_unl, g_unl = cont["cont_unlabeled"].state
            if do_lab:
                labeled = cont["cont_labeled"].state
        record(k)

    report = RunReport(
        t=times, e_micro=series["e_micro"],
        e_cont_labeled=series["e_cont_labeled"],
        e_cont_unlabeled=series["e_cont_unlabeled"],
        conserved_micro=series["conserved_micro"],
        g_first_moment=series["g_first_moment"],
        v_micro=series["v_micro"],
        lyapunov_tilde=series["lyapunov_tilde"],
        continuum_dts={name: v.dts for name, v in cont.items()})

    if write_outputs:
        os.makedirs(config.output_dir, exist_ok=True)
        report.write_tsv(os.path.join(config.output_dir, "report.tsv"))
        save_config(config, os.path.join(config.output_dir, "config.ini"))
        for k, rows in snapshots.items():
            path = os.path.join(config.output_dir,
                                "snapshot_t%g.tsv" % times[k])
            _write_snapshot(path, rows)
    return report


def _snapshot_row(graph, omega, grid, f_unl, labeled, do_micro, do_unl, do_lab):
    cols = {"mid": grid.mids.copy()}
    if do_micro:
        cols["f_micro"] = empirical_f(omega, grid).values
    if do_unl:
        cols["f_cont_unlabeled"] = f_unl.values.copy()
    if do_lab:
        cols["f_cont_labeled"] = labeled.f_total()
        for p in range(labeled.n_groups):
            cols["f_cont_labeled_%d" % (p + 1)] = labeled.f[p].copy()
    return cols


def _write_snapshot(path, cols):
    names = list(cols)
    data = np.column_stack([cols[n] for n in names])
    with open(path, "w") as fh:
        fh.write("\t".join(names) + "\n")
        for row in data:
            fh.write("\t".join("%.17g" % x for x in row) + "\n")


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

    Each mixing value gets its own derived seed.  A failing value is
    reported with NaN rates and the sweep continues.  Returns (rows,
    failures): rows are dicts keyed by RATE_COLUMNS, failures (mu, message)
    pairs.
    """
    config.validate()
    if not config.mu_sweep:
        raise ConfigError("sweep: config.mu_sweep is empty")
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
            for tag, series in (("micro", report.e_micro),
                                ("cont_labeled", report.e_cont_labeled),
                                ("cont_unlabeled", report.e_cont_unlabeled)):
                rate, err = _fit_or_nan(report.t, series, t_lo)
                row["rate_%s" % tag] = rate
                row["fit_err_%s" % tag] = err
        except (ConfigError, SimulationError) as exc:
            failures.append((mu, str(exc)))
        rows.append(row)
    if write_outputs:
        os.makedirs(config.output_dir, exist_ok=True)
        rates_path = os.path.join(config.output_dir, "rates.tsv")
        with open(rates_path, "w") as fh:
            fh.write("\t".join(RATE_COLUMNS) + "\n")
            for row in rows:
                fh.write("\t".join("%.17g" % row[c] for c in RATE_COLUMNS)
                         + "\n")
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
