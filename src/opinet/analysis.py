"""Diagnostics: consensus values, energies, Lyapunov proxy, rate fits.

Continuum functionals mirror their microscopic counterparts: the pair
density's first moment plays the role of the degree-weighted opinion mean,
the f-weighted RMS distance from it the role of the consensus error, and
the pairwise potential integral the role of the graph potential energy.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SimulationError

REPORT_COLUMNS = ("t", "E_micro", "E_cont_labeled", "E_cont_unlabeled",
                  "conserved_micro", "g_first_moment", "V_micro",
                  "lyapunov_tilde")


def consensus_value_cont(g):
    """First moment of the pair density: dx^2 sum_ij mid_i g_ij.

    Requires g normalized to mass 1 (tolerance 1e-10); the moment is only
    the consensus predictor for a probability pair density.
    """
    mass = g.mass()
    if abs(mass - 1.0) > 1e-10:
        raise ConfigError("analysis: pair density mass %.3e is not 1" % mass)
    return first_moment(g)


def first_moment(g):
    """dx^2 sum_ij mid_i g_ij of a PairField, whatever its mass."""
    grid = g.grid
    return float(grid.dx ** 2 * np.sum(grid.mids[:, None] * g.values))


def e_cont(field, omega_inf):
    """RMS opinion distance from omega_inf under the one-body density.

    Accepts a ScalarField or a LabeledFields; labels are summed.  The total
    one-body mass must be 1 within 1e-8.
    """
    if hasattr(field, "f_total"):
        grid, vals = field.grid, field.f_total()
    else:
        grid, vals = field.grid, np.asarray(field.values, dtype=float)
    mass = grid.dx * vals.sum()
    if abs(mass - 1.0) > 1e-8:
        raise ConfigError("analysis: one-body mass %.3e is not 1" % mass)
    second = grid.dx * np.sum(np.square(grid.mids - omega_inf) * vals)
    return float(np.sqrt(max(second, 0.0)))


def lyapunov_tilde(g, operator):
    """Pairwise potential integral dx^2 sum_ij W(mid_i - mid_j) g_ij.

    Labeled densities are summed over blocks.  W is a view of its 2n - 1
    distinct values, so the products, formed in one n x n array, are the
    only n x n temporary.
    """
    terms = (np.array(g.values, dtype=float) if hasattr(g, "values")
             else g.g_total())
    terms *= g.grid.difference_matrix(operator.w)
    return float(g.grid.dx ** 2 * terms.sum())


def fit_exponential_rate(times, values, t_lo=None, t_hi=None, floor_factor=3.0):
    """Least-squares exponential decay rate over a time window.

    Fits log(values) linearly in time on samples with t_lo <= t <= t_hi and
    returns (rate, fit_error) with rate = -slope and fit_error the mean
    relative residual of the log values.  Samples below floor_factor times
    the windowed minimum are treated as a resolution floor: the fit stops
    at the first such sample, unless that leaves fewer than 10 points, in
    which case the full window is used.  Needs at least 10 positive samples.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1:
        raise ConfigError("fit: times and values must be matching 1-D arrays")
    mask = np.ones(times.size, dtype=bool)
    if t_lo is not None:
        mask &= times >= t_lo
    if t_hi is not None:
        mask &= times <= t_hi
    t = times[mask]
    v = values[mask]
    if t.size < 10:
        raise SimulationError("fit: need at least 10 samples in the window")
    if np.any(~np.isfinite(v)) or np.any(v <= 0):
        raise SimulationError("fit: values must be positive and finite")
    if floor_factor is not None:
        floor = float(v.min())
        below = np.flatnonzero(v < floor_factor * floor)
        if below.size and below[0] >= 10:
            t = t[:below[0]]
            v = v[:below[0]]
    logv = np.log(v)
    slope, intercept = np.polyfit(t, logv, 1)
    fitted = slope * t + intercept
    # samples with log v = 0 carry no relative scale; count them at weight 1
    denom = np.where(np.abs(logv) > 0.0, np.abs(logv), 1.0)
    fit_error = float(np.mean(np.abs(logv - fitted) / denom))
    return float(-slope), fit_error


@dataclass
class RunReport:
    """Time series produced by one experiment run.

    series maps each REPORT_COLUMNS name, t first, to its array; columns
    missing from the run (variants not requested) hold NaN.
    continuum_dts maps each continuum variant run to its step sizes, one
    array per sample interval; it is not part of the TSV.
    """

    series: dict
    continuum_dts: dict = field(default_factory=dict)

    @property
    def t(self):
        return self.series["t"]

    def write_tsv(self, path):
        write_table(path, REPORT_COLUMNS,
                    [self.series[name] for name in REPORT_COLUMNS])


def _cell(value):
    # a number as %.17g, so that it reads back exactly; a string with each
    # run of whitespace made one space, so that it keeps to its cell
    if isinstance(value, str):
        return " ".join(value.split())
    return "%.17g" % value


def write_table(path, names, columns):
    """Write equal-length columns as tab-separated text under a header of
    names: each number as %.17g, so that it reads back exactly, and each
    string on one line with its whitespace runs made single spaces."""
    with open(path, "w") as fh:
        fh.write("\t".join(names) + "\n")
        for row in zip(*columns):
            fh.write("\t".join(_cell(x) for x in row) + "\n")
