"""run_experiment over every subset of model variants: which report columns
each variant fills, and the snapshot files and columns it writes; and the
operator check that comes before any set-up."""

import os
from dataclasses import replace

import numpy as np
import pytest

import opinet.runner
from opinet.analysis import REPORT_COLUMNS
from opinet import (ConfigError, ContinuumParams, DebateOperator, Grid,
                    MicroParams, preset_three_communities, run_experiment,
                    run_mu_sweep)

MICRO_T_END, CONT_T_END = 3.0, 4.0
SNAPSHOT_TIMES = (0.0, 2.5, 3.0, 3.5, 4.0)
# report column -> (variants that fill it, t_end of its clock)
OWNERS = {
    "E_micro": (("micro",), MICRO_T_END),
    "conserved_micro": (("micro",), MICRO_T_END),
    "V_micro": (("micro",), MICRO_T_END),
    "E_cont_unlabeled": (("cont_unlabeled",), CONT_T_END),
    "E_cont_labeled": (("cont_labeled",), CONT_T_END),
    "g_first_moment": (("cont_unlabeled", "cont_labeled"), CONT_T_END),
    "lyapunov_tilde": (("cont_unlabeled", "cont_labeled"), CONT_T_END),
}


def config_of(variants, out="unused"):
    return replace(preset_three_communities(), model_variants=variants,
                   micro=MicroParams(dt=0.01, t_end=MICRO_T_END),
                   continuum=ContinuumParams(t_end=CONT_T_END),
                   sample_interval=0.5, output_dir=out)


def snapshot_times(variants):
    """The snapshot times inside a run of variants; a time outside the run
    is refused."""
    t_end = config_of(variants).t_end()
    return tuple(t for t in SNAPSHOT_TIMES if t <= t_end)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    runs = {}

    def run(variants):
        if variants not in runs:
            out = str(tmp_path_factory.mktemp("_".join(variants)))
            config = replace(config_of(variants, out),
                             snapshot_times=snapshot_times(variants))
            runs[variants] = out, run_experiment(config)
        return runs[variants]
    return run


@pytest.mark.parametrize("variants", [
    ("micro",), ("cont_unlabeled",), ("cont_labeled",),
    ("cont_unlabeled", "cont_labeled"),
    ("micro", "cont_unlabeled", "cont_labeled"),
], ids="+".join)
def test_each_variant_fills_its_own_columns_and_snapshots(run, variants):
    out, report = run(variants)
    assert tuple(report.series) == REPORT_COLUMNS
    assert set(OWNERS) == set(REPORT_COLUMNS[1:])
    for column, (owners, t_end) in OWNERS.items():
        series = report.series[column]
        filled = report.t <= t_end + 1e-9 if set(owners) & set(variants) \
            else np.zeros(report.t.size, dtype=bool)
        assert np.all(np.isfinite(series[filled])), column
        assert np.all(np.isnan(series[~filled])), column
    if set(OWNERS["g_first_moment"][0]) <= set(variants):
        _, unlabeled = run(("cont_unlabeled",))
        for column in ("g_first_moment", "lyapunov_tilde"):
            np.testing.assert_array_equal(report.series[column],
                                          unlabeled.series[column])

    names = {"snapshot_t%g.tsv" % t for t in snapshot_times(variants)}
    assert {n for n in os.listdir(out) if n.startswith("snapshot")} == names
    dx = Grid(101).dx
    for t in snapshot_times(variants):
        # a variant past its own t_end leaves its columns out
        live = [v for v in variants
                if t <= (MICRO_T_END if v == "micro" else CONT_T_END)]
        expect = ["mid"] + ["f_" + v for v in
                            ("micro", "cont_unlabeled", "cont_labeled")
                            if v in live]
        if "cont_labeled" in live:
            expect += ["f_cont_labeled_%d" % p for p in (1, 2, 3)]
        path = os.path.join(out, "snapshot_t%g.tsv" % t)
        with open(path) as fh:
            assert fh.readline().rstrip("\n").split("\t") == expect
        data = np.loadtxt(path, skiprows=1, ndmin=2)
        masses = dict(zip(expect[1:], dx * data[:, 1:].sum(axis=0)))
        if "cont_labeled" in live:
            # the per-group columns carry the group shares, which sum to 1
            masses["groups"] = sum(masses.pop(c) for c in expect[-3:])
        for column, mass in masses.items():
            assert abs(mass - 1.0) <= 1e-12, (path, column, mass)


def test_bad_operator_is_refused_before_set_up(monkeypatch):
    def no_set_up(config):
        raise AssertionError("set-up ran before the operator check")

    monkeypatch.setattr(opinet.runner, "build_initial_state", no_set_up)
    config = replace(preset_three_communities(), output_dir="unused")
    even = DebateOperator(d=lambda z: np.abs(np.asarray(z, dtype=float)),
                          w=lambda z: np.abs(z), lipschitz=1.0)
    increasing = DebateOperator(d=lambda z: np.asarray(z, dtype=float),
                                w=lambda z: -0.5 * np.square(z),
                                lipschitz=1.0)
    for entry in (run_experiment, run_mu_sweep):
        with pytest.raises(ConfigError, match="odd"):
            entry(config, operator=even, write_outputs=False)
        with pytest.raises(ConfigError, match="nonincreasing"):
            entry(config, operator=increasing, write_outputs=False)
