"""run_experiment over every subset of model variants: which report columns
each variant fills, and the snapshot files and columns it writes; the table
of continuum closures; and the micro step check that comes before any
set-up."""

import os
from dataclasses import replace

import numpy as np
import pytest

import opinet.continuum
import opinet.runner
from opinet.analysis import REPORT_COLUMNS
from opinet.config import MODEL_VARIANTS
from opinet.empirical import MixtureSpec
from opinet import (ConfigError, ContinuumParams, Grid, MicroParams, preset_three_communities, run_experiment,
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


def test_the_order_of_model_variants_changes_no_output(run):
    # the runner lifts, steps and snapshots in table order, whatever order
    # the config lists the variants in
    default, _ = run(tuple(MODEL_VARIANTS))
    reordered, _ = run(("cont_labeled", "cont_unlabeled", "micro"))
    names = ["report.tsv"] + ["snapshot_t%g.tsv" % t for t in SNAPSHOT_TIMES]
    for name in names:
        with open(os.path.join(default, name), "rb") as fh:
            expect = fh.read()
        with open(os.path.join(reordered, name), "rb") as fh:
            assert fh.read() == expect, name


def test_the_closure_table_holds_every_continuum_variant():
    assert list(opinet.runner._CLOSURES) == [
        v for v, section in MODEL_VARIANTS.items() if section == "continuum"]


def test_closures_look_their_lifts_up_when_called(monkeypatch, tmp_path):
    # a table that bound the functions when it was built would call the
    # originals, not these wrappers, and count nothing
    calls = {}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counting(opinet.runner, "empirical_g_kde")
    counting(opinet.runner, "split_by_group")
    counting(MixtureSpec, "cell_averages")
    config = replace(config_of(("cont_unlabeled", "cont_labeled"),
                               str(tmp_path)),
                     continuum=ContinuumParams(t_end=0.5))
    report = run_experiment(config)
    assert calls == {"empirical_g_kde": 1, "split_by_group": 1,
                     "cell_averages": 1}
    assert set(report.continuum_dts) == {"cont_unlabeled", "cont_labeled"}


def test_a_run_takes_one_velocity_pass_per_step(monkeypatch, tmp_path):
    # check returns the speeds of the state it checks, which the runner
    # passes to the step that follows, so each closure pays one pass per
    # step plus its first check
    passes = []
    speeds = opinet.continuum._moment_speeds
    monkeypatch.setattr(opinet.continuum, "_moment_speeds",
                        lambda *args: passes.append(1) or speeds(*args))
    built = []
    init = opinet.continuum.ContinuumStepper.__init__
    monkeypatch.setattr(opinet.continuum.ContinuumStepper, "__init__",
                        lambda *args: built.append(1) or init(*args))
    config = replace(preset_three_communities(), seed=3,
                     model_variants=("cont_unlabeled", "cont_labeled"),
                     output_dir=str(tmp_path))
    report = run_experiment(config)
    steps = sum(dts.size for chunks in report.continuum_dts.values()
                for dts in chunks)
    assert steps == 889
    assert len(passes) == steps + 2
    # the run builds one stepper, which serves both closures on every step
    assert len(built) == 1


class SetUp(Exception):
    pass


def micro_step_config(dt, out):
    # one step per sample interval of 2, so the chunked step is dt itself
    # when dt is 1 or 2
    return replace(preset_three_communities(), output_dir=str(out),
                   micro=MicroParams(dt=dt, t_end=4.0),
                   continuum=ContinuumParams(t_end=4.0), sample_interval=2.0,
                   snapshot_times=())


def test_a_micro_step_past_the_bound_is_refused_before_set_up(monkeypatch,
                                                             tmp_path):
    def no_set_up(config):
        raise SetUp
    monkeypatch.setattr(opinet.runner, "build_initial_state", no_set_up)
    for entry in (run_experiment, run_mu_sweep):
        # the linear operator's bound is 1, which euler_step allows
        with pytest.raises(ConfigError,
                           match=r"^micro\.dt: 2 gives a step of 2, which "
                                 r"violates 0 < dt <= 1$"):
            entry(micro_step_config(2.0, tmp_path))
        # a step equal to the bound passes the check and reaches set-up
        with pytest.raises(SetUp):
            entry(micro_step_config(1.0, tmp_path))
    # without the micro variant its step is never checked
    config = replace(micro_step_config(2.0, tmp_path),
                     model_variants=("cont_unlabeled",))
    with pytest.raises(SetUp):
        run_experiment(config)
