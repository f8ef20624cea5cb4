import configparser
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from opinet import (ConfigError, ContinuumParams, ExperimentConfig,
                    GraphConfig, MicroParams, MixtureSpec, PRESETS,
                    load_config, preset_crossing, preset_three_communities,
                    replace_mixing, run_experiment, save_config)
import opinet.cli
import opinet.runner
from opinet import SimulationError
from opinet import config as config_module
from opinet.analysis import REPORT_COLUMNS
from opinet.cli import main
from opinet.runner import RATE_COLUMNS


def small_config(out, seed=5):
    return ExperimentConfig(
        graph=GraphConfig(n_nodes=60, n_groups=2, mean_degree=6.0,
                          mixing_mu=0.2),
        mixture=MixtureSpec.crossing(),
        micro=MicroParams(dt=0.01, t_end=1.0),
        continuum=ContinuumParams(t_end=1.0),
        grid_size=41,
        sample_interval=0.25,
        output_dir=str(out),
        seed=seed)


def saved_text(config, tmp_path):
    path = tmp_path / "saved.ini"
    save_config(config, path)
    return path.read_text()


def loaded(text, tmp_path):
    path = tmp_path / "loaded.ini"
    path.write_text(text)
    return load_config(path)


THREE_COMMUNITIES_INI = """\
[graph]
n_nodes = 200
n_groups = 3
mean_degree = 10.0
mixing_mu = 0.05

[mixture]
community_1 = 0.6:-0.5:0.05, 0.4:0.25:0.012
community_2 = 1.0:0.0:0.012
community_3 = 0.4:-0.25:0.012, 0.6:0.5:0.05

[micro]
dt = 0.01
t_end = 10.0
noise_sigma = 0.0

[continuum]
t_end = 10.0
eta_cutoff = 1e-10
diffusion_sigma = 0.0
birth_rate = 0.0
death_rate = 0.0

[run]
grid_size = 101
model_variants = micro, cont_unlabeled, cont_labeled
sample_interval = 0.1
output_dir = out_three_communities
seed = 1
mu_sweep = 0.001, 0.01, 0.1, 0.5

"""

CROSSING_INI = """\
[graph]
n_nodes = 200
n_groups = 2
mean_degree = 10.0
mixing_mu = 0.001

[mixture]
community_1 = 0.6:-0.5:0.05, 0.4:0.25:0.012
community_2 = 0.4:-0.25:0.012, 0.6:0.5:0.05

[micro]
dt = 0.01
t_end = 8.0
noise_sigma = 0.0

[continuum]
t_end = 8.0
eta_cutoff = 1e-10
diffusion_sigma = 0.0
birth_rate = 0.0
death_rate = 0.0

[run]
grid_size = 101
model_variants = micro, cont_unlabeled, cont_labeled
sample_interval = 0.1
output_dir = out_crossing
seed = 2
mu_sweep = 0.001, 0.01, 0.1, 0.5

"""


def every_optional_key():
    cfg = preset_crossing()
    return replace(
        cfg, micro=replace(cfg.micro, noise_sigma=0.01),
        continuum=replace(cfg.continuum, dt=0.005),
        model_variants=("micro", "cont_labeled"), snapshot_times=(0.0, 2.5))


# the optional keys follow the ones that are always written
EVERY_OPTIONAL_KEY_INI = (
    CROSSING_INI
    .replace("noise_sigma = 0.0\n", "noise_sigma = 0.01\n")
    .replace("death_rate = 0.0\n", "death_rate = 0.0\ndt = 0.005\n")
    .replace("cont_unlabeled, cont_labeled", "cont_labeled")
    .replace("0.1, 0.5\n", "0.1, 0.5\nsnapshot_times = 0.0, 2.5\n"))


@pytest.mark.parametrize("config, text", [
    (preset_three_communities(), THREE_COMMUNITIES_INI),
    (preset_crossing(), CROSSING_INI),
    (every_optional_key(), EVERY_OPTIONAL_KEY_INI),
], ids=["three_communities", "crossing", "every_optional_key"])
def test_saved_text_is_pinned(tmp_path, config, text):
    assert saved_text(config, tmp_path) == text
    assert loaded(text, tmp_path) == config


def test_string_roundtrip_is_exact(tmp_path):
    cfg = small_config("somewhere")
    # floats that do not have short decimal forms, and numpy floats, must
    # survive the trip
    cfg = replace(cfg, micro=MicroParams(dt=1 / 3, t_end=0.75,
                                         noise_sigma=np.pi / 10),
                  graph=replace(cfg.graph, mean_degree=np.float64(6.5)),
                  mu_sweep=(np.float64(0.1), 0.2))
    back = loaded(saved_text(cfg, tmp_path), tmp_path)
    assert back == cfg


def test_file_roundtrip(tmp_path):
    cfg = small_config(tmp_path / "out")
    path = tmp_path / "cfg.ini"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_presets_are_valid():
    for name, factory in PRESETS.items():
        cfg = factory()
        cfg.validate()
        assert cfg.graph.n_nodes == 200
    assert preset_three_communities().graph.n_groups == 3
    assert preset_crossing().graph.mixing_mu == pytest.approx(1e-3)


def test_unknown_key_rejected(tmp_path):
    text = saved_text(small_config("x"), tmp_path)
    with pytest.raises(ConfigError):
        loaded(text + "\n[graph]\nbogus = 1\n", tmp_path)


@pytest.mark.parametrize("section, key, value", [
    ("graph", "proportions", "0.25, 0.75"), ("micro", "seed", "7")],
    ids=["graph.proportions", "micro.seed"])
def test_a_removed_key_is_refused_as_unknown(tmp_path, capsys, section, key,
                                             value):
    # keys that no workflow set were deleted; a file that still sets one
    # is refused, not run without it
    path = small_config_file(tmp_path, section, key, value)
    with pytest.raises(ConfigError, match=r"unknown key %s\.%s$"
                       % (section, key)):
        load_config(path)
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err == \
        "configuration error: config: unknown key %s.%s\n" % (section, key)
    assert not (tmp_path / "out").exists()


def test_bad_value_type_rejected(tmp_path):
    text = saved_text(small_config("x"), tmp_path)
    with pytest.raises(ConfigError):
        loaded(text.replace("n_nodes = 60", "n_nodes = sixty"), tmp_path)


def test_missing_section_rejected(tmp_path):
    text = saved_text(small_config("x"), tmp_path)
    head = text.split("[micro]")[0]
    with pytest.raises(ConfigError):
        loaded(head, tmp_path)


def test_missing_required_key_is_named(tmp_path, capsys):
    text = saved_text(small_config("x"), tmp_path).replace("n_nodes = 60\n",
                                                           "")
    with pytest.raises(ConfigError, match=r"graph\.n_nodes"):
        loaded(text, tmp_path)
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    assert main(["run", "--config", str(path)]) == 1
    assert "graph.n_nodes" in capsys.readouterr().err


# every float key of the INI table, so a key added later is covered too
FLOAT_KEYS = [(section, key) for section, keys in config_module._KEYS.items()
              for key, kind in keys.items()
              if kind in (config_module._FLOAT, config_module._FLOATS)]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("section, key", FLOAT_KEYS,
                         ids=[".".join(k) for k in FLOAT_KEYS])
def test_non_finite_float_is_refused_by_name(tmp_path, capsys, section, key,
                                             value):
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read_string(saved_text(small_config(tmp_path / "out"), tmp_path))
    parser[section][key] = value
    path = tmp_path / "cfg.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    name = r"%s\.%s" % (section, key)
    with pytest.raises(ConfigError, match=name + ".*not finite"):
        load_config(str(path))
    assert main(["run", "--config", str(path)]) == 1
    assert re.search(name, capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("section, key", FLOAT_KEYS,
                         ids=[".".join(k) for k in FLOAT_KEYS])
def test_a_non_finite_dataclass_float_is_refused_by_name(section, key,
                                                         value):
    # the Python API refuses what the INI reader refuses
    config = small_config("unused")
    if config_module._KEYS[section][key] is config_module._FLOATS:
        value = (value,)
    if section == "run":
        config = replace(config, **{key: value})
    else:
        config = replace(config, **{section: replace(
            getattr(config, section), **{key: value})})
    with pytest.raises(ConfigError, match=r"^%s\.%s: " % (section, key)):
        config.validate()


@pytest.mark.parametrize("section, key, value", [
    ("run", "grid_size", 101.5), ("run", "grid_size", np.nan),
    ("run", "seed", 1.5), ("graph", "n_nodes", 200.5),
    ("graph", "n_groups", 3.0)])
def test_a_non_integer_key_is_refused_by_name(tmp_path, section, key, value):
    # the INI reader's int() refuses these, so the Python API must too,
    # before it writes anything; 101.5 cells ran on 101, and the others
    # ended in a ValueError or TypeError traceback
    config = replace(preset_three_communities(),
                     output_dir=str(tmp_path / "out"))
    if section == "run":
        config = replace(config, **{key: value})
    else:
        config = replace(config, graph=replace(config.graph, **{key: value}))
    with pytest.raises(ConfigError,
                       match=r"^%s\.%s: must be an integer" % (section, key)):
        run_experiment(config)
    assert not (tmp_path / "out").exists()


def test_numpy_integer_keys_are_integers():
    config = preset_three_communities()
    replace(config, grid_size=np.int64(101), seed=np.uint8(1),
            graph=replace(config.graph, n_nodes=np.int32(200),
                          n_groups=np.int64(3))).validate()


@pytest.mark.parametrize("out", ["res%1", "a%%b", "out%20dir"])
def test_a_percent_sign_in_output_dir_is_literal(tmp_path, out):
    cfg = small_config(tmp_path / out)
    text = saved_text(cfg, tmp_path)
    assert "output_dir = %s\n" % (tmp_path / out) in text
    assert loaded(text, tmp_path) == cfg


def test_a_run_into_a_percent_directory_writes_its_config(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    save_config(replace(small_config(tmp_path / "out%20dir"),
                        snapshot_times=(0.5,)), cfg_path)
    out = tmp_path / "res%1"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert load_config(out / "config.ini").output_dir == str(out)
    assert (out / "snapshot_t0.5.tsv").exists()
    assert not (tmp_path / "out%20dir").exists()


@pytest.mark.parametrize("component", ["nan:-0.5:0.05", "1.0:inf:0.05",
                                       "1.0:-0.5:inf", "1.0:-0.5:nan"])
def test_non_finite_mixture_component_is_refused_by_name(tmp_path, capsys,
                                                         component):
    # an infinite sigma had the rejection sampler draw forever
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read_string(saved_text(small_config(tmp_path / "out"), tmp_path))
    parser["mixture"]["community_1"] = "0.5:0.0:0.1, " + component
    path = tmp_path / "cfg.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    with pytest.raises(ConfigError,
                       match=r"mixture\.community_1.*not finite"):
        load_config(str(path))
    assert main(["run", "--config", str(path)]) == 1
    assert "mixture.community_1" in capsys.readouterr().err


def test_wide_mixture_component_is_refused_quickly(tmp_path, capsys):
    # sigma 1e6 keeps 8e-7 of its mass inside [-1, 1], so the rejection
    # sampler would take about a million draws per opinion
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read_string(saved_text(preset_crossing(), tmp_path))
    parser["mixture"]["community_1"] = "1.0:-0.5:1e6"
    parser["run"]["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "cfg.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    with pytest.raises(ConfigError,
                       match=r"mixture: component 1:-0\.5:1e\+06"):
        load_config(str(path))
    assert main(["run", "--config", str(path)]) == 1
    assert "1e+06" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def one_group_config_file(tmp_path, component, n_nodes=60):
    """small_config with n_nodes in one group of mixture component w:c:s,
    saved to tmp_path / cfg.ini."""
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read_string(saved_text(small_config(tmp_path / "out"), tmp_path))
    parser["graph"]["n_nodes"] = str(n_nodes)
    parser["graph"]["n_groups"] = "1"
    parser.remove_option("mixture", "community_2")
    parser["mixture"]["community_1"] = component
    path = tmp_path / "cfg.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    return path


def test_a_sample_of_equal_opinions_is_refused(tmp_path, capsys):
    # sigma 1e-300 puts every opinion on the center; at 0.3 their sd came
    # out nonzero and the lift failed with no mass on the grid
    path = one_group_config_file(tmp_path, "1.0:0.3:1e-300")
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err == ("configuration error: bandwidth: "
                                       "sample is degenerate\n")
    assert not (tmp_path / "out").exists()


def test_a_sample_narrower_than_the_grid_is_refused(tmp_path, capsys):
    # sigma 1e-17 leaves a few of 1000 opinions an ulp (5.6e-17) off 0.3,
    # so the sample is not degenerate, but its bandwidth of about 3e-17 is
    # far below the grid's; the lift refuses it instead of finding no mass
    path = one_group_config_file(tmp_path, "1.0:0.3:1e-17", n_nodes=1000)
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: kde: bandwidth h = ")
    assert "dx = 0.0488" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_a_component_keeps_a_share_of_its_mass_in_range():
    # at center 0 the in-range mass is about 0.8 / sigma for a wide sigma
    MixtureSpec((((1.0, 0.0, 70.0),),))
    MixtureSpec((((1.0, 1.0, 1e-3),),))
    with pytest.raises(ConfigError, match="below 0.01"):
        MixtureSpec((((1.0, 0.0, 90.0),),))


def small_config_file(tmp_path, section, key, value):
    """small_config saved to tmp_path / cfg.ini with one key set to value."""
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read_string(saved_text(small_config(tmp_path / "out"), tmp_path))
    parser[section][key] = value
    path = tmp_path / "cfg.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    return path


@pytest.mark.parametrize("section, key, value", [
    ("continuum", "t_end", "1.06"), ("continuum", "t_end", "0.2"),
    ("micro", "t_end", "0.7"), ("run", "snapshot_times", "0.0, 0.3"),
    ("run", "sample_interval", "0.3")],
    ids=["continuum_past_a_tick", "continuum_before_the_first_tick",
         "micro_between_ticks", "snapshot_between_ticks",
         "interval_that_misses_the_end"])
def test_a_time_off_the_sampling_clock_is_refused(tmp_path, capsys, section,
                                                  key, value):
    # a t_end between two ticks used to run on to the next one, or, before
    # the first tick, never to step, and a snapshot time was rounded
    path = small_config_file(tmp_path, section, key, value)
    named = "run.snapshot_times" if key == "snapshot_times" \
        else r"(micro|continuum)\.t_end"
    with pytest.raises(ConfigError, match=named + ": .* is not a whole "
                       r"multiple of run\.sample_interval"):
        load_config(str(path))
    assert main(["run", "--config", str(path)]) == 1
    assert re.search(named, capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_the_sampling_clock_tolerates_round_off():
    # 0.7 / 0.1 and 2.3 / 0.1 are not whole numbers in floating point
    cfg = replace(small_config("x"), sample_interval=0.1,
                  micro=MicroParams(dt=0.01, t_end=0.7),
                  continuum=ContinuumParams(t_end=2.3),
                  snapshot_times=(0.0, 0.3, 0.7, 2.3))
    assert 0.7 / 0.1 != 7 and 2.3 / 0.1 != 23
    cfg.validate()


@pytest.mark.parametrize("times, bad", [("-0.5, 0.5", "-0.5"),
                                        ("0.0, 1.0, 1.5", "1.5")],
                         ids=["before_start", "after_end"])
def test_snapshot_time_outside_the_run_is_refused(tmp_path, capsys, times,
                                                  bad):
    # such a time used to be clamped to the nearest end of the run
    path = small_config_file(tmp_path, "run", "snapshot_times", times)
    with pytest.raises(ConfigError, match=r"run\.snapshot_times: %s\b"
                       % re.escape(bad)):
        load_config(str(path))
    assert main(["run", "--config", str(path)]) == 1
    assert "run.snapshot_times" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_run_ends_at_the_latest_t_end_of_its_variants():
    cfg = replace(small_config("x"), snapshot_times=(2.0,),
                  continuum=ContinuumParams(t_end=2.0))
    cfg.validate()
    with pytest.raises(ConfigError, match=r"run\.snapshot_times"):
        replace(cfg, model_variants=("micro",)).validate()


def test_group_count_must_match_mixture():
    cfg = small_config("x")
    bad = replace(cfg, mixture=MixtureSpec.three_communities())
    with pytest.raises(ConfigError):
        bad.validate()


def test_seed_offsets():
    cfg = small_config("x", seed=7)
    assert cfg.seeds() == {"graph": 18, "sample": 29, "noise": 40}


def test_a_negative_seed_is_refused_by_name(tmp_path, capsys):
    # numpy refuses a negative stream seed only inside the run, with exit 2
    # and no key named, and seeds -1 to -11 get past it through the offsets
    path = small_config_file(tmp_path, "run", "seed", "-2")
    with pytest.raises(ConfigError, match=r"run\.seed: must be >= 0"):
        load_config(str(path))
    assert main(["run", "--config", str(path)]) == 1
    assert "run.seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_negative_seed_override_is_refused(tmp_path, capsys):
    assert main(["run", "--preset", "crossing", "--seed", "-30",
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == \
        "configuration error: run.seed: must be >= 0\n"
    assert not (tmp_path / "out").exists()


def test_a_sweep_value_the_graph_cannot_host_is_refused(tmp_path, capsys):
    # at mu = 0 each member of a 10-node community needs 10 neighbours
    # inside it, so that value could only give a NaN row
    cfg = replace(small_config(tmp_path / "out"),
                  graph=GraphConfig(n_nodes=30, n_groups=3, mean_degree=10.0,
                                    mixing_mu=0.5),
                  mixture=MixtureSpec.three_communities(),
                  mu_sweep=(0.5, 0.0))
    path = tmp_path / "cfg.ini"
    save_config(cfg, path)
    with pytest.raises(ConfigError, match=r"run\.mu_sweep: 0: .*cannot host"):
        load_config(str(path))
    assert main(["sweep", "--config", str(path)]) == 1
    assert "run.mu_sweep" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("changes, named, shared", [
    ({"mu_sweep": (0.1, 0.1000001)}, "run.mu_sweep", "mu_0.1"),
    ({"mu_sweep": (0.2, 0.4, 0.2)}, "run.mu_sweep", "mu_0.2"),
    ({"snapshot_times": (0.25, 0.2500001), "sample_interval": 1e-7},
     "run.snapshot_times", "snapshot_t0.25.tsv"),
    ({"snapshot_times": (0.5, 0.75, 0.5)}, "run.snapshot_times",
     "snapshot_t0.5.tsv")],
    ids=["mu_alike_under_g", "mu_repeated", "snapshot_alike_under_g",
         "snapshot_repeated"])
def test_values_that_share_an_output_are_refused(changes, named, shared):
    # the later value's output used to overwrite the earlier one's
    cfg = replace(small_config("x"), **changes)
    with pytest.raises(ConfigError, match=r"^%s: .* both write %s$"
                       % (re.escape(named), re.escape(shared))):
        cfg.validate()


@pytest.mark.parametrize("args, changes, named", [
    (["run"], {"snapshot_times": (0.5, 0.75, 0.5)}, "run.snapshot_times"),
    (["sweep", "--mus", "0.1,0.1000001"], {}, "run.mu_sweep")],
    ids=["run_snapshots", "sweep_mus"])
def test_a_shared_output_is_refused_before_set_up(tmp_path, capsys,
                                                  monkeypatch, args, changes,
                                                  named):
    def no_graph(config):
        raise AssertionError("a graph was generated")
    monkeypatch.setattr(opinet.runner, "generate_community_graph", no_graph)
    path = tmp_path / "cfg.ini"
    save_config(replace(small_config(tmp_path / "out"), **changes), path)
    assert main([*args, "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        "configuration error: %s: " % named)
    assert not (tmp_path / "out").exists()


def test_a_fixed_step_past_the_bound_is_refused_before_set_up(
        tmp_path, capsys, monkeypatch):
    # the worst-case bound needs only the grid, the operator and the
    # [continuum] section, so neither command builds a graph first
    def no_graph(config):
        raise AssertionError("a graph was generated")
    monkeypatch.setattr(opinet.runner, "generate_community_graph", no_graph)
    cfg = replace(small_config(tmp_path / "out"),
                  continuum=ContinuumParams(dt=0.5, t_end=1.0))
    path = tmp_path / "cfg.ini"
    save_config(cfg, path)
    assert main(["run", "--config", str(path)]) == 1
    assert main(["sweep", "--config", str(path), "--mus", "0.2,0.4"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    for line in err:
        assert line.startswith("configuration error: continuum.dt: 0.5 "), \
            line
        assert "violates" in line
    assert not (tmp_path / "out").exists()


def test_a_micro_step_past_the_bound_is_refused_before_set_up(
        tmp_path, capsys, monkeypatch):
    # the bound needs only the operator and the [micro] and [run]
    # sections, so neither command builds a graph first, and a step no
    # mixing value can take fails the sweep once, not once per value
    def no_graph(config):
        raise AssertionError("a graph was generated")
    monkeypatch.setattr(opinet.runner, "generate_community_graph", no_graph)
    cfg = replace(small_config(tmp_path / "out"),
                  micro=MicroParams(dt=2.0, t_end=2.0),
                  continuum=ContinuumParams(t_end=2.0), sample_interval=2.0)
    path = tmp_path / "cfg.ini"
    save_config(cfg, path)
    assert main(["run", "--config", str(path)]) == 1
    assert main(["sweep", "--config", str(path), "--mus", "0.2,0.4"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "configuration error: micro.dt: 2 gives a step of 2, which "
        "violates 0 < dt <= 1"] * 2
    assert not (tmp_path / "out").exists()


def test_replace_mixing_is_nondestructive():
    cfg = preset_three_communities()
    out = replace_mixing(cfg, 0.4)
    assert out.graph.mixing_mu == 0.4
    assert cfg.graph.mixing_mu == pytest.approx(0.05)
    assert out.mixture == cfg.mixture


def test_cli_presets_lists_names(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "three_communities" in out and "crossing" in out


def test_cli_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["run"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "--preset", "nope"])
    assert exc.value.code == 2


def test_cli_config_errors_return_1(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.ini")]) == 1
    assert main(["sweep", "--preset", "crossing", "--mus", "bad"]) == 1
    # a configuration error is one line each, without a traceback
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("configuration error: ") for line in err)


def test_an_empty_mus_is_refused(tmp_path, capsys):
    # an empty --mus used to run the config's own mixing values
    assert main(["sweep", "--preset", "crossing", "--mus", "",
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == ("configuration error: sweep: "
                                       "config.mu_sweep is empty\n")
    assert not (tmp_path / "out").exists()


def test_cli_failures_keep_their_traceback(tmp_path, capsys, monkeypatch):
    def fail(config):
        raise RuntimeError("no state")
    monkeypatch.setattr(opinet.cli, "run_experiment", fail)
    assert main(["run", "--preset", "crossing",
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):\n")
    assert "in fail\n" in err
    assert err.endswith("RuntimeError: no state\nrun failed: no state\n")


def test_cli_run_and_determinism(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.ini"
    save_config(small_config(tmp_path / "a"), cfg_path)
    assert main(["run", "--config", str(cfg_path)]) == 0
    # each continuum variant reports its step count and step range
    printed = capsys.readouterr().out
    for name in ("cont_unlabeled", "cont_labeled"):
        assert re.search(r"\n  %s: \d+ steps, dt min \S+ max \S+\n" % name,
                         printed), printed
    report_a = tmp_path / "a" / "report.tsv"
    assert report_a.exists()
    assert (tmp_path / "a" / "config.ini").exists()
    # identical seed reruns are byte-identical
    assert main(["run", "--config", str(cfg_path),
                 "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "b" / "report.tsv").read_bytes() == \
        report_a.read_bytes()
    # a different seed changes the sampled data
    assert main(["run", "--config", str(cfg_path), "--seed", "6",
                 "--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "c" / "report.tsv").read_bytes() != \
        report_a.read_bytes()


def test_cli_sweep_writes_rates(tmp_path):
    cfg = small_config(tmp_path / "sweep")
    cfg_path = tmp_path / "cfg.ini"
    save_config(cfg, cfg_path)
    assert main(["sweep", "--config", str(cfg_path),
                 "--mus", "0.2,0.4"]) == 0
    rates = tmp_path / "sweep" / "rates.tsv"
    assert rates.exists()
    lines = rates.read_text().strip().splitlines()
    assert tuple(lines[0].split("\t")) == RATE_COLUMNS
    assert len(lines) == 3
    assert os.path.isdir(tmp_path / "sweep" / "mu_0.2")
    # rates.tsv has a rate and a fit error per error series of the report,
    # and rates.gp one curve per error series, on its rate column
    errors = [c[2:] for c in REPORT_COLUMNS if c.startswith("E_")]
    assert RATE_COLUMNS == ("mu", *("rate_" + e for e in errors),
                            *("fit_err_" + e for e in errors))
    plotted = re.findall(r'using 1:(\d+) with linespoints title "(\w+)"',
                         (tmp_path / "sweep" / "rates.gp").read_text())
    assert [(RATE_COLUMNS[int(col) - 1], title) for col, title in plotted] \
        == [("rate_" + e, e.removeprefix("cont_")) for e in errors]


def test_a_failing_mixing_value_gives_a_nan_row(tmp_path, capsys,
                                                monkeypatch):
    run = opinet.runner.run_experiment

    def fail_at_04(config):
        if config.graph.mixing_mu == 0.4:
            raise SimulationError("cont_labeled: step 3 returned a "
                                  "non-finite state")
        return run(config)
    monkeypatch.setattr(opinet.runner, "run_experiment", fail_at_04)
    # samples enough for every fit of the value that runs
    cfg = replace(small_config(tmp_path / "sweep"), sample_interval=0.05)
    cfg_path = tmp_path / "cfg.ini"
    save_config(cfg, cfg_path)
    assert main(["sweep", "--config", str(cfg_path),
                 "--mus", "0.2,0.4"]) == 0
    assert capsys.readouterr().err == ("mu=0.4 failed: cont_labeled: step 3 "
                                       "returned a non-finite state\n")
    rows = np.loadtxt(tmp_path / "sweep" / "rates.tsv", skiprows=1)
    assert rows[:, 0].tolist() == [0.2, 0.4]
    assert np.isfinite(rows[0]).all()
    assert np.isnan(rows[1, 1:]).all()
    rows, failures = opinet.runner.run_mu_sweep(
        replace(cfg, mu_sweep=(0.4,), output_dir=str(tmp_path / "one")))
    assert failures == [(0.4, "cont_labeled: step 3 returned a non-finite "
                              "state")]
    assert rows[0]["mu"] == 0.4
    assert all(np.isnan(rows[0][c]) for c in RATE_COLUMNS[1:])


def test_sweep_failures_reach_failures_tsv(tmp_path, monkeypatch):
    run = opinet.runner.run_experiment

    def fail_at_04(config):
        if config.graph.mixing_mu == 0.4:
            raise SimulationError("cont_labeled: step 3 returned\ta\n"
                                  "non-finite state")
        return run(config)
    monkeypatch.setattr(opinet.runner, "run_experiment", fail_at_04)
    cfg = replace(small_config(tmp_path / "sweep"), sample_interval=0.05)
    cfg_path = tmp_path / "cfg.ini"
    save_config(cfg, cfg_path)
    assert main(["sweep", "--config", str(cfg_path),
                 "--mus", "0.2,0.4,0.3"]) == 0
    # one row per failing value, its message on one line in one cell
    lines = (tmp_path / "sweep" / "failures.tsv").read_text().splitlines()
    assert lines == ["mu\tmessage",
                     "0.40000000000000002\tcont_labeled: step 3 returned a "
                     "non-finite state"]
    assert float(lines[1].split("\t")[0]) == 0.4
    # the other values still get their rates
    rows = np.loadtxt(tmp_path / "sweep" / "rates.tsv", skiprows=1)
    assert rows[:, 0].tolist() == [0.2, 0.4, 0.3]
    assert np.isfinite(rows[[0, 2]]).all()
    assert np.isnan(rows[1, 1:]).all()
    # a sweep in which every value runs writes the header alone
    assert main(["sweep", "--config", str(cfg_path), "--mus", "0.2"]) == 0
    assert (tmp_path / "sweep" / "failures.tsv").read_text() \
        == "mu\tmessage\n"
