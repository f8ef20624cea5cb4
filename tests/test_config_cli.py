import configparser
import io
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from opinet import (ConfigError, ContinuumParams, ExperimentConfig,
                    GraphConfig, MicroParams, MixtureSpec, PRESETS,
                    load_config, preset_crossing, preset_three_communities,
                    replace_mixing, save_config)
from opinet import config as config_module
from opinet.cli import main


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


def saved_text(config):
    buf = io.StringIO()
    save_config(config, buf)
    return buf.getvalue()


def loaded(text):
    return load_config(io.StringIO(text))


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
        cfg, graph=replace(cfg.graph, proportions=(0.25, 0.75)),
        micro=replace(cfg.micro, noise_sigma=0.01, seed=7),
        continuum=replace(cfg.continuum, dt=0.005),
        model_variants=("micro", "cont_labeled"), snapshot_times=(0.0, 2.5))


# the optional keys follow the ones that are always written
EVERY_OPTIONAL_KEY_INI = (
    CROSSING_INI
    .replace("mixing_mu = 0.001\n", "mixing_mu = 0.001\nproportions = 0.25, 0.75\n")
    .replace("noise_sigma = 0.0\n", "noise_sigma = 0.01\nseed = 7\n")
    .replace("death_rate = 0.0\n", "death_rate = 0.0\ndt = 0.005\n")
    .replace("cont_unlabeled, cont_labeled", "cont_labeled")
    .replace("0.1, 0.5\n", "0.1, 0.5\nsnapshot_times = 0.0, 2.5\n"))


@pytest.mark.parametrize("config, text", [
    (preset_three_communities(), THREE_COMMUNITIES_INI),
    (preset_crossing(), CROSSING_INI),
    (every_optional_key(), EVERY_OPTIONAL_KEY_INI),
], ids=["three_communities", "crossing", "every_optional_key"])
def test_saved_text_is_pinned(config, text):
    assert saved_text(config) == text
    assert loaded(text) == config


def test_string_roundtrip_is_exact():
    cfg = small_config("somewhere")
    # floats that do not have short decimal forms, and numpy floats, must
    # survive the trip
    cfg = replace(cfg, micro=MicroParams(dt=1 / 3, t_end=0.7,
                                         noise_sigma=np.pi / 10, seed=42),
                  graph=replace(cfg.graph, mean_degree=np.float64(6.5)),
                  mu_sweep=(np.float64(0.1), 0.2))
    back = loaded(saved_text(cfg))
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


def test_unknown_key_rejected():
    text = saved_text(small_config("x"))
    with pytest.raises(ConfigError):
        loaded(text + "\n[graph]\nbogus = 1\n")


def test_bad_value_type_rejected():
    text = saved_text(small_config("x"))
    with pytest.raises(ConfigError):
        loaded(text.replace("n_nodes = 60", "n_nodes = sixty"))


def test_missing_section_rejected():
    text = saved_text(small_config("x"))
    head = text.split("[micro]")[0]
    with pytest.raises(ConfigError):
        loaded(head)


def test_missing_required_key_is_named(tmp_path, capsys):
    text = saved_text(small_config("x")).replace("n_nodes = 60\n", "")
    with pytest.raises(ConfigError, match=r"graph\.n_nodes"):
        loaded(text)
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
    parser.read_string(saved_text(small_config(tmp_path / "out")))
    parser[section][key] = value if key != "proportions" else value + ", 1"
    path = tmp_path / "cfg.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    name = r"%s\.%s" % (section, key)
    with pytest.raises(ConfigError, match=name + ".*not finite"):
        load_config(str(path))
    assert main(["run", "--config", str(path)]) == 1
    assert re.search(name, capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("component", ["nan:-0.5:0.05", "1.0:inf:0.05",
                                       "1.0:-0.5:inf", "1.0:-0.5:nan"])
def test_non_finite_mixture_component_is_refused_by_name(tmp_path, capsys,
                                                         component):
    # an infinite sigma had the rejection sampler draw forever
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read_string(saved_text(small_config(tmp_path / "out")))
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
    parser.read_string(saved_text(preset_crossing()))
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


def test_a_component_keeps_a_share_of_its_mass_in_range():
    # at center 0 the in-range mass is about 0.8 / sigma for a wide sigma
    MixtureSpec((((1.0, 0.0, 70.0),),))
    MixtureSpec((((1.0, 1.0, 1e-3),),))
    with pytest.raises(ConfigError, match="below 0.01"):
        MixtureSpec((((1.0, 0.0, 90.0),),))


@pytest.mark.parametrize("times, bad", [("-0.5, 0.5", "-0.5"),
                                        ("0.0, 1.0, 1.5", "1.5")],
                         ids=["before_start", "after_end"])
def test_snapshot_time_outside_the_run_is_refused(tmp_path, capsys, times,
                                                  bad):
    # such a time used to be clamped to the nearest end of the run
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read_string(saved_text(small_config(tmp_path / "out")))
    parser["run"]["snapshot_times"] = times
    path = tmp_path / "cfg.ini"
    with open(path, "w") as fh:
        parser.write(fh)
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
    s = cfg.seeds()
    assert s == {"graph": 18, "sample": 29, "noise": 40}
    # an explicit micro seed overrides only the noise stream
    cfg2 = replace(cfg, micro=replace(cfg.micro, seed=99))
    assert cfg2.seeds() == {"graph": 18, "sample": 29, "noise": 99}


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


def test_cli_config_errors_return_1(tmp_path):
    assert main(["run", "--config", str(tmp_path / "missing.ini")]) == 1
    assert main(["sweep", "--preset", "crossing", "--mus", "bad"]) == 1


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
    assert lines[0].split("\t")[0] == "mu"
    assert len(lines) == 3
    assert os.path.isdir(tmp_path / "sweep" / "mu_0.2")
