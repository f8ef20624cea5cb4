import os
import re
from dataclasses import replace

import numpy as np
import pytest

from opinet import (ConfigError, ContinuumRunParams, ExperimentConfig,
                    GraphConfig, MicroParams, MixtureSpec, PRESETS,
                    config_from_string, config_to_string, load_config,
                    preset_crossing, preset_three_communities, replace_mixing,
                    save_config)
from opinet.cli import main


def small_config(out, seed=5):
    return ExperimentConfig(
        graph=GraphConfig(n_nodes=60, n_groups=2, mean_degree=6.0,
                          mixing_mu=0.2),
        mixture=MixtureSpec.crossing(),
        micro=MicroParams(dt=0.01, t_end=1.0),
        continuum=ContinuumRunParams(t_end=1.0),
        grid_size=41,
        sample_interval=0.25,
        output_dir=str(out),
        seed=seed)


def test_string_roundtrip_is_exact():
    cfg = small_config("somewhere")
    # floats that do not have short decimal forms must survive the trip
    cfg = replace(cfg, micro=MicroParams(dt=1 / 3, t_end=0.7,
                                         noise_sigma=np.pi / 10, seed=42))
    back = config_from_string(config_to_string(cfg))
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
    text = config_to_string(small_config("x"))
    with pytest.raises(ConfigError):
        config_from_string(text + "\n[graph]\nbogus = 1\n")


def test_bad_value_type_rejected():
    text = config_to_string(small_config("x"))
    with pytest.raises(ConfigError):
        config_from_string(text.replace("n_nodes = 60", "n_nodes = sixty"))


def test_missing_section_rejected():
    text = config_to_string(small_config("x"))
    head = text.split("[micro]")[0]
    with pytest.raises(ConfigError):
        config_from_string(head)


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
