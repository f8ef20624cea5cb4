"""Experiment configuration: dataclasses plus an INI file format.

Floats are written with repr so a save/load cycle reproduces the
configuration exactly.  Unknown sections or keys are rejected rather than
ignored; a config file that parses is a config file that runs.
"""

import configparser
import math
from dataclasses import MISSING, dataclass, field, fields, replace

from .errors import ConfigError, check_integer
from .graph import GraphConfig
from .empirical import MixtureSpec
from .continuum import ContinuumParams

# each model variant -> the section that holds its parameters
MODEL_VARIANTS = {"micro": "micro", "cont_unlabeled": "continuum",
                  "cont_labeled": "continuum"}

# fixed offsets decouple the independent random streams of one experiment
SEED_OFFSET_GRAPH = 11
SEED_OFFSET_SAMPLE = 22
SEED_OFFSET_NOISE = 33

# where a sweep writes each mixing value's run, and a run each snapshot
SWEEP_DIR = "mu_%g"
SNAPSHOT_FILE = "snapshot_t%g.tsv"


@dataclass
class MicroParams:
    dt: float = 0.01
    t_end: float = 10.0
    noise_sigma: float = 0.0

    def validate(self):
        # NaN fails every test here, as it fails the INI reader
        if not 0 < self.dt < math.inf:
            raise ConfigError("micro.dt: must be positive and finite")
        if not 0 < self.t_end < math.inf:
            raise ConfigError("micro.t_end: must be positive and finite")
        if not 0 <= self.noise_sigma < math.inf:
            raise ConfigError("micro.noise_sigma: must be >= 0 and finite")
        return self


@dataclass
class ExperimentConfig:
    graph: GraphConfig
    mixture: MixtureSpec
    micro: MicroParams = field(default_factory=MicroParams)
    continuum: ContinuumParams = field(default_factory=ContinuumParams)
    grid_size: int = 101
    model_variants: tuple = tuple(MODEL_VARIANTS)
    mu_sweep: tuple = ()
    snapshot_times: tuple = ()
    sample_interval: float = 0.1
    output_dir: str = "out"
    seed: int = 0

    def t_end(self):
        """When the run ends: the latest t_end of the requested variants."""
        return max(getattr(self, MODEL_VARIANTS[v]).t_end
                   for v in self.model_variants)

    def validate(self):
        for key in ("grid_size", "seed"):
            check_integer("run." + key, getattr(self, key))
        self.graph.validate()
        self.micro.validate()
        self.continuum.validate()
        if self.mixture.n_groups != self.graph.n_groups:
            raise ConfigError("mixture: community count must match the graph")
        if self.grid_size < 2:
            raise ConfigError("run.grid_size: need at least two cells")
        if not self.model_variants:
            raise ConfigError("run.model_variants: choose at least one variant")
        for mu in self.mu_sweep:
            # a sweep value must give a graph that the sweep can build
            try:
                replace_mixing(self, mu).graph.validate()
            except ConfigError as exc:
                raise ConfigError("run.mu_sweep: %g: %s" % (mu, exc))
        _one_output_each("run.mu_sweep", self.mu_sweep,
                         [SWEEP_DIR % mu for mu in self.mu_sweep])
        si = self.sample_interval
        if not 0 < si < math.inf:
            raise ConfigError("run.sample_interval: must be positive and "
                              "finite")
        # the run advances and records on the sampling clock only, so each
        # requested end and each snapshot must fall on one of its ticks
        for v in self.model_variants:
            if v not in MODEL_VARIANTS:
                raise ConfigError("run.model_variants: unknown variant %r"
                                  % (v,))
            section = MODEL_VARIANTS[v]
            t = getattr(self, section).t_end
            if not _on_clock(t, si):
                raise ConfigError("%s.t_end: %g is not a whole multiple of "
                                  "run.sample_interval, %g" % (section, t, si))
        for t in self.snapshot_times:
            if not 0.0 <= t <= self.t_end():
                raise ConfigError("run.snapshot_times: %g lies outside the "
                                  "run, [0, %g]" % (t, self.t_end()))
            if not _on_clock(t, si):
                raise ConfigError("run.snapshot_times: %g is not a whole "
                                  "multiple of run.sample_interval, %g"
                                  % (t, si))
        # the run names a snapshot after its tick's time
        _one_output_each("run.snapshot_times", self.snapshot_times,
                         [SNAPSHOT_FILE % (round(t / si) * si)
                          for t in self.snapshot_times])
        if not self.output_dir:
            raise ConfigError("run.output_dir: must be nonempty")
        if self.seed < 0:
            raise ConfigError("run.seed: must be >= 0")
        return self

    def seeds(self):
        """Independent stream seeds derived from the master seed."""
        return {"graph": self.seed + SEED_OFFSET_GRAPH,
                "sample": self.seed + SEED_OFFSET_SAMPLE,
                "noise": self.seed + SEED_OFFSET_NOISE}


def _one_output_each(key, values, names):
    # values whose outputs share a name would overwrite one another
    seen = {}
    for value, name in zip(values, names):
        if name in seen:
            raise ConfigError("%s: %r and %r both write %s"
                              % (key, float(seen[name]), float(value), name))
        seen[name] = value


def _on_clock(t, interval):
    # t / interval is a whole number, to 1e-9 relative
    ticks = t / interval
    return abs(ticks - round(ticks)) <= 1e-9 * ticks


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("%r is not finite" % text.strip())
    return value


def _floats(text):
    return tuple(_finite(s) for s in text.split(",") if s.strip())


def _names(text):
    return tuple(s.strip() for s in text.split(",") if s.strip())


# (parser, writer) per key type; floats are written with repr so a
# save/load cycle reproduces them exactly, and read back only if finite
_INT = (int, str)
_FLOAT = (_finite, lambda v: repr(float(v)))
_TEXT = (str, str)
_FLOATS = (_floats, lambda v: ", ".join(repr(float(x)) for x in v))
_NAMES = (_names, ", ".join)

# One ordered table per section, key -> (parser, writer).  Each key names
# an attribute of the section's dataclass; save_config writes the keys in
# this order and leaves out those whose value is None or ().  [mixture]
# holds community_1..community_k instead.
_KEYS = {
    "graph": {"n_nodes": _INT, "n_groups": _INT, "mean_degree": _FLOAT,
              "mixing_mu": _FLOAT},
    "micro": {"dt": _FLOAT, "t_end": _FLOAT, "noise_sigma": _FLOAT},
    "continuum": {"t_end": _FLOAT, "eta_cutoff": _FLOAT,
                  "diffusion_sigma": _FLOAT, "birth_rate": _FLOAT,
                  "death_rate": _FLOAT, "dt": _FLOAT},
    "run": {"grid_size": _INT, "model_variants": _NAMES,
            "sample_interval": _FLOAT, "output_dir": _TEXT, "seed": _INT,
            "mu_sweep": _FLOATS, "snapshot_times": _FLOATS},
}


def _encode(name, obj):
    out = {}
    for key, (_, write) in _KEYS[name].items():
        value = getattr(obj, key)
        if value is None or isinstance(value, tuple) and not value:
            continue
        out[key] = write(value)
    return out


def _decode(parser, name, cls, **given):
    section = parser[name] if name in parser else {}
    values = {}
    for key, (parse, _) in _KEYS[name].items():
        if key in section:
            try:
                values[key] = parse(section[key])
            except ValueError as exc:
                raise ConfigError("config: bad value for %s.%s: %s"
                                  % (name, key, exc))
    for f in fields(cls):
        if (f.name not in values and f.name not in given
                and f.default is MISSING and f.default_factory is MISSING):
            raise ConfigError("config: missing key %s.%s" % (name, f.name))
    return cls(**values, **given)


def _encode_mixture(mixture):
    out = {}
    for c, comps in enumerate(mixture.communities):
        out["community_%d" % (c + 1)] = ", ".join(
            "%s:%s:%s" % (repr(float(w)), repr(float(m)), repr(float(s)))
            for w, m, s in comps)
    return out


def _decode_component(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("mixture: component %r is not weight:center:sigma"
                          % (text,))
    return tuple(_finite(p) for p in parts)


def _decode_mixture(section):
    communities = []
    for c in range(len(section)):
        key = "community_%d" % (c + 1)
        if key not in section:
            raise ConfigError("mixture: communities must be numbered 1..k")
        try:
            communities.append(tuple(_decode_component(part.strip())
                                     for part in section[key].split(",")
                                     if part.strip()))
        except ValueError as exc:
            raise ConfigError("config: bad value for mixture.%s: %s"
                              % (key, exc))
    return MixtureSpec(tuple(communities))


def _parser():
    # values are literal: a "%" in output_dir is a character, not a lookup
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    return parser


def save_config(config, path):
    parser = _parser()
    parser["graph"] = _encode("graph", config.graph)
    parser["mixture"] = _encode_mixture(config.mixture)
    parser["micro"] = _encode("micro", config.micro)
    parser["continuum"] = _encode("continuum", config.continuum)
    parser["run"] = _encode("run", config)
    with open(path, "w") as fh:
        parser.write(fh)


def _check_keys(parser):
    for section in parser.sections():
        if section == "mixture":
            for key in parser["mixture"]:
                if not key.startswith("community_"):
                    raise ConfigError("config: unknown key mixture.%s" % key)
            continue
        if section not in _KEYS:
            raise ConfigError("config: unknown section [%s]" % section)
        for key in parser[section]:
            if key not in _KEYS[section]:
                raise ConfigError("config: unknown key %s.%s" % (section, key))


def load_config(path):
    parser = _parser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ConfigError("config: %s" % exc)
    _check_keys(parser)
    for needed in ("graph", "mixture", "run"):
        if needed not in parser:
            raise ConfigError("config: missing section [%s]" % needed)
    config = _decode(
        parser, "run", ExperimentConfig,
        graph=_decode(parser, "graph", GraphConfig),
        mixture=_decode_mixture(parser["mixture"]),
        micro=_decode(parser, "micro", MicroParams),
        continuum=_decode(parser, "continuum", ContinuumParams))
    return config.validate()


def preset_three_communities():
    """Three communities with bimodal tails and a tight center group."""
    return ExperimentConfig(
        graph=GraphConfig(n_nodes=200, n_groups=3, mean_degree=10.0,
                          mixing_mu=0.05),
        mixture=MixtureSpec.three_communities(),
        micro=MicroParams(dt=0.01, t_end=10.0),
        continuum=ContinuumParams(t_end=10.0),
        grid_size=101,
        mu_sweep=(0.001, 0.01, 0.1, 0.5),
        output_dir="out_three_communities",
        seed=1)


def preset_crossing():
    """Two half-and-half communities whose bulks swap sides over time."""
    return ExperimentConfig(
        graph=GraphConfig(n_nodes=200, n_groups=2, mean_degree=10.0,
                          mixing_mu=0.001),
        mixture=MixtureSpec.crossing(),
        micro=MicroParams(dt=0.01, t_end=8.0),
        continuum=ContinuumParams(t_end=8.0),
        grid_size=101,
        mu_sweep=(0.001, 0.01, 0.1, 0.5),
        output_dir="out_crossing",
        seed=2)


PRESETS = {"three_communities": preset_three_communities,
           "crossing": preset_crossing}


def replace_mixing(config, mu):
    """Copy of config with the graph mixing parameter replaced."""
    return replace(config, graph=replace(config.graph, mixing_mu=mu))
