"""Command line interface: run one experiment or sweep the mixing parameter."""

import argparse
import sys

import numpy as np

from .errors import ConfigError
from .config import PRESETS, load_config
from .runner import run_experiment, run_mu_sweep, RATE_COLUMNS, ERROR_SERIES


def build_parser():
    parser = argparse.ArgumentParser(
        prog="opinet",
        description="Opinion dynamics on community graphs: agent-based runs "
                    "and continuum closures.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    _add_config_args(run_p)

    sweep_p = sub.add_parser("sweep", help="sweep the mixing parameter")
    _add_config_args(sweep_p)
    sweep_p.add_argument("--mus", help="comma-separated mixing values "
                                       "(overrides the config sweep)")

    sub.add_parser("presets", help="list built-in experiment presets")
    return parser


def _add_config_args(parser):
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="INI experiment configuration")
    src.add_argument("--preset", choices=sorted(PRESETS),
                     help="built-in configuration")
    parser.add_argument("--out", help="output directory override")
    parser.add_argument("--seed", type=int, help="master seed override")


def _resolve_config(args):
    if args.preset:
        config = PRESETS[args.preset]()
    else:
        config = load_config(args.config)
    if args.out is not None:
        config.output_dir = args.out
    if args.seed is not None:
        config.seed = args.seed
    if getattr(args, "mus", None) is not None:
        try:
            config.mu_sweep = tuple(float(s) for s in args.mus.split(",")
                                    if s.strip())
        except ValueError as exc:
            raise ConfigError("cli: bad --mus value: %s" % exc)
    return config.validate()


def _cmd_run(args):
    config = _resolve_config(args)
    report = run_experiment(config)
    print("wrote %s/report.tsv (%d samples)"
          % (config.output_dir, report.t.size))
    for name in ERROR_SERIES:
        series = report.series[name]
        finite = np.isfinite(series)
        if finite.any():
            last = np.flatnonzero(finite)[-1]
            print("  %s: %.6g at t=%g" % (name, series[last], report.t[last]))
    for name, chunks in report.continuum_dts.items():
        dts = np.concatenate(chunks)
        print("  %s: %d steps, dt min %.6g max %.6g"
              % (name, dts.size, dts.min(), dts.max()))
    return 0


def _cmd_sweep(args):
    config = _resolve_config(args)
    rows, failures = run_mu_sweep(config)
    print("wrote %s/rates.tsv, failures.tsv and rates.gp"
          % config.output_dir)
    print("\t".join(RATE_COLUMNS))
    for row in rows:
        print("\t".join("%.6g" % row[c] for c in RATE_COLUMNS))
    for mu, message in failures:
        print("mu=%g failed: %s" % (mu, message), file=sys.stderr)
    return 0


def _cmd_presets():
    for name in sorted(PRESETS):
        config = PRESETS[name]()
        print("%s: %d nodes, %d communities, mu=%g, t_end=%g"
              % (name, config.graph.n_nodes, config.graph.n_groups,
                 config.graph.mixing_mu, config.micro.t_end))
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_presets()
    except ConfigError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:
        # imported here: loading it costs every run ~0.35 MB of peak RSS
        import traceback
        traceback.print_exc()
        print("run failed: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
