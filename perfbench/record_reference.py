"""Record the final E values that the benchmark checks runs against.

    python3 perfbench/record_reference.py

For every workload and input seed 0..N_SEEDS-1 this runs `opinet run` once
and stores the last row of the E columns in perfbench/reference.json.  The
tolerance per column is FACTOR times the largest relative change of that
value when every step size is halved, over the first PROBE_SEEDS seeds.
The schemes are first order in dt, so the halving change is about half of
the time-discretisation error.  A step-size policy that stays within the
CFL bound changes the steps by at most the ratio of that bound to today's
realized CFL number (about 9 on three_communities), which moves E by at
most about 16 halving changes; FACTOR = 32 leaves room for that, while a
10% change of the flux's numerical diffusion moves E by 100 or more.
"""

import configparser
import json
import math
import os
import sys

import check
import run

FACTOR = 32.0
N_SEEDS = 16      # input sets recorded per workload
PROBE_SEEDS = 2   # input sets also run with every step halved


def automatic_dt(ini):
    """The continuum step the runner chooses when continuum.dt is unset.

    Uses the runner's own safety share and chunking, so that this follows
    any change of the runner's step policy.
    """
    sys.path.insert(0, run.SRC)
    import opinet as op
    from opinet import runner

    config = op.load_config(ini)
    cp = config.continuum
    params = op.ContinuumParams(
        dt=1.0, eta_cutoff=cp.eta_cutoff,
        diffusion_sigma=cp.diffusion_sigma, birth_rate=cp.birth_rate,
        death_rate=cp.death_rate)
    bound = op.cfl_max_dt(op.Grid(config.grid_size),
                          op.DebateOperator.linear(), params)
    dt, _ = runner._chunked_dt(config.sample_interval,
                               runner.CFL_SAFETY * bound)
    return dt


def halved_ini(src, dst):
    parser = configparser.ConfigParser()
    parser.optionxform = str
    with open(src) as fh:
        parser.read_file(fh)
    if "micro" in parser:
        parser["micro"]["dt"] = repr(parser["micro"].getfloat("dt") / 2)
    if "continuum" in parser:
        dt = parser["continuum"].getfloat("dt", fallback=None)
        if dt is None:
            dt = automatic_dt(src)
        parser["continuum"]["dt"] = repr(dt / 2)
    with open(dst, "w") as fh:
        parser.write(fh)


def final_e(ini, seed, outdir):
    child = run.spawn(["-m", "opinet.cli", "run", "--config", ini,
                       "--seed", str(seed), "--out", outdir],
                      outdir + "_log", 900.0)
    if child.code != 0:
        raise SystemExit("run failed: %s seed %d" % (ini, seed))
    with open(os.path.join(outdir, "report.tsv")) as fh:
        cols = check.report_columns(fh.read())
    return {n: cols[n][-1] for n in check.E_COLUMNS
            if math.isfinite(cols[n][-1])}


def main():
    out = os.path.join(run.OUT, "reference")
    os.makedirs(out, exist_ok=True)
    record = {"n_seeds": N_SEEDS, "factor": FACTOR,
              "probe_seeds": list(range(PROBE_SEEDS)),
              "src_sha256": run.source_identity()["src_sha256"],
              "workloads": {}}
    for name in run.WORKLOADS:
        ini = os.path.join(run.BENCH, "workloads", name + ".ini")
        seeds = {}
        for seed in range(N_SEEDS):
            seeds[str(seed)] = final_e(
                ini, seed, os.path.join(out, "%s_%d" % (name, seed)))
            print(name, seed, seeds[str(seed)], flush=True)
        halved = os.path.join(out, name + "_halved.ini")
        halved_ini(ini, halved)
        change = {}
        for seed in range(PROBE_SEEDS):
            fine = final_e(halved, seed,
                           os.path.join(out, "%s_%d_halved" % (name, seed)))
            for col, value in fine.items():
                base = seeds[str(seed)][col]
                rel = abs(value - base) / abs(base)
                change[col] = max(change.get(col, 0.0), rel)
        print(name, "halving change", change, flush=True)
        record["workloads"][name] = {
            "halving_change": change,
            "tolerance": {c: FACTOR * r for c, r in change.items()},
            "seeds": seeds}
    with open(os.path.join(run.BENCH, "reference.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
