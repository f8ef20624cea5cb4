"""Time one continuum step on random symmetric states, and one micro step.

    python tools/bench_step.py [--ref REF] [--repeats N] [--seconds S]
                               [--sizes 101,202,404] [--labels 1,3]

For each grid size n (by default 101, 202 and 404 cells), each label
count k (by default 1 and 3), and the physics off (no diffusion, no
birth-death) or on (diffusion_sigma = 1e-3, birth and death rates 0.1),
it steps a ContinuumStepper as the runner does: check, then advance at
the speeds that check returns and at 0.9 of the realized bound, starting
from a random state with g[q, p] = g[p, q].T, and then records what the
run records for its first closure: e_cont of the state, and first_moment
and lyapunov_tilde of its summed g.  check (the velocity layer), advance
(the flux and update layer) and record are timed apart.  For each
node count N = 200, 2e3, 2e4 and 2e5, on a graph of the preset family
(3 communities, mean degree 10, mu = 0.05, bridged to one component),
from uniform opinions, it times one explicit Euler step of the linear D
(step), the records a run takes of the micro state: e_micro,
conserved_quantity and potential_v (record), and the first step on a
fresh copy of the graph, which builds what the graph keeps for the step
(layout).  Each repeat runs every case in a fresh subprocess for about S
seconds and gives one time per call per case (for layout, the median
over fresh copies).  The two tables show the median and quartiles of the
repeats, in ms per call: the continuum table a column group each for
check, advance and record, the micro table one each for step, record and
layout.
With --ref, the ref is extracted as tools/compare_runs.py extracts it,
and the repeats alternate between its tree and this one, and which of
them goes first; each column group then shows both, the ratio of the
medians, and "moved": "yes" when the two trees' interquartile ranges do
not overlap, "no" when they do.  A ratio marked "no" is not evidence of
a change.  The child code is this tree's, run on either tree's package.
Stdlib and numpy only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from compare_runs import extract

ROOT = Path(__file__).resolve().parent.parent
SAFETY = 0.9
NODES = (200, 2000, 20000, 200000)   # the micro table's node counts


def per_part(parts, state, seconds):
    """{name: ms per call} of the (name, part) calls that one step chains,
    each timed on its own, after two untimed steps: the first part takes
    the state tuple, each part returns the argument tuple of the next,
    and the last returns the next state."""
    def run(state, elapsed):
        args = state
        for name, part in parts:
            start = time.perf_counter()
            args = part(*args)
            elapsed[name] += time.perf_counter() - start
        return args

    spent = {name: 0.0 for name, _ in parts}
    for _ in range(2):
        state = run(state, dict(spent))
    steps = 0
    start = time.perf_counter()
    while steps < 3 or time.perf_counter() - start < seconds:
        state = run(state, spent)
        steps += 1
    return {name: 1e3 * t / steps for name, t in spent.items()}


def first_call(graph, omega, linear, seconds):
    """Median ms of the first Euler step on fresh copies of graph: the
    step and whatever a graph builds for the micro step on first use."""
    from opinet import CommunityGraph, euler_step

    spent = []
    start = time.perf_counter()
    while len(spent) < 3 or time.perf_counter() - start < seconds:
        fresh = CommunityGraph(graph.n_nodes, graph.edges, graph.community)
        begin = time.perf_counter()
        euler_step(fresh, omega, linear, 0.01)
        spent.append(time.perf_counter() - begin)
    return 1e3 * statistics.median(spent)


def time_micro(seconds):
    """{N: {"step": ms, "record": ms, "layout": ms}} per call for every
    node count, from the opinet on the path."""
    import numpy as np
    from opinet import (DebateOperator, GraphConfig, conserved_quantity,
                        e_micro, ensure_connected, euler_step,
                        generate_community_graph, potential_v)

    linear = DebateOperator.linear()
    times = {}
    for n in NODES:
        graph = ensure_connected(generate_community_graph(GraphConfig(
            n_nodes=n, n_groups=3, mean_degree=10.0, mixing_mu=0.05,
            seed=n)))
        omega = np.random.default_rng(n).uniform(-1.0, 1.0, n)

        def record(omega):
            e_micro(graph, omega)
            conserved_quantity(graph, omega)
            potential_v(graph, omega, linear)
            return (omega,)

        times[str(n)] = per_part(
            [("step",
              lambda omega: (euler_step(graph, omega, linear, 0.01),)),
             ("record", record)], (omega,), seconds)
        times[str(n)]["layout"] = first_call(graph, omega, linear, seconds)
    return times


def time_cases(sizes, labels, seconds):
    """{case name: {"check": ms, "advance": ms, "record": ms}} per call
    for every continuum case, from the opinet on the path."""
    import numpy as np
    from opinet import (ContinuumParams, DebateOperator, Grid, LabeledFields,
                        PairField, consensus_value_cont, e_cont,
                        lyapunov_tilde)
    from opinet.analysis import first_moment
    from opinet.continuum import ContinuumStepper

    linear = DebateOperator.linear()
    times = {}
    for n, k, physics in [(n, k, physics) for n in sizes for k in labels
                          for physics in ("off", "on")]:
        grid = Grid(n)
        params = (ContinuumParams(diffusion_sigma=1e-3, birth_rate=0.1,
                                  death_rate=0.1) if physics == "on"
                  else ContinuumParams())
        stepper = ContinuumStepper(grid, params)
        rng = np.random.default_rng(n + k)
        f = rng.uniform(0.0, 1.0, (k, n))
        g = rng.uniform(0.0, 1.0, (k, k, n, n))
        g = g + g.transpose(1, 0, 3, 2)
        f /= grid.dx * f.sum()
        g /= grid.dx ** 2 * g.sum()

        omega_inf = consensus_value_cont(PairField(grid, g.sum(axis=(0, 1))))

        def check(f, g):
            bound, a, _ = stepper.check(f, g)
            return f, g, SAFETY * bound, a

        def record(f, g):
            state = LabeledFields(grid, f, g)
            e_cont(state, omega_inf)
            total = PairField(grid, state.g_total())
            first_moment(total)
            lyapunov_tilde(total, linear)
            return f, g

        times["%d %d %s" % (n, k, physics)] = per_part(
            (("check", check), ("advance", stepper.advance),
             ("record", record)), (f, g), seconds)
    return times


def run_child(tree, args):
    proc = subprocess.run(
        [sys.executable, __file__, "--child", "--seconds", str(args.seconds),
         "--sizes", args.sizes, "--labels", args.labels],
        env=dict(os.environ, PYTHONPATH=str(tree / "src")),
        stdout=subprocess.PIPE, check=True)
    return json.loads(proc.stdout)


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", help="git ref to compare against")
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--seconds", type=float, default=0.1,
                        help="timed seconds per case and repeat")
    parser.add_argument("--sizes", default="101,202,404",
                        help="comma-separated cell counts n")
    parser.add_argument("--labels", default="1,3",
                        help="comma-separated label counts k")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps({
            "continuum": time_cases([int(v) for v in args.sizes.split(",")],
                                    [int(v) for v in args.labels.split(",")],
                                    args.seconds),
            "micro": time_micro(args.seconds)}))
        return 0
    if args.repeats < 2:
        parser.error("--repeats must be at least 2")

    with tempfile.TemporaryDirectory() as tmp:
        trees = {"this": ROOT}
        if args.ref:
            extract(args.ref, Path(tmp) / "ref")
            trees = {"ref": Path(tmp) / "ref", "this": ROOT}
        runs = {name: [] for name in trees}
        for r in range(args.repeats):
            order = list(trees) if r % 2 == 0 else list(trees)[::-1]
            for name in order:
                runs[name].append(run_child(trees[name], args))

    for table, keys in (("continuum", ["n", "k", "physics"]),
                        ("micro", ["N"])):
        cases = runs["this"][0][table]
        parts = list(next(iter(cases.values())))
        cols = list(keys)
        for part in parts:
            for name in trees:
                cols += ["%s %s %s" % (part, name, stat)
                         for stat in ("median", "q1", "q3")]
            if args.ref:
                cols += [part + " this/ref", part + " moved"]
        print("ms per %s call, %d repeats" % (table, args.repeats))
        print("\t".join(cols))
        for case in cases:
            row = case.split()
            for part in parts:
                stats = []
                for name in trees:
                    stats.append(summary([run[table][case][part]
                                          for run in runs[name]]))
                    row += ["%.4f" % v for v in stats[-1]]
                if args.ref:
                    (ref, ref_q1, ref_q3), (this, q1, q3) = stats
                    row += ["%.3f" % (this / ref),
                            "yes" if q3 < ref_q1 or ref_q3 < q1 else "no"]
            print("\t".join(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
