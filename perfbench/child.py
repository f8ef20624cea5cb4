"""Child-process side of the benchmark.

Each subcommand runs in a fresh interpreter started by run.py and prints
one JSON object as its last line of standard output:

    setup  --config INI --seed N     build the initial state, time it
    trace  --config INI --seed N --out DIR
                                     `opinet run` in-process with timing
                                     wrappers; spans go to DIR/trace.json
    import                           time `import opinet`
    env                              numpy, scipy and BLAS versions

Only the standard library is imported at module level, so `import` times
the package and its numpy/scipy imports from a cold interpreter.
"""

import argparse
import importlib
import json
import sys
from time import perf_counter

# Relative drift of f and g mass that the traced run tolerates per state,
# the finite-volume guarantee of README criterion 5.
MASS_TOL = 1e-12


def build_initial_state(config):
    """The runner's set-up, with its order and seeds, through public names.

    Returns (graph, omega, grid, f_unl, g_unl, labeled); fields of
    variants the config does not request are None.
    """
    from dataclasses import replace

    import numpy as np
    import opinet as op

    seeds = config.seeds()
    graph = op.ensure_connected(op.generate_community_graph(
        replace(config.graph, seed=seeds["graph"])))
    omega = op.sample_initial_opinions(graph, config.mixture,
                                       np.random.default_rng(seeds["sample"]))
    grid = op.Grid(config.grid_size)
    variants = config.model_variants
    f_unl = g_unl = labeled = None
    if "cont_unlabeled" in variants or "cont_labeled" in variants:
        shares = np.bincount(graph.community - 1,
                             minlength=graph.n_groups) / graph.n_nodes
        bandwidth = op.bandwidth_select(omega, "silverman")
        if "cont_unlabeled" in variants:
            f_unl = config.mixture.cell_averages(grid, shares)
            g_unl = op.empirical_g_kde(graph, omega, grid, bandwidth)
        if "cont_labeled" in variants:
            split = op.split_by_group(graph, omega, grid, bandwidth)
            f_lab = [shares[c] * config.mixture.community_cell_averages(
                grid, c).values for c in range(config.mixture.n_groups)]
            labeled = op.LabeledFields(grid, np.asarray(f_lab), split.g)
    return graph, omega, grid, f_unl, g_unl, labeled


def row0(config, state):
    """The t = 0 report row computed from a built state."""
    import numpy as np
    import opinet as op

    graph, omega, grid, f_unl, g_unl, labeled = state
    operator = op.DebateOperator.linear()
    row = {}
    if "micro" in config.model_variants:
        row["E_micro"] = op.e_micro(graph, omega)
        row["conserved_micro"] = op.conserved_quantity(graph, omega)
        row["V_micro"] = op.potential_v(graph, omega, operator)
    if f_unl is not None:
        row["E_cont_unlabeled"] = op.e_cont(
            f_unl, op.consensus_value_cont(g_unl))
    if labeled is not None:
        g_tot = op.PairField(grid, labeled.g_total())
        row["E_cont_labeled"] = op.e_cont(labeled,
                                          op.consensus_value_cont(g_tot))
    if f_unl is not None or labeled is not None:
        holder = g_unl if g_unl is not None else labeled
        g_vals = g_unl.values if g_unl is not None else labeled.g_total()
        row["g_first_moment"] = float(
            grid.dx ** 2 * np.sum(grid.mids[:, None] * g_vals))
        row["lyapunov_tilde"] = op.lyapunov_tilde(holder, operator)
    return row


def cmd_setup(args):
    import opinet as op

    config = op.load_config(args.config)
    config.seed = args.seed
    start = perf_counter()
    state = build_initial_state(config)
    setup_s = perf_counter() - start
    return {"setup_s": setup_s, "row0": row0(config, state)}


def cmd_import(args):
    start = perf_counter()
    import opinet  # noqa: F401
    return {"import_s": perf_counter() - start}


def _blas_threads():
    # OpenBLAS reports its own thread count; read it without changing it.
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def cmd_env(args):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": threads}


# --- traced run ------------------------------------------------------------

class Tracer:
    """Spans kept in memory, written once the run ends.

    A span is [name, start, end, parent index]; parent -1 marks a root.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.missing = []

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0,
                               self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[idx][1] = start
                self.spans[idx][2] = end
            if after is not None:
                self.wrap("probe", after)(args, out)
            return out
        return traced

    def install(self, module_name, attr_path, name, after=None):
        """Replace module.attr (or module.Class.attr) with a traced wrapper."""
        owner = importlib.import_module(module_name)
        *outer, attr = attr_path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            self.missing.append("%s.%s" % (module_name, attr_path))
            return
        setattr(owner, attr, self.wrap(name, fn, after))


def _max_speed(g4, grid):
    # max |a| for the linear operator D(z) = -z, recomputed from g:
    # a[p, i] = sum_j G[p, i, j] mid_j / sum_j G[p, i, j] - mid_i
    import numpy as np

    rows = g4.sum(axis=1)
    den = rows.sum(axis=-1)
    keep = grid.dx * den >= 1e-10
    num = rows @ grid.mids
    a = np.where(keep, num / np.where(keep, den, 1.0) - grid.mids, 0.0)
    return float(np.max(np.abs(a)))


class Probes:
    """Per-step invariants and per-sample CFL numbers of the traced run."""

    def __init__(self):
        self.graph = None
        self.micro_entries = 0
        self.cont_bytes = 0
        self.mass0 = {}
        self.max_drift = 0.0
        self.states = 0
        self.problems = []
        self.latest = {}    # variant -> (g4, grid) after its last step
        self.samples = []   # per record: {variant: [max|a|, dt, dx]}
        self.last_dt = {}

    def on_connect(self, args, graph):
        self.graph = {"n_nodes": int(graph.n_nodes),
                      "n_edges": int(graph.n_edges)}

    def on_micro(self, args, out):
        self.micro_entries += int(args[0].adj_heads.size)

    def on_unlabeled(self, args, out):
        f, g, _, params = args
        f_new, g_new = out
        self._on_step("cont_unlabeled", f.values[None], g.values[None, None],
                      f_new.values[None], g_new.values[None, None],
                      f.grid, params.dt)

    def on_labeled(self, args, out):
        fields, _, params = args
        self._on_step("cont_labeled", fields.f, fields.g, out.f, out.g,
                      fields.grid, params.dt)

    def _on_step(self, variant, f, g, f_new, g_new, grid, dt):
        import numpy as np

        self.cont_bytes += 2 * (f.nbytes + g.nbytes)
        k = g.shape[0]
        if variant not in self.mass0:
            self.mass0[variant] = (grid.dx * f.sum(), grid.dx ** 2 * g.sum())
        f0, g0 = self.mass0[variant]
        drift = max(abs(grid.dx * f_new.sum() - f0) / f0,
                    abs(grid.dx ** 2 * g_new.sum() - g0) / g0)
        self.max_drift = max(self.max_drift, drift)
        symmetric = all(np.array_equal(g_new[p, q], g_new[q, p].T)
                        for p in range(k) for q in range(p, k))
        self.states += 1
        if (drift > MASS_TOL or not symmetric) and len(self.problems) < 5:
            self.problems.append(
                "%s step %d: mass drift %.3e, g symmetric: %s"
                % (variant, self.states, drift, symmetric))
        # records taken before this variant's first step get its input state
        # and, like the latest record, the dt of the step that follows them
        for row in reversed(self.samples):
            entry = row.get(variant)
            if entry is None:
                row[variant] = [_max_speed(g, grid), dt, grid.dx]
            elif entry[1] is None:
                entry[1] = dt
            else:
                break
        self.latest[variant] = (g_new, grid)
        self.last_dt[variant] = dt

    def on_record(self, args, out):
        self.samples.append({v: [_max_speed(g4, grid), None, grid.dx]
                             for v, (g4, grid) in self.latest.items()})

    def cfl(self):
        """Per record, the largest 2 dt max|a| / dx over continuum variants.

        1 is the realized-speed bound dt <= dx / (2 max|a|) that
        cfl_max_dt applies with the worst-case speed |D| <= 2.
        """
        out = []
        for row in self.samples:
            vals = [2.0 * (dt if dt is not None else self.last_dt[v]) * a / dx
                    for v, (a, dt, dx) in row.items()]
            if vals:
                out.append(max(vals))
        return out


def cmd_trace(args):
    tracer = Tracer()
    probes = Probes()
    install = tracer.install
    install("opinet.cli", "run_experiment", "runner.run")
    install("opinet.runner", "generate_community_graph", "graph.generate")
    install("opinet.runner", "ensure_connected", "graph.connect",
            probes.on_connect)
    install("opinet.runner", "sample_initial_opinions", "empirical.sample")
    install("opinet.runner", "bandwidth_select", "empirical.bandwidth")
    install("opinet.empirical", "MixtureSpec.cell_averages", "empirical.f0")
    install("opinet.runner", "empirical_g_kde", "empirical.kde")
    install("opinet.runner", "split_by_group", "empirical.split")
    install("opinet.runner", "euler_maruyama_step", "micro.step",
            probes.on_micro)
    install("opinet.runner", "step_labeled", "continuum.step_labeled",
            probes.on_labeled)
    install("opinet.runner", "step_unlabeled", "continuum.step_unlabeled",
            probes.on_unlabeled)
    for name in ("e_micro", "conserved_quantity", "potential_v", "e_cont",
                 "consensus_value_cont"):
        install("opinet.runner", name, "analysis." + name)
    install("opinet.runner", "lyapunov_tilde", "analysis.lyapunov_tilde",
            probes.on_record)
    install("opinet.analysis", "RunReport.write_tsv", "analysis.write_tsv")
    install("opinet.runner", "save_config", "analysis.save_config")

    import opinet.cli

    code = opinet.cli.main(["run", "--config", args.config,
                            "--seed", str(args.seed), "--out", args.out])
    trace = {"exit": code, "missing": tracer.missing, "spans": tracer.spans,
             "graph": probes.graph, "micro_entries": probes.micro_entries,
             "continuum_bytes": probes.cont_bytes, "cfl": probes.cfl(),
             "invariants": {"states": probes.states,
                            "max_mass_drift": probes.max_drift,
                            "problems": probes.problems}}
    with open(args.out + "/trace.json", "w") as fh:
        json.dump(trace, fh)
    return {"exit": code}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("setup", "trace"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, required=True)
        if name == "trace":
            p.add_argument("--out", required=True)
    sub.add_parser("import")
    sub.add_parser("env")
    args = parser.parse_args(argv)
    handler = {"setup": cmd_setup, "trace": cmd_trace, "import": cmd_import,
               "env": cmd_env}[args.command]
    result = handler(args)
    print(json.dumps(result))
    return result.get("exit", 0)


if __name__ == "__main__":
    sys.exit(main())
