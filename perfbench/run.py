"""Outside-in benchmark of `opinet run`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the run times fresh set-up children, then fresh
`python3 -m opinet.cli run` children from launch to exit, and reports the
end-to-end metrics.  With --trace 1 each untraced child is
paired with a traced one that wraps the public entry points of each
opinet module; the run reports the per-layer metrics.  Every child's
output is checked.  Children run one at a time, from the source tree in
src/ next to this directory.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import check

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("three_communities", "micro_large", "fine_unlabeled")

# The run must exit within 180 s; no child starts that would end later.
HARD_LIMIT_S = 170.0
MIN_RUNS = 3           # untraced runs per benchmark run, at least
MIN_PAIRS = 2          # untraced/traced pairs per traced run, at least
MIN_SETUPS = 4         # set-up children per benchmark run, at least
SETUP_SHARE = 0.15     # share of --seconds given to set-up children
IMPORT_SAMPLES = 3
ABSENT = -1            # JSON value of a span that never fired

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

# name -> (unit, kind); kind is measured, computed (from shapes or counts
# and a measured time) or count (must repeat exactly across samples)
PER_LAYER = {
    "graph.generate_s": ("s", "measured"),
    "graph.connect_s": ("s", "measured"),
    "graph.n_edges": ("count", "count"),
    "graph.edge_yield": ("ratio", "computed"),
    "empirical.sample_s": ("s", "measured"),
    "empirical.bandwidth_s": ("s", "measured"),
    "empirical.f0_s": ("s", "measured"),
    "empirical.kde_s": ("s", "measured"),
    "empirical.split_s": ("s", "measured"),
    "micro.step_ms": ("ms", "measured"),
    "micro.steps": ("count", "count"),
    "micro.busy_s": ("s", "measured"),
    "micro.edge_updates_per_s": ("1/s", "computed"),
    "continuum.step_labeled_ms": ("ms", "measured"),
    "continuum.steps_labeled": ("count", "count"),
    "continuum.busy_labeled_s": ("s", "measured"),
    "continuum.step_unlabeled_ms": ("ms", "measured"),
    "continuum.steps_unlabeled": ("count", "count"),
    "continuum.busy_unlabeled_s": ("s", "measured"),
    "continuum.bytes_per_step": ("B", "computed"),
    "continuum.eff_gbs": ("GB/s", "computed"),
    "continuum.cfl_realized": ("ratio", "computed"),
    "continuum.cfl_realized_max": ("ratio", "computed"),
    "analysis.record_ms": ("ms", "measured"),
    "analysis.calls": ("count", "count"),
    "analysis.write_s": ("s", "measured"),
    "runner.run_s": ("s", "measured"),
    "runner.self_s": ("s", "measured"),
    "cli.import_s": ("s", "measured"),
    "trace.run_s": ("s", "measured"),
    "trace.untraced_run_s": ("s", "measured"),
    "trace.overhead_s": ("s", "measured"),
    "trace.overhead_frac": ("ratio", "computed"),
    "trace.probe_s": ("s", "measured"),
}

ANALYSIS_SPANS = ("analysis.e_micro", "analysis.conserved_quantity",
                  "analysis.potential_v", "analysis.e_cont",
                  "analysis.consensus_value_cont", "analysis.lyapunov_tilde")


class Child:
    """Outcome of one child process."""

    def __init__(self, wall_s, peak_rss_mb, code, timed_out, stdout):
        self.wall_s = wall_s
        self.peak_rss_mb = peak_rss_mb
        self.code = code
        self.timed_out = timed_out
        self.stdout = stdout
        self.outdir = None   # where an `opinet run` child wrote its files
        self.ok = False      # set once the child's outputs pass the checks

    def result(self):
        """The JSON object on the child's last line of output, or None."""
        lines = self.stdout.strip().splitlines()
        try:
            return json.loads(lines[-1]) if lines else None
        except ValueError:
            return None


def spawn(args, log_stem, timeout):
    """Run `python3 ARGS` with src/ on the path; wait for it to end.

    Peak memory comes from os.wait4 for this child alone;
    getrusage(RUSAGE_CHILDREN) would be the maximum over every child
    waited for so far.  Linux carries the spawning process's RSS high-water
    mark across exec, so a reading is at least this process's RSS, which
    stays small because run.py imports only the standard library.  The
    child is killed after timeout seconds.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, log_stem + ".out", flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, log_stem + ".err", flags, 0o644)]
    lock = threading.Lock()
    state = {"exited": False, "killed": False}

    def kill():
        with lock:
            if not state["exited"]:
                os.kill(pid, signal.SIGKILL)
                state["killed"] = True

    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable] + list(args), env,
                         file_actions=actions)
    timer = threading.Timer(max(timeout, 0.0), kill)
    timer.start()
    # wait without reaping, so the pid cannot be reused before the timer
    # is disarmed; then reap with wait4 for this child's rusage
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    wall = time.perf_counter() - start
    with lock:
        state["exited"] = True
    timer.cancel()
    timer.join()
    _, status, usage = os.wait4(pid, 0)
    with open(log_stem + ".out") as fh:
        stdout = fh.read()
    return Child(wall, usage.ru_maxrss / 1024.0,
                 os.waitstatus_to_exitcode(status), state["killed"], stdout)


def median(values):
    return statistics.median(values) if values else None


class Bench:
    """One benchmark invocation: children, checks and counts."""

    def __init__(self, workload_name, seed, seconds):
        self.name = workload_name
        self.ini = os.path.join(BENCH, "workloads", workload_name + ".ini")
        self.workload = check.Workload(self.ini)
        with open(os.path.join(BENCH, "reference.json")) as fh:
            ref = json.load(fh)
        # the reference holds n_seeds input sets per workload
        self.input_seed = seed % ref["n_seeds"]
        wref = ref["workloads"][workload_name]
        self.reference = wref["seeds"][str(self.input_seed)]
        self.tolerance = wref["tolerance"]
        self.start = time.perf_counter()
        self.measure_end = self.start + seconds
        self.hard_end = self.start + HARD_LIMIT_S
        self.out = os.path.join(OUT, workload_name)
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.counter = 0

    def child(self, args, tag):
        self.counter += 1
        stem = os.path.join(self.out, "%s_%03d" % (tag, self.counter))
        return spawn(args, stem, self.hard_end + 5.0 - time.perf_counter())

    def time_left(self, estimate):
        return time.perf_counter() + estimate < self.hard_end

    def run_cli(self):
        outdir = os.path.join(self.out, "run_%03d" % (self.counter + 1))
        child = self.child(["-m", "opinet.cli", "run", "--config", self.ini,
                            "--seed", str(self.input_seed), "--out", outdir],
                           "run")
        child.outdir = outdir
        return child

    def run_traced(self):
        outdir = os.path.join(self.out, "trace_%03d" % (self.counter + 1))
        os.makedirs(outdir)
        child = self.child([os.path.join(BENCH, "child.py"), "trace",
                            "--config", self.ini,
                            "--seed", str(self.input_seed), "--out", outdir],
                           "trace")
        child.outdir = outdir
        return child

    def run_setup(self):
        return self.child([os.path.join(BENCH, "child.py"), "setup",
                           "--config", self.ini,
                           "--seed", str(self.input_seed)], "setup")

    def fail(self, what, problems):
        self.failed += 1
        self.problems += ["%s: %s" % (what, p) for p in problems]

    def check_runs(self, runs):
        """Check each run's outputs; returns the first parsed report."""
        texts = []
        first = None
        for i, run in enumerate(runs):
            self.attempted += 1
            what = "run %d" % i
            if run.timed_out or run.code != 0:
                self.fail(what, ["exit code %s%s" % (
                    run.code, ", timed out" if run.timed_out else "")])
                continue
            try:
                with open(os.path.join(run.outdir, "report.tsv")) as fh:
                    text = fh.read()
            except OSError as exc:
                self.fail(what, [str(exc)])
                continue
            problems = check.check_report(text, self.workload)
            if not problems:
                cols = check.report_columns(text)
                if first is None:
                    first = cols
                problems += check.check_reference(cols, self.reference,
                                                  self.tolerance)
            snaps = glob.glob(os.path.join(run.outdir, "snapshot_t*.tsv"))
            if len(snaps) != 1:
                problems.append("expected one snapshot, found %d"
                                % len(snaps))
            else:
                with open(snaps[0]) as fh:
                    problems += check.check_snapshot(fh.read(), self.workload)
            if not problems and texts:
                problems += check.check_identical([texts[0], text])
            if problems:
                self.fail(what, problems)
                continue
            texts.append(text)
            run.ok = True
        return first

    def check_setups(self, setups, cols):
        for i, setup in enumerate(setups):
            self.attempted += 1
            what = "set-up %d" % i
            result = setup.result()
            if setup.code != 0 or result is None:
                self.fail(what, ["exit code %s" % setup.code])
            elif cols is not None:
                problems = check.check_row0(cols, result["row0"])
                if problems:
                    self.fail(what, problems)
                else:
                    setup.ok = True


def environment(seed, input_seed):
    env = {"python": platform.python_version(), "seed": seed,
           "input_seed": input_seed, "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "cpu_quota": _cpu_quota()}
    env.update(source_identity())
    return env


def _cpu_quota():
    """The cgroup CPU limit in CPUs, read-only; None when unlimited."""
    try:
        with open("/sys/fs/cgroup/cpu.max") as fh:
            quota, period = fh.read().split()
    except OSError:
        try:
            with open("/sys/fs/cgroup/cpu/cpu.cfs_quota_us") as fh:
                quota = fh.read().strip()
            with open("/sys/fs/cgroup/cpu/cpu.cfs_period_us") as fh:
                period = fh.read().strip()
        except OSError:
            return None
    if quota in ("max", "-1"):
        return None
    return int(quota) / int(period)


def source_identity():
    """git sha and dirty flag in a git tree; a hash of src/ always."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"),
                                 recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    out = {"src_sha256": digest.hexdigest()[:16], "git_sha": None,
           "git_dirty": None}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            dirty = subprocess.run(["git", "-C", ROOT, "status",
                                    "--porcelain"],
                                   capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return out
        if sha.returncode == 0:
            out["git_sha"] = sha.stdout.strip()
            out["git_dirty"] = bool(dirty.stdout.strip())
    return out


def untraced(bench, seconds):
    """End-to-end metrics from fresh set-up children, then run children.

    The set-up children run back to back, so that an idle second core,
    which the host wakes slowly for the BLAS threads of the KDE product,
    delays only the first few of them and not the median.
    """
    setups, runs = [], []
    setup_end = bench.start + SETUP_SHARE * seconds
    last = 0.0
    while len(setups) < MIN_SETUPS or time.perf_counter() + last < setup_end:
        if setups and not bench.time_left(last):
            break
        began = time.perf_counter()
        setups.append(bench.run_setup())
        last = time.perf_counter() - began
    last = 0.0
    while not runs or bench.time_left(last):
        began = time.perf_counter()
        runs.append(bench.run_cli())
        last = time.perf_counter() - began
        if (len(runs) >= MIN_RUNS
                and time.perf_counter() + last > bench.measure_end):
            break
    cols = bench.check_runs(runs)
    bench.check_setups(setups, cols)
    good_runs = [r for r in runs if r.ok]
    good_setups = [s.result()["setup_s"] for s in setups if s.ok]
    metrics = {
        "run_s": median([r.wall_s for r in good_runs]),
        "setup_s": median(good_setups),
        "peak_rss_mb": median([r.peak_rss_mb for r in good_runs]),
        "ok_frac": 1.0 - bench.failed / bench.attempted,
    }
    samples = {"run_s": [r.wall_s for r in runs],
               "setup_s": good_setups,
               "peak_rss_mb": [r.peak_rss_mb for r in runs]}
    return metrics, samples


def summarize_trace(trace, workload, n_records):
    """Per-layer values of one traced run; None marks an absent span."""
    busy, calls = {}, {}
    run_idx = None
    for idx, (name, start, end, _) in enumerate(trace["spans"]):
        busy[name] = busy.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if name == "runner.run" and run_idx is None:
            run_idx = idx
    v = {}

    def span(metric, name):
        v[metric] = busy.get(name)

    span("graph.generate_s", "graph.generate")
    span("graph.connect_s", "graph.connect")
    span("empirical.sample_s", "empirical.sample")
    span("empirical.bandwidth_s", "empirical.bandwidth")
    span("empirical.f0_s", "empirical.f0")
    span("empirical.kde_s", "empirical.kde")
    span("empirical.split_s", "empirical.split")
    span("runner.run_s", "runner.run")
    span("trace.probe_s", "probe")
    graph = trace.get("graph")
    v["graph.n_edges"] = graph["n_edges"] if graph else None
    v["graph.edge_yield"] = (graph["n_edges"] / (
        graph["n_nodes"] * workload.mean_degree / 2.0) if graph else None)

    def stepper(prefix, name, suffix=""):
        n = calls.get(name)
        v["%s.steps%s" % (prefix, suffix)] = n
        v["%s.busy%s_s" % (prefix, suffix)] = busy.get(name)
        v["%s.step%s_ms" % (prefix, suffix)] = (
            1e3 * busy[name] / n if n else None)

    stepper("micro", "micro.step")
    stepper("continuum", "continuum.step_labeled", "_labeled")
    stepper("continuum", "continuum.step_unlabeled", "_unlabeled")
    micro_busy = busy.get("micro.step")
    v["micro.edge_updates_per_s"] = (trace["micro_entries"] / micro_busy
                                     if micro_busy else None)
    cont_steps = (calls.get("continuum.step_labeled", 0)
                  + calls.get("continuum.step_unlabeled", 0))
    cont_busy = (busy.get("continuum.step_labeled", 0.0)
                 + busy.get("continuum.step_unlabeled", 0.0))
    v["continuum.bytes_per_step"] = (trace["continuum_bytes"] / cont_steps
                                     if cont_steps else None)
    v["continuum.eff_gbs"] = (trace["continuum_bytes"] / cont_busy / 1e9
                              if cont_steps else None)
    cfl = trace["cfl"]
    v["continuum.cfl_realized"] = statistics.fmean(cfl) if cfl else None
    v["continuum.cfl_realized_max"] = max(cfl) if cfl else None
    n_analysis = sum(calls.get(n, 0) for n in ANALYSIS_SPANS)
    v["analysis.calls"] = n_analysis or None
    v["analysis.record_ms"] = (
        1e3 * sum(busy.get(n, 0.0) for n in ANALYSIS_SPANS) / n_records
        if n_analysis else None)
    writes = [busy[n] for n in ("analysis.write_tsv", "analysis.save_config")
              if n in busy]
    v["analysis.write_s"] = sum(writes) if writes else None
    if run_idx is None:
        v["runner.self_s"] = None
    else:
        _, start, end, _ = trace["spans"][run_idx]
        children = sum(e - s for _, s, e, parent in trace["spans"]
                       if parent == run_idx)
        v["runner.self_s"] = (end - start) - children
    return v


def traced(bench):
    """Per-layer metrics from traced children paired with untraced ones."""
    imports = [bench.child([os.path.join(BENCH, "child.py"), "import"],
                           "import") for _ in range(IMPORT_SAMPLES)]
    runs, traces = [], []
    per_pair = 0.0
    while not runs or bench.time_left(per_pair):
        began = time.perf_counter()
        runs.append(bench.run_cli())
        traces.append(bench.run_traced())
        per_pair = time.perf_counter() - began
        if (len(runs) >= MIN_PAIRS
                and time.perf_counter() + per_pair > bench.measure_end):
            break
    # traced outputs must equal the untraced ones byte for byte
    bench.check_runs(runs + traces)
    summaries, missing = [], set()
    for i, child in enumerate(traces):
        if not child.ok:
            continue
        try:
            with open(os.path.join(child.outdir, "trace.json")) as fh:
                trace = json.load(fh)
        except (OSError, ValueError) as exc:
            bench.fail("trace %d" % i, [str(exc)])
            continue
        if trace["invariants"]["problems"]:
            bench.fail("trace %d" % i, trace["invariants"]["problems"])
        summaries.append(summarize_trace(trace, bench.workload,
                                         bench.workload.n_rows))
        missing.update(trace["missing"])
    if missing:
        print("trace: no entry point %s" % ", ".join(sorted(missing)))
    for name, (_, kind) in PER_LAYER.items():
        if kind == "count" and len({s[name] for s in summaries}) > 1:
            bench.problems.append("count %s differs across samples: %s"
                                  % (name, [s[name] for s in summaries]))
    values = {}
    for name in PER_LAYER:
        got = [s[name] for s in summaries if s.get(name) is not None]
        values[name] = median(got)
    import_s = [c.result()["import_s"] for c in imports
                if c.code == 0 and c.result()]
    values["cli.import_s"] = median(import_s)
    ok_runs = [r.wall_s for r in runs if r.ok]
    ok_traces = [t.wall_s for t in traces if t.ok]
    values["trace.untraced_run_s"] = median(ok_runs)
    values["trace.run_s"] = median(ok_traces)
    if ok_runs and ok_traces:
        values["trace.overhead_s"] = median(ok_traces) - median(ok_runs)
        values["trace.overhead_frac"] = (values["trace.overhead_s"]
                                         / median(ok_runs))
    else:
        values["trace.overhead_s"] = values["trace.overhead_frac"] = None
    samples = {"trace.run_s": [t.wall_s for t in traces],
               "trace.untraced_run_s": [r.wall_s for r in runs],
               "cli.import_s": import_s}
    return values, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "opinet", "__init__.py")):
        print("perfbench: no opinet package under %s" % SRC, file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds)
    env = environment(args.seed, bench.input_seed)
    probe = bench.child([os.path.join(BENCH, "child.py"), "env"], "env")
    env.update(probe.result() or {})
    if args.trace:
        values, samples = traced(bench)
        table = {n: unit for n, (unit, _) in PER_LAYER.items()}
    else:
        values, samples = untraced(bench, args.seconds)
        table = END_TO_END

    print("env %s" % json.dumps(env, sort_keys=True))
    for problem in bench.problems:
        print("check failed: %s" % problem)
    metrics = {}
    for name, unit in table.items():
        value = values.get(name)
        kind = PER_LAYER[name][1] if name in PER_LAYER else "measured"
        if value is None or not math.isfinite(value):
            print("%-28s absent" % name)
            value = ABSENT
        else:
            print("%-28s %-14.6g %-6s %s" % (name, value, unit, kind))
        metrics[name] = {"value": value, "unit": unit}
    correct = not bench.problems and bench.failed == 0
    record = {"workload": args.workload, "env": env, "trace": args.trace,
              "correct": correct, "attempted": bench.attempted,
              "failed": bench.failed, "problems": bench.problems,
              "metrics": metrics, "samples": samples}
    with open(os.path.join(bench.out, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
