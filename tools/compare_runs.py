"""Compare the outputs of this working tree with those of a git ref.

    python tools/compare_runs.py <ref>

Extracts <ref> with `git archive` into a temporary directory, then runs,
on both trees, `opinet run --seed 3` on both presets and on every
perfbench/workloads/*.ini, `opinet run --seed 15` on micro_large.ini (a
bridged graph), and `opinet sweep --preset crossing --mus 0.01,0.5
--seed 3`.  For each output file and each command's stdout, with the
output path masked, it prints "identical" or the largest relative
difference of the numbers in which the two differ, and for a .tsv table
with a header line, each column that differs with its own largest
relative difference; each stdout line also gives the command's peak RSS
on both trees, from os.wait4 of the child.
Then it prints, for both trees, the line count of src/opinet/*.py and the
number of names the package exports, counted as tests/test_public_api.py
counts them.  Exits 1 unless every output is identical.  Stdlib only,
Unix only (os.wait4).
"""

import io
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = [("run_" + p, ["run", "--preset", p, "--seed", "3"])
        for p in ("three_communities", "crossing")]
RUNS += [("run_" + ini.stem, ["run", "--config", str(ini), "--seed", "3"])
         for ini in sorted((ROOT / "perfbench" / "workloads").glob("*.ini"))]
# of input seeds 0-15, only 15 gives a disconnected graph on any workload,
# so this run reaches ensure_connected's bridges
RUNS += [("run_micro_large_seed15",
          ["run", "--config", str(ROOT / "perfbench" / "workloads"
                                  / "micro_large.ini"), "--seed", "15"])]
RUNS += [("sweep_crossing", ["sweep", "--preset", "crossing",
                             "--mus", "0.01,0.5", "--seed", "3"])]
# the package's public names, as tests/test_public_api.py collects them
COUNT_EXPORTS = ("import types, opinet; print(sum(1 for n in dir(opinet) "
                 "if not n.startswith('_') and not isinstance("
                 "getattr(opinet, n), types.ModuleType)))")


def tree_env(tree):
    """This environment with tree's package on the path."""
    return dict(os.environ, PYTHONPATH=str(tree / "src"))


def python(tree, *args):
    """Run this interpreter on tree's package."""
    return subprocess.run([sys.executable, *args], env=tree_env(tree),
                          stdout=subprocess.PIPE, check=True)


def size(tree):
    """(lines of src/opinet/*.py, names the package exports) of tree."""
    lines = sum(path.read_bytes().count(b"\n")
                for path in (tree / "src" / "opinet").glob("*.py"))
    return lines, int(python(tree, "-c", COUNT_EXPORTS).stdout)


def run_cli(tree, args, cwd):
    """(stdout, peak RSS in MB) of `opinet.cli args` run on tree."""
    proc = subprocess.Popen([sys.executable, "-m", "opinet.cli", *args],
                            env=tree_env(tree), stdout=subprocess.PIPE,
                            cwd=cwd)
    stdout = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    # ru_maxrss is in KiB on Linux
    return stdout, usage.ru_maxrss / 1024


def outputs(tree, out):
    """Run every command on tree: ({relative path: bytes} of what it made,
    {command name: peak RSS in MB})."""
    out.mkdir()
    found, rss = {}, {}
    for name, args in RUNS:
        dest = out / name
        stdout, rss[name] = run_cli(tree, [*args, "--out", str(dest)], out)
        # the output path differs between the trees, in stdout and in the
        # saved config.ini files
        mask = str(dest).encode()
        found[name + "/stdout"] = stdout.replace(mask, b"<out>")
        for path in sorted(dest.rglob("*")):
            if path.is_file():
                found[str(path.relative_to(out))] = \
                    path.read_bytes().replace(mask, b"<out>")
    return found, rss


def relative_difference(a, b):
    """Relative difference of two number texts, 0.0 for equal texts or
    values (NaN equals NaN), inf where one is NaN or infinite and the
    other is not; None if either is not a number."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    diff = abs(x - y) / max(abs(x), abs(y))
    return math.inf if math.isnan(diff) else diff


def largest_difference(old, new):
    """Largest relative difference of two texts that differ only in
    numbers; None if they differ otherwise."""
    old, new = old.decode().split(), new.decode().split()
    if len(old) != len(new):
        return None
    worst = 0.0
    for a, b in zip(old, new):
        diff = relative_difference(a, b)
        if diff is None:
            return None
        worst = max(worst, diff)
    return worst


def column_differences(old, new):
    """[(column, largest relative difference)] for each column, in header
    order, whose text differs between two tab-separated tables with one
    header line; None unless both have the same header and shape and
    differ only in numbers."""
    old = [line.split("\t") for line in old.decode().splitlines()]
    new = [line.split("\t") for line in new.decode().splitlines()]
    if not old or old[0] != new[0] or len(old) != len(new):
        return None
    header = old[0]
    worst = {}
    for a_row, b_row in zip(old[1:], new[1:]):
        if not len(a_row) == len(b_row) == len(header):
            return None
        for name, a, b in zip(header, a_row, b_row):
            diff = relative_difference(a, b)
            if diff is None:
                return None
            if a != b:
                worst[name] = max(worst.get(name, 0.0), diff)
    return [(name, worst[name]) for name in header if name in worst]


def extract(ref, dest):
    """Write the files of git ref into dest, with `git archive`."""
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT,
                             stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def main(ref):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        extract(ref, tmp / "ref")
        old, old_rss = outputs(tmp / "ref", tmp / "old")
        new, new_rss = outputs(ROOT, tmp / "new")
        sizes = size(tmp / "ref"), size(ROOT)
    same = True
    for key in sorted(old.keys() | new.keys()):
        if key not in old or key not in new:
            verdict = "only in " + ("new" if key in new else ref)
        elif old[key] == new[key]:
            verdict = "identical"
        else:
            worst = largest_difference(old[key], new[key])
            verdict = ("differs in text" if worst is None
                       else "largest relative difference %.3g" % worst)
            columns = (column_differences(old[key], new[key])
                       if key.endswith(".tsv") else None)
            if worst is not None and columns:
                verdict += ", by column: " + ", ".join(
                    "%s %.3g" % column for column in columns)
        same = same and verdict == "identical"
        name, _, what = key.partition("/")
        if what == "stdout":
            verdict += " (peak RSS %.1f MB at %s, %.1f MB here)" % (
                old_rss[name], ref, new_rss[name])
        print("%s: %s" % (key, verdict))
    for what, old_n, new_n in zip(("src lines", "public names"), *sizes):
        print("%s: %d at %s, %d here (%+d)"
              % (what, old_n, ref, new_n, new_n - old_n))
    return 0 if same else 1


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
