"""Output checks for one benchmark run of `opinet run`.

Every function returns a list of problems; an empty list means the check
passed.  Only the standard library is used, so the checker does not share
numpy with the program it checks.
"""

import configparser
import math

REPORT_COLUMNS = ("t", "E_micro", "E_cont_labeled", "E_cont_unlabeled",
                  "conserved_micro", "g_first_moment", "V_micro",
                  "lyapunov_tilde")
VARIANT_COLUMNS = {
    "micro": ("E_micro", "conserved_micro", "V_micro"),
    "cont_unlabeled": ("E_cont_unlabeled", "g_first_moment", "lyapunov_tilde"),
    "cont_labeled": ("E_cont_labeled", "g_first_moment", "lyapunov_tilde"),
}
E_COLUMNS = ("E_micro", "E_cont_labeled", "E_cont_unlabeled")

# README acceptance criterion 1: the degree-weighted opinion sum drifts by
# at most 1e-9 relative over a full run.
CONSERVED_TOL = 1e-9
# README criteria 5 and 7: finite-volume mass is conserved to 1e-12
# relative, and densities stay nonnegative.
MASS_TOL = 1e-12
# The benchmark's own set-up path must reproduce the t = 0 row; the two
# paths call the same public functions, so only summation order may differ.
ROW0_TOL = 1e-12


class Workload:
    """The parts of a workload INI file that the checks need."""

    def __init__(self, path):
        parser = configparser.ConfigParser()
        with open(path) as fh:
            parser.read_file(fh)
        run = parser["run"]
        self.variants = tuple(s.strip() for s in
                              run["model_variants"].split(",") if s.strip())
        self.grid_size = run.getint("grid_size")
        self.n_nodes = parser["graph"].getint("n_nodes")
        self.mean_degree = parser["graph"].getfloat("mean_degree")
        interval = run.getfloat("sample_interval")
        t_ends = []
        if "micro" in self.variants:
            t_ends.append(parser["micro"].getfloat("t_end"))
        if any(v.startswith("cont_") for v in self.variants):
            t_ends.append(parser["continuum"].getfloat("t_end"))
        self.n_rows = max(1, round(max(t_ends) / interval)) + 1

    def columns(self):
        cols = {"t"}
        for v in self.variants:
            cols.update(VARIANT_COLUMNS[v])
        return [c for c in REPORT_COLUMNS if c in cols]


def parse_table(text):
    """Header and float rows of a tab-separated file."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty file")
    header = lines[0].split("\t")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        if len(cells) != len(header):
            raise ValueError("line %d has %d cells, header has %d"
                             % (number, len(cells), len(header)))
        rows.append([float(x) for x in cells])
    return header, rows


def report_columns(text):
    """report.tsv as a dict of column name -> list of floats."""
    header, rows = parse_table(text)
    if tuple(header) != REPORT_COLUMNS:
        raise ValueError("unexpected report header %r" % (header,))
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def check_report(text, workload):
    """report.tsv parses, has the expected rows, requested columns finite."""
    try:
        cols = report_columns(text)
    except ValueError as exc:
        return ["report.tsv: %s" % exc]
    problems = []
    n = len(cols["t"])
    if n != workload.n_rows:
        problems.append("report.tsv: %d rows, expected %d"
                        % (n, workload.n_rows))
    for name in workload.columns():
        bad = [i for i, x in enumerate(cols[name]) if not math.isfinite(x)]
        if bad:
            problems.append("report.tsv: %s is not finite at row %d"
                            % (name, bad[0]))
    if "micro" in workload.variants:
        problems += check_conserved(cols["conserved_micro"])
    return problems


def check_conserved(series, tol=CONSERVED_TOL):
    """Relative drift of the degree-weighted opinion sum.

    The scale is max(|c_0|, 1), so a sum that starts near zero is held to
    an absolute drift of tol.
    """
    if not series or not all(math.isfinite(x) for x in series):
        return ["conserved_micro: not finite"]
    scale = max(abs(series[0]), 1.0)
    drift = max(abs(x - series[0]) for x in series) / scale
    if drift > tol:
        return ["conserved_micro: relative drift %.3e exceeds %.0e"
                % (drift, tol)]
    return []


def check_snapshot(text, workload, tol=MASS_TOL):
    """Every density column of a snapshot has mass 1 and no negative cell."""
    try:
        header, rows = parse_table(text)
    except ValueError as exc:
        return ["snapshot: %s" % exc]
    if len(rows) != workload.grid_size:
        return ["snapshot: %d cells, expected %d"
                % (len(rows), workload.grid_size)]
    dx = 2.0 / workload.grid_size
    problems = []
    # label-resolved columns (f_cont_labeled_1, ...) carry their group share
    totals = [i for i, name in enumerate(header)
              if name.startswith("f_") and not name[-1].isdigit()]
    if not totals:
        problems.append("snapshot: no density column")
    for i in totals:
        vals = [row[i] for row in rows]
        if not all(math.isfinite(x) for x in vals):
            problems.append("snapshot: %s is not finite" % header[i])
            continue
        mass = dx * math.fsum(vals)
        if abs(mass - 1.0) > tol:
            problems.append("snapshot: %s mass %.17g is not 1 within %.0e"
                            % (header[i], mass, tol))
    for i, name in enumerate(header):
        if name.startswith("f_"):
            low = min(row[i] for row in rows)
            if low < 0.0:
                problems.append("snapshot: %s has negative cell %.3e"
                                % (name, low))
    return problems


def check_identical(texts):
    """All reruns of one seed produced byte-identical report.tsv files."""
    if len(texts) < 2:
        return []
    first = texts[0]
    differ = [i for i, text in enumerate(texts) if text != first]
    if differ:
        return ["report.tsv: run %d differs from run 0 byte for byte"
                % differ[0]]
    return []


def check_reference(cols, reference, tolerance):
    """Final E values lie within the recorded tolerance of the reference."""
    problems = []
    for name, want in reference.items():
        got = cols[name][-1]
        rel = abs(got - want) / max(abs(want), 1e-300)
        if not rel <= tolerance[name]:
            problems.append("%s at t_end: %.17g vs reference %.17g "
                            "(relative %.3e > %.3e)"
                            % (name, got, want, rel, tolerance[name]))
    return problems


def check_row0(cols, row0, tol=ROW0_TOL):
    """The benchmark's set-up reproduces the t = 0 row of report.tsv."""
    problems = []
    for name, want in row0.items():
        got = cols[name][0]
        scale = max(abs(got), abs(want), 1e-300)
        if not abs(got - want) / scale <= tol:
            problems.append("t=0 row: %s is %.17g in report.tsv but %.17g "
                            "from the set-up functions" % (name, got, want))
    return problems
