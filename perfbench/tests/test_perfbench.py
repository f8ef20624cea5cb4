"""Tests of the benchmark's own machinery: child memory, checks, tracing."""

import json
import math
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import check  # noqa: E402
import run  # noqa: E402

WORKLOAD = check.Workload(os.path.join(BENCH, "workloads",
                                       "three_communities.ini"))


def _report_text(n_rows=101, nan_at=None, drift=0.0):
    lines = ["\t".join(check.REPORT_COLUMNS)]
    for k in range(n_rows):
        t = 0.1 * k
        e = 0.3 * math.exp(-t)
        row = [t, e, e, e, 62.25 * (1.0 + drift * k / (n_rows - 1)), 0.03,
               90.0 * e, 0.1 * e]
        if nan_at is not None and k == nan_at[0]:
            row[check.REPORT_COLUMNS.index(nan_at[1])] = float("nan")
        lines.append("\t".join("%.17g" % x for x in row))
    return "\n".join(lines) + "\n"


def _snapshot_text(n=101, low=0.0):
    dx = 2.0 / n
    lines = ["mid\tf_micro\tf_cont_labeled_1"]
    for i in range(n):
        f = 1.0 / (n * dx)
        lines.append("%.17g\t%.17g\t%.17g"
                     % (-1 + (i + 0.5) * dx, f, low if i == 7 else f / 3))
    return "\n".join(lines) + "\n"


def test_wait4_reads_each_childs_own_peak(tmp_path):
    # the large child runs first: a running maximum over children, as
    # getrusage(RUSAGE_CHILDREN) keeps it, would report it for both.  A
    # reading is at least the spawning process's own RSS, which exec
    # carries over, so both children are spawned from a small stdlib-only
    # helper rather than from this test process, whose RSS depends on the
    # other tests collected with it.
    helper = """
import json, sys
sys.path.insert(0, %r)
import run
code = "x = b'\\x01' * (%%d << 20); print(len(x))"
big = run.spawn(["-c", code %% 256], %r, 60)
small = run.spawn(["-c", code %% 8], %r, 60)
print(json.dumps([[c.code, c.peak_rss_mb] for c in (big, small)]))
""" % (BENCH, str(tmp_path / "big"), str(tmp_path / "small"))
    spawner = run.spawn(["-c", helper], str(tmp_path / "helper"), 120)
    assert spawner.code == 0
    (big_code, big_mb), (small_code, small_mb) = json.loads(
        spawner.stdout.strip().splitlines()[-1])
    assert big_code == 0 and small_code == 0
    assert big_mb > 256
    assert big_mb - small_mb > 150


def test_spawn_kills_a_child_past_its_timeout(tmp_path):
    child = run.spawn(["-c", "import time; time.sleep(30)"],
                      str(tmp_path / "slow"), 0.5)
    assert child.timed_out
    assert child.code != 0
    assert child.wall_s < 10


def test_clean_report_passes():
    assert check.check_report(_report_text(), WORKLOAD) == []


def test_checker_rejects_nan():
    problems = check.check_report(_report_text(nan_at=(40, "E_cont_labeled")),
                                  WORKLOAD)
    assert any("E_cont_labeled is not finite at row 40" in p
               for p in problems)


def test_checker_ignores_nan_in_unrequested_columns():
    micro_only = check.Workload(os.path.join(BENCH, "workloads",
                                             "micro_large.ini"))
    text = _report_text(nan_at=(3, "E_cont_labeled"))
    assert check.check_report(text, micro_only) == []


def test_checker_rejects_drifted_conserved_sum():
    assert check.check_report(_report_text(drift=1e-14), WORKLOAD) == []
    problems = check.check_report(_report_text(drift=1e-8), WORKLOAD)
    assert any("conserved_micro" in p for p in problems)


def test_checker_rejects_missing_rows():
    problems = check.check_report(_report_text(n_rows=50), WORKLOAD)
    assert any("50 rows, expected 101" in p for p in problems)


def test_checker_rejects_rerun_that_is_not_byte_identical():
    text = _report_text()
    assert check.check_identical([text, text, text]) == []
    other = text.replace("62.25", "62.250000000000007", 1)
    assert check.check_identical([text, text, other])


def test_snapshot_mass_and_positivity():
    assert check.check_snapshot(_snapshot_text(), WORKLOAD) == []
    problems = check.check_snapshot(_snapshot_text(low=-1e-300), WORKLOAD)
    assert any("negative" in p for p in problems)
    lines = _snapshot_text().splitlines()
    cells = lines[5].split("\t")
    cells[1] = repr(float(cells[1]) * (1 + 1e-6))
    lines[5] = "\t".join(cells)
    problems = check.check_snapshot("\n".join(lines), WORKLOAD)
    assert any("f_micro mass" in p for p in problems)


def test_reference_and_row0_checks():
    cols = check.report_columns(_report_text())
    final = cols["E_micro"][-1]
    tol = {"E_micro": 1e-3}
    assert check.check_reference(cols, {"E_micro": final * 1.0005}, tol) == []
    assert check.check_reference(cols, {"E_micro": final * 1.01}, tol)
    assert check.check_row0(cols, {"E_micro": 0.3}) == []
    assert check.check_row0(cols, {"E_micro": 0.3 * (1 + 1e-9)})


def test_absent_spans_are_none_not_zero():
    spans = [["runner.run", 0.0, 10.0, -1],
             ["graph.generate", 0.1, 0.2, 0],
             ["micro.step", 1.0, 1.5, 0],
             ["micro.step", 2.0, 2.5, 0],
             ["probe", 2.5, 2.6, 0]]
    trace = {"spans": spans, "graph": {"n_nodes": 200, "n_edges": 990},
             "micro_entries": 3960, "continuum_bytes": 0, "cfl": []}
    v = run.summarize_trace(trace, WORKLOAD, n_records=101)
    assert v["micro.steps"] == 2
    assert v["micro.step_ms"] == pytest.approx(500.0)
    assert v["micro.edge_updates_per_s"] == pytest.approx(3960.0)
    assert v["graph.edge_yield"] == pytest.approx(0.99)
    assert v["runner.self_s"] == pytest.approx(10.0 - 0.1 - 1.0 - 0.1)
    for name in ("continuum.steps_labeled", "continuum.busy_labeled_s",
                 "continuum.cfl_realized", "continuum.eff_gbs",
                 "empirical.kde_s", "analysis.calls", "analysis.write_s"):
        assert v[name] is None, name


def test_benchmark_json_lists_the_metrics_run_py_reports():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == {n: unit for n, (unit, _) in run.PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_trace_probes_flag_asymmetric_g_and_give_the_cfl_number():
    np = pytest.importorskip("numpy")
    sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
    op = pytest.importorskip("opinet")
    import child

    grid = op.Grid(8)
    f = op.ScalarField(grid, np.full(8, 0.5))
    g = op.PairField(grid, 4.0 * np.outer(f.values, f.values))
    args = (f, g, op.DebateOperator.linear(), op.ContinuumParams(dt=0.01))
    probes = child.Probes()
    probes.on_record((), None)      # t = 0, before the first step
    f1, g1 = op.step_unlabeled(*args)
    probes.on_unlabeled(args, (f1, g1))
    assert probes.problems == []
    # uniform g gives a_i = -mid_i, so max|a| = 1 - dx/2 = 0.875
    assert probes.cfl() == pytest.approx([2 * 0.01 * 0.875 / 0.25])
    skewed = g1.values.copy()
    skewed[0, 1] *= 1.0 + 1e-15
    probes.on_unlabeled(args, (f1, op.PairField(grid, skewed)))
    assert probes.problems and "g symmetric: False" in probes.problems[0]
