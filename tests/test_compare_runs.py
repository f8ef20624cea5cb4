"""tools/compare_runs.py's reading of two outputs: which columns of a
table differ, and by how much.  No command is run."""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from compare_runs import column_differences, largest_difference  # noqa: E402

OLD = b"t\tE_micro\tV_micro\tE_cont\n0\t0.5\t2.5\tnan\n0.1\t0.25\t1.25\tnan\n"


def table(*rows):
    return "\n".join("\t".join(row) for row in rows).encode() + b"\n"


def test_each_differing_column_is_named_with_its_largest_difference():
    new = table(("t", "E_micro", "V_micro", "E_cont"),
                ("0", "0.5", "2.5000000000000004", "nan"),
                ("0.1", "0.25", "1.2500000000000002", "nan"))
    columns = column_differences(OLD, new)
    assert [name for name, _ in columns] == ["V_micro"]
    assert columns[0][1] == max(
        (2.5000000000000004 - 2.5) / 2.5000000000000004,
        (1.2500000000000002 - 1.25) / 1.2500000000000002)
    assert largest_difference(OLD, new) == columns[0][1]


def test_columns_are_listed_in_header_order():
    new = table(("t", "E_micro", "V_micro", "E_cont"),
                ("0", "0.5", "2.5", "1.0"), ("0.1", "0.375", "1.25", "nan"))
    columns = column_differences(OLD, new)
    assert [name for name, _ in columns] == ["E_micro", "E_cont"]
    assert columns[0][1] == pytest.approx(1 / 3)
    # a value that turns NaN (or back) is an infinite difference, not 0
    assert columns[1][1] == math.inf
    assert largest_difference(OLD, new) == math.inf


def test_identical_tables_have_no_differing_column():
    assert column_differences(OLD, OLD) == []


@pytest.mark.parametrize("new", [
    table(("t", "E_micro", "V", "E_cont"), ("0", "0.5", "2.5", "nan"),
          ("0.1", "0.25", "1.25", "nan")),
    table(("t", "E_micro", "V_micro", "E_cont"), ("0", "0.5", "2.5", "nan")),
    table(("t", "E_micro", "V_micro", "E_cont"), ("0", "0.5", "2.5"),
          ("0.1", "0.25", "1.25", "nan")),
    table(("t", "E_micro", "V_micro", "E_cont"), ("0", "0.5", "x", "nan"),
          ("0.1", "0.25", "1.25", "nan")),
])
def test_tables_that_differ_other_than_in_numbers_get_no_column_report(new):
    assert column_differences(OLD, new) is None
