"""The committed BENCH_*.json files, as tools/bench.py writes them: each
parses and has the schema's keys.  No timing is checked."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
METRICS = {m["name"] for m in
           json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
SHA = re.compile(r"[0-9a-f]{40}")


def test_a_bench_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_a_bench_record_has_the_schema_keys(path):
    record = json.loads(path.read_text())
    assert record["schema"] == "opinet-bench/1"
    assert set(record) == {"schema", "command", "pairs", "seconds",
                           "bytecode", "ref", "change", "workloads"}
    pairs = record["pairs"]
    assert pairs >= 1
    for side in ("ref", "change"):
        assert set(record[side]) == {"name", "sha"}
        assert SHA.fullmatch(record[side]["sha"])
    assert record["workloads"]
    for entry in record["workloads"].values():
        assert set(entry) == {"ref", "change", "change_better"}
        for side in ("ref", "change"):
            assert set(entry[side]) == {"env", "correct", "metrics"}
            assert "src_sha256" in entry[side]["env"]
            assert len(entry[side]["correct"]) == pairs
            assert set(entry[side]["metrics"]) == METRICS
            for summary in entry[side]["metrics"].values():
                assert set(summary) == {"median", "iqr", "values"}
                assert len(summary["values"]) == pairs
        assert set(entry["change_better"]) == METRICS
        assert all(0 <= n <= pairs for n in entry["change_better"].values())
