"""The committed BENCH_*.json files, as tools/bench.py writes them: each
parses and has the schema's keys.  Schema 1 records hold the untraced
pairs only; schema 2 adds one traced run per workload and tree, with a
value or null for every per-layer metric.  No timing is checked."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"] for m in DECLARED["end_to_end"]}
LAYERS = {m["name"] for m in DECLARED["per_layer"]}
SCHEMAS = {"opinet-bench/1", "opinet-bench/2"}
SHA = re.compile(r"[0-9a-f]{40}")


def test_a_bench_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_a_bench_record_has_the_schema_keys(path):
    record = json.loads(path.read_text())
    assert record["schema"] in SCHEMAS
    traced = record["schema"] == "opinet-bench/2"
    assert set(record) == {"schema", "command", "pairs", "seconds",
                           "bytecode", "ref", "change", "workloads"} | (
                               {"trace_command"} if traced else set())
    pairs = record["pairs"]
    assert pairs >= 1
    for side in ("ref", "change"):
        assert set(record[side]) == {"name", "sha"}
        assert SHA.fullmatch(record[side]["sha"])
    assert record["workloads"]
    for entry in record["workloads"].values():
        assert set(entry) == {"ref", "change", "change_better"}
        for side in ("ref", "change"):
            assert set(entry[side]) == {"env", "correct", "metrics"} | (
                {"traced"} if traced else set())
            assert "src_sha256" in entry[side]["env"]
            assert len(entry[side]["correct"]) == pairs
            assert set(entry[side]["metrics"]) == METRICS
            for summary in entry[side]["metrics"].values():
                assert set(summary) == {"median", "iqr", "values"}
                assert len(summary["values"]) == pairs
            if traced:
                layers = entry[side]["traced"]
                assert set(layers) == {"correct", "metrics"}
                assert isinstance(layers["correct"], bool)
                assert set(layers["metrics"]) == LAYERS
                assert all(v is None or isinstance(v, (int, float))
                           for v in layers["metrics"].values())
        assert set(entry["change_better"]) == METRICS
        assert all(0 <= n <= pairs for n in entry["change_better"].values())
