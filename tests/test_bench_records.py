"""The benchmark records BENCH_*.json at the root of the repository stay
readable: each parses, and each per-seed entry of its workloads holds a
parent and a change run with every end-to-end metric that BENCHMARK.json
names."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_seed_entries_hold_both_runs_with_every_metric(path):
    record = json.loads(path.read_text())
    entries = [(workload, key, entry) for workload, runs in record["workloads"].items()
               for key, entry in runs.items() if re.fullmatch(r"seed_\d+", key)]
    assert entries
    for workload, key, entry in entries:
        for side in ("parent", "change"):
            run = entry[side]
            missing = [m for m in METRICS if not isinstance(run.get(m), (int, float))]
            assert not missing, (workload, key, side, missing)
