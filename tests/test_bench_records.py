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


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_digest_entries_state_equality_truly(path):
    """Where a seed's digest entry holds both digests and an `equal` flag,
    the flag says whether the two digests are the same.  Older records
    state the digests in a sentence and hold no such entry."""
    digests = json.loads(path.read_text()).get("digests_seeds_1_5")
    if not isinstance(digests, dict):
        return
    entries = [entry for seeds in digests.values() if isinstance(seeds, dict)
               for entry in seeds.values()
               if isinstance(entry, dict) and {"parent", "change", "equal"} <= entry.keys()]
    for entry in entries:
        assert entry["equal"] == (entry["parent"] == entry["change"]), entry
