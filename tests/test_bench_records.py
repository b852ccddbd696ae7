"""The committed benchmark trajectory: every ``BENCH_*.json`` at the repo root stays readable."""
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_trajectory_is_not_empty():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_holds_every_end_to_end_metric(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["rev"].startswith(path.stem.removeprefix("BENCH_"))
    assert record["env"]["nproc"] >= 1
    metrics = [m["name"] for m in DECLARED["end_to_end"]]
    for workload in (w["name"] for w in DECLARED["workloads"]):
        values = record["workloads"][workload]["end_to_end"]
        assert sorted(values) == sorted(metrics), workload
        assert all(math.isfinite(values[m]) and values[m] > 0 for m in metrics), workload
