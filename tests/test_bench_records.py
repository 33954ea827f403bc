"""The committed ``BENCH_*.json`` records: each names what it compared
and keeps every run, and every run answered correctly."""

from __future__ import annotations

import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
KEYS = (
    "parent_commit",
    "parent_src_tree",
    "change_src_tree",
    "nproc",
    "python",
    "protocol",
    "summary",
    "runs",
)


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_record(path):
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    for key in KEYS:
        assert record.get(key), f"{key} missing or empty"
    for run in record["runs"]:
        assert {"workload", "seed", "side", "result"} <= run.keys()
        assert run["result"]["correct"] is True, (run["workload"], run["seed"])
        assert run["result"]["failed"] == 0, (run["workload"], run["seed"])
