"""Tier-1 smoke of the end-to-end ledger.

All four workloads at 1/20 of their virtual duration: one timed and one
traced repetition each (real child processes, as the ledger spawns them),
then the timed pass again.  Asserts structure and determinism only --
never a host time, so a loaded CI box cannot flake it.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import compare, run, workloads  # noqa: E402

SCALE = 1 / 20


@pytest.fixture(scope="module")
def spec():
    return run.benchmark_spec()


@pytest.fixture(scope="module")
def ledger():
    return run.run_ledger(list(workloads.WORKLOADS), seed=0, seconds=0.0,
                          scale=SCALE, min_reps=1)


def test_benchmark_json_names_the_workloads(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == ["benchmarks/e2e"]
    assert "setup_s" in [m["name"] for m in spec["end_to_end"]]


def test_every_named_metric_is_reported(spec, ledger):
    for name in workloads.WORKLOADS:
        entry = ledger["workloads"][name]
        assert entry["correct"], entry["problems"]
        assert entry["attempted"] >= 1 and entry["failed"] == 0
        for block in ("end_to_end", "per_layer"):
            for metric in spec[block]:
                reported = entry[block][metric["name"]]
                assert reported["unit"] == metric["unit"]
                assert math.isfinite(reported["value"]), metric["name"]
        for metric in spec["end_to_end"]:
            assert entry["end_to_end"][metric["name"]]["value"] > 0


def test_layer_rows_sum_to_the_traced_total(ledger):
    for entry in ledger["workloads"].values():
        assert entry["per_layer"]["trace.sum_frac"]["value"] == \
            pytest.approx(1.0, abs=0.01)
        assert entry["per_layer"]["trace.overhead_x"]["value"] > 0


def test_two_runs_give_identical_counts(ledger):
    again = run.run_ledger(list(workloads.WORKLOADS), seed=0, seconds=0.0,
                           scale=SCALE, traced=False, min_reps=1)
    for name, entry in ledger["workloads"].items():
        assert again["workloads"][name]["simulated"] == entry["simulated"]


def test_a_file_compares_same_against_itself(spec, ledger, tmp_path):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(ledger))
    lines, acceptable = compare.compare(compare.load(str(path)),
                                        compare.load(str(path)), spec)
    assert acceptable
    rows = [line for line in lines[1:] if "simulated" not in line]
    assert rows and all(line.endswith("same") for line in rows)
    assert compare.main([str(path), str(path)]) == 0
