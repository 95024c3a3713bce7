"""The benchmark's own tests: small-size smoke runs of every workload and
the correctness gate.

    python3 -m pytest perfbench/tests -q
"""
import dataclasses
import json
from pathlib import Path

import pytest

import mvtrack.cli
import run
import tracing
from gate import check_motchallenge
from workloads import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def tiny(name):
    """The workload at 24 frames and 8 objects: every layer, a fraction of the time."""
    return dataclasses.replace(WORKLOADS[name], frames=24, objects=8)


def run_tiny(name, trace, tmp_path):
    return run.run(tiny(name), seed=3, seconds=0, trace=trace, workdir=tmp_path / "work", results=tmp_path)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_every_metric_with_its_unit(name, trace, tmp_path):
    record = run_tiny(name, trace, tmp_path)
    assert record["correct"], record["problems"]
    assert record["failed"] == 0 and record["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    table = tracing.PER_LAYER if trace else run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in declared} == table
    assert {name: m["unit"] for name, m in record["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for m in record["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace:
        assert record["metrics"]["engine.span_coverage"]["value"] > 0.95
        assert (tmp_path / f"{name}-seed3.spans.jsonl.gz").is_file()
    else:
        assert record["metrics"]["pass_rate"]["value"] == 1.0


GOOD = "1,1,10.00,20.00,30.00,40.00,1.00,-1,-1,-1\n1,2,50.00,60.00,30.00,40.00,1.00,-1,-1,-1\n"


def test_gate_accepts_well_formed_output():
    assert check_motchallenge(GOOD, n_frames=1, width=100, height=100) == []


@pytest.mark.parametrize("bad, problem", [
    ("1,1,50.00,60.00,30.00,40.00,1.00,-1,-1,-1\n", "duplicate id 1 in frame 1"),
    ("2,3,1.00,1.00,3.00,4.00,1.00,-1,-1,-1\n", "frame 2 outside 1..1"),
    ("1,3,1.00,1.00,0.00,4.00,1.00,-1,-1,-1\n", "size"),
    ("1,3,1.00,1.00,nan,4.00,1.00,-1,-1,-1\n", "non-finite"),
    ("1,3,90.00,1.00,20.00,4.00,1.00,-1,-1,-1\n", "outside the 100x100 frame"),
    ("1,3,1.00\n", "fields"),
])
def test_gate_rejects_corrupted_output(bad, problem):
    problems = check_motchallenge(GOOD + bad, n_frames=1, width=100, height=100)
    assert len(problems) == 1 and problem in problems[0]


def test_corrupted_cli_output_counts_as_failure(tmp_path, monkeypatch):
    original = mvtrack.cli.write_motchallenge

    def duplicate_last_row(rows, path):
        original(rows, path)
        with open(path) as fh:
            last = fh.read().splitlines()[-1]
        with open(path, "a") as fh:
            fh.write(last + "\n")

    monkeypatch.setattr(mvtrack.cli, "write_motchallenge", duplicate_last_row)
    record = run_tiny("noisy-20", 0, tmp_path)
    assert not record["correct"]
    assert record["failed"] >= run.MIN_SAMPLES["cli_track"]  # every CLI track
    assert record["metrics"]["pass_rate"]["value"] < 1.0
    assert any("duplicate id" in p or "differs" in p for p in record["problems"])
