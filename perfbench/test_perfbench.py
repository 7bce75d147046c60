"""Tests of the benchmark itself: oracle, checks, metric names, exit codes.

    python3 -m pytest -q perfbench
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
MAPPING = json.loads((run.BENCH / "metrics.json").read_text(encoding="utf-8"))


def small_layer(work: Path, initial="0001101110010110", steps=6) -> run.Workload:
    chain = work / "chain.jsonl"
    return run.Workload(
        "layer-small", "layer", chain=chain, initial=initial, steps=steps,
        write=run._cli("run", "--mode", "layer", "--initial", initial,
                       "--steps", steps, "--chain", chain),
        setup=run._cli("run", "--mode", "layer", "--initial", initial,
                       "--steps", 0, "--chain", work / "genesis.jsonl"))


def test_stepper_is_rule_110():
    table = {(1, 1, 1): 0, (1, 1, 0): 1, (1, 0, 1): 1, (1, 0, 0): 0,
             (0, 1, 1): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): 0}
    assert all(oracle.step(*cell) == new for cell, new in table.items())
    assert oracle.grid_rows("1", 3) == [[1], [1, 1], [1, 1, 1], [1, 1, 0, 1]]
    assert oracle.cyclic_rows("0001", 1) == [[0, 0, 0, 1], [0, 0, 1, 1]]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_corrupted_line_is_a_failed_operation(tmp_path, seed):
    """Negative control: one flipped payload bit fails verify at its own line."""
    wl = small_layer(tmp_path)
    check = run.Checker(wl)
    assert not check.written(run.run_child("run", wl.write, tmp_path), wl.chain).problem

    rng = random.Random(seed)
    lines = wl.chain.read_text(encoding="utf-8").splitlines()
    index = rng.randrange(len(lines))
    record = json.loads(lines[index])
    layer = record["outputs"][0]["payload"]["layer"]
    pos = rng.randrange(len(layer["v"]))
    layer["v"] = layer["v"][:pos] + "10"[int(layer["v"][pos])] + layer["v"][pos + 1:]
    lines[index] = json.dumps(record, separators=(",", ":"))
    wl.chain.write_text("\n".join(lines) + "\n", encoding="utf-8")

    op = check.verified(run.run_child("verify", run._cli("verify", "--chain", wl.chain),
                                      tmp_path))
    assert (check.attempted, check.failed) == (2, 1)
    assert op.verdict[:2] == ("FirstFailure", index)
    assert check.problems == [f"verify: {op.problem}"]


def test_untraced_reports_every_end_to_end_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MIN_CYCLES", 2)
    wl = small_layer(tmp_path)
    check = run.Checker(wl)
    metrics = run.untraced(wl, 0, tmp_path, check)
    assert (check.failed, check.attempted) == (0, 3 * 2)
    assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(value > 0 for value, _ in metrics.values())
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == units


def test_traced_reports_every_per_layer_metric(tmp_path):
    wl = small_layer(tmp_path)
    check = run.Checker(wl)
    metrics = run.traced(wl, 0, tmp_path, check)
    assert (check.failed, check.attempted) == (0, 4)
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert metrics["builder.yield"][0] == 1.0
    assert metrics["ledger.validations_per_tx"][0] == pytest.approx(2, rel=0.2)

    spans = [json.loads(line) for line in
             (tmp_path / "spans-verify.jsonl").read_text(encoding="utf-8").splitlines()]
    assert spans[0]["name"] == "cli.main" and spans[0]["parent"] is None
    assert all(0 <= s["parent"] < s["id"] for s in spans[1:])
    assert all(s["start_ns"] <= s["end_ns"] for s in spans)


def test_every_per_layer_metric_names_what_it_moves():
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(MAPPING["per_layer"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for entry in MAPPING["per_layer"].values():
        assert set(entry["moves"]) <= e2e
        assert set(entry["on"]) | set(entry["unchanged_on"]) <= workloads
    assert workloads == set(run.WORKLOADS)


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "layer-w256",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
