"""The benchmark's tracer still finds every name it wraps."""

import json
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_grid_run_exits_zero(tmp_path):
    summary = tmp_path / "summary.json"
    proc = subprocess.run(
        [sys.executable, str(TRACER), "--summary", str(summary), "--",
         "run", "--mode", "grid", "--initial", "1", "--steps", "2",
         "--chain", str(tmp_path / "chain.jsonl")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(summary.read_text())["exit"] == 0
