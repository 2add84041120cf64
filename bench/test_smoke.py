"""Smoke test of the benchmark itself, at a tiny budget.

    python3 -m pytest bench/test_smoke.py

Every workload, untraced and traced, must print every metric BENCHMARK.json
names with its unit and pass all of its oracle checks; the traced layers must
account for the traced wall time; and outside a molrmog checkout the
benchmark must fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, bench: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, BENCH, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True, proc.stdout
    assert f"[{workload}] fail_frac = 0 frac" in proc.stdout

    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert f"[{workload}] {m['name']} = " in proc.stdout

    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        accounted = sum(v for k, v in values.items() if k.startswith("layer.")) + \
            values["harness.self_s"] + values["trace.bookkeeping_s"]
        assert accounted == pytest.approx(values["trace.wall_s"], rel=1e-6)
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, tmp_path / "bench", "estimation", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
