"""Smoke test: every workload on its tiny configuration, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py

Checks that each run names every metric BENCHMARK.json lists, with its
unit, that no op failed, and that --compare reads the results back.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def result_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace, tmp_path):
    out = tmp_path / "results.jsonl"
    args = ["--workload", workload, "--seconds", "0", "--tiny", "--trace", trace]
    result = result_of(bench(*args, "--seed", "7", "--out", str(out)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if trace == "0":
        assert result["metrics"]["ok_share"]["value"] == 1.0
        bench(*args, "--seed", "8", "--out", str(out))
        report = bench("--compare", str(out), str(out))
        assert f"== {workload}: 2 paired seeds" in report
        assert "answers: identical" in report
        digests = [json.loads(line)["digest"] for line in out.read_text().splitlines()]
        assert digests[0] != digests[1]  # another seed, other instances


def test_seeds_share_the_mix_of_sizes():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    for workload in workloads.WORKLOADS.values():
        a, b = (workload.build_pass(seed, 0, False) for seed in (1, 2))
        assert sorted(op.rung for op in a) == sorted(op.rung for op in b)
