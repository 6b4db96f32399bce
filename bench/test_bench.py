"""Tests of the benchmark itself, kept out of the tier-1 suite.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = ("hessian.fd_evals", "energy.panels", "cli.stdout_bytes")


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_prints_every_metric_with_unit(workload):
    proc = _run(workload, seed=1, trace=0)
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    report = proc.stdout.splitlines()[:-1]
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0
        assert any(line.startswith(metric["name"] + " ") and line.endswith(" " + metric["unit"]) for line in report)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", ["certify", "measure"])
def test_traced_counts_repeat_for_the_same_seed(workload):
    first, second = (_result(_run(workload, seed=3, trace=1))["metrics"] for _ in range(2))
    assert set(first) == {m["name"] for m in SPEC["per_layer"]}
    exact = [name for name in first if name.endswith(".calls") or name in EXACT]
    assert {n: first[n]["value"] for n in exact} == {n: second[n]["value"] for n in exact}
    assert first["hessian.fd_evals" if workload == "measure" else "ineq.ratio_R.calls"]["value"] > 0


def test_certify_check_accepts_only_refusals_the_reference_confirms():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import checks
    import tasks

    # near p = 1 the maximum of R - 1 (~2.7e-10) is below the 1e-8 margin
    near_one = tasks.Task("counterexample", {"p": 1.0001, "n": 3})
    out = tasks.WORKLOADS["certify"].call(near_one)
    assert out.code == 1 and "certificate-invalid" in out.stderr
    checks.check_certify(near_one, out)
    # at p = 2 the maximum of R - 1 is ~0.02, so the same refusal is wrong
    refused = tasks.CliOutput(1, "", out.stderr)
    with pytest.raises(checks.CheckFailed):
        checks.check_certify(tasks.Task("counterexample", {"p": 2.0, "n": 3}), refused)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("certify", seed=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
