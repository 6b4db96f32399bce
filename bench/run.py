"""Benchmark runner for qma: one workload, one seed, one run.

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Run from anywhere; qma is imported from ``src/`` next to this directory,
and the run fails (exit 1, no result) if it is not there.

The load is a closed loop with one client: one process, one thread, the
next task starting when the previous one returns.  The seed generates a
cycle of tasks (see ``tasks.py``); the timed phase repeats whole cycles,
at least two, until ``--seconds`` of task time have passed.  Task times
are scaled to the reference host speed (``hostspeed.py``), and set-up
times by paired baseline interpreters (``measure_setup``); the raw
figures are printed in the report.  Each output
is checked outside the timed region: the first run of a task against an
independent reference (``checks.py``), each repeat for byte identity with
the first run.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each
task of one cycle untraced and then traced, and reports the per-layer
metrics (``tracing.py``) and the tracing overhead.  The last line of stdout
is the JSON result; the lines before it are a readable report.  Result
and span files go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_RUNS = 9
_BASELINE_CODE = "import numpy"
# Wall time of the baseline interpreter on the reference host of
# hostspeed.REFERENCE_KERNEL_S in its fast state.
BASELINE_REFERENCE_S = 0.16
MIN_CYCLES = 2
# one client, one thread: keep BLAS from starting worker threads
_SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "scan", "measure"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_qma():
    """Import qma from this checkout's src/, or exit 1 without a result."""
    if not (SRC / "qma" / "__init__.py").is_file():
        sys.exit(f"bench: no qma package at {SRC / 'qma'}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import qma
    import qma.cli  # noqa: F401

    if not Path(qma.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: imported qma from {qma.__file__}, not from {SRC}")


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "seed": seed,
        "git_commit": _git_commit(),
    }


def _interpreter_seconds(code: str, env: dict) -> float:
    """Wall time of a fresh interpreter running ``code``; exits 1 if it fails."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"bench: set-up run failed ({proc.returncode}): {proc.stderr.strip()}")
    return elapsed


def measure_setup(workload: str) -> tuple[float, float]:
    """Median raw and reference-speed wall times of SETUP_RUNS fresh
    interpreters that import qma and make one warm-up call.

    Set-up is mostly interpreter start and imports, which the CPU kernel of
    ``hostspeed`` tracks poorly.  So each set-up interpreter runs between
    two baseline interpreters that only import numpy, and its time is
    scaled by BASELINE_REFERENCE_S over the mean of theirs.
    """
    env = {k: v for k, v in os.environ.items() if k != "QMA_RELTOL"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    code = f"import qma, qma.cli, tasks; tasks.WORKLOADS[{workload!r}].warm_up()"
    baselines = [_interpreter_seconds(_BASELINE_CODE, env)]
    raw = []
    for _ in range(SETUP_RUNS):
        raw.append(_interpreter_seconds(code, env))
        baselines.append(_interpreter_seconds(_BASELINE_CODE, env))
    scaled = [r * BASELINE_REFERENCE_S * 2.0 / (b0 + b1) for r, b0, b1 in zip(raw, baselines, baselines[1:])]
    return statistics.median(raw), statistics.median(scaled)


def _fingerprint(output):
    # the CSV of a scan runs to megabytes; keep a digest, not the text
    stdout = getattr(output, "stdout", None)
    if stdout is None:
        return output
    return (output.code, hashlib.sha256(stdout.encode("utf-8")).hexdigest(), output.stderr)


class Outcomes:
    """Checks every output outside the timed region and keeps the failures."""

    def __init__(self, check) -> None:
        self._check = check
        self._first: dict[int, object] = {}
        self.attempted = 0
        self.failures: list[dict] = []

    def record(self, index: int, task, output) -> None:
        self.attempted += 1
        reason = None
        if isinstance(output, Exception):
            reason = f"raised {type(output).__name__}: {output}"
        elif index not in self._first:
            self._first[index] = _fingerprint(output)
            try:
                self._check(task, output)
            except Exception as exc:  # a check that breaks counts as a failed task
                reason = f"{type(exc).__name__}: {exc}"
        elif _fingerprint(output) != self._first[index]:
            reason = "output differs from the first run of the same task"
        if reason is not None:
            self.failures.append({"task": task.describe(), "reason": reason})


def _run_task(workload, task, wrap_fd=None):
    try:
        return workload.call(task, wrap_fd)
    except Exception as exc:  # counted as a failed task, never stops the run
        return exc


def _stdout_bytes(output) -> int:
    stdout = getattr(output, "stdout", None)
    return len(stdout.encode("utf-8")) if stdout is not None else 0


def timed_run(workload, cycle, seconds: float, outcomes: Outcomes) -> tuple[dict, dict]:
    from hostspeed import HostSpeed

    setup_raw, setup = measure_setup(workload.name)
    workload.warm_up()
    raw_times, times = [], []
    cycles = 0
    with HostSpeed() as host:
        while cycles < MIN_CYCLES or math.fsum(raw_times) < seconds:
            for index, task in enumerate(cycle):
                output, raw, ref = host.time(lambda: _run_task(workload, task))
                raw_times.append(raw)
                times.append(ref)
                outcomes.record(index, task, output)
            cycles += 1
    metrics = {
        "tasks_per_s": (len(times) / math.fsum(times), "1/s"),
        "latency_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "cycles": cycles,
        "samples": len(times),
        "raw_tasks_per_s": len(raw_times) / math.fsum(raw_times),
        "raw_latency_p50_ms": statistics.median(raw_times) * 1e3,
        "raw_setup_s": setup_raw,
    }
    # a p90 needs at least ten samples beyond it
    if len(times) >= 100:
        extra["latency_p90_ms"] = statistics.quantiles(times, n=10)[8] * 1e3
        extra["raw_latency_p90_ms"] = statistics.quantiles(raw_times, n=10)[8] * 1e3
    return metrics, extra


def traced_run(workload, cycle, outcomes: Outcomes, spans_path: Path, tracer) -> tuple[dict, dict]:
    workload.warm_up()
    untraced = traced = 0.0
    stdout_bytes = 0
    # each task runs untraced and then traced, so that both runs see the
    # same host speed and the overhead does not follow the host's state
    for index, task in enumerate(cycle):
        start = time.perf_counter()
        output = _run_task(workload, task)
        untraced += time.perf_counter() - start
        outcomes.record(index, task, output)
        with tracer.installed():
            start = time.perf_counter()
            with tracer.task(index, task.kind):
                output = _run_task(workload, task, tracer.count_fd)
            traced += time.perf_counter() - start
        stdout_bytes += _stdout_bytes(output)
        outcomes.record(index, task, output)
    tracer.write(spans_path)

    layers = tracer.layer_metrics()
    layers["cli.stdout_bytes"] = stdout_bytes
    layers["trace_overhead_frac"] = traced / untraced - 1.0
    units = {"trace_overhead_frac": "ratio", "cli.stdout_bytes": "bytes"}
    metrics = {
        name: (value, units.get(name, "s" if name.endswith("_s") else "count")) for name, value in layers.items()
    }
    return metrics, {"untraced_s": untraced, "traced_s": traced, "spans": len(tracer.spans)}


def main(argv=None) -> int:
    args = _parse_args(argv)
    os.environ.pop("QMA_RELTOL", None)
    # before anything imports numpy, which is why the bench modules are imported late
    os.environ.update(_SINGLE_THREAD_ENV)
    _import_qma()
    sys.path.insert(0, str(BENCH_DIR))
    import checks
    import tasks
    from tracing import Tracer

    workload = tasks.WORKLOADS[args.workload]
    cycle = workload.cycle(args.seed)
    outcomes = Outcomes(checks.CHECKS[workload.name])
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, extra = traced_run(workload, cycle, outcomes, OUT_DIR / f"spans-{stem}.jsonl", Tracer())
    else:
        metrics, extra = timed_run(workload, cycle, args.seconds, outcomes)

    failed = len(outcomes.failures)
    prov = provenance(args.seed)
    print(f"provenance {json.dumps(prov)}")
    print(
        f"workload {workload.name}: task unit {workload.task_unit}, {len(cycle)} tasks per cycle, "
        f"{outcomes.attempted} attempted, {failed} failed (failed_frac {failed / outcomes.attempted:.4g})"
    )
    for name, value in extra.items():
        print(f"  {name} {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for failure in outcomes.failures:
        print(f"FAILED {failure['task']}: {failure['reason']}")

    result = {
        "correct": failed == 0,
        "attempted": outcomes.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"workload": workload.name, "provenance": prov, "extra": extra, "failures": outcomes.failures}
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps({**record, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
