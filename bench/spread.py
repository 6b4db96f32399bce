"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py [--out FILE]

Reads the command, workloads, run length and bounds from BENCHMARK.json,
runs each workload once on each of seeds 1-10 with tracing off, and
prints for every end-to-end metric its median, quartiles
(``statistics.quantiles(n=4)``) and the spread (Q3 - Q1) / median next
to its bound.  A spread above a third of the bound is flagged, set-up
time included: the benchmark is steady when none is.
Each workload then gets one traced run on the first seed.  ``--out``
writes the runs, the summary, the per-layer metrics and the provenance
of the first run as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(spec: dict, workload: str, seed: int, trace: int = 0) -> tuple[dict, dict]:
    """The result line and the provenance line of one run."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    provenance = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("provenance "))
    return json.loads(lines[-1]), provenance


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    steady = True
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            start = time.perf_counter()
            result, provenance = run_once(spec, name, seed)
            report.setdefault("provenance", provenance)
            runs.append(result)
            print(
                f"{name} seed {seed}: correct={result['correct']} failed={result['failed']} "
                f"({time.perf_counter() - start:.1f} s)",
                flush=True,
            )
        summary = {}
        for metric in spec["end_to_end"]:
            key = metric["name"]
            stats = summarize([r["metrics"][key]["value"] for r in runs])
            stats["bound"] = metric["bound"]
            summary[key] = stats
            flag = ""
            if stats["spread"] > metric["bound"] / 3:
                flag = "  <-- above a third of the bound"
                steady = False
            print(
                f"  {name} {key}: median {stats['median']:.6g} {metric['unit']}, "
                f"Q1 {stats['q1']:.6g}, Q3 {stats['q3']:.6g}, "
                f"spread {stats['spread']:.4f} (bound {metric['bound']}){flag}",
                flush=True,
            )
        traced, _ = run_once(spec, name, SEEDS[0], trace=1)
        all_correct = traced["correct"] and all(r["correct"] for r in runs)
        steady = steady and all_correct
        report["workloads"][name] = {
            "all_correct": all_correct,
            "summary": summary,
            "runs": runs,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
