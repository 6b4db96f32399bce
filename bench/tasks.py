"""Seeded task lists for the benchmark workloads, and the calls into qma.

Each workload turns a seed into a *cycle*: a fixed list of tasks whose
mix is stratified (every cycle holds the same shares of dimensions, grid
sizes and task kinds), so that throughput and latency quantiles depend on
the code under test and not on which seed was drawn.  The timed phase
repeats the cycle, which also lets every repeat of a task be compared
byte for byte with its first run.

This module imports only qma and numpy, because the set-up measurement
imports it in a fresh interpreter to make the warm-up call.  It calls
only public qma API that the roadmap keeps: no ``threads`` argument, no
private helpers, and none of the names the roadmap removes.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import qma
import qma.cli


@dataclass(frozen=True)
class Task:
    """One unit of work: a kind, its inputs, and a seed for its output check."""

    kind: str
    inputs: dict
    check_seed: int = 0

    def describe(self) -> str:
        return f"{self.kind} {self.inputs}"


@dataclass(frozen=True)
class CliOutput:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliOutput:
    """``qma.cli.main(argv)`` with stdout and stderr captured in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # looked up at call time, so a traced run sees the rebound main
        code = qma.cli.main(argv)
    return CliOutput(code, out.getvalue(), err.getvalue())


def _log_uniform(rng: np.random.Generator, lo: float, hi: float, size=None):
    vals = np.exp(rng.uniform(math.log(lo), math.log(hi), size))
    return float(vals) if size is None else [float(v) for v in vals]


def _stratified(rng: np.random.Generator, lo: float, hi: float, k: int, log: bool = False) -> list[float]:
    """k draws, one uniform (or log-uniform) in each of k equal slices of [lo, hi]."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    edges = np.linspace(a, b, k + 1)
    vals = rng.uniform(edges[:-1], edges[1:])
    return [float(v) for v in (np.exp(vals) if log else vals)]


def _shuffled(rng: np.random.Generator, tasks: list[Task]) -> list[Task]:
    return [tasks[i] for i in rng.permutation(len(tasks))]


def _check_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


# ---------------------------------------------------------------- certify

# Within about 1e-3 of p = 1 the violation ratio - 1 (~0.026 (p-1)^2) drops
# below the margin the certificate requires, and qma correctly refuses to
# certify; the output check accepts such a refusal when the reference
# maximum confirms it.  Exact p = 1 tasks cover the sharp case.
_CERTIFY_P_RANGE = (0.1, 16.0)
_CERTIFY_DIMS = range(1, 7)
_CERTIFY_PER_DIM = 7  # p != 1 tasks per dimension, plus one exact p = 1


def _certify_task(p: float, n: int) -> Task:
    return Task("counterexample", {"p": p, "n": n})


def _certify_cycle(rng: np.random.Generator) -> list[Task]:
    tasks = []
    for n in _CERTIFY_DIMS:
        tasks.append(_certify_task(1.0, n))
        tasks.extend(_certify_task(_log_uniform(rng, *_CERTIFY_P_RANGE), n) for _ in range(_CERTIFY_PER_DIM))
    return _shuffled(rng, tasks)


def _certify_call(task: Task, wrap_fd=None) -> CliOutput:
    p, n = task.inputs["p"], task.inputs["n"]
    return run_cli(["counterexample", "--p", repr(p), "--n", str(n)])


# ------------------------------------------------------------------- scan

# Grid sizes put the CSV text between ~1 MB and ~9 MB, either side of a
# 4 MiB L2 cache; every cycle holds each size once, smallest first, so the
# peak RSS is reached in the same order whatever the seed.  An odd count
# puts the median latency inside the middle size's times, not between two.
SCAN_GRIDS = tuple(int(g) for g in np.linspace(128, 384, 7).round())
_SCAN_P_RANGE = (0.1, 16.0)
_SCAN_AMIN_RANGE = (0.05, 0.5)
_SCAN_AMAX_RANGE = (2.0, 8.0)


def _scan_task(p: float, n: int, grid: int, amin: float, amax: float, check_seed: int = 0) -> Task:
    return Task("ratio-scan", {"p": p, "n": n, "grid": grid, "amin": amin, "amax": amax}, check_seed)


def _scan_cycle(rng: np.random.Generator) -> list[Task]:
    return [
        _scan_task(
            _log_uniform(rng, *_SCAN_P_RANGE),
            int(rng.integers(1, 7)),
            grid,
            _log_uniform(rng, *_SCAN_AMIN_RANGE),
            _log_uniform(rng, *_SCAN_AMAX_RANGE),
            _check_seed(rng),
        )
        for grid in SCAN_GRIDS
    ]


def _scan_call(task: Task, wrap_fd=None) -> CliOutput:
    t = task.inputs
    argv = ["ratio-scan", "--p", repr(t["p"]), "--n", str(t["n"]), "--grid", str(t["grid"])]
    argv += ["--amin", repr(t["amin"]), "--amax", repr(t["amax"])]
    return run_cli(argv)


# ---------------------------------------------------------------- measure

# One round holds four energies and two two-term checks per n = 1..4
# (quadrature), two FD density checks per n = 1..4, and one mixed Moore
# determinant per n = 2..7 (Hessian and Moore work).  At the seed the two
# halves take roughly equal time; ten rounds make one cycle.
_MEASURE_ROUNDS = 10
_EXP_RANGE = (0.1, 4.0)
_FD_EXP_RANGE = (0.25, 4.0)
_RADIUS_RANGE = (0.2, 0.9)


def _ball_point(rng: np.random.Generator, n: int) -> list[float]:
    direction = rng.normal(size=4 * n)
    direction /= np.linalg.norm(direction)
    return [float(c) for c in rng.uniform(*_RADIUS_RANGE) * direction]


def _measure_round(rng: np.random.Generator) -> list[Task]:
    tasks = []
    for n in range(1, 5):
        # p sets the quadrature's panel count, so it is stratified per round
        for p in _stratified(rng, *_EXP_RANGE, 4, log=True):
            tasks.append(
                Task(
                    "energy",
                    {
                        "p": p,
                        "n": n,
                        "a0": _log_uniform(rng, *_EXP_RANGE),
                        "tail": _log_uniform(rng, *_EXP_RANGE, size=n),
                    },
                )
            )
        for p in _stratified(rng, 0.05, 0.95, 2):
            a, b, c = _log_uniform(rng, *_EXP_RANGE, size=3)
            tasks.append(Task("two-term", {"p": p, "n": n, "a": a, "b": b, "c": c}))
        for _ in range(2):
            a = _log_uniform(rng, *_FD_EXP_RANGE)
            tasks.append(Task("density", {"a": a, "coords": _ball_point(rng, n)}))
    for n in range(2, 8):
        exps = _log_uniform(rng, *_FD_EXP_RANGE, size=n)
        tasks.append(Task("mixed", {"exps": exps, "coords": _ball_point(rng, n)}))
    return tasks


def _measure_cycle(rng: np.random.Generator) -> list[Task]:
    tasks = [t for _ in range(_MEASURE_ROUNDS) for t in _measure_round(rng)]
    return _shuffled(rng, tasks)


def _fd_hessian(a: float, point, wrap_fd):
    func = qma.PowerFamilyMember(a, point.n).as_function()
    if wrap_fd is not None:
        func = wrap_fd(func)
    matrix, _ = qma.fd_quaternionic_hessian(func, point)
    return matrix


def _measure_call(task: Task, wrap_fd=None) -> tuple:
    t = task.inputs
    if task.kind == "energy":
        result = qma.energy_numeric(qma.EnergyParams(t["p"], t["n"]), t["a0"], t["tail"])
        return (result.value,)
    if task.kind == "two-term":
        return tuple(qma.check_two_term(t["p"], t["n"], t["a"], t["b"], t["c"]))
    point = qma.EvaluationPoint.from_coords(t["coords"])
    if task.kind == "density":
        return (qma.moore_det(_fd_hessian(t["a"], point, wrap_fd)),)
    if task.kind == "mixed":
        return (qma.mixed_moore_det([_fd_hessian(a, point, wrap_fd) for a in t["exps"]]),)
    raise ValueError(f"unknown measure task kind {task.kind!r}")


# -------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    name: str
    task_unit: str
    make_cycle: Callable[[np.random.Generator], list[Task]]
    call: Callable[..., object]
    smallest: tuple[Task, ...]

    def cycle(self, seed: int) -> list[Task]:
        return self.make_cycle(np.random.default_rng(seed))

    def warm_up(self) -> None:
        """One call of the entry point on the workload's smallest input(s)."""
        for task in self.smallest:
            self.call(task)


WORKLOADS = {
    "certify": Workload(
        "certify", "certificates", _certify_cycle, _certify_call, (_certify_task(2.0, 1),)
    ),
    "scan": Workload(
        "scan", "scans", _scan_cycle, _scan_call, (_scan_task(2.0, 1, SCAN_GRIDS[0], 0.1, 4.0),)
    ),
    "measure": Workload(
        "measure",
        "evaluations",
        _measure_cycle,
        _measure_call,
        (
            Task("energy", {"p": 1.0, "n": 1, "a0": 1.0, "tail": [2.0]}),
            Task("two-term", {"p": 0.5, "n": 1, "a": 0.5, "b": 2.0, "c": 1.0}),
            Task("density", {"a": 2.0, "coords": [0.5, 0.0, 0.0, 0.0]}),
            Task("mixed", {"exps": [1.5, 2.5], "coords": [0.3, 0.0, 0.0, 0.0, 0.0, 0.4, 0.0, 0.0]}),
        ),
    ),
}
