"""Spans and counters recorded from outside qma, by rebinding its public functions.

``Tracer.installed()`` wraps every public function of each layer module
(``qma.specfun``, ``quatlin``, ``hessian``, ``energy``, ``ineq``, ``cli``)
and rebinds the wrapper wherever the original is bound by name, so that
``qma.ineq.log_beta`` and ``qma.energy.mixed_density`` are traced as well
as the definitions.  Names that do not exist are skipped.  On exit the
originals are put back.

Each wrapped call is a span: name, start, end, parent, and the id of the
task it belongs to.  The hot leaves in ``HOT`` are not kept one by one;
their call count and time are aggregated under the nearest kept span.
Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("specfun", "quatlin", "hessian", "energy", "ineq", "cli")

_MATRIX = "quatlin.HyperhermitianMatrix"
HOT = frozenset(
    {
        "specfun.log_gamma",
        "specfun.log_beta",
        "specfun.beta",
        "specfun.digamma",
        "ineq.ratio_R",
        "hessian.mixed_density",
        "hessian.ma_density",
        "hessian.power_hessian_closed",
        "quatlin.moore_det",
        "quatlin.complex_adjoint",
        "quatlin.hyperhermitian_residual",
        "quatlin.quat_conj_transpose",
        _MATRIX,
    }
)
_DENSITIES = ("hessian.mixed_density", "hessian.ma_density")
_QUADRATURE = "energy.integrate_radial"
_SEARCH = "ineq.find_violation"
_GRID = "ineq.ratio_grid"


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.failures: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.aggregates: defaultdict = defaultdict(lambda: [0, 0.0])
        self._stack: list[list] = []  # frames: [child seconds, id of the kept span]
        self._active: Counter = Counter()
        self._task = None
        self._next_id = 0

    # ------------------------------------------------------------ spans

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _hook(self, name: str):
        counts, active = self.counts, self._active
        if name in _DENSITIES:

            def on_density(args, kwargs):
                radii = kwargs["r"] if "r" in kwargs else args[1]
                counts["integrand_points"] += int(np.size(radii))
                if active[_QUADRATURE]:
                    counts["density_calls_in_quadrature"] += 1

            return on_density
        if name == "ineq.ratio_R":

            # the refinement count: calls of the search, not of its grid
            def on_ratio(args, kwargs):
                if active[_SEARCH] and not active[_GRID]:
                    counts["ratio_R_in_refinement"] += 1

            return on_ratio
        return None

    def _wrap(self, name: str, fn):
        hot = name in HOT
        scoped = name in (_QUADRATURE, _SEARCH, _GRID)
        hook = self._hook(name)
        stack, active = self._stack, self._active
        calls, failures, self_s = self.calls, self.failures, self.self_s
        spans, aggregates = self.spans, self.aggregates

        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            owner = (stack[-1][1] if stack else None) if hot else self._new_id()
            frame = [0.0, owner]
            stack.append(frame)
            if scoped:
                active[name] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failures[name] += 1
                raise
            finally:
                end = perf_counter()
                if scoped:
                    active[name] -= 1
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[0]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[0] += duration
                if hot:
                    agg = aggregates[(self._task, owner, name)]
                    agg[0] += 1
                    agg[1] += duration
                else:
                    spans.append((self._task, owner, parent[1] if parent else None, name, start, end))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    @contextlib.contextmanager
    def task(self, task_id: int, kind: str):
        """Root span of one task; spans opened inside share its id."""
        self._task = task_id
        span_id = self._new_id()
        frame = [0.0, span_id]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((task_id, span_id, None, f"task.{kind}", start, end))
            self._task = None

    def count_fd(self, func):
        """Wrap the function handed to the FD Hessian so its evaluations are counted."""
        counts = self.counts

        def counted(coords):
            counts["fd_evals"] += 1
            return func(coords)

        return counted

    # ------------------------------------------------------------ binding

    @contextlib.contextmanager
    def installed(self):
        """Rebind wrappers for the public functions of every layer, then restore."""
        modules = [sys.modules["qma"]]
        originals = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules.get(f"qma.{layer}")
            if mod is None:
                continue
            modules.append(mod)
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        rebound = []
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    setattr(mod, attr, originals[id(obj)][1])
                    rebound.append((mod, attr, obj))
        matrix_cls = getattr(sys.modules.get("qma.quatlin"), "HyperhermitianMatrix", None)
        if matrix_cls is not None:
            init = matrix_cls.__init__
            matrix_cls.__init__ = self._wrap(_MATRIX, init)
            rebound.append((matrix_cls, "__init__", init))
        try:
            yield self
        finally:
            for owner, attr, obj in rebound:
                setattr(owner, attr, obj)

    # ------------------------------------------------------------ results

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times, keyed by the names in BENCHMARK.json."""
        calls, self_s, counts = self.calls, self.self_s, self.counts
        out = {}
        for name in (
            "specfun.log_gamma",
            "specfun.log_beta",
            "ineq.ratio_R",
            "ineq.ratio_grid",
            "energy.energy_numeric",
            "hessian.fd_quaternionic_hessian",
            "hessian.mixed_density",
            "quatlin.moore_det",
            "quatlin.mixed_moore_det",
            "cli.main",
        ):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in ("specfun.digamma", "specfun.beta", "energy.integrate_radial"):
            out[f"{name}.calls"] = calls[name]
        for name in ("ineq.find_violation", "ineq.check_two_term"):
            out[f"{name}.self_s"] = self_s[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(t for n, t in self_s.items() if n.split(".")[0] == layer)
        searches = calls[_SEARCH]
        out["ineq.ratio_R_per_certificate"] = counts["ratio_R_in_refinement"] / searches if searches else 0.0
        panels = counts["density_calls_in_quadrature"] / 2
        integrals = calls[_QUADRATURE]
        out["energy.panels"] = panels
        out["energy.panels_per_integral"] = panels / integrals if integrals else 0.0
        out["hessian.fd_evals"] = counts["fd_evals"]
        out["hessian.integrand_points"] = counts["integrand_points"]
        out["quatlin.matrix_constructions"] = calls[_MATRIX] - self.failures[_MATRIX]
        return out

    def write(self, path) -> None:
        """Write the kept spans and the aggregated hot leaves as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for task, span_id, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"task": task, "id": span_id, "parent": parent, "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )
            for (task, parent, name), (n_calls, seconds) in self.aggregates.items():
                fh.write(
                    json.dumps({"task": task, "parent": parent, "name": name, "calls": n_calls, "seconds": seconds})
                    + "\n"
                )
