"""Output checks against references that share no code with qma.

Every reference is recomputed here from the paper's closed forms with
mpmath at 40 digits.  The mixed Monge-Ampere density of u_{b_1}, ...,
u_{b_n} at |q|^2 = s is the single monomial

    prod(b) (1 + S / (2n)) s^S,   S = sum(b_i - 1),

so every energy against (-u_{a0})^p has the exact form

    |S^{4n-1}| prod(b) (1 + S/(2n)) B(p + 1, (S + 2n) / a0) / (2 a0),

and the ratio R(a, b) is a quotient of three such energies.
"""

from __future__ import annotations

import json
import math
import re

import mpmath
import numpy as np

from tasks import CliOutput, Task

_DPS = 40
# qma's Lanczos log-Gamma is good to ~1e-15; log-space sums of a few
# terms of size up to ~1e3 leave ~1e-13 in R.
RATIO_REL_TOL = 1e-12
# ten times the default quadrature rel_tol (1e-10)
ENERGY_REL_TOL = 1e-9
# criterion 4 of the acceptance suite
DENSITY_REL_TOL = 1e-4
AXIS_REL_TOL = 1e-14
SCAN_SAMPLES = 16
# the default --amin/--amax of qma counterexample, over which it searches
SEARCH_BOX = (0.1, 4.0)
_PROFILE_GRID = 9
_GOLDEN_ITERS = 50
# how qma reports a refused certificate on stderr (exit 1)
_REFUSAL = re.compile(r"certificate-invalid: ratio \S+ minus one is within 10x the error bound (\S+)")


class CheckFailed(Exception):
    """An output disagrees with its reference."""


def _rel_err(value: float, ref) -> float:
    return float(abs(mpmath.mpf(value) - ref) / abs(ref))


def energy_ref(p: float, n: int, a0: float, tail) -> mpmath.mpf:
    with mpmath.workdps(_DPS):
        p, a0 = mpmath.mpf(p), mpmath.mpf(a0)
        bs = [mpmath.mpf(b) for b in tail]
        s = mpmath.fsum(b - 1 for b in bs)
        area = 2 * mpmath.pi ** (2 * n) / mpmath.factorial(2 * n - 1)
        return area * mpmath.fprod(bs) * (1 + s / (2 * n)) * mpmath.beta(p + 1, (s + 2 * n) / a0) / (2 * a0)


def ratio_ref(p: float, n: int, a: float, b: float) -> mpmath.mpf:
    with mpmath.workdps(_DPS):
        p = mpmath.mpf(p)
        e_ab = energy_ref(p, n, a, [b] * n)
        e_aa = energy_ref(p, n, a, [a] * n)
        e_bb = energy_ref(p, n, b, [b] * n)
        return e_ab / (e_aa ** (p / (n + p)) * e_bb ** (n / (n + p)))


def _golden_max(f, lo, hi):
    """(x, f(x)) at the maximum of a unimodal f on [lo, hi], by golden section."""
    inv = (mpmath.sqrt(5) - 1) / 2
    x1, x2 = hi - inv * (hi - lo), lo + inv * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(_GOLDEN_ITERS):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv * (hi - lo)
            f1 = f(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def max_ratio_ref(p: float, n: int) -> mpmath.mpf:
    """Maximum of R(a, b) over SEARCH_BOX squared, in u = log a, t = log(b / a).

    R = 1 on the diagonal t = 0, and near p = 1 the maximum lies on a ridge
    beside it that is far narrower than any affordable grid step.  So for
    each u the maximum over t comes from golden section over all of t's
    range, where R is unimodal, and that profile is maximized over u: the
    best point of a coarse grid, refined by golden section between its
    neighbours.
    """
    with mpmath.workdps(_DPS):
        lo, hi = (mpmath.log(v) for v in SEARCH_BOX)

        def profile(u):
            a = mpmath.exp(u)
            return _golden_max(lambda t: ratio_ref(p, n, a, a * mpmath.exp(t)), lo - u, hi - u)[1]

        axis = mpmath.linspace(lo, hi, _PROFILE_GRID)
        values = [profile(u) for u in axis]
        k = max(range(_PROFILE_GRID), key=values.__getitem__)
        _, refined = _golden_max(profile, axis[max(k - 1, 0)], axis[min(k + 1, _PROFILE_GRID - 1)])
        return max(values[k], refined)


def density_ref(exps, radius: float) -> mpmath.mpf:
    with mpmath.workdps(_DPS):
        bs = [mpmath.mpf(b) for b in exps]
        n = len(bs)
        s = mpmath.fsum(b - 1 for b in bs)
        return mpmath.fprod(bs) * (1 + s / (2 * n)) * mpmath.mpf(radius) ** (2 * s)


def _cli_json(out: CliOutput) -> dict:
    if out.code != 0:
        raise CheckFailed(f"exit code {out.code}: {out.stderr.strip()}")
    return json.loads(out.stdout)


def check_certify(task: Task, out: CliOutput) -> None:
    p, n = task.inputs["p"], task.inputs["n"]
    refusal = _REFUSAL.search(out.stderr) if out.code == 1 else None
    if refusal is not None and p != 1.0:
        # near p = 1 the true maximum of R - 1 (about 0.026 (p - 1)^2) can lie
        # below the certificate's margin, and then refusing is the right answer;
        # the margin may be no looser than the accuracy the energies are checked to
        margin = 10.0 * min(float(refusal.group(1)), ENERGY_REL_TOL)
        peak = float(max_ratio_ref(p, n) - 1)
        if not peak < margin:
            raise CheckFailed(f"refused, but the maximum of R - 1 is {peak:.3e}, above the margin {margin:.3e}")
        return
    cert = _cli_json(out)
    if cert["p"] != p or cert["n"] != n:
        raise CheckFailed(f"certificate is for (p, n) = ({cert['p']}, {cert['n']})")
    err = _rel_err(cert["ratio"], ratio_ref(p, n, cert["a_star"], cert["b_star"]))
    if not err <= RATIO_REL_TOL:
        raise CheckFailed(f"ratio off the 40-digit reference by {err:.2e} relative")
    if p == 1.0:
        if cert["violation_found"]:
            raise CheckFailed("violation reported at p = 1")
        return
    if cert["violation_found"] is not True:
        raise CheckFailed("no violation reported for p != 1")
    if not cert["ratio"] - 1.0 > 10.0 * cert["error_bound"]:
        raise CheckFailed(f"ratio - 1 = {cert['ratio'] - 1.0:.3e} within 10x error bound")


def check_scan(task: Task, out: CliOutput) -> None:
    if out.code != 0:
        raise CheckFailed(f"exit code {out.code}: {out.stderr.strip()}")
    t = task.inputs
    grid = t["grid"]
    lines = out.stdout.split("\n")
    if lines[0] != "a,b,R" or lines[-1] != "" or len(lines) != grid * grid + 2:
        raise CheckFailed(f"CSV has {out.stdout.count(chr(10))} lines, want {grid * grid + 1}")
    rng = np.random.default_rng(task.check_seed)
    with mpmath.workdps(_DPS):
        ratio_ab = mpmath.mpf(t["amax"]) / t["amin"]
        for _ in range(SCAN_SAMPLES):
            i, j = (int(k) for k in rng.integers(grid, size=2))
            a, b, r = (float(v) for v in lines[1 + i * grid + j].split(","))
            for idx, axis_value in ((i, a), (j, b)):
                want = t["amin"] * ratio_ab ** (mpmath.mpf(idx) / (grid - 1))
                if not _rel_err(axis_value, want) <= AXIS_REL_TOL:
                    raise CheckFailed(f"axis value {axis_value!r} at index {idx}, want {want}")
            err = _rel_err(r, ratio_ref(t["p"], t["n"], a, b))
            if not err <= RATIO_REL_TOL:
                raise CheckFailed(f"cell ({i}, {j}) off the reference by {err:.2e} relative")


def check_measure(task: Task, out: tuple) -> None:
    t = task.inputs
    if task.kind == "energy":
        err = _rel_err(out[0], energy_ref(t["p"], t["n"], t["a0"], t["tail"]))
        if not err <= ENERGY_REL_TOL:
            raise CheckFailed(f"energy off the exact form by {err:.2e} relative")
    elif task.kind == "two-term":
        holds, slack = out
        p, n, a, b, c = t["p"], t["n"], t["a"], t["b"], t["c"]
        rest = [c] * (n - 1)
        with mpmath.workdps(_DPS):
            lhs = energy_ref(p, n, a, [b] + rest)
            e_aa = energy_ref(p, n, a, [a] + rest)
            e_bb = energy_ref(p, n, b, [b] + rest)
            pm = mpmath.mpf(p)
            rhs = pm ** (-1 / (1 - pm)) * e_aa ** (pm / (pm + 1)) * e_bb ** (1 / (pm + 1))
            want = rhs - lhs
        if holds is not True or want <= 0:
            raise CheckFailed(f"two-term inequality: holds={holds}, reference slack {float(want):.3e}")
        if not float(abs(mpmath.mpf(slack) - want) / rhs) <= ENERGY_REL_TOL:
            raise CheckFailed(f"slack {slack!r} off the reference {float(want)!r}")
    else:
        coords = t["coords"]
        radius = math.sqrt(math.fsum(c * c for c in coords))
        exps = [t["a"]] * (len(coords) // 4) if task.kind == "density" else t["exps"]
        err = _rel_err(out[0], density_ref(exps, radius))
        if not err <= DENSITY_REL_TOL:
            raise CheckFailed(f"{task.kind} determinant off the monomial density by {err:.2e}")


CHECKS = {"certify": check_certify, "scan": check_scan, "measure": check_measure}
