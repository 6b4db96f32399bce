"""Radial quadrature over the unit ball of H^n and p-energies of the power family.

Every integral here reduces to a weighted one on (0, 1): an integrand g
against t^{4n-1} dt, times the area of the unit sphere in R^{4n}.  The
adaptive Gauss-Legendre engine bisects worst panels first, which drives a
dyadic cascade into either endpoint when the integrand is singular there.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .hessian import (
    PowerFamilyMember,
    _log_c_energy,
    ma_density,
    mixed_density,
    normalization_constants,
)
from .specfun import _require_positive, log_beta

__all__ = [
    "QuadratureError",
    "EnergyParams",
    "QuadratureSpec",
    "EnergyResult",
    "DEFAULT_QUADRATURE",
    "sphere_area",
    "integrate_unit_interval",
    "integrate_radial",
    "log_pair_energy",
    "energy_closed_core",
    "energy_closed_pair",
    "energy_numeric",
    "total_mass",
]

_MAX_PANELS = 20000

# |fine - coarse| tracks the true panel error only up to a modest factor on
# panels touching an endpoint singularity; the stopping rule compensates.
_ERROR_SAFETY = 8.0


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class EnergyParams:
    """Energy exponent p > 0 and quaternionic dimension n >= 1."""

    p: float
    n: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p) and self.p > 0.0):
            raise ValueError(f"p must be positive, got {self.p!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n!r}")


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-10
    max_subdivisions: int = 60
    nodes_per_panel: int = 32

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0.0):
            raise ValueError("rel_tol must be positive")
        if self.max_subdivisions < 1 or self.nodes_per_panel < 2:
            raise ValueError("budget fields must be positive")


DEFAULT_QUADRATURE = QuadratureSpec()


@dataclass(frozen=True)
class EnergyResult:
    value: float
    method: str
    discrepancy: Optional[float] = None


@lru_cache(maxsize=8)
def _nodes(m: int):
    xs, ws = np.polynomial.legendre.leggauss(m)
    # map from [-1, 1] to [0, 1]
    return 0.5 * (xs + 1.0), 0.5 * ws


def _panels(f: Callable[[np.ndarray], np.ndarray], edges, m: int):
    """(fine, |fine - coarse|) of each panel (a, b) in edges, from one call of f."""
    xs1, ws1 = _nodes(m)
    xs2, ws2 = _nodes(2 * m)
    t = np.concatenate([a + (b - a) * xs for a, b in edges for xs in (xs1, xs2)])
    rows = np.asarray(f(t), dtype=float).reshape(len(edges), 3 * m)
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        a, b = edges[int(np.argmin(finite))]
        raise QuadratureError(f"non-finite integrand on panel ({a!r}, {b!r})")
    out = []
    for (a, b), row in zip(edges, rows):
        width = b - a
        coarse = width * float(ws1 @ row[:m])
        fine = width * float(ws2 @ row[m:])
        out.append((fine, abs(fine - coarse)))
    return out


def integrate_unit_interval(
    f: Callable[[np.ndarray], np.ndarray],
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Adaptive Gauss-Legendre integral of a vectorized f over (0, 1).

    Panels are estimated with nodes_per_panel and doubled-node rules; the
    worst panel is bisected until the summed error estimate drops below
    rel_tol of the running total.  Endpoints are never evaluated, so
    integrable endpoint singularities are fine.  f is called once per
    bisection, on the nodes of both new panels at once, so it must act
    elementwise on a 1-d array.
    """
    m = spec.nodes_per_panel
    [(value, err)] = _panels(f, [(0.0, 1.0)], m)
    panels = [(0.0, 1.0, 0, value, err)]
    while True:
        total = math.fsum(p[3] for p in panels)
        total_err = math.fsum(p[4] for p in panels)
        if _ERROR_SAFETY * total_err <= spec.rel_tol * max(abs(total), 1e-300):
            return total
        worst = max(range(len(panels)), key=lambda i: panels[i][4])
        a, b, depth, _, _ = panels[worst]
        if depth >= spec.max_subdivisions:
            raise QuadratureError(
                f"tolerance {spec.rel_tol:g} not met within {spec.max_subdivisions} subdivisions "
                f"(estimated error {total_err:.3e} on total {total:.6e})"
            )
        if len(panels) >= _MAX_PANELS:
            raise QuadratureError("panel budget exhausted")
        mid = 0.5 * (a + b)
        (v_lo, e_lo), (v_hi, e_hi) = _panels(f, [(a, mid), (mid, b)], m)
        panels[worst] = (a, mid, depth + 1, v_lo, e_lo)
        panels.append((mid, b, depth + 1, v_hi, e_hi))


def sphere_area(n: int) -> float:
    """Area of the unit sphere S^{4n-1} in R^{4n}: 2 pi^{2n} / (2n-1)!."""
    # 4 C: the factor 4 is exact in binary, so this is the closed form itself
    return 4.0 * normalization_constants(n).c_energy


def integrate_radial(
    g: Callable[[np.ndarray], np.ndarray],
    n: int,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """sphere_area(n) times the integral of g(t) t^{4n-1} over (0, 1)."""
    power = 4 * n - 1

    def weighted(t: np.ndarray) -> np.ndarray:
        return np.asarray(g(t), dtype=float) * t**power

    return sphere_area(n) * integrate_unit_interval(weighted, spec)


def log_pair_energy(p, n: int, a, b):
    """log(b^n (b+1) / a) + log B(p+1, (b+1) n / a): the log Beta-form energy.

    This is the one place the closed form of the ball integral of
    (-u_a)^p against the MA measure of u_b is written.  It leaves out the
    constant C = pi^{2n}/(2 (2n-1)!), which cancels in every ratio.  Acts
    elementwise on floats and float arrays of exponents a, b > 0, and
    accepts p = 0 for total-mass evaluations.
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        # a Beta argument past the float range is the ValueError below,
        # not also a numpy overflow warning
        with np.errstate(over="ignore"):
            return _log_pair_energy(p, n, a, b)
    return _log_pair_energy(p, n, a, b)


def _log_pair_energy(p, n: int, a, b):
    # log_pair_energy without the array check, which ratio_R's scalar path skips
    if not p >= 0.0:
        raise ValueError(f"p must be non-negative, got {p!r}")
    a = _require_positive("a", a)
    b = _require_positive("b", b)
    try:
        return n * np.log(b) + np.log1p(b) - np.log(a) + log_beta(p + 1.0, (b + 1.0) * n / a)
    except ValueError:
        # checked here, not above, to keep the check off the ratio_R path
        if p == math.inf:
            raise ValueError("p must be finite, got inf") from None
        # a and b are finite and positive, so only a Beta argument past the
        # range of ln Gamma fails here, and the largest one surely does
        a, b, x = np.broadcast_arrays(a, b, (b + 1.0) * n / a)
        k = np.unravel_index(int(np.argmax(x)), x.shape)
        raise ValueError(
            f"log B(p + 1, (b + 1) n / a) overflows a float at a = {float(a[k])!r}, "
            f"b = {float(b[k])!r}: (b + 1) n / a = {float(x[k])!r}"
        ) from None


def energy_closed_core(p: float, n: int, a: float, b: float) -> float:
    """Closed form of the ball integral of (-u_a)^p against the MA measure of u_b.

    Equals exp(ln C + log_pair_energy(p, n, a, b)) with C = pi^{2n}/(2 (2n-1)!),
    summed in log space so that no factor overflows on its own.  Accepts
    p = 0 for total-mass evaluations.
    """
    try:
        return math.exp(_log_c_energy(n) + log_pair_energy(p, n, a, b))
    except OverflowError:
        raise ValueError(f"the energy at a = {a!r}, b = {b!r} overflows a float") from None


def energy_closed_pair(params: EnergyParams, a: float, b: float) -> float:
    """Beta-function closed form for the pair energy of (u_a, u_b)."""
    return energy_closed_core(params.p, params.n, a, b)


def energy_numeric(
    params: EnergyParams,
    a0: float,
    tail: Sequence[float],
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> EnergyResult:
    """Quadrature evaluation of the mutual p-energy of u_{a0} against the tail.

    The tail lists the n exponents whose mixed Monge-Ampere measure weights
    (-u_{a0})^p.  When all tail entries coincide, the Beta closed form is
    also evaluated and the relative discrepancy reported.
    """
    if a0 <= 0.0:
        raise ValueError("a0 must be positive")
    tail = [float(b) for b in tail]
    if len(tail) != params.n:
        raise ValueError(f"tail must list n = {params.n} exponents, got {len(tail)}")
    members = [PowerFamilyMember(b, params.n) for b in tail]
    p = params.p
    two_a0 = 2.0 * a0

    def g(t: np.ndarray) -> np.ndarray:
        return (1.0 - t**two_a0) ** p * mixed_density(members, t)

    value = integrate_radial(g, params.n, spec)
    if value < sys.float_info.min:
        # the energy is positive, so this is underflow: sphere_area(n) is
        # subnormal from n = 110 on
        raise ValueError(
            f"the energy at n = {params.n} underflows a float (quadrature gave {value!r})"
        )
    if all(b == tail[0] for b in tail):
        closed = energy_closed_core(p, params.n, a0, tail[0])
        return EnergyResult(value, "both", abs(closed - value) / abs(closed))
    return EnergyResult(value, "quadrature", None)


def total_mass(member: PowerFamilyMember, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Total Monge-Ampere mass of u_a on the ball (the p = 0 energy)."""
    return integrate_radial(lambda t: ma_density(member, t), member.n, spec)
