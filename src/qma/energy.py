"""Radial quadrature over the unit ball of H^n and p-energies of the power family.

Every integral here reduces to one of an integrand g against t^{4n-1} dt
on (0, 1), which carries no constant.  This module alone knows the ball's
constant C = pi^{2n}/(2 (2n-1)!): energies and masses multiply by the sphere
area 4C, and ratios, where C cancels, never compute it.  The adaptive
Gauss-Legendre engine bisects worst panels first, which drives a dyadic
cascade into either endpoint when the integrand is singular there.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .hessian import PowerFamilyMember, mixed_density
from .specfun import (
    _is_real,
    _log_gamma_ratio,
    _positive_real,
    _validate_n,
    _validate_pn,
    log_gamma,
)

__all__ = [
    "QuadratureError",
    "EnergyParams",
    "EnergyResult",
    "sphere_area",
    "integrate_unit_interval",
    "integrate_radial",
    "log_pair_energy",
    "energy_closed_core",
    "energy_numeric",
    "total_mass",
]

_MAX_PANELS = 20000
_MAX_SUBDIVISIONS = 60
_NODES_PER_PANEL = 32
_DEFAULT_REL_TOL = 1e-10

# |fine - coarse| tracks the true panel error only up to a modest factor on
# panels touching an endpoint singularity; the stopping rule compensates.
_ERROR_SAFETY = 8.0

# Float Beta arguments from here on take the log-Gamma ratio, not two lgamma values
_LOG_GAMMA_RATIO_FROM = 512.0


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class EnergyParams:
    """Energy exponent p > 0 and quaternionic dimension n >= 1."""

    p: float
    n: int

    def __post_init__(self) -> None:
        p, n = _validate_pn(self.p, self.n)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)


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


def _panels(f: Callable[[np.ndarray], np.ndarray], edges):
    """(fine, |fine - coarse|) of each panel (a, b) in edges, from one call of f."""
    m = _NODES_PER_PANEL
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


def _check_rel_tol(rel_tol) -> float:
    """rel_tol as a float once it is a finite real of at least machine epsilon.

    Below epsilon the stopping rule cannot be met; at inf the first panel meets it.
    """
    if not (_is_real(rel_tol) and sys.float_info.epsilon <= rel_tol < math.inf):
        raise ValueError(
            f"rel_tol must be finite and at least {sys.float_info.epsilon!r}, got {rel_tol!r}"
        )
    return float(rel_tol)


def integrate_unit_interval(
    f: Callable[[np.ndarray], np.ndarray], *, rel_tol: float = _DEFAULT_REL_TOL
) -> float:
    """Adaptive Gauss-Legendre integral of a vectorized f over (0, 1).

    Panels are estimated with 32- and 64-node rules; the worst panel is
    bisected, at most 60 times down to any point, until the summed error
    estimate drops below rel_tol of the running total.  rel_tol must be a
    finite real of at least machine epsilon, which is checked before f is
    first called.  The Gauss nodes are interior, but on the narrow panels
    of a cascade into an endpoint a + width * x can round to the endpoint
    itself: (1 - t)**-0.5 at the default rel_tol reaches a node at t = 1.0
    and fails as a non-finite integrand.  f is called once per bisection,
    on the nodes of both new panels at once, so it must act elementwise on
    a 1-d array.
    """
    rel_tol = _check_rel_tol(rel_tol)
    [(value, err)] = _panels(f, [(0.0, 1.0)])
    panels = [(0.0, 1.0, 0, value, err)]
    while True:
        total = math.fsum(p[3] for p in panels)
        total_err = math.fsum(p[4] for p in panels)
        if _ERROR_SAFETY * total_err <= rel_tol * max(abs(total), 1e-300):
            return total
        worst = max(range(len(panels)), key=lambda i: panels[i][4])
        a, b, depth, _, _ = panels[worst]
        if depth >= _MAX_SUBDIVISIONS:
            raise QuadratureError(
                f"tolerance {rel_tol:g} not met within {_MAX_SUBDIVISIONS} subdivisions "
                f"(estimated error {total_err:.3e} on total {total:.6e})"
            )
        if len(panels) >= _MAX_PANELS:
            raise QuadratureError("panel budget exhausted")
        mid = 0.5 * (a + b)
        (v_lo, e_lo), (v_hi, e_hi) = _panels(f, [(a, mid), (mid, b)])
        panels[worst] = (a, mid, depth + 1, v_lo, e_lo)
        panels.append((mid, b, depth + 1, v_hi, e_hi))


def _log_c_energy(n: int) -> float:
    """ln C for C = pi^{2n} / (2 (2n-1)!), finite for every n >= 1."""
    return 2 * n * math.log(math.pi) - math.log(2.0) - math.lgamma(2 * n)


def sphere_area(n: int) -> float:
    """Area of the unit sphere S^{4n-1} in R^{4n}: 4C = 2 pi^{2n} / (2n-1)!.

    The area is subnormal from n = 110 and 0.0 from n = 114 on; it is
    returned as is, and the energies built on it check for underflow.
    """
    n = _validate_n(n)
    if n < 86:  # (2n-1)! leaves the float range from n = 86 on
        return 2.0 * math.pi ** (2 * n) / math.factorial(2 * n - 1)
    return 4.0 * math.exp(_log_c_energy(n))


def integrate_radial(
    g: Callable[[np.ndarray], np.ndarray],
    n: int,
    *,
    rel_tol: float = _DEFAULT_REL_TOL,
) -> float:
    """The integral of g(t) t^{4n-1} over (0, 1), with no constant.

    energy_numeric multiplies it by sphere_area(n); ratio_general, where C cancels, by 4.
    """
    power = 4 * _validate_n(n) - 1

    def weighted(t: np.ndarray) -> np.ndarray:
        return np.asarray(g(t), dtype=float) * t**power

    return integrate_unit_interval(weighted, rel_tol=rel_tol)


def log_pair_energy(p, n: int, a, b):
    """log(b^n (b+1) / a) + log B(p+1, (b+1) n / a): the log Beta-form energy without C.

    The checked entry to the closed form of the ball integral of (-u_a)^p
    against the MA measure of u_b, written once in _log_pair_energy_core.
    Acts elementwise on floats and float arrays of exponents a, b > 0, and
    accepts p = 0 for total-mass evaluations.  On arrays, and at a Beta
    argument y = (b + 1) n / a of 512 or more, log B is ln Gamma(p + 1) plus
    the vectorized log-Gamma ratio of specfun, whose error stays below
    4e-15 of max(1, its value) at any y; below 512 a float (a, b) takes two
    lgamma values, which lose ~y ln y ulps.  A y or p + 1 + y past the range
    of ln Gamma (about 2.5e305) is a ValueError that names a, b and y.
    """
    n = _validate_n(n)
    if not (_is_real(p) and 0.0 <= p < math.inf):
        raise ValueError(f"p must be finite and non-negative, got {p!r}")
    a = _positive_real("a", a)
    b = _positive_real("b", b)
    # the checked log_gamma raises for an overflowing Beta argument, and numpy does not warn
    with np.errstate(over="ignore"):
        try:
            energy = _log_pair_energy_core(p, n, log_gamma)
            return energy(a, b, np.log(a), np.log(b), np.log1p(b))
        except ValueError:
            # a and b are finite and positive, so only a Beta argument past the
            # range of ln Gamma fails here, and the largest one surely does
            a, b, x = np.broadcast_arrays(a, b, (b + 1.0) * n / a)
            k = np.unravel_index(int(np.argmax(x)), x.shape)
            raise ValueError(
                f"log B(p + 1, (b + 1) n / a) overflows a float at a = {float(a[k])!r}, "
                f"b = {float(b[k])!r}: (b + 1) n / a = {float(x[k])!r}"
            ) from None


def _log_pair_energy_core(p, n: int, lgamma=math.lgamma):
    """The body of log_pair_energy at fixed (p, n), with no argument checks.

    Returns energy(a, b, log_a, log_b, log1p_b) = n log_b + log1p_b - log_a
    + log B(p + 1, y), y = (b + 1) n / a, with ln Gamma(p + 1) computed once,
    here.  The caller passes np.log(a), np.log(b) and np.log1p(b), so that
    points sharing a coordinate share its logs.

    log B(p + 1, y) = ln Gamma(p + 1) + (ln Gamma(y) - ln Gamma(p + 1 + y)).
    On arrays and at a float y >= 512 the difference is specfun's log-Gamma
    ratio, within 4e-15 of max(1, its value) at any y.  A float y below 512
    takes two lgamma values, as log_beta does, whose cancellation costs
    ~y ln y ulps (3.5e-13 at y = 512); the threshold lies above y = 300, the
    largest Beta argument on [0.1, 4]^2 at n <= 6, so certificates there keep
    their bits.  Where the ratio is taken, lgamma is still called on
    p + 1 + max(y), only to keep the domain where ln Gamma(p + 1 + y) is a
    float; the default does no checks and takes floats only.
    """
    p1 = p + 1.0
    lg_p1 = lgamma(p1)

    def energy(a, b, log_a, log_b, log1p_b):
        y = (b + 1.0) * n / a
        if isinstance(y, np.ndarray):
            lgamma(p1 + y.max())  # for the domain only
            log_beta = lg_p1 + _log_gamma_ratio(y, p1)
        elif y >= _LOG_GAMMA_RATIO_FROM:
            lgamma(p1 + y)  # for the domain only
            log_beta = lg_p1 + float(_log_gamma_ratio(y, p1))
        else:
            # (ln Gamma(p1) + ln Gamma(y)) - ln Gamma(p1 + y), as in log_beta
            log_beta = (lg_p1 + lgamma(y)) - lgamma(p1 + y)
        return n * log_b + log1p_b - log_a + log_beta

    return energy


def energy_closed_core(p: float, n: int, a: float, b: float) -> float:
    """Closed form of the ball integral of (-u_a)^p against the MA measure of u_b.

    Equals exp(ln C + log_pair_energy(p, n, a, b)), summed in log space so that
    no factor overflows on its own; accepts p = 0 for total-mass evaluations.
    An energy past the normal float range (near n = 110 with C) is a ValueError.
    """
    n = _validate_n(n)
    try:
        value = math.exp(_log_c_energy(n) + log_pair_energy(p, n, a, b))
    except OverflowError:
        raise ValueError(f"the energy at a = {a!r}, b = {b!r} overflows a float") from None
    if value < sys.float_info.min:
        raise ValueError(f"the energy at n = {n}, a = {a!r}, b = {b!r} underflows a float ({value!r})")
    return value


def _energy_integrand(params: EnergyParams, a0: float, tail: Sequence[float]):
    """Checked (a0, tail, g): g(t) = (1 - t^{2 a0})^p times the tail's mixed MA density."""
    a0 = _positive_real("a0", a0)
    if len(tail) != params.n:
        raise ValueError(f"tail must list n = {params.n} exponents, got {len(tail)}")
    members = [PowerFamilyMember(b, params.n) for b in tail]
    tail = [m.a for m in members]
    p = params.p
    two_a0 = 2.0 * a0

    def g(t: np.ndarray) -> np.ndarray:
        return (1.0 - t**two_a0) ** p * mixed_density(members, t)

    return a0, tail, g


def energy_numeric(
    params: EnergyParams,
    a0: float,
    tail: Sequence[float],
    *,
    rel_tol: float = _DEFAULT_REL_TOL,
) -> EnergyResult:
    """Quadrature evaluation of the mutual p-energy of u_{a0} against the tail.

    The tail lists the n exponents whose mixed Monge-Ampere measure weights (-u_{a0})^p.
    When all tail entries coincide, the closed form's relative discrepancy is reported too.
    """
    a0, tail, g = _energy_integrand(params, a0, tail)
    value = sphere_area(params.n) * integrate_radial(g, params.n, rel_tol=rel_tol)
    if value < sys.float_info.min:
        # the energy is positive: this is underflow, as sphere_area(n) is subnormal from n = 110 on
        raise ValueError(
            f"the energy at n = {params.n} underflows a float (quadrature gave {value!r})"
        )
    if all(b == tail[0] for b in tail):
        closed = energy_closed_core(params.p, params.n, a0, tail[0])
        return EnergyResult(value, "both", abs(closed - value) / abs(closed))
    return EnergyResult(value, "quadrature", None)


def total_mass(member: PowerFamilyMember) -> float:
    """Total Monge-Ampere mass of u_a on the ball: the p = 0 energy sphere_area(n) a^n / (4n).

    The closed form C a^n / n, summed in log space so that neither a^n nor C
    leaves the float range on its own.  It is not taken from the Beta form of
    energy_closed_core, whose B(1, (a + 1) n / a) = a / ((a + 1) n) cancels
    in ln Gamma for small a.  A mass past the normal float range is a ValueError.
    """
    n, a = member.n, member.a
    try:
        value = math.exp(_log_c_energy(n) + n * math.log(a) - math.log(n))
    except OverflowError:
        raise ValueError(f"the total mass at n = {n}, a = {a!r} overflows a float") from None
    if value < sys.float_info.min:
        raise ValueError(f"the total mass at n = {n} underflows a float ({value!r})")
    return value
