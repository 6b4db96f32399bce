"""p-energies of the power family on the unit ball of H^n, in closed form and by quadrature.

Every energy is C times a Beta integral over (0, 1), which the closed form
takes from log-Gamma and the quadrature integrates in log scale.  This
module alone knows the ball's constant C = pi^{2n}/(2 (2n-1)!): energies and
masses multiply by it, and ratios, where C cancels, never compute it.  The
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

from .hessian import PowerFamilyMember
from .specfun import (
    _RATIO_FLOOR,
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


def _check_p(p) -> float:
    """p as a float once it is a finite real >= 0; p = 0 is the total-mass exponent."""
    if not (_is_real(p) and 0.0 <= p < math.inf):
        raise ValueError(f"p must be finite and non-negative, got {p!r}")
    return float(p)


def log_pair_energy(p, n: int, a, b):
    """log(b^n (b+1) / a) + log B(p+1, (b+1) n / a): the log Beta-form energy without C.

    The checked equal tail of _log_pair_energy_core, elementwise on floats and
    float arrays of a, b > 0; p = 0 is accepted for total-mass evaluations.  A
    y = (b + 1) n / a past the range of ln Gamma is a ValueError naming a, b, y.
    """
    n = _validate_n(n)
    p = _check_p(p)
    a = _positive_real("a", a)
    b = _positive_real("b", b)
    # the checked log_gamma raises for an overflowing Beta argument, and numpy does not warn
    with np.errstate(over="ignore"):
        y = (b + 1.0) * n / a
        try:
            return _log_pair_energy_core(p, log_gamma)(n * np.log(b) + np.log1p(b), np.log(a), y)
        except ValueError:
            # a and b are finite and positive, so only a Beta argument past the
            # range of ln Gamma fails here, and the largest one surely does
            k, shape = int(np.argmax(y)), np.shape(y)
            a, b, y = (float(np.broadcast_to(x, shape).flat[k]) for x in (a, b, y))
            raise ValueError(
                f"log B(p + 1, (b + 1) n / a) overflows a float at a = {a!r}, "
                f"b = {b!r}: (b + 1) n / a = {y!r}"
            ) from None


def _log_pair_energy_core(p, lgamma=math.lgamma):
    """The log Beta-form energy of any tail at fixed p, with no argument checks.

    Returns energy(log_front, log_a, y) = log_front - log_a + log B(p + 1, y),
    ln Gamma(p + 1) computed once; for a tail of mean m against u_a the caller
    forms log_front = sum(ln b_i) + ln(1 + m) and y = n (1 + m) / a.

    On arrays and at a float y >= 10, ln Gamma(y) - ln Gamma(p + 1 + y) is
    specfun's log-Gamma ratio, within 4e-15 of max(1, its value) at any y,
    with lgamma called on p + 1 + max(y) for its domain check only; two
    lgamma values of size y ln y would lose ~y ln y ulps.  A float y below 10
    takes them, as log_beta does.  The default lgamma does no checks.
    """
    p1 = p + 1.0
    lg_p1 = lgamma(p1)

    def energy(log_front, log_a, y):
        if isinstance(y, np.ndarray):
            lgamma(p1 + y.max())  # for the domain only
            log_beta = lg_p1 + _log_gamma_ratio(y, p1)
        elif y >= _RATIO_FLOOR:
            lgamma(p1 + y)  # for the domain only
            log_beta = lg_p1 + _log_gamma_ratio(y, p1)
        else:
            # (ln Gamma(p1) + ln Gamma(y)) - ln Gamma(p1 + y), as in log_beta
            log_beta = (lg_p1 + lgamma(y)) - lgamma(p1 + y)
        return log_front - log_a + log_beta

    return energy


def _check_tail(n: int, a0, tail) -> tuple[float, list[float]]:
    """(a0, tail) as floats once a0 and each of the n exponents is a finite positive real."""
    a0 = _positive_real("a0", a0)
    if len(tail) != n:
        raise ValueError(f"tail must list n = {n} exponents, got {len(tail)}")
    return a0, [_positive_real("a", b) for b in tail]


def _tail_logs(n: int, tail: Sequence[float]) -> tuple[float, float]:
    """(m, ln(prod(b) (1 + m))) of n checked exponents of mean m: the tail's share of an energy."""
    # an equal tail keeps the pair form's bits: its mean is b exactly, its logs numpy's
    mean = tail[0] + math.fsum(b - tail[0] for b in tail) / n
    return mean, math.fsum(np.log(tail).tolist()) + np.log1p(mean)


def energy_closed_core(p: float, n: int, a0: float, tail: Sequence[float]) -> float:
    """Closed form of the ball integral of (-u_{a0})^p against the mixed MA measure of the tail.

    For n exponents of mean m: C prod(b) (1 + m) / a0 B(p + 1, n (1 + m) / a0),
    summed in log space, exp(ln C + log_pair_energy(p, n, a0, b)) for an equal
    tail b.  Accepts p = 0 for total-mass evaluations.  An energy outside the
    normal float range (near n = 110 with C), or a factor past it, is a ValueError.
    """
    n = _validate_n(n)
    p = _check_p(p)
    a0, tail = _check_tail(n, a0, tail)
    try:
        mean, log_front = _tail_logs(n, tail)
        energy = _log_pair_energy_core(p, log_gamma)
        value = math.exp(_log_c_energy(n) + energy(log_front, np.log(a0), (mean + 1.0) * n / a0))
    except (OverflowError, ValueError):  # from fsum, exp, or log_gamma past ln Gamma's range
        where = f"at n = {n}, a0 = {a0!r}"
        raise ValueError(f"the energy, tail mean or log B overflows a float {where}") from None
    if value < sys.float_info.min:
        raise ValueError(f"the energy at n = {n} underflows a float at a0 = {a0!r} ({value!r})")
    return value


def _log_energy_quad(p: float, n: int, a0: float, tail: Sequence[float], rel_tol: float) -> float:
    """ln(E / C) of u_{a0} against a tail of mean m by quadrature: energy_closed_core's log without C.

    E / C = 2 prod(b) (1 + m) int_0^1 t^(beta - 1) (1 - t^alpha)^p dt, beta = 2n (1 + m), alpha = 2 a0.
    t = v^(1/gamma), gamma = max(1, min(beta / 64, 1 / s)), s = -ln t at the peak in t, keeps the peak
    off v = 1 (p = 2, n = 1, a0 = 1e150, b = 6.9e149) and off v = 0 (p = 1e6, n = 100, a0 = b = 1).
    Divided by its peak, at v*^A = (B - 1) / (B - 1 + p A), A = alpha / gamma, B = beta / gamma, the
    integrand lies in (0, 1] at any scale.  A prefactor past floats, or a missed peak, is a ValueError.
    """
    a0, tail = _check_tail(n, a0, tail)
    try:
        mean, log_front = _tail_logs(n, tail)
        power = 2.0 * n * (1.0 + mean)
        s = math.log1p(p * 2.0 * a0 / (power - 1.0)) / (2.0 * a0)  # -ln t at the peak in t
        gamma = max(1.0, power / max(64.0, power * s))  # max(1, min(beta / 64, 1 / s)), at s = 0 too
        alpha, beta = 2.0 * a0 / gamma, power / gamma
        log_peak = -math.log1p(p * alpha / (beta - 1.0)) / alpha  # ln v*
        log_gap = -math.log1p((beta - 1.0) / (p * alpha))  # ln(1 - v*^A)
        log_scale = math.log(2.0 / gamma) + log_front + (beta - 1.0) * log_peak + p * log_gap
    except (ArithmeticError, ValueError):  # a tail sum, alpha or p alpha past the float range
        log_scale = math.nan
    if not math.isfinite(log_scale):
        raise ValueError(f"the energy's quadrature at n = {n} leaves the float range at a0 = {a0!r}")

    def g(v: np.ndarray) -> np.ndarray:
        log_v = np.log(v)
        v_a = np.exp(alpha * log_v)
        with np.errstate(divide="ignore"):  # ln(1 - v^A) to a relative epsilon, as p multiplies it
            log_gap_v = np.where(v_a < 0.5, np.log1p(-v_a), np.log(-np.expm1(alpha * log_v)))
            return np.exp((beta - 1.0) * (log_v - log_peak) + p * (log_gap_v - log_gap))

    integral = integrate_unit_interval(g, rel_tol=rel_tol)
    if not integral > 0.0:
        raise ValueError(f"the energy's quadrature at n = {n} misses its integrand's peak at a0 = {a0!r}")
    return log_scale + math.log(integral)


def energy_numeric(
    params: EnergyParams,
    a0: float,
    tail: Sequence[float],
    *,
    rel_tol: float = _DEFAULT_REL_TOL,
) -> EnergyResult:
    """Quadrature evaluation of the mutual p-energy of u_{a0} against the tail.

    The tail lists the n exponents whose mixed Monge-Ampere measure weights
    (-u_{a0})^p.  The method is "both": discrepancy is the relative distance
    to energy_closed_core, which runs first; its errors, and a quadrature
    that fails or leaves the normal float range, are ValueErrors.
    """
    p, n = params.p, params.n
    closed = energy_closed_core(p, n, a0, tail)
    try:
        value = math.exp(_log_c_energy(n) + _log_energy_quad(p, n, a0, tail, rel_tol))
    except OverflowError:
        value = math.inf
    if not sys.float_info.min <= value < math.inf:
        raise ValueError(f"the energy's quadrature at n = {n} leaves the normal float range ({value!r})")
    return EnergyResult(value, "both", abs(closed - value) / closed)


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
