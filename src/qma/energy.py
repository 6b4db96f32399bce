"""p-energies of the power family on the unit ball of H^n, in closed form and by quadrature.

Every energy is C times a Beta integral over (0, 1), which the closed form
takes from log-Gamma and the quadrature integrates in log scale.  This
module alone knows the ball's constant C = pi^{2n}/(2 (2n-1)!): energies
multiply by it, and ratios, where C cancels, never compute it.  The
adaptive Gauss-Legendre engine works to one relative tolerance, 1e-10, and
bisects worst panels first, which drives a dyadic cascade into either
endpoint when the integrand is singular there.  The energy's integrand has
a branch point at v = 1 for non-integer p; the quadrature removes it by the
sigmoidal substitution v = psi(x) = I_x(4, 4) (Sidi, ISNM 112, 1993), so one
or two panels meet the tolerance instead of a cascade.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .specfun import _ArgumentError, _log_beta, _positive_real, _real_array, _require_type, _validate_pn, log_gamma

__all__ = [
    "QuadratureError",
    "EnergyParams",
    "EnergyResult",
    "integrate_unit_interval",
    "log_pair_energy",
    "energy_closed_core",
    "energy_numeric",
]

_MAX_PANELS = 2000
_MAX_SUBDIVISIONS = 60
_NODES_PER_PANEL = 32
_REL_TOL = 1e-10
_LOG_140 = math.log(140.0)

# |fine - coarse| tracks the true panel error only up to a modest factor on
# panels touching an endpoint singularity; the stopping rule compensates.
_ERROR_SAFETY = 8.0


class QuadratureError(ValueError):
    """Adaptive quadrature failed to reach the requested tolerance: a failed computation, not an argument error."""


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


def integrate_unit_interval(f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Adaptive Gauss-Legendre integral of a vectorized f over (0, 1).

    Panels are estimated with 32- and 64-node rules; the worst panel, the
    first of equal ones, is bisected, at most 60 times down to any point,
    until the summed error estimate drops below 1e-10 of the total.  The
    sums are math.fsum's, redone at every bisection: a converging integral
    takes a few dozen panels at most, so a plain list serves.  The Gauss
    nodes are interior, but on the narrow panels of a cascade into an
    endpoint a + width * x can round to the endpoint itself: (1 - t)**-0.5
    reaches a node at t = 1.0 and fails as a non-finite integrand.  f is
    called once per bisection, on the nodes of both new panels at once, so
    it must act elementwise on a 1-d array.
    """
    [(value, err)] = _panels(f, [(0.0, 1.0)])
    # the panels as parallel lists, panel i being (lows[i], highs[i]) at depths[i]
    lows, highs, depths, values, errors = [0.0], [1.0], [0], [value], [err]
    while True:
        total, total_err = math.fsum(values), math.fsum(errors)
        if _ERROR_SAFETY * total_err <= _REL_TOL * max(abs(total), 1e-300):
            return total
        worst = errors.index(max(errors))
        a, b, depth = lows[worst], highs[worst], depths[worst]
        if depth >= _MAX_SUBDIVISIONS:
            raise QuadratureError(
                f"tolerance {_REL_TOL:g} not met within {_MAX_SUBDIVISIONS} subdivisions "
                f"(estimated error {total_err:.3e} on total {total:.6e})"
            )
        if len(values) >= _MAX_PANELS:
            raise QuadratureError("panel budget exhausted")
        mid = 0.5 * (a + b)
        (v_lo, e_lo), (v_hi, e_hi) = _panels(f, [(a, mid), (mid, b)])
        highs[worst], depths[worst], values[worst], errors[worst] = mid, depth + 1, v_lo, e_lo
        for column, entry in zip((lows, highs, depths, values, errors), (mid, b, depth + 1, v_hi, e_hi)):
            column.append(entry)


def _log_c_energy(n: int) -> float:
    """ln C for C = pi^{2n} / (2 (2n-1)!), finite for every n >= 1."""
    return 2 * n * math.log(math.pi) - math.log(2.0) - math.lgamma(2 * n)


def log_pair_energy(p, n: int, a, b):
    """log(b^n (b+1) / a) + log B(p+1, (b+1) n / a): the log Beta-form energy without C.

    The checked form of _log_pair_energy, elementwise on reals and on
    arrays of a, b > 0 by specfun's real-array rule.  A y = (b + 1) n / a
    past the range of ln Gamma is a ValueError naming a, b, y.
    """
    p, n = _validate_pn(p, n)
    a, b = _positive_reals("a", a), _positive_reals("b", b)
    _check_beta_argument(p, n, a, b)
    return _log_pair_energy(p, n, a, b)


def _positive_reals(name: str, x):
    """x once it is finite and positive: a real as a float, a nonempty real array as a float array."""
    if isinstance(x, np.ndarray):
        arr = _real_array(name, x)
        if arr.size and np.all((arr > 0.0) & np.isfinite(arr)):
            return arr
    return _positive_real(name, x)  # which refuses any array


def _check_beta_argument(p: float, n: int, a, b) -> None:
    """Refuse a, b whose y = (b + 1) n / a puts ln Gamma(p + 1 + y) past floats, naming the largest y."""
    if isinstance(a, float) and isinstance(b, float):  # Python floats, whose overflow is a silent inf
        y = top = (b + 1.0) * n / a
    else:
        with np.errstate(over="ignore"):
            y = (b + 1.0) * n / a
        top = float(y.max())
    try:
        log_gamma(p + 1.0 + top)
    except ValueError:  # y past ln Gamma's range, or inf
        k = int(np.argmax(y))
        a, b, y = (float(np.broadcast_to(x, np.shape(y)).flat[k]) for x in (a, b, y))
        raise ValueError(
            f"log B(p + 1, (b + 1) n / a) overflows a float at a = {a!r}, "
            f"b = {b!r}: (b + 1) n / a = {y!r}"
        ) from None


def _log_energy(p: float, log_front, log_a, y):
    """log_front - log_a + log B(p + 1, y), unchecked: the log Beta-form energy of any tail.

    For a tail of mean m against u_a, log_front = sum(ln b_i) + ln(1 + m) and
    y = n (1 + m) / a; the caller keeps p + 1 + y in ln Gamma's range.
    """
    return log_front - log_a + _log_beta(p + 1.0, y)


def _log_pair_energy(p: float, n: int, a, b):
    """ln E(a, b) without C, unchecked, on floats or arrays: the one pair formula."""
    # numpy's logs on floats too: math.log misses their bits at ~1 point in 1250
    return _log_energy(p, n * np.log(b) + np.log1p(b), np.log(a), (b + 1.0) * n / a)


def _check_tail(n: int, a0, tail) -> tuple[float, list[float]]:
    """(a0, tail) as floats once a0 and each of the n exponents is a finite positive real."""
    a0 = _positive_real("a0", a0)
    try:
        count = len(tail)
    except TypeError:  # None, a number or a generator
        raise _ArgumentError(f"tail must be a sequence of n = {n} exponents, got {type(tail).__name__}") from None
    if count != n:
        raise _ArgumentError(f"tail must list n = {n} exponents, got {count}")
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
    tail b.  An energy outside the normal float range (near n = 110 with C), or
    a factor past it, is a ValueError.
    """
    p, n = _validate_pn(p, n)
    a0, tail = _check_tail(n, a0, tail)
    try:
        mean, log_front = _tail_logs(n, tail)
        y = (mean + 1.0) * n / a0
        log_gamma(p + 1.0 + y)  # the range check of log B(p + 1, y)
        value = math.exp(_log_c_energy(n) + _log_energy(p, log_front, np.log(a0), y))
    except (OverflowError, ValueError):  # from fsum, exp, or log_gamma past ln Gamma's range
        where = f"at n = {n}, a0 = {a0!r}"
        raise ValueError(f"the energy, tail mean or log B overflows a float {where}") from None
    if value < sys.float_info.min:
        raise ValueError(f"the energy at n = {n} underflows a float at a0 = {a0!r} ({value!r})")
    return value


def _log_energy_quad(p: float, n: int, a0: float, tail: Sequence[float]) -> float:
    """ln(E / C) of u_{a0} against a tail of mean m by quadrature: energy_closed_core's log without C.

    E / C = 2 prod(b) (1 + m) int_0^1 t^(beta - 1) (1 - t^alpha)^p dt, beta = 2n (1 + m), alpha = 2 a0.
    t = v^(1/gamma), gamma = max(1, min(beta / 64, 1 / s)), s = -ln t at the peak in t, keeps the peak
    off v = 1 (p = 2, n = 1, a0 = 1e150, b = 6.9e149) and off v = 0 (p = 1e6, n = 100, a0 = b = 1).
    Divided by its peak, at v*^A = (B - 1) / (B - 1 + p A), A = alpha / gamma, B = beta / gamma, the
    integrand in v lies in (0, 1] at any scale.  A prefactor past floats, or a missed peak, is a ValueError.

    Last, v = psi(x) = x^4 (35 - 84x + 70x^2 - 20x^3), the regularized incomplete Beta I_x(4, 4), with
    psi'(x) = 140 x^3 (1 - x)^3 and 1 - psi(x) = psi(1 - x).  For non-integer p, (1 - v^A)^p has a branch
    point at v = 1 where Gauss-Legendre converges only algebraically, and the engine would bisect into
    v = 1 about 14 times per integral; in x the integrand vanishes like x^(4B - 1) at 0 and like
    (1 - x)^(4p + 3) at 1, and the 32/64-node pair converges on one or two panels.  Times psi'(x) <= 140/64,
    the integrand in x stays bounded at any scale.  No closed form enters it.
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

    def g(x: np.ndarray) -> np.ndarray:
        # y = min(x, 1 - x), exact on x >= 1/2; psi(y) = y^4 q(y) <= 1/2, q(y) in [8, 35]
        y = np.minimum(x, 1.0 - x)
        with np.errstate(divide="ignore"):  # ln 0 = -inf at a node rounded to an end
            log_y = np.log(y)
            log_psi_y = 4.0 * log_y + np.log(35.0 + y * (-84.0 + y * (70.0 - 20.0 * y)))
            # ln v = ln psi(x) below 1/2, ln(1 - psi(1 - x)) above it: both branches are finite
            log_v = np.where(x < 0.5, log_psi_y, np.log1p(-np.exp(log_psi_y)))
            v_a = np.exp(alpha * log_v)
            # ln(1 - v^A) to a relative epsilon, as p multiplies it
            log_gap_v = np.where(v_a < 0.5, np.log1p(-v_a), np.log(-np.expm1(alpha * log_v)))
            log_dpsi = _LOG_140 + 3.0 * (log_y + np.log1p(-y))  # ln psi'(x), symmetric in y
            return np.exp((beta - 1.0) * (log_v - log_peak) + p * (log_gap_v - log_gap) + log_dpsi)

    integral = integrate_unit_interval(g)
    if not integral > 0.0:
        raise ValueError(f"the energy's quadrature at n = {n} misses its integrand's peak at a0 = {a0!r}")
    return log_scale + math.log(integral)


def energy_numeric(params: EnergyParams, a0: float, tail: Sequence[float]) -> EnergyResult:
    """Quadrature evaluation of the mutual p-energy of u_{a0} against the tail.

    The tail lists the n exponents whose mixed Monge-Ampere measure weights
    (-u_{a0})^p.  The method is "both": discrepancy is the relative distance
    to energy_closed_core, which runs first; its errors, and a quadrature
    that fails or leaves the normal float range, are ValueErrors.
    """
    _require_type("params", params, EnergyParams)
    p, n = params.p, params.n
    closed = energy_closed_core(p, n, a0, tail)
    try:
        value = math.exp(_log_c_energy(n) + _log_energy_quad(p, n, a0, tail))
    except OverflowError:
        value = math.inf
    if not sys.float_info.min <= value < math.inf:
        raise ValueError(f"the energy's quadrature at n = {n} leaves the normal float range ({value!r})")
    return EnergyResult(value, "both", abs(closed - value) / closed)

