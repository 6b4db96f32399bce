"""Inequality constants, the energy ratio functional, and the violation search.

The ratio R(a, b) compares the mutual p-energy of (u_a, u_b, ..., u_b)
against the Hoelder product of diagonal energies.  It is 1 on the diagonal
a = b for every p, stays at most 1 when p = 1, and exceeds 1 somewhere near
the diagonal for p != 1; the search below certifies that excess.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .energy import (
    DEFAULT_QUADRATURE,
    EnergyParams,
    QuadratureSpec,
    _log_pair_energy,
    energy_numeric,
    log_pair_energy,
)
from .hessian import _log_c_energy
from .specfun import beta, digamma

__all__ = [
    "CertificateError",
    "ConstantsReport",
    "RatioCertificate",
    "alpha_const",
    "d_const",
    "f_lemma",
    "F_func",
    "dFdb_closed",
    "ratio_R",
    "ratio_general",
    "check_two_term",
    "ratio_grid",
    "find_violation",
    "constants_report",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_BLOCK_ROWS = 32


class CertificateError(RuntimeError):
    """The violation search could not produce a sound certificate."""


@dataclass(frozen=True)
class ConstantsReport:
    p: float
    n: int
    alpha: float
    d_p: float
    f_pn: float
    f_p2n: float


@dataclass(frozen=True)
class RatioCertificate:
    """A verified point (a, b) whose energy ratio witnesses a constant > 1.

    ``ratio`` is the closed-form value, ``quad_crosscheck`` the quadrature
    evaluation of the same ratio, and the two agree within ``error_bound``.
    A certificate of violation is sound only when ratio - 1 exceeds ten
    times the error bound.
    """

    p: float
    n: int
    a_star: float
    b_star: float
    ratio: float
    f_value: float
    quad_crosscheck: float
    error_bound: float
    violation_found: bool


def _validate_pn(p: float, n: int) -> tuple[float, int]:
    p = float(p)
    if not (math.isfinite(p) and p > 0.0):
        raise ValueError(f"p must be positive, got {p!r}")
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    return p, n


def alpha_const(p: float, n: int) -> float:
    """alpha(p, n) = (p+2) ((p+1)/p)^{n-1} - (p+1)."""
    p, n = _validate_pn(p, n)
    # rearranged as (p+1)(x-1) + x to keep the n = 1 case exactly 1
    x = ((p + 1.0) / p) ** (n - 1)
    return (p + 1.0) * (x - 1.0) + x


def d_const(p: float, n: int) -> float:
    """Hoelder-inequality constant: 1 at p = 1, a power of p elsewhere."""
    p, n = _validate_pn(p, n)
    if p == 1.0:
        return 1.0
    a = alpha_const(p, n)
    exponent = -a / (1.0 - p) if p < 1.0 else p * a / (p - 1.0)
    try:
        return p**exponent
    except OverflowError:
        return math.inf


def f_lemma(p: float, n: int) -> float:
    """1/n + p/(n+p) + psi(n) - psi(n+p+1); vanishes exactly at p = 1."""
    p, n = _validate_pn(p, n)
    return 1.0 / n + p / (n + p) + digamma(float(n)) - digamma(n + p + 1.0)


def _log_ratio_parts(p: float, n: int, a, b):
    """(log numerator, log Hoelder denominator) of R(a, b) at floats a, b."""
    log_num = _log_pair_energy(p, n, a, b)
    log_den = (p * _log_pair_energy(p, n, a, a) + n * _log_pair_energy(p, n, b, b)) / (n + p)
    return log_num, log_den


def F_func(p: float, n: int, a: float, b: float) -> float:
    """Violation functional; F(a, a) = 0 and F > 0 means the ratio exceeds 1.

    F = B(p+1, (a+1)n/a)^{p/(n+p)} B(p+1, (b+1)n/b)^{n/(n+p)} (R(a, b) - 1):
    the Beta product is the Hoelder denominator of R with the prefactors
    x^{n-1} (x+1) of the diagonal energies divided out.
    """
    p, n = _validate_pn(p, n)
    log_num, log_den = _log_ratio_parts(p, n, a, b)
    log_prefactor_a = (n - 1) * math.log(a) + math.log1p(a)
    log_prefactor_b = (n - 1) * math.log(b) + math.log1p(b)
    log_bprod = log_den - (p * log_prefactor_a + n * log_prefactor_b) / (n + p)
    try:
        return math.exp(log_bprod) * math.expm1(log_num - log_den)
    except OverflowError:
        raise ValueError(f"F({a!r}, {b!r}) overflows a float") from None


def dFdb_closed(p: float, n: int) -> float:
    """Closed form of dF/db at (1, 1): ((2n^2+np)/(n+p)) B(p+1, 2n) f(p, 2n)."""
    p, n = _validate_pn(p, n)
    return (2.0 * n * n + n * p) / (n + p) * beta(p + 1.0, 2.0 * n) * f_lemma(p, 2 * n)


def ratio_R(params: EnergyParams, a: float, b: float) -> float:
    """Closed-form energy ratio at (a, b); normalization-free."""
    log_num, log_den = _log_ratio_parts(params.p, params.n, a, b)
    try:
        return math.exp(log_num - log_den)
    except OverflowError:
        raise ValueError(f"R({a!r}, {b!r}) overflows a float") from None


def ratio_general(
    params: EnergyParams,
    a0: float,
    tail: Sequence[float],
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Quadrature-backed ratio for an arbitrary tail of exponents."""
    numerator = energy_numeric(params, a0, tail, spec).value
    p, n = params.p, params.n
    diag = np.array([a0, *tail], dtype=float)
    log_diag = log_pair_energy(p, n, diag, diag)
    log_den = (p * log_diag[0] + log_diag[1:].sum()) / (n + p)
    denominator = math.exp(_log_c_energy(n) + log_den)
    if denominator < sys.float_info.min:
        raise ValueError(f"the ratio's denominator at n = {n} underflows a float ({denominator!r})")
    return numerator / denominator


def check_two_term(
    p: float,
    n: int,
    a: float,
    b: float,
    c: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> tuple[bool, float]:
    """Two-term interpolation inequality for 0 < p < 1; returns (holds, slack).

    With u_0 = u_a, u_1 = u_b and n-1 further factors u_c, checks
    e(u_0, u_1, T) <= p^{-1/(1-p)} e(u_0, u_0, T)^{p/(p+1)} e(u_1, u_1, T)^{1/(p+1)}.
    """
    p = float(p)
    if not (0.0 < p < 1.0):
        raise ValueError(f"two-term inequality requires 0 < p < 1, got {p!r}")
    params = EnergyParams(p, n)
    rest = [float(c)] * (n - 1)
    lhs = energy_numeric(params, a, [float(b)] + rest, spec).value
    e_aa = energy_numeric(params, a, [float(a)] + rest, spec).value
    e_bb = energy_numeric(params, b, [float(b)] + rest, spec).value
    rhs = p ** (-1.0 / (1.0 - p)) * e_aa ** (p / (p + 1.0)) * e_bb ** (1.0 / (p + 1.0))
    slack = rhs - lhs
    return slack >= 0.0, slack


def ratio_grid(
    params: EnergyParams,
    grid_size: int = 64,
    amin: float = 0.1,
    amax: float = 4.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form ratio on a log-spaced grid; returns (values, axis).

    values[i, j] = R(axis[i], axis[j]), and inf where R overflows a float.
    The diagonal energies are computed once for the axis; the rest is one
    array expression per block of rows.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    if not (math.isfinite(amin) and math.isfinite(amax) and 0.0 < amin < amax):
        raise ValueError(f"need finite 0 < amin < amax, got amin={amin!r}, amax={amax!r}")
    p, n = params.p, params.n
    axis = np.geomspace(amin, amax, grid_size)
    log_diag = log_pair_energy(p, n, axis, axis)
    values = np.empty((grid_size, grid_size))
    # Blocks keep the expression's temporaries small: grid-sized ones stay in
    # the allocator's heap once freed, and one 384^2 expression added ~3 MB
    # to the peak RSS of a process running many scans.
    with np.errstate(over="ignore"):
        for lo in range(0, grid_size, _GRID_BLOCK_ROWS):
            rows = slice(lo, lo + _GRID_BLOCK_ROWS)
            log_den = (p * log_diag[rows, None] + n * log_diag) / (n + p)
            values[rows] = np.exp(log_pair_energy(p, n, axis[rows, None], axis) - log_den)
    return values, axis


def _golden_max(fn, lo: float, hi: float, iters: int) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi]; returns the best probed point."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    best_x, best_f = (x1, f1) if f1 >= f2 else (x2, f2)
    for _ in range(iters):
        if f1 < f2:
            lo = x1
            x1, f1 = x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = fn(x2)
        else:
            hi = x2
            x2, f2 = x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = fn(x1)
        if f1 >= best_f:
            best_x, best_f = x1, f1
        if f2 >= best_f:
            best_x, best_f = x2, f2
    return best_x, best_f


_REFINE_ITERS = 60
_REFINE_SWEEPS = 3


def find_violation(
    params: EnergyParams,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    grid_size: int = 64,
    amin: float = 0.1,
    amax: float = 4.0,
) -> RatioCertificate:
    """Search for a point with energy ratio above 1 and certify it.

    Scans a log grid, seeds an extra candidate from the sign of f(p, 2n)
    along b at a = 1, refines coordinate-wise by golden section, and
    cross-checks the winner through the quadrature path.  For p = 1 the
    result carries a no-violation flag instead.
    """
    p, n = params.p, params.n
    values, axis = ratio_grid(params, grid_size, amin, amax)
    # first maximum in row-major order = lexicographically smallest (a, b)
    i, j = np.unravel_index(int(np.argmax(values)), values.shape)
    a_star, b_star, r_star = float(axis[i]), float(axis[j]), float(values[i, j])

    f_seed = f_lemma(p, 2 * n)
    if abs(f_seed) > 1e-12:
        # derivative argument: b moves off 1 in the direction that raises F
        if f_seed > 0.0:
            seed_b, seed_r = _golden_max(lambda b: ratio_R(params, 1.0, b), 1.0, amax, _REFINE_ITERS)
        else:
            seed_b, seed_r = _golden_max(lambda b: ratio_R(params, 1.0, b), amin, 1.0, _REFINE_ITERS)
        if seed_r > r_star:
            a_star, b_star, r_star = 1.0, seed_b, seed_r

    step = (amax / amin) ** (1.0 / (grid_size - 1))
    bracket = step * step
    for _ in range(_REFINE_SWEEPS):
        lo, hi = max(amin, b_star / bracket), min(amax, b_star * bracket)
        cand_b, cand_r = _golden_max(lambda b: ratio_R(params, a_star, b), lo, hi, _REFINE_ITERS)
        if cand_r > r_star:
            b_star, r_star = cand_b, cand_r
        lo, hi = max(amin, a_star / bracket), min(amax, a_star * bracket)
        cand_a, cand_r = _golden_max(lambda a: ratio_R(params, a, b_star), lo, hi, _REFINE_ITERS)
        if cand_r > r_star:
            a_star, r_star = cand_a, cand_r

    quad = ratio_general(params, a_star, [b_star] * n, spec)
    error_bound = max(abs(r_star - quad), 10.0 * spec.rel_tol * abs(r_star))
    f_value = F_func(p, n, a_star, b_star)

    if p == 1.0:
        if r_star > 1.0 + 1e-6:
            raise CertificateError(
                f"ratio {r_star!r} exceeds 1 + 1e-6 at p = 1; numerics are off"
            )
        return RatioCertificate(p, n, a_star, b_star, r_star, f_value, quad, error_bound, False)

    if not (r_star - 1.0 > 10.0 * error_bound):
        raise CertificateError(
            f"certificate-invalid: ratio {r_star!r} minus one is within "
            f"10x the error bound {error_bound:.3e}"
        )
    return RatioCertificate(p, n, a_star, b_star, r_star, f_value, quad, error_bound, True)


def constants_report(p: float, n: int) -> ConstantsReport:
    p, n = _validate_pn(p, n)
    return ConstantsReport(
        p=p,
        n=n,
        alpha=alpha_const(p, n),
        d_p=d_const(p, n),
        f_pn=f_lemma(p, n),
        f_p2n=f_lemma(p, 2 * n),
    )
