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
    _DEFAULT_REL_TOL,
    EnergyParams,
    _check_rel_tol,
    _energy_integrand,
    _log_pair_energy_core,
    energy_closed_core,
    integrate_radial,
    log_pair_energy,
)
from .specfun import _is_real, _positive_real, _validate_n, _validate_pn, beta, digamma

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


def alpha_const(p: float, n: int) -> float:
    """alpha(p, n) = (p+2) ((p+1)/p)^{n-1} - (p+1)."""
    p, n = _validate_pn(p, n)
    # rearranged as (p+1)(x-1) + x to keep the n = 1 case exactly 1
    try:
        x = ((p + 1.0) / p) ** (n - 1)
    except OverflowError:
        x = math.inf
    alpha = (p + 1.0) * (x - 1.0) + x
    if alpha == math.inf:
        raise ValueError(f"alpha(p, n) overflows a float at p = {p!r}, n = {n}")
    return alpha


def d_const(p: float, n: int) -> float:
    """Hoelder-inequality constant: 1 at p = 1, a power of p elsewhere.

    A constant past the float range is returned as inf, which the CLI
    prints as Infinity (e.g. p = 0.5, n = 200).
    """
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
    """The checked log pair energies E(a, b), E(a, a), E(b, b) at floats a, b."""
    return log_pair_energy(p, n, a, b), log_pair_energy(p, n, a, a), log_pair_energy(p, n, b, b)


def _log_hoelder_den(p: float, n: int, log_aa, log_bb):
    """Log of the Hoelder denominator (E(a, a)^p E(b, b)^n)^(1/(n+p)) of R."""
    return (p * log_aa + n * log_bb) / (n + p)


def _ratio(p: float, n: int, a, b, log_ab, log_aa, log_bb) -> float:
    """R(a, b) from its three log pair energies; R past the float range is a ValueError."""
    try:
        return math.exp(log_ab - _log_hoelder_den(p, n, log_aa, log_bb))
    except OverflowError:
        raise ValueError(f"R({a!r}, {b!r}) overflows a float") from None


def F_func(p: float, n: int, a: float, b: float) -> float:
    """Violation functional; F(a, a) = 0 and F > 0 means the ratio exceeds 1.

    F = B(p+1, (a+1)n/a)^{p/(n+p)} B(p+1, (b+1)n/b)^{n/(n+p)} (R(a, b) - 1):
    the Beta product is the Hoelder denominator of R with the prefactors
    x^{n-1} (x+1) of the diagonal energies divided out.
    """
    p, n = _validate_pn(p, n)
    log_num, log_aa, log_bb = _log_ratio_parts(p, n, a, b)
    log_den = _log_hoelder_den(p, n, log_aa, log_bb)
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
    value = (2.0 * n * n + n * p) / (n + p) * beta(p + 1.0, 2.0 * n) * f_lemma(p, 2 * n)
    if not math.isfinite(value):
        # 2 n^2 + n p overflows a float while B(p + 1, 2n) underflows to 0
        raise ValueError(f"dF/db at (1, 1) is not a finite float at p = {p!r}, n = {n}")
    return value


def ratio_R(params: EnergyParams, a: float, b: float) -> float:
    """Closed-form energy ratio at (a, b); normalization-free."""
    return _ratio(params.p, params.n, a, b, *_log_ratio_parts(params.p, params.n, a, b))


def _ratio_along(params: EnergyParams, fixed: float, along_b: bool):
    """x -> R(fixed, x) if along_b else R(x, fixed), with no argument checks.

    Only for lines of finite positive points with finite Beta arguments, as
    in a box that ratio_grid has evaluated.  The fixed coordinate's diagonal
    energy and ln Gamma(p + 1) are computed once here, so each point costs the
    mixed and the varying diagonal energy, in ratio_R's operations and bits.
    """
    p, n = params.p, params.n
    energy = _log_pair_energy_core(p)
    log_c = np.log(fixed)
    front_c = n * log_c + np.log1p(fixed)
    diag_c = energy(front_c, log_c, (fixed + 1.0) * n / fixed)

    def ratio(x):
        log_x = np.log(x)
        front_x = n * log_x + np.log1p(x)
        diag_x = energy(front_x, log_x, (x + 1.0) * n / x)
        if along_b:
            log_ab = energy(front_x, log_c, (x + 1.0) * n / fixed)
            return _ratio(p, n, fixed, x, log_ab, diag_c, diag_x)
        log_ab = energy(front_c, log_x, (fixed + 1.0) * n / x)
        return _ratio(p, n, x, fixed, log_ab, diag_x, diag_c)

    return ratio


def ratio_general(
    params: EnergyParams,
    a0: float,
    tail: Sequence[float],
    *,
    rel_tol: float = _DEFAULT_REL_TOL,
) -> float:
    """Quadrature-backed ratio for an arbitrary tail of exponents.

    C cancels, so R = 4 integrate_radial(g) / exp(Hoelder log denominator);
    an integral or denominator past the normal float range is a ValueError.
    """
    p, n = params.p, params.n
    a0, tail, g = _energy_integrand(params, a0, tail)
    integral = integrate_radial(g, n, rel_tol=rel_tol)
    diag = np.array([a0, *tail])
    log_diag = log_pair_energy(p, n, diag, diag)
    log_den = (p * log_diag[0] + log_diag[1:].sum()) / (n + p)
    try:
        denominator = math.exp(log_den)
    except OverflowError:
        denominator = math.inf
    if not (integral >= sys.float_info.min and sys.float_info.min <= denominator < math.inf):
        raise ValueError(
            f"the ratio's integral ({integral!r}) or denominator ({denominator!r}) at n = {n} "
            "leaves the normal float range"
        )
    return 4.0 * integral / denominator


def check_two_term(p: float, n: int, a: float, b: float, c: float) -> tuple[bool, float]:
    """Two-term interpolation inequality for 0 < p < 1; returns (holds, slack).

    With u_0 = u_a, u_1 = u_b and n-1 further factors u_c, checks
    e(u_0, u_1, T) <= p^{-1/(1-p)} e(u_0, u_0, T)^{p/(p+1)} e(u_1, u_1, T)^{1/(p+1)}
    on the closed-form energies of energy_closed_core, which checks the exponents.
    """
    p, n = _validate_pn(p, n)
    # p^(-1/(1-p)), about 1/p, overflows a float from p = 5.6e-309 down; subnormal p is refused
    if not (sys.float_info.min <= p < 1.0):
        raise ValueError(f"two-term inequality requires 0 < p < 1 with p a normal float, got {p!r}")
    # c is a tail exponent, checked as energy_closed_core checks the tail, also
    # at n = 1 where it enters no energy
    rest = [_positive_real("a", c)] * (n - 1)
    lhs = energy_closed_core(p, n, a, [b] + rest)
    e_aa = energy_closed_core(p, n, a, [a] + rest)
    e_bb = energy_closed_core(p, n, b, [b] + rest)
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

    values[i, j] = R(axis[i], axis[j]), and inf where R overflows a float
    (only at large p and n: R <= D_p, 4 at n = 1 and p = 2).  The diagonal
    energies are computed once for the axis; the rest is one array
    expression per block of rows, whose log B terms come from specfun's
    vectorized log-Gamma ratio with no Python loop over cells.  Its error
    is a few ulps of the log energies at any Beta argument: the cells were
    within 2e-14 of a decimal oracle where ratio_R, with two lgamma values
    per log B below y = 512, is within 1e-12.  grid_size must be an integer >= 2
    (an integral float such as 8.0 is accepted) and amin < amax finite
    positive reals; anything else is a ValueError.
    """
    grid_size = _validate_n(grid_size, "grid_size", 2)
    if not (_is_real(amin) and _is_real(amax) and 0.0 < amin < amax < math.inf):
        raise ValueError(f"need finite 0 < amin < amax, got amin={amin!r}, amax={amax!r}")
    amin, amax = float(amin), float(amax)
    p, n = params.p, params.n
    with np.errstate(over="ignore"):
        # 10**log10(amax) can overflow; geomspace then sets the endpoint to amax itself
        axis = np.geomspace(amin, amax, grid_size)
    log_diag = log_pair_energy(p, n, axis, axis)
    values = np.empty((grid_size, grid_size))
    # Blocks keep the expression's temporaries small: grid-sized ones stay in
    # the allocator's heap once freed, and one 384^2 expression added ~3 MB
    # to the peak RSS of a process running many scans.
    with np.errstate(over="ignore"):
        for lo in range(0, grid_size, _GRID_BLOCK_ROWS):
            rows = slice(lo, lo + _GRID_BLOCK_ROWS)
            log_den = _log_hoelder_den(p, n, log_diag[rows, None], log_diag)
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
    grid_size: int = 64,
    amin: float = 0.1,
    amax: float = 4.0,
    *,
    rel_tol: float = _DEFAULT_REL_TOL,
) -> RatioCertificate:
    """Search for a point with energy ratio above 1 and certify it.

    Scans a log grid, seeds an extra candidate from the sign of f(p, 2n)
    along b at a = 1 when 1 lies in [amin, amax], refines coordinate-wise by
    golden section inside the box, evaluates the winner with ratio_R and
    cross-checks it through the quadrature path.  Each golden section probes
    R along one line, with the fixed coordinate's diagonal energy computed
    once per line.  For p = 1 the result carries a no-violation flag
    instead.
    """
    rel_tol = _check_rel_tol(rel_tol)
    p, n = params.p, params.n
    values, axis = ratio_grid(params, grid_size, amin, amax)
    # first maximum in row-major order = lexicographically smallest (a, b)
    i, j = np.unravel_index(int(np.argmax(values)), values.shape)
    a_star, b_star, r_star = float(axis[i]), float(axis[j]), float(values[i, j])

    def line_max(fixed: float, lo: float, hi: float, along_b: bool) -> tuple[float, float]:
        # every line lies in the box, whose corner (amin, amax) has the largest
        # Beta argument (b + 1) n / a and was evaluated by ratio_grid, so every
        # probe is valid
        return _golden_max(_ratio_along(params, fixed, along_b), lo, hi, _REFINE_ITERS)

    f_seed = f_lemma(p, 2 * n)
    if abs(f_seed) > 1e-12 and amin <= 1.0 <= amax:
        # derivative argument: b moves off 1 in the direction that raises F
        lo, hi = (1.0, amax) if f_seed > 0.0 else (amin, 1.0)
        seed_b, seed_r = line_max(1.0, lo, hi, True)
        if seed_r > r_star:
            a_star, b_star, r_star = 1.0, seed_b, seed_r

    step = (amax / amin) ** (1.0 / (grid_size - 1))
    bracket = step * step
    for _ in range(_REFINE_SWEEPS):
        lo, hi = max(amin, b_star / bracket), min(amax, b_star * bracket)
        cand_b, cand_r = line_max(a_star, lo, hi, True)
        if cand_r > r_star:
            b_star, r_star = cand_b, cand_r
        lo, hi = max(amin, a_star / bracket), min(amax, a_star * bracket)
        cand_a, cand_r = line_max(b_star, lo, hi, False)
        if cand_r > r_star:
            a_star, r_star = cand_a, cand_r

    # the certified ratio is ratio_R at the winner, with its arguments checked:
    # a probed winner keeps its bits, a grid winner's array value may differ
    # from it in the last bit
    r_star = ratio_R(params, a_star, b_star)
    quad = ratio_general(params, a_star, [b_star] * n, rel_tol=rel_tol)
    error_bound = max(abs(r_star - quad), 10.0 * rel_tol * abs(r_star))
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
