"""Inequality constants, the energy ratio functional, and the violation search.

The ratio R(a, b) compares the mutual p-energy of (u_a, u_b, ..., u_b)
against the Hoelder product of diagonal energies.  It is 1 on the diagonal
a = b for every p, stays at most 1 when p = 1, and exceeds 1 somewhere near
the diagonal for p != 1; the search below certifies that excess.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .energy import (
    _REL_TOL,
    EnergyParams,
    _check_beta_argument,
    _log_energy_quad,
    _log_pair_energy,
    energy_closed_core,
    log_pair_energy,
)
from .specfun import (
    _ArgumentError,
    _log_gamma_ratio_derivs,
    _positive_real,
    _require_type,
    _validate_n,
    _validate_pn,
    beta,
)

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

# the most cells that one block of ratio_grid evaluates at once: two 64-cell
# grids' worth, past which the blocks' temporaries outgrow the CPU caches
_GRID_BLOCK_CELLS = 2 * 64 * 64
# the largest grid_size: its 4096^2 values take 128 MiB, and its CSV ~0.3 GB
_MAX_GRID_SIZE = 4096
# The Newton search's budgets, and the predicted gains in ln R below which a
# step is not worth taking, and not worth checking: ln R is good to ~1e-14
_NEWTON_STEPS, _HALVINGS = 40, 40
_GAIN_FLOOR, _NOISE = 1e-18, 1e-13
# the share of the box's width within which a coordinate may be sent to a
# bound, and the share of the Hessian's spectral radius that counts as flat
_EDGE, _FLAT = 1e-2, 1e-9


class CertificateError(ValueError):
    """The violation search could not produce a sound certificate: a failed computation, not an argument error."""


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

    ``ratio`` is the closed-form value and ``quad_crosscheck`` the quadrature
    evaluation of the same ratio, which tests the log-Gamma layer and the Beta
    reduction but not the Moore determinants (density-check and the measure
    benchmark do); the two agree within ``error_bound``.  A certificate of
    violation is sound only when ratio - 1 exceeds ten times the error bound.
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
    """1/n + p/(n+p) + psi(n) - psi(n+p+1); vanishes exactly at p = 1.

    Taken as (1 + n p/(n+p) + D1) / n with D1 = n (psi(n) - psi(n+p+1)) from
    specfun's scaled kernel, so the two psi values, each of size ln n, are
    never formed and do not cancel at large n.
    """
    p, n = _validate_pn(p, n)
    d1 = _log_gamma_ratio_derivs(float(n), p + 1.0)[0]
    return (1.0 + n * (p / (n + p)) + d1) / n


def _log_ratio_parts(p: float, n: int, a, b) -> tuple[float, float, float]:
    """The log pair energies E(a, b), E(a, a), E(b, b) at reals a, b, as Python floats.

    a and b are checked once, and the three Beta arguments in this order, so
    that an error names the first pair past the range of ln Gamma.
    """
    a, b = _positive_real("a", a), _positive_real("b", b)
    pairs = ((a, b), (a, a), (b, b))
    for x, y in pairs:
        _check_beta_argument(p, n, x, y)
    return tuple(float(_log_pair_energy(p, n, x, y)) for x, y in pairs)


def _log_hoelder_den(p: float, n: int, log_aa, log_tail):
    """Log of the Hoelder denominator (E(a0, a0)^p prod_i E(b_i, b_i))^(1/(n+p)) of a ratio.

    log_tail is the tail's sum of ln E(b_i, b_i): n ln E(b, b) for R(a, b).
    p ln E(a0, a0) overflows to -inf near p = 1e300: silently on Python
    floats, which the scalar callers pass, and under errstate on arrays.
    """
    return (p * log_aa + log_tail) / (n + p)


def F_func(p: float, n: int, a: float, b: float) -> float:
    """Violation functional; F(a, a) = 0 and F > 0 means the ratio exceeds 1.

    F = B(p+1, (a+1)n/a)^{p/(n+p)} B(p+1, (b+1)n/b)^{n/(n+p)} (R(a, b) - 1):
    the Beta product is the Hoelder denominator of R with the prefactors
    x^{n-1} (x+1) of the diagonal energies divided out.
    """
    p, n = _validate_pn(p, n)
    log_num, log_aa, log_bb = _log_ratio_parts(p, n, a, b)
    log_den = _log_hoelder_den(p, n, log_aa, n * log_bb)
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
    """Closed-form energy ratio at (a, b); normalization-free; R past the float range is a ValueError."""
    _require_type("params", params, EnergyParams)
    log_ab, log_aa, log_bb = _log_ratio_parts(params.p, params.n, a, b)
    try:
        return math.exp(log_ab - _log_hoelder_den(params.p, params.n, log_aa, params.n * log_bb))
    except OverflowError:
        raise ValueError(f"R({a!r}, {b!r}) overflows a float") from None


def _log_ratio_model(p: float, n: int):
    """(value, derivs) of ln R in (ln a, ln b), unchecked: for points whose Beta arguments are floats.

    value(a, b) is ln R in ratio_R's bits, from its pair formula.  derivs(a, b)
    is its gradient (g_a, g_b) and Hessian (h_aa, h_ab, h_bb), exactly: ln
    Gamma(y) - ln Gamma(y + p + 1) has derivatives D1 and D1 + D2 in ln y
    (specfun's kernel), and y = (b + 1) n / a has d ln y / d ln a = -1 and
    d ln y / d ln b = q = b / (1 + b).  Every value and derivative is cached
    in the model, and the diagonal's ln E(x, x) and its derivative pair per x:
    a search revisits points, and an edge search holds one coordinate at a
    bound, so a certificate evaluates each log-Gamma ratio of its searches
    once.  Each find_violation builds its own model and drops it, caches
    included, afterwards.
    """
    s, w_a, w_b = p + 1.0, p / (n + p), n / (n + p)

    @functools.cache
    def log_diag(x: float) -> float:
        return float(_log_pair_energy(p, n, x, x))

    @functools.cache
    def value(a: float, b: float) -> float:
        return _log_pair_energy(p, n, a, b) - _log_hoelder_den(p, n, log_diag(a), n * log_diag(b))

    @functools.cache
    def diagonal(x: float) -> tuple[float, float]:
        # E(x, x), whose y has d ln y / d ln x = -r with r = 1 / (1 + x)
        r = 1.0 / (1.0 + x)
        d1, d2 = _log_gamma_ratio_derivs((x + 1.0) * n / x, s)
        return n - r * (1.0 + d1), r * r * (x * (1.0 + d1) + d1 + d2)

    @functools.cache
    def derivs(a: float, b: float) -> tuple[float, ...]:
        q = b / (1.0 + b)
        d1, d2 = _log_gamma_ratio_derivs((b + 1.0) * n / a, s)
        (g_aa, h_aa), (g_bb, h_bb) = diagonal(a), diagonal(b)
        g_a, g_b = -1.0 - d1 - w_a * g_aa, n + q * (1.0 + d1) - w_b * g_bb
        return g_a, g_b, d1 + d2 - w_a * h_aa, -q * (d1 + d2), q * (1.0 - q + d1 + q * d2) - w_b * h_bb

    return value, derivs


def ratio_general(params: EnergyParams, a0: float, tail: Sequence[float]) -> float:
    """Quadrature-backed ratio for an arbitrary tail of exponents.

    ln R is energy_numeric's log quadrature without C, which cancels, minus the log Hoelder
    denominator of the closed diagonal energies, one checked ln E(x, x) per distinct exponent x;
    a failed quadrature or an R past floats is a ValueError.
    """
    _require_type("params", params, EnergyParams)
    p, n = params.p, params.n
    log_energy = _log_energy_quad(p, n, a0, tail)  # which checks a0 and the tail
    log_diag = {x: float(log_pair_energy(p, n, x, x)) for x in dict.fromkeys([a0, *tail])}
    log_den = _log_hoelder_den(p, n, log_diag[a0], math.fsum(log_diag[b] for b in tail))
    try:
        return math.exp(log_energy - log_den)
    except OverflowError:
        raise ValueError(f"the ratio at n = {n} overflows a float at a0 = {a0!r}") from None


def check_two_term(p: float, n: int, a: float, b: float, c: float) -> tuple[bool, float]:
    """Two-term interpolation inequality for 0 < p < 1; returns (holds, slack).

    With u_0 = u_a, u_1 = u_b and n-1 further factors u_c, checks
    e(u_0, u_1, T) <= p^{-1/(1-p)} e(u_0, u_0, T)^{p/(p+1)} e(u_1, u_1, T)^{1/(p+1)}
    on the closed-form energies of energy_closed_core, which checks the exponents.
    """
    p, n = _validate_pn(p, n)
    # p^(-1/(1-p)), about 1/p, overflows a float from p = 5.6e-309 down; subnormal p is refused
    if not (sys.float_info.min <= p < 1.0):
        raise _ArgumentError(f"two-term inequality requires 0 < p < 1 with p a normal float, got {p!r}")
    # c is checked under its own name, also at n = 1 where it enters no energy
    rest = [_positive_real("c", c)] * (n - 1)
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
    (only at large p and n: R <= D_p, 4 at n = 1 and p = 2).  The log pair
    energies are one array expression per block of whole rows, at most
    _GRID_BLOCK_CELLS cells (one block up to 90 cells a side), whose log B
    terms come from one call of specfun's vectorized log-Gamma ratio with
    no Python loop over cells; the Hoelder denominator's diagonal energies
    are read off the grid's diagonal, and the log ratios are exponentiated
    in place.  The cells are within 2e-14 of a decimal oracle.  grid_size
    must be an integer from 2 to 4096 (an integral float such as 8.0 is
    accepted) and amin < amax finite positive reals; anything else is a
    ValueError.
    """
    _require_type("params", params, EnergyParams)
    grid_size = _validate_n(grid_size, "grid_size", 2)
    if grid_size > _MAX_GRID_SIZE:
        # a huge int's repr is unreadable, and past 4300 digits it raises ValueError
        got = repr(grid_size) if grid_size < 2**64 else f"an integer of {grid_size.bit_length()} bits"
        raise _ArgumentError(f"grid_size must be <= {_MAX_GRID_SIZE}, got {got}")
    amin, amax = _positive_real("amin", amin), _positive_real("amax", amax)
    if not amin < amax:
        raise _ArgumentError(f"need finite 0 < amin < amax, got amin={amin!r}, amax={amax!r}")
    p, n = params.p, params.n
    with np.errstate(over="ignore"):
        # 10**log10(amax) can overflow; geomspace then sets the endpoint to amax itself
        axis = np.geomspace(amin, amax, grid_size)
    values = np.empty((grid_size, grid_size))
    # Blocks keep the expressions' temporaries small: grid-sized ones stay in
    # the allocator's heap once freed, and one 384^2 expression added ~3 MB
    # to the peak RSS of a process running many scans.
    rows = max(1, _GRID_BLOCK_CELLS // grid_size)
    blocks = [slice(lo, lo + rows) for lo in range(0, grid_size, rows)]
    # a diagonal cell past ln Gamma's range is named before any other one; then
    # the row a = amin, which holds the largest Beta argument of every column
    _check_beta_argument(p, n, axis, axis)
    _check_beta_argument(p, n, axis[:1, None], axis)
    with np.errstate(over="ignore"):
        for block in blocks:
            values[block] = _log_pair_energy(p, n, axis[block, None], axis)
        log_diag = values.diagonal().copy()  # a copy: the loop below overwrites the diagonal
        for block in blocks:
            values[block] -= _log_hoelder_den(p, n, log_diag[block, None], n * log_diag)
            np.exp(values[block], out=values[block])
    return values, axis


def _newton_max(model, a: float, b: float, amin: float, amax: float, free_a: bool, free_b: bool):
    """Projected Newton ascent of ln R from (a, b) over the box, in (ln a, ln b); returns (ln R, a, b).

    Bertsekas' projected Newton (SIAM J. Control Optim. 20, 1982): a free
    coordinate near a bound, its gradient pointing out, is sent to the bound,
    and Newton's step is taken in the other free ones.  The step's path is
    projected on the box and halved until ln R does not fall, unless its
    predicted gain is below _NOISE; the search stops at a gain below
    _GAIN_FLOOR, or when no halving keeps ln R.
    """
    value, derivs = model
    lo, hi = math.log(amin), math.log(amax)
    width = hi - lo

    def to_box(x: float) -> float:
        return amin if x <= lo else amax if x >= hi else min(max(math.exp(x), amin), amax)

    def held(x: float, g: float):
        # the bound that coordinate x goes to, or None if it takes Newton's step
        near = _EDGE * width
        return lo if x - lo <= near and g < 0.0 else hi if hi - x <= near and g > 0.0 else None

    u, t, f, step = math.log(a), math.log(b), value(a, b), 1.0
    for _ in range(_NEWTON_STEPS):
        g_a, g_b, h_aa, h_ab, h_bb = derivs(a, b)
        # a coordinate the search does not move is held where it is
        edge_a, edge_b = held(u, g_a) if free_a else u, held(t, g_b) if free_b else t
        if edge_a is None and edge_b is None:
            # Newton's step on the Hessian's eigenvalues, flipped and floored
            # where it is not negative definite, as along a flat ridge
            mean, half = 0.5 * (h_aa + h_bb), 0.5 * (h_aa - h_bb)
            radius = math.hypot(half, h_ab)
            angle = 0.5 * math.atan2(h_ab, half)
            cos, sin = math.cos(angle), math.sin(angle)
            floor = _FLAT * (abs(mean) + radius) or 1.0  # a zero Hessian has no scale
            c1 = (g_a * cos + g_b * sin) / max(abs(mean + radius), floor)
            c2 = (g_b * cos - g_a * sin) / max(abs(mean - radius), floor)
            d_a, d_b = c1 * cos - c2 * sin, c1 * sin + c2 * cos
        else:
            d_a = g_a / (abs(h_aa) or 1.0) if edge_a is None else edge_a - u
            d_b = g_b / (abs(h_bb) or 1.0) if edge_b is None else edge_b - t
        gain = 0.5 * (g_a * d_a + g_b * d_b)
        if not gain > _GAIN_FLOOR:
            break
        scale = min(1.0, width / max(abs(d_a), abs(d_b)))
        # a ridge that needed short steps keeps needing them: start from 4x the last one
        step = min(1.0, 4.0 * step)
        for _ in range(_HALVINGS):
            u1, t1 = u + step * scale * d_a, t + step * scale * d_b
            a1, b1 = to_box(u1), to_box(t1)
            f1 = value(a1, b1)
            if f1 >= f or gain <= _NOISE:
                break
            step *= 0.5
        else:
            break
        if (a1, b1) == (a, b):
            break
        a, b, f = a1, b1, f1
        u, t = min(max(u1, lo), hi), min(max(t1, lo), hi)
    return f, a, b


def find_violation(
    params: EnergyParams,
    grid_size: int = 64,
    amin: float = 0.1,
    amax: float = 4.0,
) -> RatioCertificate:
    """Search for a point with energy ratio above 1 and certify it.

    Scans a log grid, then maximizes ln R by projected Newton steps in
    (ln a, ln b) on its exact derivatives, from the grid's maximum and along
    each edge of the box from that edge's best cell.  Optima often sit on an
    edge, and near p = 1 the crest of R is a nearly flat ridge rising toward
    one.  The best point is evaluated with ratio_R and F_func, each of which
    checks it, and cross-checked through the quadrature path, whose error
    bound is at least 10 times the quadrature's relative tolerance 1e-10.
    For p = 1 the result carries a no-violation flag.
    """
    values, axis = ratio_grid(params, grid_size, amin, amax)  # which checks params
    p, n = params.p, params.n
    amin, amax = float(axis[0]), float(axis[-1])
    model = _log_ratio_model(p, n)
    # first maximum in row-major order = lexicographically smallest (a, b)
    i, j = np.unravel_index(int(np.argmax(values)), values.shape)
    k = [int(np.argmax(edge)) for edge in (values[0], values[-1], values[:, 0], values[:, -1])]
    starts = [(i, j, True, True), (0, k[0], False, True), (-1, k[1], False, True)]
    starts += [(k[2], 0, True, False), (k[3], -1, True, False)]
    # every search stays in the box, whose corner (amin, amax) has the largest
    # Beta argument (b + 1) n / a and was evaluated by ratio_grid
    found = [_newton_max(model, float(axis[i]), float(axis[j]), amin, amax, *fb) for i, j, *fb in starts]
    _, a_star, b_star = max(found, key=lambda point: point[0])
    quad = ratio_general(params, a_star, [b_star] * n)
    # the certified ratio is ratio_R at the winner, with its arguments checked
    r_star = ratio_R(params, a_star, b_star)
    error_bound = max(abs(r_star - quad), 10.0 * _REL_TOL * abs(r_star))
    if p == 1.0 and r_star > 1.0 + 1e-6:
        raise CertificateError(f"ratio {r_star!r} exceeds 1 + 1e-6 at p = 1; numerics are off")
    if p != 1.0 and not (r_star - 1.0 > 10.0 * error_bound):
        raise CertificateError(
            f"certificate-invalid: ratio {r_star!r} minus one is within "
            f"10x the error bound {error_bound:.3e}"
        )
    f_value = F_func(p, n, a_star, b_star)
    return RatioCertificate(p, n, a_star, b_star, r_star, f_value, quad, error_bound, violation_found=p != 1.0)


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
