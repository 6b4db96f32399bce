"""Quaternionic Hessians of smooth functions and closed forms for the power family.

The finite-difference path treats a function of 4n real coordinates; the
quaternionic Hessian entry (j, k) applies the conjugated left operator in
the coordinates of q_j to the right operator in the coordinates of q_k,
scaled so the Hessian of |q|^2 is the identity.  The closed forms cover
u_a(q) = |q|^{2a} - 1 on the unit ball.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .quatlin import HyperhermitianMatrix, Quaternion, hyperhermitian_residual, quat_conj_transpose
from .specfun import _is_real, _positive_real, _validate_n

__all__ = [
    "HESSIAN_SCALE",
    "PowerFamilyMember",
    "EvaluationPoint",
    "fd_quaternionic_hessian",
    "power_hessian_closed",
    "ma_density",
    "mixed_density",
]

# 1/8 makes the normalized Hessian of |q|^2 the identity matrix.
HESSIAN_SCALE = 0.125

# Raising the residual threshold hides genuinely bad FD assemblies.
_RESIDUAL_LIMIT = 1e-4

_MA_DENSITY_C0 = 0.5


def _unit_table() -> np.ndarray:
    units = [Quaternion(1, 0, 0, 0), Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 1)]
    table = np.empty((4, 4, 4))
    for m in range(4):
        for l in range(4):
            table[m, l] = (units[m].conj() * units[l]).as_array()
    return table


_UNIT_TABLE = _unit_table()


@dataclass(frozen=True)
class PowerFamilyMember:
    """One member u_a(q) = |q|^{2a} - 1 of the radial family on the ball in H^n."""

    a: float
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _positive_real("a", self.a))
        object.__setattr__(self, "n", _validate_n(self.n))

    def as_function(self) -> Callable[[np.ndarray], float]:
        """u_a on a float array of 4n coordinates; inf where |q|^{2a} overflows a float."""
        a = self.a

        def u(coords: np.ndarray) -> float:
            try:
                return float(coords.dot(coords)) ** a - 1.0
            except OverflowError:  # raised, not returned as inf, by the float power
                return math.inf

        return u


@dataclass(frozen=True)
class EvaluationPoint:
    """A point of H^n as 4n real coordinates together with its radius."""

    coords: np.ndarray
    radius: float

    @classmethod
    def from_coords(cls, coords) -> "EvaluationPoint":
        arr = np.asarray(coords, dtype=float)
        if arr.ndim != 1 or arr.size % 4 != 0 or arr.size == 0:
            raise ValueError(f"coords must be a flat array of 4n reals, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coords must be finite")
        return cls(arr.copy(), float(np.linalg.norm(arr)))

    @property
    def n(self) -> int:
        return self.coords.size // 4


def _values(u: Callable[[np.ndarray], float], points) -> np.ndarray:
    """u at each point, in order; a non-finite value is a ValueError naming the first such point."""
    vals = np.array([u(x) for x in points], dtype=float)
    bad = ~np.isfinite(vals)
    if bad.any():
        raise ValueError(f"non-finite function value at {points[int(np.argmax(bad))]!r}")
    return vals


def _check_step(h) -> float:
    """h as a float once it is a positive real and h * h, the FD denominator, is a normal float.

    A bool, a string or an array is refused with the same message.
    """
    if not (_is_real(h) and h > 0.0 and sys.float_info.min <= h * h <= sys.float_info.max):
        raise ValueError(f"step h must be positive with h * h a normal float, got {h!r}")
    return float(h)


def fd_quaternionic_hessian(
    u: Callable[[np.ndarray], float],
    point: EvaluationPoint,
    h: float | None = None,
) -> tuple[HyperhermitianMatrix, float]:
    """Finite-difference quaternionic Hessian at ``point``.

    Second partials use central differences (4-point cross stencils for the
    mixed ones); the assembled matrix is symmetrized to exact hyperhermitian
    form.  Returns the matrix and the pre-symmetrization residual.
    """
    coords = point.coords
    d = coords.size
    n = d // 4
    h = _check_step(1e-4 * max(1.0, point.radius) if h is None else h)

    # stencil points are formed and passed to u in the order coords, then per
    # alpha: +a, -a, and per beta > alpha: +a+b, +a-b, -a+b, -a-b
    # a step that leaves the domain of u may overflow; the entries are checked below
    with np.errstate(all="ignore"):
        steps = h * np.eye(d)
        [u0] = _values(u, [coords])
        hess = np.empty((d, d))
        for alpha in range(d):
            plus = coords + steps[alpha]
            minus = coords - steps[alpha]
            rest = steps[alpha + 1 :]
            block = np.empty((d - alpha - 1, 4, d))
            block[:, 0] = plus + rest
            block[:, 1] = plus - rest
            block[:, 2] = minus + rest
            block[:, 3] = minus - rest
            vals = _values(u, [plus, minus, *block.reshape(-1, d)])
            hess[alpha, alpha] = (vals[0] - 2.0 * u0 + vals[1]) / (h * h)
            upp, upm, ump, umm = vals[2:].reshape(-1, 4).T
            col = (upp - upm - ump + umm) / (4.0 * h * h)
            hess[alpha, alpha + 1 :] = col
            hess[alpha + 1 :, alpha] = col

        quat = np.empty((n, n, 4))
        for j in range(n):
            for k in range(n):
                block = hess[4 * j : 4 * j + 4, 4 * k : 4 * k + 4]
                quat[j, k] = HESSIAN_SCALE * np.einsum("mlc,ml->c", _UNIT_TABLE, block)
        residual = hyperhermitian_residual(quat)
        symmetrized = 0.5 * (quat + quat_conj_transpose(quat))

    scale = max(float(np.max(np.abs(quat))), 1.0)
    if residual > _RESIDUAL_LIMIT * scale:
        raise ValueError(
            f"hyperhermitian residual {residual:.3e} exceeds {_RESIDUAL_LIMIT:.0e}: "
            "bad step or non-smooth point"
        )
    # a non-finite entry, whose residual is nan, is refused here
    return HyperhermitianMatrix(symmetrized), residual


def _coefficients(a: float, s):
    """(alpha, beta) of the Hessian alpha I + beta Q of u_a at s = |q|^2, unchecked."""
    return a * s ** (a - 1.0), 0.5 * a * (a - 1.0) * s ** (a - 2.0)


def _finite(out, what: str, a: float, n: int):
    if not np.isfinite(out).all():
        raise ValueError(f"{what} of u_a at a = {a!r}, n = {n} is not a finite float")


def power_hessian_closed(member: PowerFamilyMember, s):
    """Coefficients (alpha, beta) of the normalized Hessian alpha I + beta Q at s = |q|^2.

    Q_{jk} = conj(q_j) q_k.  Validated against the finite-difference path by
    the test suite before being trusted anywhere else.
    """
    s_arr = np.asarray(s, dtype=float)
    if not ((s_arr > 0.0) & (s_arr <= 1.0)).all():
        raise ValueError("s = |q|^2 must lie in (0, 1]")
    with np.errstate(all="ignore"):
        alpha, beta_coef = _coefficients(member.a, s_arr)
    _finite((alpha, beta_coef), "the Hessian", member.a, member.n)
    if np.isscalar(s) or s_arr.ndim == 0:
        return float(alpha), float(beta_coef)
    return alpha, beta_coef


def _radii(r) -> np.ndarray:
    r_arr = np.asarray(r, dtype=float)
    if not ((r_arr > 0.0) & (r_arr < 1.0)).all():
        raise ValueError("radius must lie in (0, 1)")
    return r_arr


def ma_density(member: PowerFamilyMember, r):
    """Density of the Monge-Ampere measure of u_a at radius r, C0 = 1/2; finite or a ValueError."""
    r_arr = _radii(r)
    a, n = member.a, member.n
    try:
        coefficient = _MA_DENSITY_C0 * a**n * (a + 1.0)
    except OverflowError:  # raised, not returned as inf, by the float power a**n
        coefficient = math.inf
    with np.errstate(all="ignore"):
        out = coefficient * r_arr ** (2.0 * n * (a - 1.0))
    _finite(out, "the MA density", member.a, member.n)
    if np.isscalar(r) or r_arr.ndim == 0:
        return float(out)
    return out


def mixed_density(members: Sequence[PowerFamilyMember], r):
    """Density of the mixed Monge-Ampere measure of n members at radius r; finite or a ValueError.

    For exponents b_1, ..., b_n it is the monomial prod(b) (1 + S / (2n)) r^{2S}
    with S = sum(b_i - 1), which the mixed Moore determinant of the closed
    Hessians alpha_i I + beta_i Q reduces to.
    """
    members = list(members)
    if not members:
        raise ValueError("at least one member required")
    n = members[0].n
    if any(m.n != n for m in members):
        raise ValueError("members must share the same dimension")
    if len(members) != n:
        raise ValueError(f"need exactly n = {n} members, got {len(members)}")
    r_arr = _radii(r)
    exps = [m.a for m in members]
    try:
        total = math.fsum(b - 1.0 for b in exps)
        coefficient = math.prod(exps) * (1.0 + total / (2.0 * n))
    except OverflowError:  # raised by fsum where a partial sum overflows
        total = coefficient = math.inf
    with np.errstate(all="ignore"):
        out = coefficient * r_arr ** (2.0 * total)
    _finite(out, "the mixed MA density", exps, n)
    if np.isscalar(r) or r_arr.ndim == 0:
        return float(out)
    return out
