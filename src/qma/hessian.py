"""Quaternionic Hessians of smooth functions and closed forms for the power family.

The finite-difference path treats a function of 4n real coordinates; the
quaternionic Hessian entry (j, k) applies the conjugated left operator in
the coordinates of q_j to the right operator in the coordinates of q_k,
scaled so the Hessian of |q|^2 is the identity.  The closed forms cover
u_a(q) = |q|^{2a} - 1 on the unit ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .quatlin import HyperhermitianMatrix, Quaternion, hyperhermitian_residual, quat_conj_transpose

__all__ = [
    "HESSIAN_SCALE",
    "PowerFamilyMember",
    "NormalizationConstants",
    "EvaluationPoint",
    "normalization_constants",
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
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ValueError(f"exponent a must be positive, got {self.a!r}")
        if self.n < 1:
            raise ValueError(f"dimension n must be >= 1, got {self.n!r}")

    def value(self, coords) -> float:
        coords = np.asarray(coords, dtype=float)
        if coords.size != 4 * self.n:
            raise ValueError(f"expected {4 * self.n} coordinates, got {coords.size}")
        return float(np.dot(coords, coords) ** self.a - 1.0)

    def radial_value(self, r):
        return np.asarray(r, dtype=float) ** (2.0 * self.a) - 1.0

    def as_function(self) -> Callable[[np.ndarray], float]:
        a = self.a
        return lambda coords: float(np.dot(coords, coords) ** a - 1.0)


@dataclass(frozen=True)
class NormalizationConstants:
    """Fixed Hessian normalization and the derived density/energy constants."""

    hessian_scale: float
    c0: float
    c_energy: float


def _log_c_energy(n: int) -> float:
    """ln C for C = pi^{2n} / (2 (2n-1)!), finite for every n >= 1."""
    return 2 * n * math.log(math.pi) - math.log(2.0) - math.lgamma(2 * n)


def normalization_constants(n: int) -> NormalizationConstants:
    """Constants for dimension n: scale 1/8, C0 = 1/2, C = pi^{2n} / (2 (2n-1)!)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    try:
        c_energy = math.pi ** (2 * n) / (2.0 * math.factorial(2 * n - 1))
    except OverflowError:
        # (2n-1)! leaves the float range from n = 86 on; C itself is still ~1e-223 there
        c_energy = math.exp(_log_c_energy(n))
    return NormalizationConstants(HESSIAN_SCALE, _MA_DENSITY_C0, c_energy)


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


def _eval(u: Callable[[np.ndarray], float], coords: np.ndarray) -> float:
    v = float(u(coords))
    if not math.isfinite(v):
        raise ValueError(f"non-finite function value at {coords!r}")
    return v


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
    if h is None:
        h = 1e-4 * max(1.0, point.radius)
    h = float(h)
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"step h must be positive, got {h!r}")

    # stencil points are formed and passed to u in the order coords, then per
    # alpha: +a, -a, and per beta > alpha: +a+b, +a-b, -a+b, -a-b
    steps = h * np.eye(d)
    u0 = _eval(u, coords)
    hess = np.empty((d, d))
    for alpha in range(d):
        plus = coords + steps[alpha]
        minus = coords - steps[alpha]
        up = _eval(u, plus)
        um = _eval(u, minus)
        hess[alpha, alpha] = (up - 2.0 * u0 + um) / (h * h)
        rest = steps[alpha + 1 :]
        block = np.empty((d - alpha - 1, 4, d))
        block[:, 0] = plus + rest
        block[:, 1] = plus - rest
        block[:, 2] = minus + rest
        block[:, 3] = minus - rest
        vals = np.array([_eval(u, x) for x in block.reshape(-1, d)]).reshape(-1, 4)
        upp, upm, ump, umm = vals.T
        col = (upp - upm - ump + umm) / (4.0 * h * h)
        hess[alpha, alpha + 1 :] = col
        hess[alpha + 1 :, alpha] = col

    quat = np.empty((n, n, 4))
    for j in range(n):
        for k in range(n):
            block = hess[4 * j : 4 * j + 4, 4 * k : 4 * k + 4]
            quat[j, k] = HESSIAN_SCALE * np.einsum("mlc,ml->c", _UNIT_TABLE, block)

    residual = hyperhermitian_residual(quat)
    scale = max(float(np.max(np.abs(quat))), 1.0)
    if residual > _RESIDUAL_LIMIT * scale:
        raise ValueError(
            f"hyperhermitian residual {residual:.3e} exceeds {_RESIDUAL_LIMIT:.0e}: "
            "bad step or non-smooth point"
        )
    symmetrized = 0.5 * (quat + quat_conj_transpose(quat))
    return HyperhermitianMatrix(symmetrized), residual


def power_hessian_closed(member: PowerFamilyMember, s):
    """Coefficients (alpha, beta) of the normalized Hessian alpha I + beta Q at s = |q|^2.

    Q_{jk} = conj(q_j) q_k.  Validated against the finite-difference path by
    the test suite before being trusted anywhere else.
    """
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr <= 0.0) or np.any(s_arr > 1.0):
        raise ValueError("s = |q|^2 must lie in (0, 1]")
    a = member.a
    alpha = a * s_arr ** (a - 1.0)
    beta_coef = 0.5 * a * (a - 1.0) * s_arr ** (a - 2.0)
    if np.isscalar(s) or s_arr.ndim == 0:
        return float(alpha), float(beta_coef)
    return alpha, beta_coef


def ma_density(member: PowerFamilyMember, r):
    """Density of the Monge-Ampere measure of u_a at radius r, C0 = 1/2."""
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0.0) or np.any(r_arr >= 1.0):
        raise ValueError("radius must lie in (0, 1)")
    a, n = member.a, member.n
    out = _MA_DENSITY_C0 * a**n * (a + 1.0) * r_arr ** (2.0 * n * (a - 1.0))
    if np.isscalar(r) or r_arr.ndim == 0:
        return float(out)
    return out


def mixed_density(members: Sequence[PowerFamilyMember], r):
    """Density of the mixed Monge-Ampere measure of n family members at radius r."""
    members = list(members)
    if not members:
        raise ValueError("at least one member required")
    n = members[0].n
    if any(m.n != n for m in members):
        raise ValueError("members must share the same dimension")
    if len(members) != n:
        raise ValueError(f"need exactly n = {n} members, got {len(members)}")
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0.0) or np.any(r_arr >= 1.0):
        raise ValueError("radius must lie in (0, 1)")
    s = r_arr * r_arr
    alphas = []
    betas = []
    for m in members:
        a = m.a
        alphas.append(a * s ** (a - 1.0))
        betas.append(0.5 * a * (a - 1.0) * s ** (a - 2.0))
    prod_all = alphas[0].copy() if hasattr(alphas[0], "copy") else alphas[0]
    for al in alphas[1:]:
        prod_all = prod_all * al
    cross = 0.0
    for i in range(n):
        term = betas[i]
        for j in range(n):
            if j != i:
                term = term * alphas[j]
        cross = cross + term
    out = prod_all + (s / n) * cross
    if np.isscalar(r) or r_arr.ndim == 0:
        return float(out)
    return out
