"""Quaternionic Hessians of smooth functions and the Monge-Ampere density of the power family.

The finite-difference path treats a function of 4n real coordinates; the
quaternionic Hessian entry (j, k) applies the conjugated left operator in
the coordinates of q_j to the right operator in the coordinates of q_k,
scaled so the Hessian of |q|^2 is the identity.  Component c of the entry
is a signed sum of four real second differences, one per unit e_m of q_j
paired with the unit e_l of q_k that has conj(e_m) e_l = +-e_c; the
differences are gathered into the (n, n, 4) quaternionic array through a
cached index, and no real 4n x 4n Hessian is formed.  Its lower triangle,
mirrored, is stored without the constructor's tolerance check.  The closed
form is the density of the Monge-Ampere measure of u_a(q) = |q|^{2a} - 1 on
the unit ball.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .quatlin import HyperhermitianMatrix
from .specfun import _ArgumentError, _is_real, _positive_real, _real_array, _require_type, _validate_n

__all__ = [
    "HESSIAN_SCALE",
    "PowerFamilyMember",
    "EvaluationPoint",
    "fd_quaternionic_hessian",
    "ma_density",
]

# 1/8 makes the normalized Hessian of |q|^2 the identity matrix.
HESSIAN_SCALE = 0.125

# past this share of the largest entry, an entry's four terms cancelled below their rounding
_RESIDUAL_LIMIT = 1e-4

_MA_DENSITY_C0 = 0.5


# doubles in one slice of stencil rows handed to u: the whole stencil up to n = 12
_STENCIL_CHUNK = 1 << 18


def _quat_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product of quaternion arrays (..., 4) over the basis (1, i, j, k)."""
    pw, px, py, pz = np.moveaxis(p, -1, 0)
    qw, qx, qy, qz = np.moveaxis(q, -1, 0)
    return np.stack(
        [
            pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw,
        ],
        axis=-1,
    )


# _UNIT_TABLE[m, l] = conj(e_m) e_l for the units e = (1, i, j, k), in integers so no entry is -0.0
_UNITS = np.eye(4, dtype=int)
_UNIT_TABLE = _quat_mul(_UNITS[:, None] * [1, -1, -1, -1], _UNITS[None, :]).astype(float)


@dataclass(frozen=True)
class PowerFamilyMember:
    """One member u_a(q) = |q|^{2a} - 1 of the radial family on the ball in H^n."""

    a: float
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _positive_real("a", self.a))
        object.__setattr__(self, "n", _validate_n(self.n))

    def as_function(self) -> Callable[[np.ndarray], np.ndarray | float]:
        """|q|^{2a} = u_a + 1 on points of 4n coordinates, one per row: k rows in, k values out.

        The constant does not change the quaternionic Hessian, so this is u_a's
        for the FD Hessian, and without it no digit of a small |q|^{2a} is lost
        to the ulps of 1.  A flat array is one point and gives a float.  Each
        value is libm's pow of the row's dot product, the bits of ``math.pow``,
        so it does not depend on the rows it comes with; inf where |q|^{2a}
        overflows a float, with no warning whatever ``np.seterr`` says.  For
        example ``u(np.array([[0.5, 0, 0, 0], [0, 0, 0, 0]]))`` is
        ``array([0.25, 0.0])`` at a = 1, n = 1.
        """
        a = self.a

        def u(coords):
            x = np.asarray(coords, dtype=float)
            # vecdot: per row, the bits of x.dot(x); float_power calls libm's pow per element,
            # where np.power's SIMD loops differ from it in the last bit for some values
            with np.errstate(over="ignore", under="ignore"):
                vals = np.float_power(np.vecdot(x, x), a)
            return float(vals) if x.ndim == 1 else vals

        return u


@dataclass(frozen=True)
class EvaluationPoint:
    """A point of H^n as 4n finite real coordinates, stored as a read-only float copy, and its radius.

    The coordinates meet specfun's real-array rule: numeric strings, bytes,
    bools and complex values are refused, not converted.  The radius is the
    coordinates' norm, taken by scaling with the largest |x| where the sum
    of squares overflows or underflows; inf only past the float range.
    """

    coords: np.ndarray
    radius: float = field(init=False)

    def __post_init__(self) -> None:
        arr = _real_array("coords", self.coords).copy()
        if arr.ndim != 1 or arr.size % 4 != 0 or arr.size == 0:
            raise _ArgumentError(f"coords must be a flat array of 4n reals, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise _ArgumentError("coords must be finite")
        with np.errstate(over="ignore", under="ignore"):
            radius = float(np.linalg.norm(arr))
            # the sum of squares overflowed, or went subnormal with a nonzero coordinate
            if radius == math.inf or (radius < math.sqrt(sys.float_info.min) and arr.any()):
                largest = float(np.max(np.abs(arr)))
                radius = largest * float(np.linalg.norm(arr / largest))  # floats: inf past the range, no warning
        arr.setflags(write=False)  # the radius, and so the default FD step, is computed from these once
        object.__setattr__(self, "coords", arr)
        object.__setattr__(self, "radius", radius)

    @classmethod
    def from_coords(cls, coords) -> "EvaluationPoint":
        return cls(coords)

    @property
    def n(self) -> int:
        return self.coords.size // 4


def _values(u: Callable[[np.ndarray], np.ndarray], rows: np.ndarray) -> np.ndarray:
    """u on the rows, one value each; a non-finite value is a ValueError naming the first such row."""
    vals = np.asarray(u(rows), dtype=float)
    if vals.shape != (len(rows),):
        raise ValueError(f"u must return one value per row: {len(rows)} rows gave shape {vals.shape}")
    finite = np.isfinite(vals)
    if not finite.all():
        raise ValueError(f"non-finite function value at {rows[int(np.argmin(finite))]!r}")
    return vals


@lru_cache(maxsize=16)
def _stencil_layout(d: int) -> tuple[np.ndarray, ...]:
    """Where the FD stencil's rows sit and what they hold, in dimension d.

    The rows, in order: the point, then per alpha +a, -a, and per beta > alpha
    ++, +-, -+, --.  Each row is a copy of coords that then sets two
    entries, at flat positions ``at`` of the (rows, d) array, to entries
    ``source`` of concatenate((coords + h, coords - h, coords)); a
    single-step row sets its entry twice, the point its first to itself.
    The second differences, the d diagonal ones and then the cross ones of
    the pairs alpha < beta in row-major order, are ((t0 - t1) - t2) + t3
    over h^2 where ``cross`` is False and over 4 h^2 where it is True, for
    t = the values at ``terms``, (4, d + pairs), of the rows followed by 2 u0 and
    0: the +a row, 2 u0, 0 and the -a row of each alpha, which gives
    (u+ - 2 u0) + u-, and the ++, +-, -+ and -- rows of each pair.  They are
    read into the quaternionic entries by ``gather``, (4, n, n, 4) at
    [m, j, k, c]: the difference in coordinates (4j + m, 4k + l) for the l
    with conj(e_m) e_l = sign[m, c] e_c.  Returns (terms, cross, at, source,
    gather, sign), cached by d, so the arrays are read-only.
    """
    alpha = np.arange(d)
    counts = 2 + 4 * (d - 1 - alpha)
    start = 1 + np.cumsum(counts) - counts
    pa, pb = np.triu_indices(d, 1)
    first = start[pa] + 2 + 4 * (pb - pa - 1)
    total = 1 + 2 * d * d
    col = np.zeros((2, total), dtype=np.intp)
    step = np.full((2, total), 2)  # 0: + h, 1: - h, 2: none
    col[:, start] = col[:, start + 1] = alpha
    step[:, start], step[:, start + 1] = 0, 1
    quad = first[:, None] + np.arange(4)  # the ++, +-, -+ and -- rows of each pair
    col[0, quad], col[1, quad] = pa[:, None], pb[:, None]
    step[0, quad], step[1, quad] = (0, 0, 1, 1), (0, 1, 0, 1)
    index = np.empty((d, d), dtype=np.intp)
    index[alpha, alpha] = alpha
    index[pa, pb] = index[pb, pa] = d + np.arange(pa.size)
    partner = np.argmax(_UNIT_TABLE != 0.0, axis=1)  # [m, c]: the one l with a nonzero entry
    sign = np.take_along_axis(_UNIT_TABLE, partner[:, None], axis=1)[:, 0, None, None]
    n = d // 4
    m, j, k, c = np.arange(4)[:, None, None, None], np.arange(n)[:, None, None], np.arange(n)[:, None], np.arange(4)
    gather = index.reshape(n, 4, n, 4)[j, m, k, partner[m, c]]
    terms = np.concatenate((np.stack((start, np.full(d, total), np.full(d, total + 1), start + 1)), quad.T), axis=1)
    layout = terms, np.arange(terms.shape[1]) >= d, np.arange(total) * d + col, step * d + col, gather, sign
    for arr in layout:
        arr.setflags(write=False)
    return layout


@lru_cache(maxsize=1)
def _stencil_chunk(key: bytes, h: float, lo: int, chunk: int) -> np.ndarray:
    """Rows lo to lo + chunk of the FD stencil at step h of the point whose coordinates have the bytes key.

    Each row is a copy of the coordinates with the entries of _stencil_layout
    stepped.  The rows are read-only, so the FD Hessians at one point and
    step share them: the n Hessians of a mixed Moore determinant make one
    stencil up to n = 12, where it is one chunk of at most 2^18 doubles.  A
    stencil of more chunks evicts its own, so at most one chunk is held.
    """
    coords = np.frombuffer(key)
    d = coords.size
    _, _, at, source, _, _ = _stencil_layout(d)
    hi = min(lo + chunk, at.shape[1])
    rows = np.empty((hi - lo, d))
    rows[:] = coords
    rows.reshape(-1)[at[:, lo:hi] - lo * d] = np.concatenate((coords + h, coords - h, coords))[source[:, lo:hi]]
    rows.setflags(write=False)
    return rows


def _check_step(h) -> float:
    """h as a float once it is a positive real and h * h, the FD denominator, is a normal float.

    A bool, a string or an array is refused with the same message.
    """
    if not (_is_real(h) and h > 0.0 and sys.float_info.min <= h * h <= sys.float_info.max):
        raise _ArgumentError(f"step h must be positive with h * h a normal float, got {h!r}")
    return float(h)


def fd_quaternionic_hessian(
    u: Callable[[np.ndarray], np.ndarray],
    point: EvaluationPoint,
    h: float | None = None,
) -> tuple[HyperhermitianMatrix, float]:
    """Finite-difference quaternionic Hessian at ``point``.

    Second partials use central differences (4-point cross stencils for the
    mixed ones).  Entries (j, k) and (k, j) sum the same differences in two
    orders; returns the computed lower triangle, mirrored, and the residual
    max |A - A*|, the gap between those sums.  A non-finite entry, or a
    residual above 1e-4 of the largest entry (or of 1), is a plain ValueError.
    The default step is 1e-4 max(1, radius), refused past a radius of ~1e158.

    u is vectorized: it takes a (k, 4n) float array of points, one per row,
    and returns their k values.  It is called on consecutive slices of the
    1 + 2 (4n)^2 stencil rows, each of at most 2^18 doubles, so once per
    Hessian up to n = 12.  The slices are read-only, and the last one is
    kept for the next Hessian at the same point and step, so u must not
    write into its argument: numpy refuses that with a ValueError.  A point
    of another type, a reply of another shape or a non-finite value is a
    ValueError, as is a u that is not callable; the last names the first
    such row.
    """
    if not callable(u):
        raise _ArgumentError(f"u must be callable, got {type(u).__name__}")
    _require_type("point", point, EvaluationPoint)
    coords = point.coords
    d = coords.size
    if h is None:
        h = 1e-4 * max(1.0, point.radius)
        if h * h > sys.float_info.max:
            raise _ArgumentError(f"no default step at radius {point.radius!r}: its square is past the float range")
    h = _check_step(h)

    terms, cross, at, _, gather, sign = _stencil_layout(d)
    total = at.shape[1]
    chunk = max(1, _STENCIL_CHUNK // d)
    key = coords.tobytes()
    vals = np.empty(total + 2)
    # a step that leaves the domain of u may overflow; the entries are checked below
    with np.errstate(all="ignore"):
        for lo in range(0, total, chunk):
            vals[lo : min(lo + chunk, total)] = _values(u, _stencil_chunk(key, h, lo, chunk))
        vals[total] = 2.0 * vals[0]
        vals[total + 1] = 0.0
        t0, t1, t2, t3 = vals[terms]
        # x - 0.0 is x, signed zeros included: a diagonal difference is (u+ - 2 u0) + u-
        second = (((t0 - t1) - t2) + t3) / np.where(cross, 4.0 * h * h, h * h)
        # summed over m in order from +0.0, as einsum over the unit table sums, so an entry is never -0.0
        quat = HESSIAN_SCALE * np.add.reduce(second[gather] * sign, axis=0, initial=0.0)
        matrix, residual = HyperhermitianMatrix._of_lower(quat)

    # checked first: an infinite entry can pass the residual check, as inf <= 1e-4 * inf;
    # a nan entry makes the maximum nan
    largest = float(np.abs(quat).max())
    if not largest < math.inf:
        raise ValueError("the FD Hessian has a non-finite entry")
    if not residual <= _RESIDUAL_LIMIT * max(largest, 1.0):
        raise ValueError(
            f"hyperhermitian residual {residual:.3e} exceeds {_RESIDUAL_LIMIT:.0e}: "
            "the four terms of an entry cancel below their rounding"
        )
    return matrix, residual


def ma_density(member: PowerFamilyMember, r):
    """Density of the Monge-Ampere measure of u_a at radius r, C0 = 1/2; finite or a ValueError.

    r is a real or an array that meets specfun's real-array rule; a string, a
    bool, a list or a bool array is refused.
    """
    _require_type("member", member, PowerFamilyMember)
    r_arr = _real_array("radius", r) if isinstance(r, np.ndarray) else np.asarray(_positive_real("radius", r))
    if not ((r_arr > 0.0) & (r_arr < 1.0)).all():
        raise _ArgumentError("radius must lie in (0, 1)")
    a, n = member.a, member.n
    try:
        coefficient = _MA_DENSITY_C0 * a**n * (a + 1.0)
    except OverflowError:  # raised, not returned as inf, by the float power a**n
        coefficient = math.inf
    with np.errstate(all="ignore"):
        out = coefficient * r_arr ** (2.0 * n * (a - 1.0))
    if not np.isfinite(out).all():
        raise ValueError(f"the MA density of u_a at a = {a!r}, n = {n} is not a finite float")
    return float(out) if out.ndim == 0 else out

