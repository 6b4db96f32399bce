"""Quaternion arithmetic, hyperhermitian matrices, and Moore determinants.

Quaternionic matrices are stored as float arrays of shape (n, m, 4), the
last axis holding components over the basis (1, i, j, k).  The Moore
determinant of a hyperhermitian matrix is recovered from the doubled
spectrum of its complex adjoint, which keeps the sign well defined for
indefinite matrices.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Quaternion",
    "HyperhermitianMatrix",
    "PairingError",
    "complex_adjoint",
    "moore_det",
    "mixed_moore_det",
]

_PAIRING_REL_TOL = 1e-8
# residual allowed in A = A*, relative to the largest entry (or to 1 if smaller)
_HYPERHERMITIAN_TOL = 1e-12


class PairingError(RuntimeError):
    """Eigenvalues of the complex adjoint did not occur in coincident pairs."""


@dataclass(frozen=True)
class Quaternion:
    """A quaternion w + x i + y j + z k with real components."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def __abs__(self) -> float:
        return math.sqrt(self.norm_sq())

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(
                self.w * other.w - self.x * other.x - self.y * other.y - self.z * other.z,
                self.w * other.x + self.x * other.w + self.y * other.z - self.z * other.y,
                self.w * other.y - self.x * other.z + self.y * other.w + self.z * other.x,
                self.w * other.z + self.x * other.y - self.y * other.x + self.z * other.w,
            )
        return Quaternion(self.w * other, self.x * other, self.y * other, self.z * other)

    def __rmul__(self, other: float) -> "Quaternion":
        return Quaternion(self.w * other, self.x * other, self.y * other, self.z * other)

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])


def _as_qmat(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 4:
        raise ValueError(f"quaternionic matrix must have shape (n, m, 4), got {arr.shape}")
    return arr


def quat_conj_transpose(data) -> np.ndarray:
    """Conjugate transpose of a quaternionic matrix array."""
    arr = _as_qmat(data)
    out = arr.transpose(1, 0, 2).copy()
    out[..., 1:] = -out[..., 1:]
    return out


def hyperhermitian_residual(data) -> float:
    """Max componentwise deviation of a square quaternionic array from A = A*."""
    arr = _as_qmat(data)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError("residual defined for square matrices only")
    return float(np.max(np.abs(arr - quat_conj_transpose(arr)))) if arr.size else 0.0


def _check_hyperhermitian(arr: np.ndarray) -> None:
    """Raise ValueError unless the square array is finite and hyperhermitian."""
    if not np.all(np.isfinite(arr)):
        raise ValueError("entries must be finite")
    scale = max(float(np.max(np.abs(arr))), 1.0)
    resid = hyperhermitian_residual(arr)
    if resid > _HYPERHERMITIAN_TOL * scale:
        raise ValueError(f"matrix is not hyperhermitian (residual {resid:.3e})")


class HyperhermitianMatrix:
    """Square quaternionic matrix equal to its conjugate transpose.

    Entries are immutable after construction; the constructor rejects
    input whose residual from A = A* exceeds 1e-12 of its largest entry.
    """

    __slots__ = ("_data",)

    def __init__(self, data):
        arr = _as_qmat(data)
        if arr.shape[0] != arr.shape[1]:
            raise ValueError(f"matrix must be square, got shape {arr.shape[:2]}")
        if arr.shape[0] == 0:
            raise ValueError("dimension 0 rejected")
        _check_hyperhermitian(arr)
        arr = arr.copy()
        arr.setflags(write=False)
        self._data = arr

    @property
    def dim(self) -> int:
        return self._data.shape[0]

    @property
    def data(self) -> np.ndarray:
        return self._data

    @classmethod
    def diagonal(cls, values: Iterable[float]) -> "HyperhermitianMatrix":
        vals = list(values)
        arr = np.zeros((len(vals), len(vals), 4))
        for i, v in enumerate(vals):
            arr[i, i, 0] = v
        return cls(arr)

    @classmethod
    def identity(cls, n: int) -> "HyperhermitianMatrix":
        return cls.diagonal([1.0] * n)

    def __add__(self, other: "HyperhermitianMatrix") -> "HyperhermitianMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return HyperhermitianMatrix(self._data + other._data)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "HyperhermitianMatrix":
        try:
            dim = int(obj["dim"])
            entries = obj["entries"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed matrix JSON: {exc}") from exc
        arr = np.asarray(entries, dtype=float)
        if arr.shape != (dim, dim, 4):
            raise ValueError(
                f"entries shape {arr.shape} does not match dim {dim} (expected {(dim, dim, 4)})"
            )
        return cls(arr)

    def __repr__(self) -> str:
        return f"HyperhermitianMatrix(dim={self.dim})"


def complex_adjoint(matrix) -> np.ndarray:
    """2n x 2m complex realization of a quaternionic matrix.

    Each entry w + x i + y j + z k maps to the block
    [[w + x i, y + z i], [-(y - z i), w - x i]]; the map is an algebra
    homomorphism, and hyperhermitian input yields a Hermitian result.
    """
    arr = matrix.data if isinstance(matrix, HyperhermitianMatrix) else _as_qmat(matrix)
    w, x, y, z = (arr[..., c] for c in range(4))
    n, m = arr.shape[:2]
    out = np.empty((2 * n, 2 * m), dtype=complex)
    out[0::2, 0::2] = w + 1j * x
    out[0::2, 1::2] = y + 1j * z
    out[1::2, 0::2] = -y + 1j * z
    out[1::2, 1::2] = w - 1j * x
    return out


def moore_det(matrix: HyperhermitianMatrix) -> float:
    """Moore determinant via eigenvalue pairing of the complex adjoint.

    The adjoint's spectrum is doubled for hyperhermitian input; after an
    ascending sort, adjacent eigenvalues are paired and the product of one
    representative per pair is returned.  A pair gap above 1e-8 of the
    spectral radius signals non-hyperhermitian input or breakdown.
    """
    if not isinstance(matrix, HyperhermitianMatrix):
        matrix = HyperhermitianMatrix(matrix)
    return _moore_det_of(matrix.data)


def _moore_det_of(arr: np.ndarray) -> float:
    """moore_det of an array that has passed the hyperhermitian check."""
    lam = np.linalg.eigvalsh(complex_adjoint(arr))
    rho = float(np.max(np.abs(lam)))
    pairs = lam.reshape(-1, 2)
    worst = float(np.max(pairs[:, 1] - pairs[:, 0]))
    if worst > _PAIRING_REL_TOL * rho:
        raise PairingError(
            f"eigenvalues do not pair within tolerance (gap {worst:.3e}, radius {rho:.3e})"
        )
    with np.errstate(all="ignore"):
        det = float(np.prod(0.5 * (pairs[:, 0] + pairs[:, 1])))
    if not math.isfinite(det):
        raise ValueError(f"the Moore determinant is not a finite float ({det!r})")
    return det


def mixed_moore_det(matrices: Sequence[HyperhermitianMatrix]) -> float:
    """Polarized Moore determinant of n hyperhermitian matrices of size n.

    Computed as (1/n!) * sum over nonempty subsets S of (-1)^{n-|S|}
    moore_det(sum of the matrices indexed by S); normalized so that the
    diagonal mixed(A, ..., A) equals moore_det(A).  The alternating sum
    cancels, and it would lose the digits of matrices orders of magnitude
    smaller than the others: each matrix is first divided by 2^k, exactly,
    for k the binary exponent of its largest entry, and the multilinear
    result multiplied back by 2 to the sum of the k.
    """
    mats = list(matrices)
    n = len(mats)
    if n == 0:
        raise ValueError("at least one matrix required")
    for m in mats:
        if not isinstance(m, HyperhermitianMatrix):
            raise TypeError("arguments must be HyperhermitianMatrix instances")
        if m.dim != n:
            raise ValueError(f"need {n} matrices of dimension {n}, got dimension {m.dim}")
    exps = [math.frexp(float(np.max(np.abs(m.data))))[1] for m in mats]
    scaled = [np.ldexp(m.data, -k) for m, k in zip(mats, exps)]
    # the n values of each entry, so that each subset sum is one fsum per
    # entry: exact, hence independent of summand order
    columns = np.stack(scaled).reshape(n, -1).T.tolist()
    terms = []
    for mask in range(1, 1 << n):
        picks = [i for i in range(n) if (mask >> i) & 1]
        if len(picks) == 1:
            # as is: fsum([-0.0]) would turn a -0.0 entry into 0.0
            ssum = scaled[picks[0]]
        else:
            sums = map(math.fsum, map(operator.itemgetter(*picks), columns))
            ssum = np.fromiter(sums, float, 4 * n * n).reshape(n, n, 4)
        _check_hyperhermitian(ssum)
        sign = -1.0 if (n - len(picks)) % 2 else 1.0
        terms.append(sign * _moore_det_of(ssum))
    mixed, k = math.fsum(terms) / math.factorial(n), sum(exps)
    try:
        return math.ldexp(mixed, k)
    except OverflowError:
        raise ValueError(
            f"the mixed Moore determinant is not a finite float ({mixed!r} * 2**{k})"
        ) from None
