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
    "quat_matmul",
    "moore_det",
    "mixed_moore_det",
]

_PAIRING_REL_TOL = 1e-8


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

    @classmethod
    def from_array(cls, arr) -> "Quaternion":
        w, x, y, z = (float(v) for v in arr)
        return cls(w, x, y, z)


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


def quat_matmul(lhs, rhs) -> np.ndarray:
    """Product of two quaternionic matrix arrays."""
    a = _as_qmat(lhs)
    b = _as_qmat(rhs)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    aw, ax, ay, az = (a[..., c] for c in range(4))
    bw, bx, by, bz = (b[..., c] for c in range(4))
    out = np.empty((a.shape[0], b.shape[1], 4))
    out[..., 0] = aw @ bw - ax @ bx - ay @ by - az @ bz
    out[..., 1] = aw @ bx + ax @ bw + ay @ bz - az @ by
    out[..., 2] = aw @ by - ax @ bz + ay @ bw + az @ bx
    out[..., 3] = aw @ bz + ax @ by - ay @ bx + az @ bw
    return out


def hyperhermitian_residual(data) -> float:
    """Max componentwise deviation of a square quaternionic array from A = A*."""
    arr = _as_qmat(data)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError("residual defined for square matrices only")
    return float(np.max(np.abs(arr - quat_conj_transpose(arr)))) if arr.size else 0.0


def _check_hyperhermitian(arr: np.ndarray, tol: float) -> None:
    """Raise ValueError unless the square array is finite and hyperhermitian within tol."""
    if not np.all(np.isfinite(arr)):
        raise ValueError("entries must be finite")
    scale = max(float(np.max(np.abs(arr))), 1.0)
    resid = hyperhermitian_residual(arr)
    if resid > tol * scale:
        raise ValueError(f"matrix is not hyperhermitian (residual {resid:.3e})")


class HyperhermitianMatrix:
    """Square quaternionic matrix equal to its conjugate transpose.

    Entries are immutable after construction; the constructor rejects
    input violating hyperhermitian structure beyond ``tol``.
    """

    __slots__ = ("_data",)

    DEFAULT_TOL = 1e-12

    def __init__(self, data, *, tol: float = DEFAULT_TOL):
        arr = _as_qmat(data)
        if arr.shape[0] != arr.shape[1]:
            raise ValueError(f"matrix must be square, got shape {arr.shape[:2]}")
        if arr.shape[0] == 0:
            raise ValueError("dimension 0 rejected")
        _check_hyperhermitian(arr, tol)
        arr = arr.copy()
        arr.setflags(write=False)
        self._data = arr

    @property
    def dim(self) -> int:
        return self._data.shape[0]

    @property
    def data(self) -> np.ndarray:
        return self._data

    def entry(self, j: int, k: int) -> Quaternion:
        return Quaternion.from_array(self._data[j, k])

    @classmethod
    def from_quaternions(cls, rows: Sequence[Sequence[Quaternion]]) -> "HyperhermitianMatrix":
        arr = np.array([[q.as_array() for q in row] for row in rows])
        return cls(arr)

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

    def scaled(self, c: float) -> "HyperhermitianMatrix":
        return HyperhermitianMatrix(self._data * float(c))

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "entries": self._data.tolist()}

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
    reps = 0.5 * (pairs[:, 0] + pairs[:, 1])
    return float(np.prod(reps))


def mixed_moore_det(matrices: Sequence[HyperhermitianMatrix]) -> float:
    """Polarized Moore determinant of n hyperhermitian matrices of size n.

    Computed as (1/n!) * sum over nonempty subsets S of (-1)^{n-|S|}
    moore_det(sum of the matrices indexed by S); normalized so that the
    diagonal mixed(A, ..., A) equals moore_det(A).
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
    # the n values of each entry, so that each subset sum is one fsum per
    # entry: exact, hence independent of summand order
    columns = np.stack([m.data for m in mats]).reshape(n, -1).T.tolist()
    terms = []
    for mask in range(1, 1 << n):
        picks = [i for i in range(n) if (mask >> i) & 1]
        if len(picks) == 1:
            # as is: fsum([-0.0]) would turn a -0.0 entry into 0.0
            ssum = mats[picks[0]].data
        else:
            sums = map(math.fsum, map(operator.itemgetter(*picks), columns))
            ssum = np.fromiter(sums, float, 4 * n * n).reshape(n, n, 4)
        _check_hyperhermitian(ssum, HyperhermitianMatrix.DEFAULT_TOL)
        sign = -1.0 if (n - len(picks)) % 2 else 1.0
        terms.append(sign * _moore_det_of(ssum))
    return math.fsum(terms) / math.factorial(n)
