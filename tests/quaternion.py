"""A scalar quaternion for building test matrices and checking the array code against."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(
            self.w * other.w - self.x * other.x - self.y * other.y - self.z * other.z,
            self.w * other.x + self.x * other.w + self.y * other.z - self.z * other.y,
            self.w * other.y - self.x * other.z + self.y * other.w + self.z * other.x,
            self.w * other.z + self.x * other.y - self.y * other.x + self.z * other.w,
        )

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])


def conj_transpose(data) -> np.ndarray:
    """Conjugate transpose of a quaternionic array (n, m, 4)."""
    out = np.asarray(data, dtype=float).swapaxes(0, 1).copy()
    out[..., 1:] = -out[..., 1:]
    return out


def hyperhermitian_residual(data) -> float:
    """Max componentwise |A - A*| of a non-empty square quaternionic array A."""
    return float(np.max(np.abs(data - conj_transpose(data))))


def complex_adjoint(matrix) -> np.ndarray:
    """2n x 2m complex realization of a quaternionic matrix (an array (n, m, 4) or a HyperhermitianMatrix).

    Each entry w + x i + y j + z k maps to the block
    [[w + x i, y + z i], [-(y - z i), w - x i]]; the map is an algebra
    homomorphism, and hyperhermitian input yields a Hermitian result.  The
    expressions are those of qma.quatlin, signed zeros included, so that
    eigvalsh sees the same bits.
    """
    w, x, y, z = np.moveaxis(np.asarray(getattr(matrix, "data", matrix), dtype=float), -1, 0)
    n, m = w.shape
    out = np.empty((2 * n, 2 * m), dtype=complex)
    out[0::2, 0::2] = w + 1j * x
    out[0::2, 1::2] = y + 1j * z
    out[1::2, 0::2] = -y + 1j * z
    out[1::2, 1::2] = w - 1j * x
    return out


def diagonal(values) -> np.ndarray:
    """The (n, n, 4) array of the real diagonal matrix with the given diagonal."""
    vals = np.asarray(values, dtype=float)
    arr = np.zeros((vals.size, vals.size, 4))
    arr[..., 0] = np.diag(vals)
    return arr
