"""Hyperhermitian matrices and Moore determinants.

Quaternionic matrices are stored as float arrays of shape (n, m, 4), the
last axis holding components over the basis (1, i, j, k).  The Moore
determinant of a hyperhermitian matrix is recovered from the doubled
spectrum of its complex adjoint, which keeps the sign well defined for
indefinite matrices.  Determinants are computed a stack (..., n, n, 4) at
a time: one eigvalsh call for the stack, with the pairing and finiteness
checks made per matrix.  A single matrix is the stack of one, and the
2^n - 1 subset sums of a mixed Moore determinant go in stacks of bounded
size, so a few calls replace one per subset.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Sequence

import numpy as np

from .specfun import _validate_n

__all__ = [
    "HyperhermitianMatrix",
    "PairingError",
    "complex_adjoint",
    "moore_det",
    "mixed_moore_det",
]

_PAIRING_REL_TOL = 1e-8
# doubles of complex adjoint in one eigvalsh call of mixed_moore_det: its 2^n - 1
# subset sums are taken a stack of this size at a time, one call up to n = 5
_STACK_CHUNK = 1 << 14
# residual allowed in A = A*, relative to the largest entry (or to 1 if smaller)
_HYPERHERMITIAN_TOL = 1e-12


class PairingError(RuntimeError):
    """Eigenvalues of the complex adjoint did not occur in coincident pairs."""


def _as_qmat(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 4:
        raise ValueError(f"quaternionic matrix must have shape (n, m, 4), got {arr.shape}")
    return arr


def _conj_transpose(arr: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack (..., n, m, 4)."""
    out = arr.swapaxes(-3, -2).copy()
    out[..., 1:] = -out[..., 1:]
    return out


def quat_conj_transpose(data) -> np.ndarray:
    """Conjugate transpose of a quaternionic matrix array."""
    return _conj_transpose(_as_qmat(data))


def hyperhermitian_residual(data) -> float:
    """Max componentwise deviation of a square quaternionic array from A = A*."""
    arr = _as_qmat(data)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError("residual defined for square matrices only")
    return float(np.max(np.abs(arr - _conj_transpose(arr)))) if arr.size else 0.0


def _first(values: np.ndarray, where: np.ndarray):
    """The entry of values at the first True of where, in C order."""
    return values.flat[int(np.flatnonzero(where)[0])]


def _check_hyperhermitian(arr: np.ndarray) -> None:
    """Raise ValueError unless each matrix of the stack (..., n, n, 4) is finite and hyperhermitian."""
    if not np.all(np.isfinite(arr)):
        raise ValueError("entries must be finite")
    axes = (-3, -2, -1)
    scale = np.maximum(np.max(np.abs(arr), axis=axes), 1.0)
    resid = np.max(np.abs(arr - _conj_transpose(arr)), axis=axes)
    bad = resid > _HYPERHERMITIAN_TOL * scale
    if bad.any():
        raise ValueError(f"matrix is not hyperhermitian (residual {_first(resid, bad):.3e})")


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
            dim = _validate_n(obj["dim"], "dim")
            arr = np.asarray(obj["entries"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed matrix JSON: {exc}") from exc
        if arr.shape != (dim, dim, 4):
            raise ValueError(
                f"entries shape {arr.shape} does not match dim {dim} (expected {(dim, dim, 4)})"
            )
        return cls(arr)

    def __repr__(self) -> str:
        return f"HyperhermitianMatrix(dim={self.dim})"


def _adjoint(arr: np.ndarray) -> np.ndarray:
    """complex_adjoint of each matrix of a stack (..., n, m, 4)."""
    w, x, y, z = np.moveaxis(arr, -1, 0)
    n, m = arr.shape[-3:-1]
    out = np.empty(arr.shape[:-3] + (2 * n, 2 * m), dtype=complex)
    out[..., 0::2, 0::2] = w + 1j * x
    out[..., 0::2, 1::2] = y + 1j * z
    out[..., 1::2, 0::2] = -y + 1j * z
    out[..., 1::2, 1::2] = w - 1j * x
    return out


def complex_adjoint(matrix) -> np.ndarray:
    """2n x 2m complex realization of a quaternionic matrix.

    Each entry w + x i + y j + z k maps to the block
    [[w + x i, y + z i], [-(y - z i), w - x i]]; the map is an algebra
    homomorphism, and hyperhermitian input yields a Hermitian result.
    """
    return _adjoint(matrix.data if isinstance(matrix, HyperhermitianMatrix) else _as_qmat(matrix))


def moore_det(matrix: HyperhermitianMatrix) -> float:
    """Moore determinant via eigenvalue pairing of the complex adjoint.

    The adjoint's spectrum is doubled for hyperhermitian input; after an
    ascending sort, adjacent eigenvalues are paired and the product of one
    representative per pair is returned.  A pair gap above 1e-8 of the
    spectral radius signals non-hyperhermitian input or breakdown.
    """
    if not isinstance(matrix, HyperhermitianMatrix):
        matrix = HyperhermitianMatrix(matrix)
    return float(_moore_det_of(matrix.data))


def _moore_det_of(arr: np.ndarray) -> np.ndarray:
    """moore_det of each matrix of a stack (..., n, n, 4) that has passed the hyperhermitian check.

    One eigvalsh call for the stack; the first matrix, in C order, whose
    pairing or product fails raises.
    """
    lam = np.linalg.eigvalsh(_adjoint(arr))
    rho = np.max(np.abs(lam), axis=-1)
    pairs = lam.reshape(lam.shape[:-1] + (-1, 2))
    worst = np.max(pairs[..., 1] - pairs[..., 0], axis=-1)
    unpaired = worst > _PAIRING_REL_TOL * rho
    if unpaired.any():
        raise PairingError(
            "eigenvalues do not pair within tolerance "
            f"(gap {_first(worst, unpaired):.3e}, radius {_first(rho, unpaired):.3e})"
        )
    with np.errstate(all="ignore"):
        total = pairs[..., 0] + pairs[..., 1]
        # a pair's sum can overflow where its mean does not: halve such pairs before adding
        det = np.prod(np.where(np.isinf(total), (0.5 * pairs).sum(axis=-1), 0.5 * total), axis=-1)
    infinite = ~np.isfinite(det)
    if infinite.any():
        raise ValueError(f"the Moore determinant is not a finite float ({float(_first(det, infinite))!r})")
    return det


def mixed_moore_det(matrices: Sequence[HyperhermitianMatrix]) -> float:
    """Polarized Moore determinant of n hyperhermitian matrices of size n.

    Computed as (1/n!) * sum over nonempty subsets S of (-1)^{n-|S|}
    moore_det(sum of the matrices indexed by S); normalized so that the
    diagonal mixed(A, ..., A) equals moore_det(A).  The alternating sum
    cancels, and it would lose the digits of matrices orders of magnitude
    smaller than the others: each matrix is first divided by 2^k, exactly,
    for k the binary exponent of its largest entry, and the multilinear
    result multiplied back by 2 to the sum of the k.  The subset sums are
    checked and their determinants taken a stack of at most 2^14 doubles of
    complex adjoint at a time: 4 eigvalsh calls at n = 7, not 127.
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
    masks = range(1, 1 << n)
    per_call = max(1, _STACK_CHUNK // (8 * n * n))
    terms = []
    for lo in range(0, len(masks), per_call):
        chunk = masks[lo : lo + per_call]
        sums = np.empty((len(chunk), n, n, 4))
        signs = np.empty(len(chunk))
        for i, mask in enumerate(chunk):
            picks = [j for j in range(n) if (mask >> j) & 1]
            if len(picks) == 1:
                # as is: fsum([-0.0]) would turn a -0.0 entry into 0.0
                sums[i] = scaled[picks[0]]
            else:
                entries = map(math.fsum, map(operator.itemgetter(*picks), columns))
                sums[i] = np.fromiter(entries, float, 4 * n * n).reshape(n, n, 4)
            signs[i] = -1.0 if (n - len(picks)) % 2 else 1.0
        _check_hyperhermitian(sums)
        terms += (signs * _moore_det_of(sums)).tolist()
    mixed, k = math.fsum(terms) / math.factorial(n), sum(exps)
    try:
        return math.ldexp(mixed, k)
    except OverflowError:
        raise ValueError(
            f"the mixed Moore determinant is not a finite float ({mixed!r} * 2**{k})"
        ) from None
