"""Hyperhermitian matrices and Moore determinants.

Quaternionic matrices are stored as float arrays of shape (n, m, 4), the
last axis holding components over the basis (1, i, j, k).  A
HyperhermitianMatrix is exactly equal to its conjugate transpose: it keeps
the lower triangle of its input and mirrors it.  The Moore determinant of
such a matrix is the product of its pivots, read off the Cholesky factor
of its complex adjoint if every matrix of the call is definite, and else
recovered from the adjoint's doubled spectrum, which keeps the sign well
defined for indefinite matrices.  Determinants are computed a stack
(..., n, n, 4) at a time: one cholesky or eigvalsh call for the stack, with
the finiteness check made per matrix.  A single matrix is the stack of
one, and the subset sums of a mixed Moore determinant go in stacks of
bounded size, so a few calls replace one per subset.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .specfun import _ArgumentError, _real_array, _require_type, _validate_n

__all__ = ["HyperhermitianMatrix", "moore_det", "mixed_moore_det"]

# doubles of complex adjoint in one cholesky or eigvalsh call of mixed_moore_det:
# its 2^n subset sums are taken a power of two of them at a time, one call up to n = 5
_STACK_CHUNK = 1 << 14
# residual allowed in A = A*, relative to the largest entry (or to 1 if smaller)
_HYPERHERMITIAN_TOL = 1e-12


# times the components of a quaternion: its conjugate; x * -1.0 is -x, signed zeros included
_CONJUGATE = np.array([1.0, -1.0, -1.0, -1.0])


@lru_cache(maxsize=16)
def _triangle_masks(n: int):
    """The lower triangle with the diagonal, (n, n, 1), and the diagonal's i, j and k parts, (n, n, 4)."""
    return np.tril(np.ones((n, n), dtype=bool))[..., None], np.eye(n, dtype=bool)[..., None] & (np.arange(4) > 0)


def _mirrored(arr: np.ndarray) -> tuple[np.ndarray, float]:
    """The read-only exactly hyperhermitian matrix of arr's lower triangle, and max |arr - arr*|.

    arr is (n, n, 4), n >= 1.  Each upper entry is the conjugate of the
    lower one and the diagonal is real: copies and products with +-1, which
    cannot overflow.  The residual is componentwise, with arr* taken once.
    """
    conj = arr.swapaxes(0, 1) * _CONJUGATE
    lower, diagonal_imag = _triangle_masks(arr.shape[0])
    exact = np.where(lower, arr, conj)
    exact[diagonal_imag] = 0.0
    exact.setflags(write=False)
    return exact, float(np.abs(arr - conj).max())


@lru_cache(maxsize=16)
def _even_rows_below(n: int) -> np.ndarray:
    """(n, 2n): row k holds the columns j < 2k of row 2k of a 2n x 2n matrix."""
    return np.arange(2 * n) < 2 * np.arange(n)[:, None]


class HyperhermitianMatrix:
    """Square quaternionic matrix equal to its conjugate transpose.

    The constructor rejects input whose residual from A = A* exceeds 1e-12
    of its largest entry (or of 1 if that is smaller).  It stores the
    exactly hyperhermitian matrix of the input's lower triangle (see
    _mirrored).  Entries are immutable after construction.
    """

    __slots__ = ("_data",)

    def __init__(self, data):
        arr = _real_array("entries", data)
        if arr.ndim != 3 or arr.shape[2] != 4:
            raise _ArgumentError(f"quaternionic matrix must have shape (n, m, 4), got {arr.shape}")
        if arr.shape[0] != arr.shape[1]:
            raise _ArgumentError(f"matrix must be square, got shape {arr.shape[:2]}")
        if arr.shape[0] == 0:
            raise _ArgumentError("dimension 0 rejected")
        if not np.all(np.isfinite(arr)):
            raise _ArgumentError("entries must be finite")
        with np.errstate(over="ignore"):  # a residual past the float range is inf, and refused below
            exact, resid = _mirrored(arr)
        if resid > _HYPERHERMITIAN_TOL * max(float(np.max(np.abs(arr))), 1.0):
            raise _ArgumentError(f"matrix is not hyperhermitian (residual {resid:.3e})")
        self._data = exact

    @classmethod
    def _of_lower(cls, arr: np.ndarray) -> tuple["HyperhermitianMatrix", float]:
        """The matrix of arr's lower triangle, unchecked, and arr's residual: arr is (n, n, 4), n >= 1."""
        matrix = cls.__new__(cls)
        matrix._data, residual = _mirrored(arr)
        return matrix, residual

    @property
    def dim(self) -> int:
        return self._data.shape[0]

    @property
    def data(self) -> np.ndarray:
        return self._data

    @classmethod
    def from_json_dict(cls, obj: dict) -> "HyperhermitianMatrix":
        """The matrix of {"dim": n, "entries": n x n x 4 numbers}; any other payload is a ValueError."""
        if not isinstance(obj, dict):
            raise _ArgumentError(f"matrix JSON must be an object with dim and entries, got {type(obj).__name__}")
        try:
            dim = _validate_n(obj["dim"], "dim")
            entries = np.asarray(obj["entries"], dtype=object)
        except (KeyError, ValueError) as exc:
            raise _ArgumentError(f"malformed matrix JSON: {exc}") from exc
        if entries.shape != (dim, dim, 4):
            raise _ArgumentError(
                f"entries shape {entries.shape} does not match dim {dim} (expected {(dim, dim, 4)})"
            )
        return cls(entries)  # as objects, whose every entry must be a real: not "2", true or null

    def __repr__(self) -> str:
        return f"HyperhermitianMatrix(dim={self.dim})"


def _adjoint(arr: np.ndarray) -> np.ndarray:
    """2n x 2m complex adjoint of each matrix of a stack (..., n, m, 4): an algebra homomorphism.

    Entry w + x i + y j + z k maps to the block [[w + x i, y + z i], [-(y - z i), w - x i]].
    Each block is written in place by the ufunc, on the operands, of the expression
    w + 1j * x and so on, so the signed zeros that eigvalsh sees are those expressions'.
    """
    w, x, y, z = (arr[..., c] for c in range(4))
    n, m = arr.shape[-3:-1]
    out = np.empty(arr.shape[:-3] + (2 * n, 2 * m), dtype=complex)
    ix, iz = 1j * x, 1j * z
    np.add(w, ix, out=out[..., 0::2, 0::2])
    np.add(y, iz, out=out[..., 0::2, 1::2])
    np.add(-y, iz, out=out[..., 1::2, 0::2])
    np.subtract(w, ix, out=out[..., 1::2, 1::2])
    return out


def moore_det(matrix: HyperhermitianMatrix) -> float:
    """Moore determinant: the product of the pivots, or of the adjoint's eigenvalue pair means.

    A definite matrix's complex adjoint has a Cholesky factor L, whose even rows k
    give the pivots d_k = a_kk - sum over j < k of |l_kj|^2, exact for a diagonal
    matrix; any other adjoint's doubled spectrum is paired after an ascending sort.
    A matrix that is not a HyperhermitianMatrix, or a product past the float range,
    is a ValueError.
    """
    _require_type("matrix", matrix, HyperhermitianMatrix)
    return float(_moore_dets([matrix.data])[0])


def _moore_dets(stacks: list[np.ndarray]) -> list[np.ndarray]:
    """moore_det of each matrix of each stack: by pivots if all are definite, else all by eigenvalues.

    The first matrix, in order, whose product is not finite raises.
    """
    try:
        dets = [_pivot_dets(arr) for arr in stacks]
    except np.linalg.LinAlgError:
        dets = [_eigen_dets(arr) for arr in stacks]
    for det in dets:
        finite = np.isfinite(det)
        if not finite.all():
            raise ValueError(f"the Moore determinant is not a finite float ({float(det.flat[np.argmin(finite)])!r})")
    return dets


def _pivot_dets(arr: np.ndarray) -> np.ndarray:
    """Pivot products of a stack, by one cholesky call; a LinAlgError if some pivot fails or is not finite."""
    even = np.linalg.cholesky(_adjoint(arr))[..., 0::2, :]
    with np.errstate(over="ignore"):
        # d_k read back from a_kk, not as l_kk^2: the square of a square root is not exact;
        # each even row is summed at its full length 2n, zeros included, which fixes numpy's order of the sum
        lower = np.where(_even_rows_below(arr.shape[-3]), even.real**2 + even.imag**2, 0.0).sum(axis=-1)
        pivots = arr.diagonal(axis1=-3, axis2=-2)[..., 0, :] - lower
        if not np.isfinite(pivots).all():
            raise np.linalg.LinAlgError("a pivot is not a finite float")
        return pivots.prod(axis=-1)


def _eigen_dets(arr: np.ndarray) -> np.ndarray:
    """Eigenvalue pair products of a stack, by one eigvalsh call, which reads the lower triangle of each adjoint."""
    pairs = np.linalg.eigvalsh(_adjoint(arr)).reshape(arr.shape[:-2] + (2,))
    with np.errstate(all="ignore"):
        total = pairs[..., 0] + pairs[..., 1]
        # a pair's sum can overflow where its mean does not: halve such pairs before adding
        return np.prod(np.where(np.isinf(total), (0.5 * pairs).sum(axis=-1), 0.5 * total), axis=-1)


def mixed_moore_det(matrices: Sequence[HyperhermitianMatrix]) -> float:
    """Polarized Moore determinant of n hyperhermitian matrices of size n.

    Computed as (1/n!) * sum over subsets S of (-1)^{n-|S|} moore_det(sum of
    the matrices in S), normalized so that mixed(A, ..., A) = moore_det(A).
    The alternating sum cancels, and it would lose the digits of matrices
    orders of magnitude smaller than the others: each matrix is first
    divided by 2^k, exactly, for k the binary exponent of its largest entry,
    and the multilinear result multiplied back by 2 to the sum of the k.
    The subset sums are formed by doubling, sums[2^j : 2^(j+1)] =
    sums[:2^j] + scaled[j], over the scaled matrices sorted by their bytes,
    so the result is exactly the same for any order of the arguments.  With
    entries below 1 the sums stay finite, and as -(a + b) = (-a) + (-b) they
    stay exactly hyperhermitian.  They are made a power of two at a time, in
    at most 2^14 doubles of complex adjoint, but for the empty sum (0, and
    not definite): 4 cholesky or eigvalsh calls at n = 7, not 127.
    """
    if not hasattr(matrices, "__iter__"):
        raise _ArgumentError(f"matrices must be a sequence of HyperhermitianMatrix, got {type(matrices).__name__}")
    mats = list(matrices)
    n = len(mats)
    if n == 0:
        raise _ArgumentError("at least one matrix required")
    for m in mats:
        if not isinstance(m, HyperhermitianMatrix):
            raise _ArgumentError(f"arguments must be HyperhermitianMatrix instances, got {type(m).__name__}")
        if m.dim != n:
            raise _ArgumentError(f"need {n} matrices of dimension {n}, got dimension {m.dim}")
    stack = np.stack([m.data for m in mats])
    _, exps = np.frexp(np.abs(stack).max(axis=(1, 2, 3)))
    scaled = sorted(np.ldexp(stack, -exps[:, None, None, None]), key=np.ndarray.tobytes)
    # each stack: the 2^c sums over the first c matrices, made once by doubling from
    # -0.0 (which x + -0.0 leaves as is), plus the later matrices picked by high
    c = min(n, max(1, _STACK_CHUNK // (8 * n * n)).bit_length() - 1)
    low, low_signs = np.full((1, n, n, 4), -0.0), np.array([(-1.0) ** n])
    for s in scaled[:c]:
        low, low_signs = np.concatenate([low, low + s]), np.concatenate([low_signs, -low_signs])
    stacks = []
    for high in range(0, 1 << n, 1 << c):
        sums, signs = low, low_signs
        for j in range(c, n):
            if high >> j & 1:
                sums, signs = sums + scaled[j], -signs
        stacks.append((sums, signs) if high else (sums[1:], signs[1:]))  # without the empty sum
    dets = _moore_dets([sums for sums, _ in stacks])
    terms = [t for (_, signs), det in zip(stacks, dets) for t in (signs * det).tolist()]
    mixed, k = math.fsum(terms) / math.factorial(n), sum(exps.tolist())
    try:
        return math.ldexp(mixed, k)
    except OverflowError:
        raise ValueError(
            f"the mixed Moore determinant is not a finite float ({mixed!r} * 2**{k})"
        ) from None
