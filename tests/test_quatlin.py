import math

import numpy as np
import pytest

from qma import quatlin
from qma.quatlin import (
    HyperhermitianMatrix,
    PairingError,
    complex_adjoint,
    mixed_moore_det,
    moore_det,
    quat_conj_transpose,
)

from quaternion import Quaternion


def rand_quaternion(rng):
    return Quaternion(*rng.normal(size=4))


def rand_hyperhermitian(rng, n):
    d = rng.normal(size=(n, n, 4))
    return HyperhermitianMatrix(0.5 * (d + quat_conj_transpose(d)))


def rank_one_matrix(alpha, beta_coef, qs):
    n = len(qs)
    data = np.zeros((n, n, 4))
    for j in range(n):
        for k in range(n):
            data[j, k] = (qs[j].conj() * qs[k]).as_array()
    data *= beta_coef
    for i in range(n):
        data[i, i, 0] += alpha
    return HyperhermitianMatrix(data)


def test_quaternion_algebra_invariants():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p, q, r = (rand_quaternion(rng) for _ in range(3))
        prod = q * q.conj()
        assert abs(prod.w - q.norm_sq()) <= 1e-12 * max(1.0, q.norm_sq())
        assert abs(prod.x) + abs(prod.y) + abs(prod.z) <= 1e-12
        left = (p * q) * r
        right = p * (q * r)
        assert max(abs(left.w - right.w), abs(left.x - right.x),
                   abs(left.y - right.y), abs(left.z - right.z)) <= 1e-12 * max(1.0, abs(left))


def test_complex_adjoint_scalar_blocks():
    t = 2.75
    adj = complex_adjoint(np.array([[[t, 0.0, 0.0, 0.0]]]))
    assert np.allclose(adj, np.diag([t, t]), atol=0.0)
    adj_i = complex_adjoint(np.array([[[0.0, 1.0, 0.0, 0.0]]]))
    assert np.allclose(adj_i, np.array([[1j, 0.0], [0.0, -1j]]), atol=0.0)


def quat_matmul(a, b):
    """Product of two quaternionic matrix arrays, entry by entry with Quaternion.__mul__."""
    out = np.zeros((a.shape[0], b.shape[1], 4))
    for j in range(a.shape[0]):
        for k in range(b.shape[1]):
            acc = Quaternion()
            for m in range(a.shape[1]):
                acc = acc + Quaternion(*a[j, m]) * Quaternion(*b[m, k])
            out[j, k] = acc.as_array()
    return out


def test_complex_adjoint_multiplicative():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.normal(size=(3, 3, 4))
        b = rng.normal(size=(3, 3, 4))
        lhs = complex_adjoint(quat_matmul(a, b))
        rhs = complex_adjoint(a) @ complex_adjoint(b)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_complex_adjoint_hermitian_for_hyperhermitian():
    rng = np.random.default_rng(4)
    m = rand_hyperhermitian(rng, 4)
    adj = complex_adjoint(m)
    assert np.max(np.abs(adj - adj.conj().T)) <= 1e-12


def test_moore_det_diagonal_exact():
    assert moore_det(HyperhermitianMatrix.diagonal([2.0, 3.0, -1.0])) == -6.0
    assert moore_det(HyperhermitianMatrix.identity(4)) == 1.0


def test_moore_det_averages_a_pair_past_the_float_maximum():
    # each eigenvalue of the complex adjoint comes twice, and the sum of a
    # pair near the float maximum overflowed before it was halved
    for values, expected in (([1e308], 1e308), ([1e308, 1.0], 1e308), ([-1e308], -1e308)):
        assert moore_det(HyperhermitianMatrix.diagonal(values)) == expected
    with pytest.raises(ValueError, match=r"not a finite float \(inf\)"):
        moore_det(HyperhermitianMatrix.diagonal([1e308, 1e308]))
    # where the sum is finite, the mean keeps the bits of (x + y) / 2
    rng = np.random.default_rng(21)
    for n in range(1, 6):
        data = rand_hyperhermitian(rng, n).data * 10.0 ** rng.uniform(-30, 30)
        pairs = np.linalg.eigvalsh(complex_adjoint(data)).reshape(-1, 2)
        assert moore_det(HyperhermitianMatrix(data)) == float(np.prod(0.5 * (pairs[:, 0] + pairs[:, 1])))


def test_moore_det_two_by_two():
    data = np.zeros((2, 2, 4))
    data[0, 0, 0] = 2.0
    data[1, 1, 0] = 3.0
    data[0, 1] = [1.0, 1.0, 0.0, 0.0]
    data[1, 0] = [1.0, -1.0, 0.0, 0.0]
    m = HyperhermitianMatrix(data)
    det = moore_det(m)
    assert abs(det - 4.0) <= 1e-12
    adj_det = np.linalg.det(complex_adjoint(m)).real
    assert abs(det * det - adj_det) <= 1e-10 * abs(adj_det)


def test_moore_det_rank_one_formula():
    rng = np.random.default_rng(6)
    for n in (1, 2, 3, 4):
        qs = [rand_quaternion(rng) for _ in range(n)]
        alpha, beta_coef = 0.8, -0.35
        m = rank_one_matrix(alpha, beta_coef, qs)
        norm_sq = sum(q.norm_sq() for q in qs)
        expected = alpha ** (n - 1) * (alpha + beta_coef * norm_sq)
        assert abs(moore_det(m) - expected) <= 1e-10 * max(1.0, abs(expected))


def test_moore_det_scaling():
    rng = np.random.default_rng(8)
    for n in (2, 3):
        m = rand_hyperhermitian(rng, n)
        c = 1.7
        lhs = moore_det(HyperhermitianMatrix(m.data * c))
        rhs = c**n * moore_det(m)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_moore_det_positive_definite():
    rng = np.random.default_rng(9)
    for n in (2, 3, 4):
        m = rand_hyperhermitian(rng, n)
        lam_min = float(np.linalg.eigvalsh(complex_adjoint(m)).min())
        shifted = m + HyperhermitianMatrix.diagonal([abs(lam_min) + 1.0] * n)
        assert np.linalg.eigvalsh(complex_adjoint(shifted)).min() > 0.0
        assert moore_det(shifted) > 0.0


def test_moore_det_square_identity():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        m = rand_hyperhermitian(rng, n)
        det = moore_det(m)
        adj_det = np.linalg.det(complex_adjoint(m)).real
        assert abs(det * det - adj_det) <= 1e-10 * max(1e-30, abs(adj_det))


def test_pairing_failure_on_forced_bad_input():
    rng = np.random.default_rng(12)
    data = rng.normal(size=(3, 3, 4))  # generic, nowhere near hyperhermitian
    with pytest.raises(PairingError):
        quatlin._moore_det_of(data)


def test_rejects_malformed_matrices():
    with pytest.raises(ValueError):
        HyperhermitianMatrix(np.zeros((0, 0, 4)))
    bad = np.zeros((2, 2, 4))
    bad[0, 1, 0] = 1.0  # entry (1,0) stays zero; not hyperhermitian
    with pytest.raises(ValueError):
        HyperhermitianMatrix(bad)
    with pytest.raises(ValueError):
        HyperhermitianMatrix(np.zeros((2, 3, 4)))


def test_mixed_moore_det_normalization():
    rng = np.random.default_rng(13)
    m = rand_hyperhermitian(rng, 2)
    mixed = mixed_moore_det([m, m])
    det = moore_det(m)
    assert abs(mixed - det) <= 1e-10 * max(1.0, abs(det))
    n = 3
    eye = HyperhermitianMatrix.identity(n)
    assert abs(mixed_moore_det([eye] * n) - 1.0) <= 1e-12


def test_mixed_moore_det_polarization_oracle():
    rng = np.random.default_rng(14)
    for n in (2, 3, 4):
        qs = [rand_quaternion(rng) for _ in range(n)]
        alphas = list(rng.uniform(0.5, 1.5, size=n))
        betas = list(rng.uniform(-0.4, 0.4, size=n))
        mats = [rank_one_matrix(a, b, qs) for a, b in zip(alphas, betas)]
        norm_sq = sum(q.norm_sq() for q in qs)
        expected = math.prod(alphas) + (norm_sq / n) * sum(
            betas[i] * math.prod(alphas[j] for j in range(n) if j != i) for i in range(n)
        )
        assert abs(mixed_moore_det(mats) - expected) <= 1e-10 * max(1.0, abs(expected))


def test_mixed_moore_det_permutation_invariant_exactly():
    rng = np.random.default_rng(15)
    mats = [rand_hyperhermitian(rng, 3) for _ in range(3)]
    reference = mixed_moore_det(mats)
    assert mixed_moore_det([mats[2], mats[0], mats[1]]) == reference
    assert mixed_moore_det([mats[1], mats[2], mats[0]]) == reference


def test_mixed_moore_det_dimension_mismatch():
    rng = np.random.default_rng(16)
    with pytest.raises(ValueError):
        mixed_moore_det([rand_hyperhermitian(rng, 2)])  # one matrix of dim 2
    with pytest.raises(ValueError):
        mixed_moore_det([rand_hyperhermitian(rng, 2), rand_hyperhermitian(rng, 3)])


def test_json_round_trip():
    rng = np.random.default_rng(17)
    m = rand_hyperhermitian(rng, 3)
    again = HyperhermitianMatrix.from_json_dict({"dim": 3, "entries": m.data.tolist()})
    assert np.array_equal(again.data, m.data)
    with pytest.raises(ValueError):
        HyperhermitianMatrix.from_json_dict({"dim": 2, "entries": [[[1, 0, 0, 0]]]})


def _reference_mixed_moore_det(mats):
    """The previous release's polarization: one fsum per entry and subset.

    Each matrix is divided by 2^k for k the binary exponent of its largest
    entry, and the result multiplied by 2 to the sum of the k.
    """
    n = len(mats)
    exps = [math.frexp(np.max(np.abs(m.data)))[1] for m in mats]
    datas = [m.data / 2.0**k for m, k in zip(mats, exps)]
    terms = []
    for mask in range(1, 1 << n):
        idxs = [i for i in range(n) if (mask >> i) & 1]
        if len(idxs) == 1:
            ssum = datas[idxs[0]].copy()
        else:
            stack = np.stack([datas[i] for i in idxs]).reshape(len(idxs), -1)
            ssum = np.array([math.fsum(stack[:, k]) for k in range(stack.shape[1])])
            ssum = ssum.reshape(mats[0].data.shape)
        sign = -1.0 if (n - len(idxs)) % 2 else 1.0
        terms.append(sign * moore_det(HyperhermitianMatrix(ssum)))
    return math.ldexp(math.fsum(terms) / math.factorial(n), sum(exps))


def test_mixed_moore_det_matches_per_entry_reference():
    rng = np.random.default_rng(18)
    for n in range(2, 7):
        mats = [rand_hyperhermitian(rng, n) for _ in range(n)]
        assert mixed_moore_det(mats) == _reference_mixed_moore_det(mats)
    # a -0.0 entry, which a one-term fsum would turn into 0.0
    data = rand_hyperhermitian(rng, 3).data.copy()
    data[1, 1, 1:] = -0.0
    mats = [HyperhermitianMatrix(data)] + [rand_hyperhermitian(rng, 3) for _ in range(2)]
    assert math.copysign(1.0, mats[0].data[1, 1, 1]) == -1.0
    assert mixed_moore_det(mats) == _reference_mixed_moore_det(mats)


def test_mixed_moore_det_checks_each_subset_sum():
    # each residual, 0.95e-12 of a largest entry in [0.5, 1), passes; their
    # sum, 1.9e-12 of a largest entry of 1.15, does not
    mats = []
    for diag in ((0.6, 0.55), (0.55, 0.5)):
        data = HyperhermitianMatrix.diagonal(diag).data.copy()
        data[0, 1, 0] = data[1, 0, 0] = 0.5
        data[0, 1, 0] += 0.95e-12
        mats.append(HyperhermitianMatrix(data))
    with pytest.raises(ValueError, match="not hyperhermitian"):
        mixed_moore_det(mats)


def test_mixed_moore_det_scales_each_matrix():
    # the subset sum diag(1e200 + 1e-200, ...) has a determinant past the
    # float range, the mixed determinant (1e200 1e-200 + 1e200 1e-200) / 2 is 1
    big, small = HyperhermitianMatrix.diagonal([1e200] * 2), HyperhermitianMatrix.diagonal([1e-200] * 2)
    assert abs(mixed_moore_det([big, small]) - 1.0) <= 1e-14
    # a result past the float range is the Moore determinant's ValueError
    with pytest.raises(ValueError, match="not a finite float"):
        mixed_moore_det([big, big])


def test_moore_det_of_a_stack_is_per_matrix_bit_for_bit():
    rng = np.random.default_rng(19)
    for n in range(1, 8):
        stack = np.stack([rand_hyperhermitian(rng, n).data * 10.0 ** rng.uniform(-3, 3) for _ in range(20)])
        dets = quatlin._moore_det_of(stack)
        assert dets.shape == (20,)
        assert dets.tobytes() == np.array([quatlin._moore_det_of(m) for m in stack]).tobytes()
        assert dets.tolist() == [moore_det(HyperhermitianMatrix(m)) for m in stack]


def test_moore_det_of_a_stack_names_the_first_failing_matrix():
    rng = np.random.default_rng(20)
    good = rand_hyperhermitian(rng, 3).data
    bad = [rng.normal(size=(3, 3, 4)) for _ in range(2)]  # nowhere near hyperhermitian
    with pytest.raises(PairingError) as first:
        quatlin._moore_det_of(bad[0])
    with pytest.raises(PairingError) as info:
        quatlin._moore_det_of(np.stack([good, bad[0], good, bad[1]]))
    assert str(info.value) == str(first.value)
    big, huge = (HyperhermitianMatrix.diagonal(x).data for x in ([1e200] * 2, [1e300, -1e300]))
    with pytest.raises(ValueError, match=r"not a finite float \(-inf\)"):
        quatlin._moore_det_of(np.stack([HyperhermitianMatrix.identity(2).data, huge, big]))


def test_mixed_moore_det_is_the_same_for_any_stack_size(monkeypatch):
    rng = np.random.default_rng(21)
    cases = [[rand_hyperhermitian(rng, n) for _ in range(n)] for n in range(2, 8)]
    whole = [mixed_moore_det(mats) for mats in cases]
    sizes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: sizes.append(len(a)) or eigvalsh(a))
    mixed_moore_det(cases[-1])
    assert sizes == [41, 41, 41, 4]  # n = 7: 127 subsets, 2^14 // (8 * 7^2) a call
    for chunk in (1, 200, 1 << 30):  # one subset a call, 1 to 25 by n, all at once
        monkeypatch.setattr(quatlin, "_STACK_CHUNK", chunk)
        assert [mixed_moore_det(mats) for mats in cases] == whole
