import itertools
import math
import warnings
from decimal import Decimal

import numpy as np
import pytest

from qma import quatlin
from qma.hessian import EvaluationPoint, PowerFamilyMember, fd_quaternionic_hessian
from qma.quatlin import HyperhermitianMatrix, mixed_moore_det, moore_det

from oracles import oracle_mixed_moore_det
from quaternion import Quaternion, complex_adjoint, conj_transpose, diagonal, hyperhermitian_residual


def rand_quaternion(rng):
    return Quaternion(*rng.normal(size=4))


def rand_hyperhermitian(rng, n):
    d = rng.normal(size=(n, n, 4))
    return HyperhermitianMatrix(0.5 * (d + conj_transpose(d)))


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


def test_adjoint_of_a_stack_is_the_reference_fill_word_for_word():
    # signed zeros, subnormals and large entries of both signs: eigvalsh sees the reference's bits
    rng = np.random.default_rng(16)
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 1e200, -1e200, 1.0, -1.0])
    for shape in ((1, 1, 1), (32, 7, 7), (3, 2, 5), (2, 3, 4, 4)):
        for _ in range(20):
            size = math.prod(shape) * 4
            arr = np.where(rng.random(size) < 0.5, rng.choice(pool, size), rng.normal(size=size))
            arr = arr.reshape(shape + (4,))
            expected = np.array([complex_adjoint(m) for m in arr.reshape((-1,) + shape[-2:] + (4,))])
            expected = expected.reshape(shape[:-2] + expected.shape[-2:])
            assert quatlin._adjoint(arr).view(np.int64).tolist() == expected.view(np.int64).tolist()


def test_moore_det_diagonal_exact():
    assert moore_det(HyperhermitianMatrix(diagonal([2.0, 3.0, -1.0]))) == -6.0
    assert moore_det(HyperhermitianMatrix(diagonal([1.0] * 4))) == 1.0


def test_moore_det_averages_a_pair_past_the_float_maximum():
    # each eigenvalue of the complex adjoint comes twice, and the sum of a
    # pair near the float maximum overflowed before it was halved
    for values, expected in (([1e308], 1e308), ([1e308, 1.0], 1e308), ([-1e308], -1e308)):
        assert moore_det(HyperhermitianMatrix(diagonal(values))) == expected
    with pytest.raises(ValueError, match=r"not a finite float \(inf\)"):
        moore_det(HyperhermitianMatrix(diagonal([1e308, 1e308])))
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
        shifted = HyperhermitianMatrix(m.data + diagonal([abs(lam_min) + 1.0] * n))
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


def test_constructor_stores_the_exact_matrix_of_the_lower_triangle():
    data = rand_hyperhermitian(np.random.default_rng(12), 3).data.copy()
    data[0, 2] += [1e-13, -2e-13, 3e-13, 0.0]  # upper, within the tolerance
    data[1, 1, 1:] = [4e-13, 0.0, -5e-13]  # off the real diagonal, within it
    stored = HyperhermitianMatrix(data).data
    assert hyperhermitian_residual(stored) == 0.0
    lower = np.tril_indices(3, -1)
    assert np.array_equal(stored[lower], data[lower])
    assert np.array_equal(stored.diagonal().T, data.diagonal().T * [1.0, 0.0, 0.0, 0.0])
    # a copy with signs flipped: no arithmetic that could overflow
    assert moore_det(HyperhermitianMatrix(diagonal([1e308]))) == 1e308


def test_rejects_malformed_matrices():
    with pytest.raises(ValueError):
        HyperhermitianMatrix(np.zeros((0, 0, 4)))
    bad = np.zeros((2, 2, 4))
    bad[0, 1, 0] = 1.0  # entry (1,0) stays zero; not hyperhermitian
    with pytest.raises(ValueError):
        HyperhermitianMatrix(bad)
    with pytest.raises(ValueError):
        HyperhermitianMatrix(np.zeros((2, 3, 4)))


def test_a_residual_past_the_float_range_is_refused_without_a_warning():
    # (0, 1) and the conjugate of (1, 0) are 1.7e308 apart: their difference overflowed with a RuntimeWarning
    far = diagonal([1.0, 1.0])
    far[0, 1, 0], far[1, 0, 0] = 1.7e308, -1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^matrix is not hyperhermitian \(residual inf\)$"):
            HyperhermitianMatrix(far)


def test_mixed_moore_det_normalization():
    rng = np.random.default_rng(13)
    m = rand_hyperhermitian(rng, 2)
    mixed = mixed_moore_det([m, m])
    det = moore_det(m)
    assert abs(mixed - det) <= 1e-10 * max(1.0, abs(det))
    n = 3
    eye = HyperhermitianMatrix(diagonal([1.0] * n))
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
    assert {mixed_moore_det(list(order)) for order in itertools.permutations(mats)} == {reference}
    for n in (5, 6, 7):
        mats = [HyperhermitianMatrix(rand_hyperhermitian(rng, n).data * 10.0 ** rng.uniform(-3, 3)) for _ in range(n)]
        reference = mixed_moore_det(mats)
        for _ in range(5):
            assert mixed_moore_det([mats[i] for i in rng.permutation(n)]) == reference
    # a zero matrix among them has the exponent 0, and its scaled copy sorts first
    for n in (2, 4):
        mats = [rand_hyperhermitian(rng, n) for _ in range(n - 1)] + [HyperhermitianMatrix(np.zeros((n, n, 4)))]
        reference = mixed_moore_det(mats)
        assert {mixed_moore_det(list(order)) for order in itertools.permutations(mats)} == {reference}


def test_mixed_moore_det_dimension_mismatch():
    rng = np.random.default_rng(16)
    with pytest.raises(ValueError):
        mixed_moore_det([rand_hyperhermitian(rng, 2)])  # one matrix of dim 2
    with pytest.raises(ValueError):
        mixed_moore_det([rand_hyperhermitian(rng, 2), rand_hyperhermitian(rng, 3)])


def test_mixed_moore_det_refuses_other_types_with_a_value_error():
    # a raw array, even a hyperhermitian one, raised TypeError
    matrix = rand_hyperhermitian(np.random.default_rng(17), 2)
    with pytest.raises(ValueError, match="HyperhermitianMatrix instances, got ndarray"):
        mixed_moore_det([matrix, matrix.data])


def test_json_round_trip():
    rng = np.random.default_rng(17)
    m = rand_hyperhermitian(rng, 3)
    again = HyperhermitianMatrix.from_json_dict({"dim": 3, "entries": m.data.tolist()})
    assert np.array_equal(again.data, m.data)
    with pytest.raises(ValueError):
        HyperhermitianMatrix.from_json_dict({"dim": 2, "entries": [[[1, 0, 0, 0]]]})


def _reference_mixed_moore_det(mats):
    """An earlier release's polarization: one fsum per entry and subset, each exactly rounded.

    Each matrix is divided by 2^k for k the binary exponent of its largest
    entry, and the result multiplied by 2 to the sum of the k.  Returns the
    mixed determinant and the sum of its terms' magnitudes, scaled alike:
    the alternating sum cancels, and its rounding error is relative to that.
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
    return tuple(math.ldexp(math.fsum(x) / math.factorial(n), sum(exps)) for x in (terms, map(abs, terms)))


def test_mixed_moore_det_matches_per_entry_reference():
    # subset sums by doubling round where the exact per-entry sums do not.  At
    # n = 7 the two differ by 1.8e-12 of ref, and from a 40-digit value by
    # 1.2e-12 and 5.8e-13: the eigvalsh errors of terms up to ~1e3 times ref
    rng = np.random.default_rng(18)
    for n in range(2, 8):
        mats = [rand_hyperhermitian(rng, n) for _ in range(n)]
        ref, magnitude = _reference_mixed_moore_det(mats)
        assert abs(mixed_moore_det(mats) - ref) <= 1e-14 * magnitude


def test_mixed_moore_det_uses_the_lower_triangles():
    # each residual, 0.95e-12 of a largest entry in [0.5, 1), passes the
    # constructor; their sum, 1.9e-12 of a largest entry of 1.15, once failed
    # a check of each subset sum, and now never arises
    mats, lower = [], []
    for diag in ((0.6, 0.55), (0.55, 0.5)):
        data = diagonal(diag)
        data[0, 1, 0] = data[1, 0, 0] = 0.5
        lower.append(HyperhermitianMatrix(data))
        data[0, 1, 0] += 0.95e-12
        mats.append(HyperhermitianMatrix(data))
    assert mixed_moore_det(mats) == mixed_moore_det(lower)


def test_mixed_moore_det_of_a_small_matrix_with_an_accepted_residual():
    # the j part 5e-13 is within the 1e-12 the constructor allows, and the
    # 2^-k scaling once magnified it to a residual of 1.074e-03 in a subset sum
    data = diagonal([2e-10, 3e-10])
    data[0, 1, :3] = [1e-10, 2e-11, 5e-13]
    data[1, 0, :2] = [1e-10, -2e-11]
    m = HyperhermitianMatrix(data)
    det = moore_det(m)
    assert abs(det - 4.96e-20) <= 1e-12 * 4.96e-20
    assert abs(mixed_moore_det([m, m]) - det) <= 1e-12 * abs(det)


def test_mixed_moore_det_scales_each_matrix():
    # the subset sum diag(1e200 + 1e-200, ...) has a determinant past the
    # float range, the mixed determinant (1e200 1e-200 + 1e200 1e-200) / 2 is 1
    big, small = HyperhermitianMatrix(diagonal([1e200] * 2)), HyperhermitianMatrix(diagonal([1e-200] * 2))
    assert abs(mixed_moore_det([big, small]) - 1.0) <= 1e-14
    # a result past the float range is the Moore determinant's ValueError
    with pytest.raises(ValueError, match="not a finite float"):
        mixed_moore_det([big, big])


def test_moore_det_of_a_stack_is_per_matrix_bit_for_bit():
    # one kernel a call: the pivots if every matrix is definite, else eigenvalues for all
    rng = np.random.default_rng(19)
    for n in range(1, 8):
        draws = [rand_hyperhermitian(rng, n).data * 10.0 ** rng.uniform(-3, 3) for _ in range(20)]
        shifts = [np.abs(np.linalg.eigvalsh(complex_adjoint(d))).max() + 1.0 for d in draws]
        definite = np.stack([d + diagonal([s] * n) for d, s in zip(draws, shifts)])
        # a negative first diagonal entry: indefinite, or at n = 1 negative definite
        indefinite = np.stack([d + diagonal([-s] + [s] * (n - 1)) for d, s in zip(draws, shifts)])
        for stack in (definite, indefinite):
            dets = quatlin._moore_dets([stack])[0]
            assert dets.shape == (20,)
            assert dets.tobytes() == np.array([quatlin._moore_dets([m])[0] for m in stack]).tobytes()
            assert dets.tolist() == [moore_det(HyperhermitianMatrix(m)) for m in stack]
        mixed = np.where(rng.permutation(20)[:, None, None, None] < 10, definite, indefinite)
        dets = quatlin._moore_dets([mixed])[0]
        assert dets.tobytes() == np.array([quatlin._eigen_dets(m) for m in mixed]).tobytes()


def _full_factor_pivot_dets(stack):
    """Pivot products of a definite stack as squared over the whole Cholesky factor, every row."""
    factor = np.linalg.cholesky(np.stack([complex_adjoint(m) for m in stack]))
    lower = np.tril(factor.real**2 + factor.imag**2, -1).sum(axis=-1)[..., 0::2]
    return np.prod(stack.diagonal(axis1=-3, axis2=-2)[..., 0, :] - lower, axis=-1)


def test_moore_det_by_the_even_rows_is_the_full_factor_formula_bit_for_bit():
    rng = np.random.default_rng(25)
    for n in range(1, 9):
        for size in (1, 7, 32):
            draws = [rand_hyperhermitian(rng, n).data * 10.0 ** rng.uniform(-3, 3) for _ in range(size)]
            shifts = [np.abs(np.linalg.eigvalsh(complex_adjoint(d))).max() * rng.uniform(1.0, 2.0) for d in draws]
            stack = np.stack([d + diagonal([s] * n) for d, s in zip(draws, shifts)])
            expected = _full_factor_pivot_dets(stack)
            assert quatlin._moore_dets([stack])[0].tobytes() == expected.tobytes()
            assert [moore_det(HyperhermitianMatrix(m)) for m in stack] == expected.tolist()


def test_moore_det_of_a_stack_names_the_first_failing_matrix():
    big, huge = (diagonal(x) for x in ([1e200] * 2, [1e300, -1e300]))
    with pytest.raises(ValueError, match=r"not a finite float \(-inf\)"):
        quatlin._moore_dets([np.stack([diagonal([1.0, 1.0]), huge, big])])[0]


def test_mixed_moore_det_is_the_same_for_any_stack_size(monkeypatch):
    rng = np.random.default_rng(21)
    cases = [[rand_hyperhermitian(rng, n) for _ in range(n)] for n in range(2, 8)]
    whole = [mixed_moore_det(mats) for mats in cases]
    sizes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: sizes.append(len(a)) or eigvalsh(a))
    mixed_moore_det(cases[-1])
    assert sizes == [31, 32, 32, 32]  # n = 7: 2^7 subsets, 32 <= 2^14 // (8 * 7^2) a call
    for chunk in (1, 200, 1 << 30):  # one subset a call, 1 to 4 by n, all at once
        monkeypatch.setattr(quatlin, "_STACK_CHUNK", chunk)
        assert [mixed_moore_det(mats) for mats in cases] == whole


def test_moore_det_keeps_the_pivots_of_a_graded_diagonal():
    # eigvalsh resolves eigenvalues only to about eps times the largest: both gave 0.0
    for values, expected in (([1e300, 1e-300], 1.0), ([1e308, 1e-300], 1e8)):
        assert abs(moore_det(HyperhermitianMatrix(diagonal(values))) - expected) <= 1e-15 * expected


def test_moore_det_of_an_indefinite_matrix_pairs_eigenvalues(monkeypatch):
    sizes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: sizes.append(a.shape) or eigvalsh(a))
    data = np.zeros((2, 2, 4))
    data[0, 1, 0] = data[1, 0, 0] = 1.0
    assert moore_det(HyperhermitianMatrix(data)) == -1.0
    assert sizes == [(4, 4)]


def _definite_fd_hessians(rng, n):
    """FD Hessians of n members of the power family at one point of the ball, as in the measure workload."""
    coords = rng.normal(size=4 * n)
    point = EvaluationPoint.from_coords(coords * rng.uniform(0.2, 0.9) / np.linalg.norm(coords))
    exps = np.exp(rng.uniform(math.log(0.25), math.log(4.0), size=n))
    return [fd_quaternionic_hessian(PowerFamilyMember(float(a), n).as_function(), point)[0] for a in exps]


def test_mixed_moore_det_of_definite_fd_hessians_against_50_digits(monkeypatch):
    # worst of the 12: 2.2e-14 by the pivots, 2.2e-13 by the eigenvalue kernel
    rng = np.random.default_rng(23)
    cases = [_definite_fd_hessians(rng, n) for n in range(2, 8) for _ in range(2)]
    refs = [oracle_mixed_moore_det([m.data for m in mats]) for mats in cases]

    def worst():
        return max(float(abs(Decimal(mixed_moore_det(mats)) / ref - 1)) for mats, ref in zip(cases, refs))

    def refuse(arr):
        raise np.linalg.LinAlgError("not by the pivots")

    pivots = worst()
    monkeypatch.setattr(quatlin, "_pivot_dets", refuse)  # every call by eigenvalues
    assert pivots <= 1e-13 and pivots <= worst()


def test_mixed_moore_det_takes_one_kernel_a_call(monkeypatch):
    rng = np.random.default_rng(24)
    definite, indefinite = _definite_fd_hessians(rng, 7), [rand_hyperhermitian(rng, 7) for _ in range(7)]
    values = [mixed_moore_det(mats) for mats in (definite, indefinite)]
    calls = {"cholesky": [], "eigvalsh": []}
    for name in calls:
        kernel = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, name=name, kernel=kernel: calls[name].append(len(a)) or kernel(a))
    mixed_moore_det(definite)
    assert calls == {"cholesky": [31, 32, 32, 32], "eigvalsh": []}  # the empty sum is left out
    calls["cholesky"].clear()
    mixed_moore_det(indefinite)  # one failed cholesky call, then eigenvalues for every stack
    assert calls == {"cholesky": [31], "eigvalsh": [31, 32, 32, 32]}
    for chunk in (1, 200, 1 << 30):
        monkeypatch.setattr(quatlin, "_STACK_CHUNK", chunk)
        assert [mixed_moore_det(mats) for mats in (definite, indefinite)] == values


def test_mixed_moore_det_refuses_a_non_iterable_with_a_value_error():
    with pytest.raises(ValueError, match="sequence of HyperhermitianMatrix, got NoneType"):
        mixed_moore_det(None)
