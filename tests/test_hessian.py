import math

import numpy as np
import pytest

from qma.hessian import (
    _UNIT_TABLE,
    HESSIAN_SCALE,
    EvaluationPoint,
    PowerFamilyMember,
    fd_quaternionic_hessian,
    ma_density,
    mixed_density,
    normalization_constants,
    power_hessian_closed,
)
from qma.quatlin import (
    HyperhermitianMatrix,
    hyperhermitian_residual,
    mixed_moore_det,
    moore_det,
    quat_conj_transpose,
)


def ball_point(rng, n, radius):
    d = rng.normal(size=4 * n)
    d *= radius / np.linalg.norm(d)
    return EvaluationPoint.from_coords(d)


def assembled_hessian(member, coords):
    """Closed-form Hessian alpha I + beta Q at an explicit point."""
    n = member.n
    s = float(np.dot(coords, coords))
    alpha, beta_coef = power_hessian_closed(member, s)
    from qma.quatlin import Quaternion

    qs = [Quaternion.from_array(coords[4 * j : 4 * j + 4]) for j in range(n)]
    data = np.zeros((n, n, 4))
    for j in range(n):
        for k in range(n):
            data[j, k] = beta_coef * (qs[j].conj() * qs[k]).as_array()
    for i in range(n):
        data[i, i, 0] += alpha
    return HyperhermitianMatrix(data)


def test_calibration_norm_squared_gives_identity():
    for n in (1, 2, 3):
        rng = np.random.default_rng(n)
        point = ball_point(rng, n, 0.6)
        matrix, resid = fd_quaternionic_hessian(lambda c: float(np.dot(c, c)), point, 1e-2)
        err = np.max(np.abs(matrix.data - HyperhermitianMatrix.identity(n).data))
        assert err <= 1e-8
        assert resid <= 1e-6


def test_affine_function_has_zero_hessian():
    rng = np.random.default_rng(21)
    slope = rng.normal(size=8)
    point = ball_point(rng, 2, 0.5)
    matrix, _ = fd_quaternionic_hessian(lambda c: float(3.0 + slope @ c), point, 1e-3)
    assert np.max(np.abs(matrix.data)) <= 1e-8


def test_one_dim_power_density_example():
    member = PowerFamilyMember(2.0, 1)
    point = EvaluationPoint.from_coords([0.5, 0.0, 0.0, 0.0])
    matrix, _ = fd_quaternionic_hessian(member.as_function(), point)
    assert matrix.dim == 1
    assert abs(moore_det(matrix) - 0.75) <= 1e-6


def test_power_hessian_closed_examples():
    assert power_hessian_closed(PowerFamilyMember(1.0, 2), 0.37) == (1.0, 0.0)
    alpha, beta_coef = power_hessian_closed(PowerFamilyMember(2.0, 2), 0.25)
    assert (alpha, beta_coef) == (0.5, 1.0)
    alpha, beta_coef = power_hessian_closed(PowerFamilyMember(0.5, 2), 0.5)
    assert abs(alpha - 0.5 * 0.5**-0.5) <= 1e-15
    assert abs(beta_coef - (-0.125 * 0.5**-1.5)) <= 1e-15


def test_closed_form_hessian_matches_fd():
    rng = np.random.default_rng(22)
    for a in (0.5, 1.0, 2.0, 3.0):
        for n in (1, 2, 3):
            member = PowerFamilyMember(a, n)
            func = member.as_function()
            for _ in range(4):
                point = ball_point(rng, n, rng.uniform(0.2, 0.9))
                fd_matrix, resid = fd_quaternionic_hessian(func, point)
                closed = assembled_hessian(member, point.coords)
                scale = max(1.0, np.max(np.abs(closed.data)))
                assert np.max(np.abs(fd_matrix.data - closed.data)) <= 1e-5 * scale
                assert resid <= 1e-6


def test_hyperhermitian_residual_small_on_smooth_functions():
    def bumpy(c):
        return float(math.exp(0.3 * c[0]) * math.cos(0.2 * c[1]) + 0.1 * np.sum(c**3))

    rng = np.random.default_rng(23)
    for n in (1, 2):
        for _ in range(3):
            point = ball_point(rng, n, rng.uniform(0.2, 0.9))
            _, resid = fd_quaternionic_hessian(bumpy, point)
            assert resid <= 1e-6


def test_ma_density_values_and_ratio_law():
    for n in (1, 2, 3):
        assert ma_density(PowerFamilyMember(1.0, n), 0.37) == 1.0
    member = PowerFamilyMember(2.0, 2)
    assert abs(ma_density(member, 0.5) - 0.375) <= 1e-15
    a, n = 1.7, 2
    member = PowerFamilyMember(a, n)
    r1, r2 = 0.31, 0.77
    ratio = ma_density(member, r1) / ma_density(member, r2)
    assert abs(ratio - (r1 / r2) ** (2 * n * (a - 1.0))) <= 1e-12 * ratio


def test_fd_density_matches_closed_form():
    rng = np.random.default_rng(24)
    for a in (0.5, 2.0):
        for n in (1, 2):
            member = PowerFamilyMember(a, n)
            func = member.as_function()
            point = ball_point(rng, n, rng.uniform(0.2, 0.9))
            matrix, _ = fd_quaternionic_hessian(func, point)
            fd = moore_det(matrix)
            closed = ma_density(member, point.radius)
            assert abs(fd - closed) / abs(closed) <= 1e-4


def test_mixed_density_reduces_to_ma_density():
    rng = np.random.default_rng(25)
    for a in (0.5, 1.0, 2.5):
        for n in (1, 2, 3):
            member = PowerFamilyMember(a, n)
            for _ in range(5):
                r = float(rng.uniform(0.1, 0.95))
                lhs = mixed_density([member] * n, r)
                rhs = ma_density(member, r)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_mixed_density_examples():
    two = [PowerFamilyMember(1.0, 2), PowerFamilyMember(1.0, 2)]
    assert mixed_density(two, 0.41) == 1.0
    pair = [PowerFamilyMember(2.0, 2), PowerFamilyMember(1.0, 2)]
    assert abs(mixed_density(pair, 0.5) - 0.625) <= 1e-15


def test_mixed_density_matches_mixed_moore_det():
    rng = np.random.default_rng(26)
    for n in (2, 3):
        members = [PowerFamilyMember(a, n) for a in rng.uniform(0.5, 2.5, size=n)]
        point = ball_point(rng, n, rng.uniform(0.3, 0.9))
        mats = [assembled_hessian(m, point.coords) for m in members]
        lhs = mixed_moore_det(mats)
        rhs = mixed_density(members, point.radius)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_normalization_constants():
    nc = normalization_constants(1)
    assert nc.hessian_scale == HESSIAN_SCALE == 0.125
    assert nc.c0 == 0.5
    assert abs(nc.c_energy - math.pi**2 / 2.0) <= 1e-15
    assert abs(normalization_constants(2).c_energy - math.pi**4 / 12.0) <= 1e-14


def test_evaluation_point_invariants():
    point = EvaluationPoint.from_coords([0.3, 0.0, 0.4, 0.0])
    assert abs(point.radius - 0.5) <= 1e-15
    assert point.n == 1
    with pytest.raises(ValueError):
        EvaluationPoint.from_coords([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        EvaluationPoint.from_coords([math.nan, 0.0, 0.0, 0.0])


def test_domain_errors():
    member = PowerFamilyMember(2.0, 1)
    with pytest.raises(ValueError):
        PowerFamilyMember(-1.0, 1)
    with pytest.raises(ValueError):
        PowerFamilyMember(1.0, 0)
    with pytest.raises(ValueError):
        power_hessian_closed(member, 0.0)
    with pytest.raises(ValueError):
        power_hessian_closed(member, 1.5)
    with pytest.raises(ValueError):
        ma_density(member, 1.0)
    with pytest.raises(ValueError):
        mixed_density([member], -0.1)
    with pytest.raises(ValueError):
        mixed_density([PowerFamilyMember(1.0, 2)], 0.5)  # needs 2 members
    point = EvaluationPoint.from_coords([0.5, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        fd_quaternionic_hessian(lambda c: float("nan"), point)
    with pytest.raises(ValueError):
        fd_quaternionic_hessian(lambda c: 0.0, point, h=-1e-4)


def test_power_family_boundary_behaviour():
    member = PowerFamilyMember(1.5, 2)
    rng = np.random.default_rng(27)
    for _ in range(20):
        point = ball_point(rng, 2, rng.uniform(0.05, 0.999))
        assert member.value(point.coords) <= 0.0
    edge = rng.normal(size=8)
    edge /= np.linalg.norm(edge)
    assert abs(member.value(edge)) <= 1e-12


def _reference_stencil(coords, h):
    """The previous release's stencil points, in the order it passed them to u."""
    d = coords.size
    points = [coords]
    for alpha in range(d):
        step_a = np.zeros(d)
        step_a[alpha] = h
        points += [coords + step_a, coords - step_a]
        for beta_idx in range(alpha + 1, d):
            step_b = np.zeros(d)
            step_b[beta_idx] = h
            points += [
                coords + step_a + step_b,
                coords + step_a - step_b,
                coords - step_a + step_b,
                coords - step_a - step_b,
            ]
    return points


def _reference_quaternionic_hessian(u, coords, h):
    """The previous release's central differences, before symmetrization."""
    d = coords.size
    n = d // 4
    it = iter(float(u(x)) for x in _reference_stencil(coords, h))
    u0 = next(it)
    hess = np.empty((d, d))
    for alpha in range(d):
        up, um = next(it), next(it)
        hess[alpha, alpha] = (up - 2.0 * u0 + um) / (h * h)
        for beta_idx in range(alpha + 1, d):
            upp, upm, ump, umm = next(it), next(it), next(it), next(it)
            val = (upp - upm - ump + umm) / (4.0 * h * h)
            hess[alpha, beta_idx] = val
            hess[beta_idx, alpha] = val
    quat = np.empty((n, n, 4))
    for j in range(n):
        for k in range(n):
            block = hess[4 * j : 4 * j + 4, 4 * k : 4 * k + 4]
            quat[j, k] = HESSIAN_SCALE * np.einsum("mlc,ml->c", _UNIT_TABLE, block)
    return quat


def test_fd_stencil_order_and_bits_match_reference():
    rng = np.random.default_rng(28)
    for n in (1, 2, 3):
        point = ball_point(rng, n, rng.uniform(0.2, 0.9))
        u = PowerFamilyMember(rng.uniform(0.25, 4.0), n).as_function()
        seen = []

        def recorded(x):
            seen.append(np.array(x))
            return u(x)

        h = 1e-4 * max(1.0, point.radius)
        matrix, residual = fd_quaternionic_hessian(recorded, point)
        expected = _reference_stencil(point.coords, h)
        assert np.array(seen).tobytes() == np.array(expected).tobytes()
        quat = _reference_quaternionic_hessian(u, point.coords, h)
        assert residual == hyperhermitian_residual(quat)
        symmetrized = 0.5 * (quat + quat_conj_transpose(quat))
        assert matrix.data.tobytes() == symmetrized.tobytes()


def test_fd_error_names_first_bad_stencil_point():
    point = EvaluationPoint.from_coords([0.3, -0.2, 0.1, 0.4, 0.0, 0.2, -0.1, 0.3])
    stencil = _reference_stencil(point.coords, 1e-4)
    u = PowerFamilyMember(1.5, 2).as_function()
    # d = 8: 129 points; 61 is the -+ point of (alpha, beta) = (2, 3), 7 the
    # ++ point of (0, 2), 20 the +- point of (0, 5)
    for bad in ([61, 100], [20, 7], [128, 0]):

        def poisoned(x):
            return math.nan if any(np.array_equal(x, stencil[i]) for i in bad) else u(x)

        with pytest.raises(ValueError) as info:
            fd_quaternionic_hessian(poisoned, point, 1e-4)
        assert str(info.value) == f"non-finite function value at {stencil[min(bad)]!r}"
