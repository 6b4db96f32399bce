import math
import re
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qma import hessian
from qma.hessian import (
    _UNIT_TABLE,
    HESSIAN_SCALE,
    EvaluationPoint,
    PowerFamilyMember,
    fd_quaternionic_hessian,
    ma_density,
)
from qma.quatlin import HyperhermitianMatrix, mixed_moore_det, moore_det
from qma.specfun import _ArgumentError

from oracles import oracle_mixed_density
from quaternion import Quaternion, conj_transpose, diagonal, hyperhermitian_residual


def ball_point(rng, n, radius):
    d = rng.normal(size=4 * n)
    d *= radius / np.linalg.norm(d)
    return EvaluationPoint.from_coords(d)


def closed_coefficients(a, s):
    """(alpha, beta) of the Hessian alpha I + beta Q of u_a at s = |q|^2, Q_jk = conj(q_j) q_k."""
    return a * s ** (a - 1.0), 0.5 * a * (a - 1.0) * s ** (a - 2.0)


def assembled_hessian(member, coords):
    """Closed-form Hessian alpha I + beta Q at an explicit point."""
    n = member.n
    s = float(np.dot(coords, coords))
    alpha, beta_coef = closed_coefficients(member.a, s)
    qs = [Quaternion(*coords[4 * j : 4 * j + 4]) for j in range(n)]
    data = np.zeros((n, n, 4))
    for j in range(n):
        for k in range(n):
            data[j, k] = beta_coef * (qs[j].conj() * qs[k]).as_array()
    for i in range(n):
        data[i, i, 0] += alpha
    return HyperhermitianMatrix(data)


def test_calibration_norm_squared_gives_identity():
    assert HESSIAN_SCALE == 0.125
    for n in (1, 2, 3):
        rng = np.random.default_rng(n)
        point = ball_point(rng, n, 0.6)
        matrix, resid = fd_quaternionic_hessian(lambda c: np.vecdot(c, c), point, 1e-2)
        err = np.max(np.abs(matrix.data - diagonal([1.0] * n)))
        assert err <= 1e-8
        assert resid <= 1e-6


def test_affine_function_has_zero_hessian():
    rng = np.random.default_rng(21)
    slope = rng.normal(size=8)
    point = ball_point(rng, 2, 0.5)
    matrix, _ = fd_quaternionic_hessian(lambda c: 3.0 + c @ slope, point, 1e-3)
    assert np.max(np.abs(matrix.data)) <= 1e-8


def test_one_dim_power_density_example():
    member = PowerFamilyMember(2.0, 1)
    point = EvaluationPoint.from_coords([0.5, 0.0, 0.0, 0.0])
    matrix, _ = fd_quaternionic_hessian(member.as_function(), point)
    assert matrix.dim == 1
    assert abs(moore_det(matrix) - 0.75) <= 1e-6


def test_power_hessian_closed_examples():
    # at q = (q_1, 0) with |q_1|^2 = s the Hessian alpha I + beta Q of u_a is
    # diag(alpha + beta s, alpha), here at hand-computed alpha and beta
    cases = [(1.0, 0.37, 1.0, 0.0), (2.0, 0.25, 0.5, 1.0), (0.5, 0.5, 0.5 * 0.5**-0.5, -0.125 * 0.5**-1.5)]
    for a, s, alpha, beta_coef in cases:
        point = EvaluationPoint.from_coords([0.0, math.sqrt(s), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        matrix, _ = fd_quaternionic_hessian(PowerFamilyMember(a, 2).as_function(), point)
        assert np.max(np.abs(matrix.data - diagonal([alpha + beta_coef * s, alpha]))) <= 1e-6, (a, s)


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
        return np.exp(0.3 * c[:, 0]) * np.cos(0.2 * c[:, 1]) + 0.1 * np.sum(c**3, axis=1)

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


def test_fd_density_of_a_steep_member_keeps_its_digits():
    # at a = 10 and r = 0.2, |q|^{2a} is 1e-14: a function offset by a constant of 1 would hand the
    # stencil values rounded to the ulps of 1, and the FD density would be off by a factor of 1e9
    rng = np.random.default_rng(46)
    for n in (3, 7):
        member = PowerFamilyMember(10.0, n)
        func = member.as_function()
        for r in (0.2, 0.5, 0.9):
            point = ball_point(rng, n, r)
            matrix, residual = fd_quaternionic_hessian(func, point)
            closed = ma_density(member, point.radius)
            assert abs(moore_det(matrix) - closed) <= 1e-5 * closed, (n, r)
            assert residual <= 1e-15 * max(1.0, float(np.max(np.abs(matrix.data))))


def test_mixed_density_reduces_to_ma_density():
    # the mixed Moore determinant of n copies of a closed Hessian is its Moore determinant
    rng = np.random.default_rng(25)
    for a in (0.5, 1.0, 2.5):
        for n in (1, 2, 3):
            member = PowerFamilyMember(a, n)
            for _ in range(5):
                point = ball_point(rng, n, rng.uniform(0.1, 0.95))
                lhs = mixed_moore_det([assembled_hessian(member, point.coords)] * n)
                rhs = ma_density(member, point.radius)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_mixed_density_examples():
    # the closed Hessians of u_1 are the identity, and at q = (1/2, 0) those of
    # u_2 and u_1 are diag(3/4, 1/2) and I, whose mixed determinant is 5/8
    point = EvaluationPoint.from_coords([0.41, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert mixed_moore_det([assembled_hessian(PowerFamilyMember(1.0, 2), point.coords)] * 2) == 1.0
    point = EvaluationPoint.from_coords([0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    pair = [assembled_hessian(PowerFamilyMember(b, 2), point.coords) for b in (2.0, 1.0)]
    assert abs(mixed_moore_det(pair) - 0.625) <= 1e-15


def test_mixed_density_matches_mixed_moore_det():
    rng = np.random.default_rng(26)
    for n in (2, 3):
        members = [PowerFamilyMember(a, n) for a in rng.uniform(0.5, 2.5, size=n)]
        point = ball_point(rng, n, rng.uniform(0.3, 0.9))
        mats = [assembled_hessian(m, point.coords) for m in members]
        lhs = mixed_moore_det(mats)
        rhs = float(oracle_mixed_density([m.a for m in members], point.radius))
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_fd_mixed_moore_det_with_magnitudes_orders_apart():
    # the FD Hessians' largest entries span 5e-4 to 2.6: unscaled, the
    # polarization cancelled to 2.4e-3 off the density at any step size
    exps = [3.967565591013366, 2.3975571626046848, 3.3527442067621447]
    exps += [3.593829811653415, 0.3734550794199799, 3.2620971423879097]
    coords = [-0.01319664366624797, 0.02358317031910818, -0.06828690284135111]
    coords += [-0.011870884058240314, -0.05798136484269823, -0.012635287967356822]
    coords += [0.009965172682705836, 0.036597155844160054, -0.009141717131001556]
    coords += [0.0936541476725079, 0.035142631580261964, 0.046646452565373454]
    coords += [0.027894451275352828, -0.009728218898076397, -0.017997248397013284]
    coords += [-0.034485949232923106, 0.0012025254952464318, -0.1148559174576663]
    coords += [-0.018365438987677223, -0.0012096472314562007, -0.05270398498189603]
    coords += [-0.04048677053163417, 0.015254273423447984, 0.0228638568085359]
    point = EvaluationPoint.from_coords(coords)
    members = [PowerFamilyMember(a, 6) for a in exps]
    mats = [fd_quaternionic_hessian(m.as_function(), point)[0] for m in members]
    expected = float(oracle_mixed_density(exps, point.radius))
    assert abs(mixed_moore_det(mats) - expected) <= 1e-4 * expected


def test_evaluation_point_invariants():
    point = EvaluationPoint.from_coords([0.3, 0.0, 0.4, 0.0])
    assert abs(point.radius - 0.5) <= 1e-15
    assert point.n == 1
    with pytest.raises(ValueError):
        EvaluationPoint.from_coords([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        EvaluationPoint.from_coords([math.nan, 0.0, 0.0, 0.0])
    # built directly, the point checks itself: 3 coordinates failed deep in the FD Hessian, list
    # coordinates had no .size, and a nan radius chose the step 1e-4
    coords = np.array([0.3, 0.0, 0.4, 0.0])
    point = EvaluationPoint(coords)
    coords[0] = 2.0
    assert point.coords.tolist() == [0.3, 0.0, 0.4, 0.0] and point.radius == 0.5
    assert EvaluationPoint([0.3, 0.0, 0.4, 0.0]).coords.tobytes() == point.coords.tobytes()
    for coords in (np.zeros(3), [[0.5, 0.0, 0.0, 0.0]], [], "abcd", ["a", "b", "c", "d"], [math.nan] * 4):
        with pytest.raises(ValueError, match="coords must be"):
            EvaluationPoint(coords)
    with pytest.raises(TypeError):  # the radius is the coordinates' norm, not an argument
        EvaluationPoint(np.zeros(4), 0.0)


def test_evaluation_point_coords_are_read_only():
    # written coordinates would leave the radius, and the default FD step, stale
    point = EvaluationPoint([0.3, 0.0, 0.4, 0.0])
    with pytest.raises(ValueError, match="read-only"):
        point.coords[0] = 3.0
    assert point.coords.tolist() == [0.3, 0.0, 0.4, 0.0] and point.radius == 0.5


def test_domain_errors():
    member = PowerFamilyMember(2.0, 1)
    with pytest.raises(ValueError):
        PowerFamilyMember(-1.0, 1)
    with pytest.raises(ValueError):
        PowerFamilyMember(1.0, 0)
    with pytest.raises(ValueError):
        ma_density(member, 1.0)
    with pytest.raises(ValueError):
        ma_density(member, -0.1)
    point = EvaluationPoint.from_coords([0.5, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        fd_quaternionic_hessian(lambda c: np.full(len(c), math.nan), point)
    with pytest.raises(ValueError):
        fd_quaternionic_hessian(lambda c: np.zeros(len(c)), point, h=-1e-4)
    # each diagonal difference is 1e308 - 2e308 + 1e308 = -inf, whose residual inf - inf is nan
    with pytest.raises(ValueError, match="the FD Hessian has a non-finite entry"):
        fd_quaternionic_hessian(lambda c: np.full(len(c), 1e308), point)


def test_fd_hessian_refuses_bare_coordinates():
    # they raised AttributeError from the missing .coords
    with pytest.raises(ValueError, match="point must be an EvaluationPoint, got ndarray"):
        fd_quaternionic_hessian(lambda c: np.zeros(len(c)), np.zeros(4))


def test_fd_hessian_refuses_a_function_that_is_not_callable():
    # it raised TypeError when the first stencil slice was handed to u
    point = EvaluationPoint.from_coords([0.5, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="u must be callable, got NoneType"):
        fd_quaternionic_hessian(None, point)


def test_ma_density_refuses_a_radius_that_is_not_a_real():
    # np.asarray parsed the string: "0.5" gave 0.75
    member = PowerFamilyMember(2.0, 1)
    for r in ("0.5", True, [0.5]):
        with pytest.raises(ValueError, match=f"^radius must be a finite positive real, got {re.escape(repr(r))}$"):
            ma_density(member, r)
    with pytest.raises(ValueError, match="^radius must be real numbers, got an array of bool$"):
        ma_density(member, np.array([True]))
    assert ma_density(member, np.array([0.5]))[0] == ma_density(member, 0.5) == 0.75


def test_power_family_boundary_behaviour():
    u = PowerFamilyMember(1.5, 2).as_function()
    rng = np.random.default_rng(27)
    for _ in range(20):
        point = ball_point(rng, 2, rng.uniform(0.05, 0.999))
        assert u(point.coords) - 1.0 <= 0.0
    edge = rng.normal(size=8)
    edge /= np.linalg.norm(edge)
    assert abs(u(edge) - 1.0) <= 1e-12


def _reference_stencil(coords, h):
    """The stencil points in the order they go to u: the point's own coordinates but the stepped ones."""
    d = coords.size

    def stepped(*steps):
        x = coords.copy()
        for index, sign in steps:
            x[index] = coords[index] + sign * h
        return x

    points = [coords]
    for alpha in range(d):
        points += [stepped((alpha, 1.0)), stepped((alpha, -1.0))]
        for beta_idx in range(alpha + 1, d):
            points += [stepped((alpha, sa), (beta_idx, sb)) for sa in (1.0, -1.0) for sb in (1.0, -1.0)]
    return points


def _reference_quaternionic_hessian(u, coords, h):
    """The central differences, as the (n, n, 4) array of both triangles, from one call of u on the stencil."""
    d = coords.size
    it = iter(u(np.array(_reference_stencil(coords, h))).tolist())
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
    return _quaternionic(hess)


def _quaternionic(hess):
    """The (n, n, 4) quaternionic entries of a real 4n x 4n Hessian, by einsum over the unit table."""
    n = len(hess) // 4
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
        # the constructor stores its input's lower triangle, mirrored
        assert matrix.data.tobytes() == HyperhermitianMatrix(quat).data.tobytes()


def test_fd_matrix_is_the_symmetrized_reference_bit_for_bit_at_every_n():
    # the entries are gathered from the second differences, not summed by einsum over the unit
    # table; zero coordinates, of either sign, make zero differences and signed zero terms
    rng = np.random.default_rng(29)
    for n in range(1, 8):
        coords = ball_point(rng, n, rng.uniform(0.2, 0.9)).coords
        zeros = coords.copy()
        zeros[rng.permutation(4 * n)[: 2 * n]] = rng.choice([0.0, -0.0], size=2 * n)
        quaternion_zero = coords.copy()
        quaternion_zero[:4] = [0.0, -0.0, -0.0, 0.0]
        for point in map(EvaluationPoint.from_coords, (coords, zeros, quaternion_zero)):
            u = PowerFamilyMember(rng.uniform(0.25, 4.0), n).as_function()
            matrix, residual = fd_quaternionic_hessian(u, point)
            quat = _reference_quaternionic_hessian(u, point.coords, 1e-4 * max(1.0, point.radius))
            expected = HyperhermitianMatrix(0.5 * (quat + conj_transpose(quat)))
            assert matrix.data.tobytes() == expected.data.tobytes()
            assert residual == hyperhermitian_residual(quat)
    # -0.0 away from the origin, +0.0 at it: each diagonal difference is -0.0, and einsum's sum +0.0
    point = EvaluationPoint.from_coords(np.zeros(8))

    def signed_zero(x):
        return np.where(np.any(x != 0.0, axis=-1), -0.0, 0.0)

    matrix, residual = fd_quaternionic_hessian(signed_zero, point)
    quat = _reference_quaternionic_hessian(signed_zero, point.coords, 1e-4)
    assert matrix.data.tobytes() == HyperhermitianMatrix(0.5 * (quat + conj_transpose(quat))).data.tobytes()
    assert residual == hyperhermitian_residual(quat) == 0.0


def test_fd_matrix_is_the_mirrored_lower_triangle_where_the_triangles_differ():
    # a non-radial u: entries (j, k) and (k, j) sum the same four second differences in another
    # order, and at this step the differences keep enough bits for the two sums to round apart
    rng = np.random.default_rng(44)
    residuals = []
    for n in (1, 2, 3, 4):
        w, v = rng.normal(size=(2, 4 * n))

        def smooth(c):
            return np.sin(0.3 * c @ w) * np.cos(c @ v)

        for _ in range(5):
            point = ball_point(rng, n, rng.uniform(0.2, 0.9))
            matrix, residual = fd_quaternionic_hessian(smooth, point, 0.1)
            quat = _reference_quaternionic_hessian(smooth, point.coords, 0.1)
            assert residual == hyperhermitian_residual(quat)
            # the constructor stores its input's lower triangle, mirrored
            assert matrix.data.tobytes() == HyperhermitianMatrix(quat).data.tobytes()
            average = 0.5 * (quat + conj_transpose(quat))
            # the average's own rounding aside, each entry is within half the residual of it
            assert np.all(np.abs(matrix.data - average) <= 0.5 * residual + np.spacing(np.abs(average)))
            residuals.append(residual)
    assert sum(r > 0.0 for r in residuals) >= len(residuals) // 2


def test_the_residual_check_trips_on_finite_entries_that_cancel_below_their_rounding():
    # u = M x^T Q x + 1e-3 x^T D x with Q in the null space of the map from Q to the quaternionic
    # Hessian of x^T Q x: each entry's four terms, of size ~M, cancel, and the two triangles keep
    # rounding gaps of ~1e8 against entries of about that size
    n, d = 3, 12
    upper = np.triu_indices(d)
    images = []
    for alpha, beta in zip(*upper):
        unit = np.zeros((d, d))
        unit[alpha, beta] = unit[beta, alpha] = 1.0
        images.append(_quaternionic(2.0 * unit).ravel())  # x^T unit x has the real Hessian 2 unit
    _, singular, vt = np.linalg.svd(np.array(images).T)
    null = vt[np.sum(singular > 1e-10 * singular[0]) :]
    assert len(null) == 78 - 15
    rng = np.random.default_rng(45)
    q = np.zeros((d, d))
    q[upper] = rng.normal(size=len(null)) @ null
    q = q + q.T - np.diag(q.diagonal())
    dd = np.diag(rng.normal(size=d))

    def u(rows):
        return 1e24 * np.einsum("ij,jk,ik->i", rows, q, rows) + 1e-3 * np.einsum("ij,jk,ik->i", rows, dd, rows)

    with pytest.raises(ValueError, match=r"hyperhermitian residual .* exceeds 1e-04") as info:
        fd_quaternionic_hessian(u, EvaluationPoint.from_coords(np.zeros(n * 4)), 1e-2)
    assert type(info.value) is ValueError  # a failed computation, not an argument error


def test_an_fd_entry_past_the_float_range_is_a_failed_computation():
    # u(x) = x^T H x / 2 at the origin of H^2: every second difference is an entry of H, a finite
    # float, but the i part of entry (0, 1) sums 1e308 + 1e308 and overflows, while the (1, 0)
    # entry sums the same terms in another order and does not; the residual is then inf
    hess = np.zeros((8, 8))
    for alpha, beta, value in ((0, 5, 1e308), (2, 7, -1e308), (3, 6, -1e308)):
        hess[alpha, beta] = hess[beta, alpha] = value

    def quadratic(rows):
        return 0.5 * np.einsum("ij,jk,ik->i", rows, hess, rows)

    with pytest.raises(ValueError, match="non-finite entry") as info:
        fd_quaternionic_hessian(quadratic, EvaluationPoint.from_coords(np.zeros(8)))
    assert type(info.value) is ValueError  # not the matrix constructor's argument error

    # finite values whose cross differences overflow to +inf at (0, 5) and (1, 4): the i part of
    # entry (0, 1) subtracts one from the other, nan, which the largest |entry| carries
    def bilinear(rows):
        return 1.5e308 * (rows[:, 0] * rows[:, 5] + rows[:, 1] * rows[:, 4])

    with pytest.raises(ValueError, match="non-finite entry"):
        fd_quaternionic_hessian(bilinear, EvaluationPoint.from_coords(np.zeros(8)), 1.0)


def test_fd_error_names_first_bad_stencil_point():
    point = EvaluationPoint.from_coords([0.3, -0.2, 0.1, 0.4, 0.0, 0.2, -0.1, 0.3])
    stencil = _reference_stencil(point.coords, 1e-4)
    u = PowerFamilyMember(1.5, 2).as_function()
    # d = 8: 129 points; 61 is the -+ point of (alpha, beta) = (2, 3), 7 the
    # ++ point of (0, 2), 20 the +- point of (0, 5)
    for bad in ([61, 100], [20, 7], [128, 0]):

        def poisoned(rows):
            vals = u(rows)
            for i in bad:
                vals[np.all(rows == stencil[i], axis=1)] = math.nan
            return vals

        with pytest.raises(ValueError) as info:
            fd_quaternionic_hessian(poisoned, point, 1e-4)
        assert str(info.value) == f"non-finite function value at {stencil[min(bad)]!r}"


def test_member_checks_a_and_n_like_the_energy_parameters():
    for n in (1.5, True, "2", 0):
        with pytest.raises(ValueError, match="n must be"):
            PowerFamilyMember(1.0, n)
    for a in (True, "2", None):
        with pytest.raises(ValueError, match="a must be a finite positive real"):
            PowerFamilyMember(a, 1)
    for a in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="a must be a finite positive real"):
            PowerFamilyMember(a, 1)
    member = PowerFamilyMember(2, 3.0)
    assert (member.a, member.n) == (2.0, 3)
    assert type(member.a) is float and type(member.n) is int


def test_nan_and_overflow_fail_the_density_checks():
    member = PowerFamilyMember(1.0, 1)
    for r in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(ValueError, match="radius"):
            ma_density(member, r)
    # the closed density is past the float range: a ValueError, not nan or a warning
    with pytest.raises(ValueError, match=r"a = 1e\+300, n = 1 is not a finite float"):
        ma_density(PowerFamilyMember(1e300, 1), 0.5)
    with pytest.raises(ValueError, match=r"a = 0.5, n = 2 is not a finite float"):
        ma_density(PowerFamilyMember(0.5, 2), 1e-160)


def test_fd_step_square_must_be_a_normal_float():
    point = EvaluationPoint.from_coords([0.5, 0.0, 0.0, 0.0])
    u = PowerFamilyMember(2.0, 1).as_function()
    for h in (1e-200, 1e-160, 1e160, -1e-4, math.nan):
        with pytest.raises(ValueError) as info:
            fd_quaternionic_hessian(u, point, h)
        assert str(info.value) == f"step h must be positive with h * h a normal float, got {h!r}"
    fd_quaternionic_hessian(u, point, 1e-150)



def _product_form_density(exps, r):
    """The mixed Moore determinant of the closed Hessians alpha_i I + beta_i Q, expanded term by term."""
    n = len(exps)
    s = r * r
    alphas = [a * s ** (a - 1.0) for a in exps]
    betas = [0.5 * a * (a - 1.0) * s ** (a - 2.0) for a in exps]
    cross = sum(math.prod([betas[i], *alphas[:i], *alphas[i + 1 :]]) for i in range(n))
    return math.prod(alphas) + (s / n) * cross


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    exps=st.lists(st.floats(min_value=0.05, max_value=8.0), min_size=1, max_size=7),
    r=st.floats(min_value=0.01, max_value=0.99, exclude_min=True, exclude_max=True),
)
def test_mixed_density_matches_the_product_form(exps, r):
    # the mixed Moore determinant of the closed Hessians at a point of radius r;
    # its eigvalsh errors reach 1.03e-12 of the density at n = 7 on these draws
    n = len(exps)
    direction = np.cos(np.arange(4.0 * n) + 1.0)
    point = EvaluationPoint.from_coords(r / np.linalg.norm(direction) * direction)
    value = mixed_moore_det([assembled_hessian(PowerFamilyMember(a, n), point.coords) for a in exps])
    reference = _product_form_density(exps, point.radius)
    assert abs(value - reference) <= 4e-12 * reference, (value, reference)
    expected = oracle_mixed_density(exps, point.radius)
    assert abs(Decimal(value) - expected) <= Decimal("4e-12") * expected


def test_power_member_function_is_the_numpy_expression_bit_for_bit():
    rng = np.random.default_rng(40)
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        a = float(rng.uniform(0.05, 8.0))
        x = rng.normal(size=4 * n) * rng.uniform(0.01, 1.5)
        value = PowerFamilyMember(a, n).as_function()(x)
        assert type(value) is float
        assert value == float(np.dot(x, x) ** a), (a, x)


def _libm_pow(s, a):
    """math.pow, inf where it raises OverflowError."""
    try:
        return math.pow(s, a)
    except OverflowError:
        return math.inf


def test_power_member_function_is_libm_pow_bit_for_bit():
    # np.power's SIMD loops differ from libm's pow in the last bit for some values (~5% on AVX-512);
    # u's values are math.pow's, so a numpy that vectorizes float_power would fail here
    rng = np.random.default_rng(44)
    exponents = [1e-300, 0.05, 0.25, 0.3, 0.5, 1.0, 1.3, 2.0, 3.7, 4.0, 8.0, 300.0, *rng.uniform(0.05, 8.0, 8)]
    # first coordinates whose squares are 0, subnormal, next to 1, near the float maximum and past it
    firsts = [0.0, 5e-324, 1e-160, 2.3e-162, 1.5e-154, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)]
    firsts += [1e100, 1.3e154, 1.34e154, 1e155]
    for a in exponents:
        n = int(rng.integers(1, 8))
        special = np.zeros((len(firsts), 4 * n))
        special[:, 0] = firsts
        rows = rng.normal(size=(10_000, 4 * n))
        rows[:4000] *= 10.0 ** rng.uniform(-170.0, 160.0, (4000, 1))  # sums from 0 to inf
        rows[4000:8000] *= 1.0 + rng.normal(scale=1e-3, size=(4000, 1))  # sums near 1 after the next line
        rows[4000:8000] /= np.linalg.norm(rows[4000:8000], axis=1, keepdims=True)
        rows = np.concatenate((special, rows))
        with np.errstate(over="ignore", under="ignore"):
            sums = np.vecdot(rows, rows)
        expected = np.array([_libm_pow(s, a) for s in sums.tolist()])
        u = PowerFamilyMember(a, n).as_function()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = u(rows)
            with np.errstate(all="raise"):  # the caller's error state changes neither values nor warnings
                raised = u(rows)
                points = [u(x) for x in rows[:: len(firsts)]]
        for got in (values, raised):
            mismatched = np.flatnonzero(got.view(np.int64) != expected.view(np.int64))
            assert mismatched.size == 0, (a, mismatched.size, sums[mismatched[:3]].tolist())
        assert all(type(v) is float for v in points)
        assert points == expected[:: len(firsts)].tolist(), a
        assert math.inf in points and 0.0 in points


def test_power_member_function_overflow_is_inf_and_fails_the_fd_check():
    u = PowerFamilyMember(2.0, 1).as_function()
    coords = np.array([1e150, 0.0, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert u(coords) == math.inf
    with pytest.raises(ValueError) as info:
        fd_quaternionic_hessian(u, EvaluationPoint.from_coords(coords))
    assert str(info.value) == f"non-finite function value at {coords!r}"


def test_a_radius_past_the_squares_range_is_scaled_and_a_default_step_past_it_names_the_radius():
    # the sum of squares overflowed: the radius was inf with numpy's "overflow encountered in dot",
    # and the FD Hessian then refused a step h = inf that the caller never passed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            assert EvaluationPoint(np.array([1e160, 0.0, 0.0, 0.0])).radius == 1e160
            assert EvaluationPoint(np.array([0.0, 3e200, 0.0, -4e200])).radius == pytest.approx(5e200, rel=4e-16)
            # the sum of squares went subnormal: the radius was 0.0 and 9.99994e-161
            assert EvaluationPoint(np.full(4, 1e-200)).radius == 2e-200
            assert EvaluationPoint(np.array([1e-160, 0.0, 0.0, 0.0])).radius == 1e-160
            assert EvaluationPoint(np.zeros(4)).radius == 0.0
    assert EvaluationPoint(np.array([1.7e308, 0.0, 1.7e308, 0.0])).radius == math.inf  # the norm is past the range
    rng = np.random.default_rng(46)
    for scale in (1e-200, 1e-3, 1.0, 1e100, 1e153):
        coords = rng.normal(size=12) * scale
        radius = EvaluationPoint(coords).radius
        if scale > 1e-150:  # between the underflow and the overflow, np.linalg.norm's bits
            assert radius == float(np.linalg.norm(coords))
        assert radius == pytest.approx(math.hypot(*coords), rel=4e-16)
    zero = lambda rows: np.zeros(len(rows))
    for coords in ([1e160, 0.0, 0.0, 0.0], [0.0, 3e200, 0.0, -4e200], [1.7e308, 0.0, 1.7e308, 0.0]):
        point = EvaluationPoint(np.array(coords))
        with pytest.raises(_ArgumentError) as info:
            fd_quaternionic_hessian(zero, point)
        assert str(info.value) == f"no default step at radius {point.radius!r}: its square is past the float range"
    # the default step 1e154 at radius 1e158 squares to a normal float; past it, an explicit step works
    assert fd_quaternionic_hessian(zero, EvaluationPoint(np.array([1e158, 0.0, 0.0, 0.0])))[1] == 0.0
    matrix, residual = fd_quaternionic_hessian(zero, EvaluationPoint(np.array([1e160, 0.0, 0.0, 0.0])), 1e150)
    assert not matrix.data.any() and residual == 0.0


def test_fd_step_must_be_a_real_number():
    # float(h) accepted these: True ran with h = 1.0 and gave a Moore
    # determinant of 1.75 where the density is 0.75
    point = EvaluationPoint.from_coords([0.5, 0.0, 0.0, 0.0])
    u = PowerFamilyMember(2.0, 1).as_function()
    for h in (True, "1e-4", np.array([True]), np.array([1e-4])):
        with pytest.raises(ValueError, match="step h must be positive"):
            fd_quaternionic_hessian(u, point, h)
    assert fd_quaternionic_hessian(u, point, np.float64(1e-4))[1] >= 0.0


def test_fd_calls_u_once_per_hessian_on_the_reference_rows():
    rng = np.random.default_rng(41)
    for n in range(1, 8):
        coords = ball_point(rng, n, rng.uniform(0.2, 0.9)).coords.copy()
        coords[::5] = -0.0  # kept in every row that does not step it
        point = EvaluationPoint.from_coords(coords)
        u = PowerFamilyMember(rng.uniform(0.25, 4.0), n).as_function()
        calls = []

        def recorded(rows):
            calls.append(rows.copy())
            return u(rows)

        fd_quaternionic_hessian(recorded, point)
        assert len(calls) == 1
        expected = _reference_stencil(point.coords, 1e-4 * max(1.0, point.radius))
        assert calls[0].tobytes() == np.array(expected).tobytes()


def test_fd_stencil_slices_are_consecutive_and_bounded(monkeypatch):
    rng = np.random.default_rng(42)
    point = ball_point(rng, 3, 0.6)
    u = PowerFamilyMember(1.7, 3).as_function()
    whole, residual = fd_quaternionic_hessian(u, point, 1e-4)
    monkeypatch.setattr(hessian, "_STENCIL_CHUNK", 100)
    calls = []

    def recorded(rows):
        calls.append(rows.copy())
        return u(rows)

    chunked, chunked_residual = fd_quaternionic_hessian(recorded, point, 1e-4)
    # 1 + 2 * 12^2 = 289 rows, 8 of 12 doubles in each slice
    assert [len(rows) for rows in calls] == [8] * 36 + [1]
    assert np.concatenate(calls).tobytes() == np.array(_reference_stencil(point.coords, 1e-4)).tobytes()
    assert chunked.data.tobytes() == whole.data.tobytes() and chunked_residual == residual
    # the first non-finite row is named, not the first slice's
    stencil = _reference_stencil(point.coords, 1e-4)

    def poisoned(rows):
        vals = u(rows)
        for i in (250, 30, 31):
            vals[np.all(rows == stencil[i], axis=1)] = math.nan
        return vals

    with pytest.raises(ValueError) as info:
        fd_quaternionic_hessian(poisoned, point, 1e-4)
    assert str(info.value) == f"non-finite function value at {stencil[30]!r}"


def test_fd_entry_sum_is_the_ordered_chain_from_plus_zero():
    # the (4, n, n, 4) gathered terms are reduced over m as (((0.0 + g0) + g1) + g2) + g3,
    # signed zeros, subnormals and overflow included
    rng = np.random.default_rng(44)
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -1.0])
    for n in (1, 2, 5):
        d = 4 * n
        gather, sign = hessian._stencil_layout(d)[4:]
        for _ in range(200):
            second = np.where(rng.random(d * d) < 0.5, rng.choice(pool, d * d), rng.normal(size=d * d))
            g0, g1, g2, g3 = second[gather] * sign
            with np.errstate(all="ignore"):
                chain = (((0.0 + g0) + g1) + g2) + g3
                reduced = np.add.reduce(second[gather] * sign, axis=0, initial=0.0)
            assert reduced.view(np.int64).tolist() == chain.view(np.int64).tolist()


def test_fd_hessians_at_one_point_and_step_share_one_read_only_stencil():
    rng = np.random.default_rng(45)
    point = ball_point(rng, 3, 0.6)
    seen = []

    def recorded(a):
        u = PowerFamilyMember(a, 3).as_function()

        def call(rows):
            seen.append(rows)
            return u(rows)

        return call

    hessian._stencil_chunk.cache_clear()
    first = [fd_quaternionic_hessian(recorded(a), point) for a in (0.7, 2.5)]
    assert len(seen) == 2 and seen[0] is seen[1] and not seen[0].flags.writeable
    assert seen[0].tobytes() == np.array(_reference_stencil(point.coords, 1e-4)).tobytes()
    hessian._stencil_chunk.cache_clear()
    again = [fd_quaternionic_hessian(recorded(a), point) for a in (0.7, 2.5)]
    assert seen[2] is not seen[0]
    for (matrix, residual), (matrix2, residual2) in zip(first, again):
        assert matrix.data.tobytes() == matrix2.data.tobytes() and residual == residual2
    # another step is another stencil
    fd_quaternionic_hessian(recorded(0.7), point, 2e-4)
    assert seen[-1] is not seen[0]

    def writer(rows):
        rows[0, 0] = 0.0
        return np.zeros(len(rows))

    with pytest.raises(ValueError, match="read-only"):
        fd_quaternionic_hessian(writer, point)


def test_fd_stencil_of_two_chunks_holds_one(monkeypatch):
    # n = 13: 1 + 2 * 52^2 = 5409 rows of 52 doubles, 5041 of them in the first 2^18-double chunk
    rng = np.random.default_rng(46)
    point = ball_point(rng, 13, 0.5)
    u = PowerFamilyMember(1.3, 13).as_function()
    calls = []

    def recorded(rows):
        calls.append(rows)
        return u(rows)

    hessian._stencil_chunk.cache_clear()
    matrix, residual = fd_quaternionic_hessian(recorded, point)
    assert [len(rows) for rows in calls] == [5041, 368]
    info = hessian._stencil_chunk.cache_info()
    assert (info.misses, info.currsize) == (2, 1)
    fd_quaternionic_hessian(u, point)  # the second chunk evicted the first: both are made again
    assert hessian._stencil_chunk.cache_info().misses == 4
    monkeypatch.setattr(hessian, "_STENCIL_CHUNK", 1 << 20)
    whole, whole_residual = fd_quaternionic_hessian(u, point)
    assert matrix.data.tobytes() == whole.data.tobytes() and residual == whole_residual


def test_fd_refuses_a_reply_of_the_wrong_shape():
    point = EvaluationPoint.from_coords([0.5, 0.0, 0.0, 0.0])
    for u in (lambda c: 1.0, lambda c: np.zeros((len(c), 1)), lambda c: np.zeros(len(c) - 1)):
        with pytest.raises(ValueError, match="u must return one value per row: 33 rows gave shape"):
            fd_quaternionic_hessian(u, point)


def test_power_member_function_is_vectorized_row_by_row():
    rng = np.random.default_rng(43)
    for n in range(1, 8):
        u = PowerFamilyMember(rng.uniform(0.05, 8.0), n).as_function()
        rows = rng.normal(size=(50, 4 * n)) * rng.uniform(0.01, 1.5)
        vals = u(rows)
        assert vals.shape == (50,) and vals.dtype == float
        assert vals.tolist() == [u(x) for x in rows]
    # an overflowing row is inf among finite ones, with no RuntimeWarning (an error here)
    u = PowerFamilyMember(2.0, 1).as_function()
    assert u(np.array([[0.5, 0, 0, 0], [1e150, 0, 0, 0], [0, 0, 0, 0]])).tolist() == [0.0625, math.inf, 0.0]
    u = PowerFamilyMember(1.0, 1).as_function()
    assert u(np.array([[0.5, 0, 0, 0], [0, 0, 0, 0]])).tolist() == [0.25, 0.0]
