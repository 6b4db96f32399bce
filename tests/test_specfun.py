import math
import numbers
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from qma import energy, hessian, ineq, quatlin
from qma.specfun import (
    _ArgumentError,
    _is_real,
    _log_gamma_ratio,
    _log_gamma_ratio_derivs,
    beta,
    log_gamma,
)

from oracles import (
    PI_50,
    oracle_beta,
    oracle_digamma,
    oracle_log_gamma,
    oracle_log_gamma_ratio,
    oracle_scaled_psi_differences,
    oracle_trigamma,
)


def test_log_gamma_examples():
    assert log_gamma(1.0) == 0.0
    assert abs(log_gamma(0.5) - float(oracle_log_gamma(0.5))) <= 1e-13
    assert abs(log_gamma(5.0) - math.log(24.0)) <= 1e-12


def test_log_gamma_against_oracle_grid():
    xs = np.geomspace(1e-3, 1e6, 60)
    for x in xs:
        ref = float(oracle_log_gamma(float(x)))
        err = abs(log_gamma(float(x)) - ref) / max(1.0, abs(ref))
        assert err <= 1e-12, f"x={x}: rel err {err:.3e}"


def test_log_gamma_ratio_against_oracle():
    # over the kernel's whole domain, with both sides of the shift floor 10
    # and a subnormal y; lgamma(y) - lgamma(y + s) is off by ~y ln y ulps
    edges = [5e-324, np.nextafter(10.0, 0.0), 10.0]
    ys = np.concatenate([edges, np.geomspace(1e-300, 2.5e305, 41), np.linspace(0.25, 12.0, 24)])
    for s in (1.0, 1.5, 3.0, 17.25, 1e3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = _log_gamma_ratio(ys, s)
        for y, value in zip(ys, values):
            ref = float(oracle_log_gamma_ratio(y, s))
            assert abs(value - ref) <= 1e-14 * max(1.0, abs(ref)), (y, s, value, ref)
            if y >= 10.0:
                # one float takes math's logs, not numpy's
                scalar = _log_gamma_ratio(float(y), s)
                assert abs(scalar - ref) <= 1e-14 * max(1.0, abs(ref)), (y, s, scalar, ref)


def test_log_gamma_ratio_derivs_against_oracle():
    # psi'(1) = pi^2 / 6 checks the trigamma oracle itself
    assert abs(oracle_trigamma(1) - PI_50**2 / 6) <= Decimal("1e-40")
    # both sides of the shift floor 10 and of the log B switch at 512, and the
    # float range's ends, where y^2 and psi(y) - psi(y + s) are out of reach
    for y in (1e-300, 1e-8, 0.5, 9.99, 10.0, 511.0, 512.0, 1e6, 1e150, 1e300):
        for s in (1.0, 1.5, 17.0, 1e3):
            for value, ref in zip(_log_gamma_ratio_derivs(y, s), oracle_scaled_psi_differences(y, s)):
                ref = float(ref)
                assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref)), (y, s, value, ref)


def test_beta_examples():
    assert beta(1.0, 1.0) == 1.0
    assert abs(beta(3.0, 1.5) - 16.0 / 105.0) <= 1e-11 * (16.0 / 105.0)
    assert abs(beta(2.0, 3.0) - 1.0 / 12.0) <= 1e-11 / 12.0


def test_beta_against_oracle_grid():
    for x in (0.3, 1.0, 2.5, 7.0):
        for y in (0.4, 1.5, 6.0, 20.0):
            ref = float(oracle_beta(x, y))
            assert abs(beta(x, y) - ref) <= 1e-11 * abs(ref)


def test_beta_symmetric_exactly():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x, y = np.exp(rng.uniform(np.log(1e-2), np.log(50.0), size=2))
        assert beta(float(x), float(y)) == beta(float(y), float(x))


def test_beta_derivative_identity():
    # d/dy B(x, y) = B(x, y) (psi(y) - psi(x + y))
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, y = np.exp(rng.uniform(np.log(0.5), np.log(8.0), size=2))
        x, y = float(x), float(y)
        h = 1e-5 * max(1.0, y)
        fd = (beta(x, y + h) - beta(x, y - h)) / (2.0 * h)
        closed = beta(x, y) * float(oracle_digamma(y) - oracle_digamma(x + y))
        assert abs(fd - closed) <= 1e-6 * abs(closed)


def test_beta_quadrature_consistency():
    # defining integral split at 1/2 and folded by symmetry, so both
    # singular corners land on the left endpoint, where u = w^(1/x) takes
    # the singular u^(x - 1) du into dw / x
    def half_integral(x, y):
        def integrand(w):
            return (1.0 - 0.5 * w ** (1.0 / x)) ** (y - 1.0) / x

        return 0.5**x * energy.integrate_unit_interval(integrand)

    for x in (0.5, 1.5, 4.0, 10.0):
        for y in (0.5, 2.5, 10.0):
            quad = half_integral(x, y) + half_integral(y, x)
            assert abs(quad - beta(x, y)) <= 1e-8 * beta(x, y)


def test_beta_takes_the_log_gamma_ratio_past_shift_one_and_argument_ten():
    # ln B(lo, hi) = ln Gamma(lo) + [ln Gamma(hi) - ln Gamma(hi + lo)]; three lgamma values were
    # off by up to 1.7e5 of these units, 1.65e-9 relative at (3.16, 1e6)
    eps = sys.float_info.epsilon
    for lo in np.geomspace(1.0, 1e3, 13):
        for hi in np.geomspace(10.0, 1e6, 13):
            lo, hi = float(lo), float(hi)
            log_ref = oracle_log_gamma(lo) + oracle_log_gamma_ratio(hi, lo)
            if not log_ref > -700:
                continue
            ref = log_ref.exp()
            units = eps * (abs(float(oracle_log_gamma(lo))) + max(1.0, abs(float(log_ref))))
            for value in (beta(lo, hi), beta(hi, lo)):
                assert float(abs(Decimal(value) - ref) / ref) <= 4.0 * units, (lo, hi, value)


def test_domain_errors():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            log_gamma(bad)
        with pytest.raises(ValueError):
            beta(bad, 1.0)
        with pytest.raises(ValueError):
            beta(1.0, bad)
        with pytest.raises(ValueError):
            log_gamma(np.array([1.0, bad]))
    with pytest.raises(ValueError, match="overflows"):
        log_gamma(1e306)
    # tiny arguments: ln Gamma(x) ~ -ln x
    assert abs(log_gamma(1e-300) - float(oracle_log_gamma(1e-300))) <= 1e-12 * 690.8


def test_log_beta_matches_beta():
    # B(x, y) is exp(ln Gamma(x) + ln Gamma(y) - ln Gamma(x + y)), bit for bit, where the smaller
    # argument is below 1 or the larger one below 10
    assert math.exp(log_gamma(2.0) + log_gamma(3.0) - log_gamma(5.0)) == beta(2.0, 3.0)
    assert abs(beta(2.0, 3.0) - 1.0 / 12.0) <= 1e-16
    rng = np.random.default_rng(29)
    pairs = np.exp(rng.uniform(np.log(1e-3), np.log(1e4), size=(400, 2))).tolist()
    pairs = [(x, y) for x, y in pairs if min(x, y) < 1.0 or max(x, y) < 10.0]
    assert len(pairs) > 100
    for x, y in pairs:
        assert beta(x, y) == math.exp(log_gamma(x) + log_gamma(y) - log_gamma(x + y)), (x, y)


def test_overflows_are_value_errors_naming_the_argument():
    # B(1e-320, 1) = 1e320 lies past the float range
    with pytest.raises(ValueError, match=r"B\(x, y\) overflows a float at x = 1e-320, y = 1.0"):
        beta(1e-320, 1.0)


def test_is_real_keeps_its_verdicts_with_the_float_fast_path():
    class Real(float):
        pass

    values = [1.0, -0.0, math.nan, math.inf, Real(2.0), 0, 3, True, False, np.float64(1.5)]
    values += [np.float32(1.5), np.int64(2), np.bool_(True), np.bool_(False), "1", b"1", None, 1j]
    values += [Fraction(1, 2), Decimal("1"), np.array(1.0), np.array([1.0]), [1.0]]
    for x in values:
        assert _is_real(x) == (isinstance(x, numbers.Real) and not isinstance(x, bool)), x
    refused = (True, False, np.bool_(True), "1", None, Decimal("1"), np.array(1.0))
    assert not any(_is_real(x) for x in refused)
    accepted = (1.0, math.nan, Real(2.0), 3, np.float64(1.5), np.int64(2), Fraction(1, 2))
    assert all(_is_real(x) for x in accepted)


def test_argument_errors_are_value_errors_and_computation_failures_are_not_argument_errors():
    # the CLI reads the subclass as a usage error (exit 2); library callers see a ValueError either way
    assert issubclass(_ArgumentError, ValueError)
    matrix = quatlin.HyperhermitianMatrix(np.eye(2)[..., None] * [1.0, 0.0, 0.0, 0.0])
    member = hessian.PowerFamilyMember(2.0, 1)
    u, point = member.as_function(), hessian.EvaluationPoint.from_coords([0.5, 0.0, 0.0, 0.0])
    huge = 2**1100
    for refused in (
        lambda: log_gamma(-1.0),
        lambda: beta(1.0, math.nan),
        lambda: energy.EnergyParams(2.0, 0),
        lambda: quatlin.mixed_moore_det(None),
        lambda: quatlin.mixed_moore_det([]),
        lambda: quatlin.mixed_moore_det([matrix, np.eye(2)]),
        lambda: quatlin.mixed_moore_det([matrix]),
        lambda: hessian.EvaluationPoint.from_coords([0.5, 0.0]),
        lambda: hessian.EvaluationPoint.from_coords([0.5, 0.0, math.inf, 0.0]),
        lambda: hessian.ma_density(member, "0.5"),
        lambda: hessian.ma_density(member, 1.0),
        lambda: hessian.fd_quaternionic_hessian(None, point),
        lambda: hessian.fd_quaternionic_hessian(u, [0.5, 0.0, 0.0, 0.0]),
        lambda: ineq.check_two_term(2.0, 1, 0.5, 2.0, 1.0),
        lambda: hessian.EvaluationPoint(np.zeros(3)),
        lambda: hessian.EvaluationPoint("abcd"),
        lambda: hessian.fd_quaternionic_hessian(u, hessian.EvaluationPoint([1e160, 0.0, 0.0, 0.0])),
        # numpy's "could not convert string to float", a TypeError, and a ComplexWarning that dropped
        # the imaginary parts
        lambda: quatlin.HyperhermitianMatrix("x"),
        lambda: quatlin.HyperhermitianMatrix([[["a", 0, 0, 0]]]),
        lambda: quatlin.HyperhermitianMatrix([[[1j, 0, 0, 0]]]),
        lambda: quatlin.HyperhermitianMatrix(np.array([[[1 + 1j, 0, 0, 0]]])),
        lambda: quatlin.HyperhermitianMatrix([[[1, 0, 0, None]]]),
        lambda: quatlin.HyperhermitianMatrix([[[1, 0, 0, 0]], [[1, 0, 0]]]),
        # bool entries were read as 0 and 1
        lambda: quatlin.HyperhermitianMatrix(np.array([[[True, False, False, False]]])),
        # an int past the float range raised OverflowError: "int too large to convert to float"
        lambda: log_gamma(huge),
        lambda: beta(1.0, huge),
        lambda: energy.EnergyParams(huge, 1),
        lambda: hessian.PowerFamilyMember(huge, 1),
        lambda: ineq.ratio_R(energy.EnergyParams(2.0, 1), huge, 2.0),
        lambda: ineq.ratio_grid(energy.EnergyParams(2.0, 1), 8, 0.1, huge),
        lambda: ineq.d_const(huge, 1),
        lambda: hessian.EvaluationPoint.from_coords([huge, 0, 0, 0]),
        lambda: hessian.ma_density(member, huge),
        lambda: energy.energy_closed_core(2.0, 2, 1.0, [1.0, huge]),
        lambda: ineq.check_two_term(0.5, 2, 1.0, 2.0, huge),
        # coordinates that a float conversion read as numbers, or as their real parts with a ComplexWarning
        lambda: hessian.EvaluationPoint.from_coords(["0.1", "0", "0", "0"]),
        lambda: hessian.EvaluationPoint.from_coords([b"1", b"0", b"0", b"0"]),
        lambda: hessian.EvaluationPoint.from_coords([True, False, False, False]),
        # a bool among numbers, which numpy's inferred dtype read as 1.0 or 0.0
        lambda: hessian.EvaluationPoint([0.5, True, 0, 0]),
        lambda: quatlin.HyperhermitianMatrix([[[2.0, False, 0, 0]]]),
        lambda: hessian.EvaluationPoint.from_coords(np.array([0.5 + 1j, 0, 0, 0])),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(_ArgumentError):
                refused()
    # these raised AttributeError, or numpy's "could not convert string to float", from inside
    params = (2.0, 1)
    for refused, message in (
        (lambda: ineq.ratio_R(params, 0.5, 2.0), "params must be an EnergyParams, got tuple"),
        (lambda: ineq.ratio_grid(params), "params must be an EnergyParams, got tuple"),
        (lambda: ineq.find_violation(params), "params must be an EnergyParams, got tuple"),
        (lambda: ineq.ratio_general(params, 0.5, [2.0]), "params must be an EnergyParams, got tuple"),
        (lambda: energy.energy_numeric(params, 0.5, [2.0]), "params must be an EnergyParams, got tuple"),
        (lambda: hessian.ma_density("x", 0.5), "member must be a PowerFamilyMember, got str"),
        (lambda: quatlin.moore_det("x"), "matrix must be a HyperhermitianMatrix, got str"),
    ):
        with pytest.raises(_ArgumentError) as info:
            refused()
        assert str(info.value) == message
    # past ln Gamma's range and past the float range: the arguments are valid, the result is not a float;
    # and an FD Hessian whose second differences overflow (2e308 - 2 u(x) is -inf)
    for failed in (
        lambda: log_gamma(1e306),
        lambda: beta(1e-320, 1.0),
        lambda: hessian.fd_quaternionic_hessian(lambda rows: np.full(len(rows), 1e308), point),
    ):
        with pytest.raises(ValueError) as info:
            failed()
        assert type(info.value) is ValueError
    # energy_numeric and ratio_general promise a ValueError; both classes were RuntimeErrors
    for failure in (energy.QuadratureError, ineq.CertificateError):
        assert issubclass(failure, ValueError) and not issubclass(failure, _ArgumentError)
