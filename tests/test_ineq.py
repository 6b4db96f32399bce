import math
from decimal import Decimal

import numpy as np
import pytest

from qma.energy import EnergyParams, QuadratureSpec
from qma.ineq import (
    CertificateError,
    F_func,
    alpha_const,
    check_two_term,
    constants_report,
    d_const,
    dFdb_closed,
    f_lemma,
    find_violation,
    ratio_R,
    ratio_general,
    ratio_grid,
)
from qma.specfun import beta

from oracles import oracle_log_beta


def test_alpha_const_examples():
    for p in (0.3, 1.0, 2.0, 7.5):
        assert alpha_const(p, 1) == 1.0
    assert alpha_const(1.0, 2) == 4.0
    assert alpha_const(2.0, 2) == 3.0


def test_d_const_examples():
    assert d_const(1.0, 1) == 1.0
    assert d_const(1.0, 3) == 1.0
    assert d_const(2.0, 1) == 4.0
    assert d_const(0.5, 2) == 4096.0


def test_d_const_at_least_one():
    for p in np.geomspace(0.05, 20.0, 40):
        for n in (1, 2, 3):
            d = d_const(float(p), n)
            assert d >= 1.0
            if p != 1.0:
                assert d > 1.0


def test_f_lemma_values():
    for n in range(1, 11):
        assert abs(f_lemma(1.0, n)) <= 1e-12
    assert abs(f_lemma(2.0, 2) - (-1.0 / 12.0)) <= 1e-10
    assert abs(f_lemma(0.5, 1) - (2.0 * math.log(2.0) - 4.0 / 3.0)) <= 1e-12


def test_f_lemma_nonvanishing_off_one():
    for p in (0.25, 0.5, 2.0, 4.0):
        for n in range(1, 11):
            assert abs(f_lemma(p, n)) > 1e-8


def test_F_diagonal_zero():
    for p, n in [(0.5, 1), (2.0, 2), (3.0, 3)]:
        for a in (0.2, 1.0, 3.7):
            assert abs(F_func(p, n, a, a)) <= 1e-12


def test_F_sign_matches_derivative():
    for p, n in [(0.5, 1), (2.0, 1), (2.0, 2), (3.0, 2)]:
        eps = 1e-3
        val = F_func(p, n, 1.0, 1.0 + eps)
        assert math.copysign(1.0, val) == math.copysign(1.0, dFdb_closed(p, n))
    assert F_func(2.0, 1, 1.0, 0.5) > 0.0


def test_dFdb_closed_vanishes_at_p_one():
    for n in (1, 2, 3):
        assert abs(dFdb_closed(1.0, n)) <= 1e-12


def test_dFdb_closed_nonzero_off_one():
    for p in (0.5, 2.0, 3.0):
        for n in (1, 2):
            assert abs(dFdb_closed(p, n)) > 1e-6


def test_dFdb_matches_finite_difference():
    h = 1e-5
    for p in (0.5, 2.0, 3.0):
        for n in (1, 2):
            fd = (F_func(p, n, 1.0, 1.0 + h) - F_func(p, n, 1.0, 1.0 - h)) / (2.0 * h)
            closed = dFdb_closed(p, n)
            assert abs(fd - closed) <= 1e-6 * abs(closed)


def test_dFdb_matches_lemma_product():
    for p in (0.5, 2.0, 3.0):
        for n in (1, 2):
            product = (2.0 * n * n + n * p) / (n + p) * beta(p + 1.0, 2.0 * n) * f_lemma(p, 2 * n)
            assert abs(dFdb_closed(p, n) - product) <= 1e-10 * max(1.0, abs(product))


def test_ratio_R_diagonal_is_one():
    for p, n in [(0.5, 1), (1.0, 2), (2.0, 3)]:
        params = EnergyParams(p, n)
        for a in (0.2, 1.0, 2.9):
            assert abs(ratio_R(params, a, a) - 1.0) <= 1e-12


def test_ratio_R_hand_checkable_value():
    # p=2, n=1, a=1, b=0.5: numerator 0.5*1.5*B(3,1.5), denominator
    # (2 B(3,2))^{2/3} (1.5 B(3,3))^{1/3} with B = 16/105, 1/12, 1/30
    expected = (0.5 * 1.5 * (16.0 / 105.0)) / (
        (2.0 / 12.0) ** (2.0 / 3.0) * (1.5 / 30.0) ** (1.0 / 3.0)
    )
    value = ratio_R(EnergyParams(2.0, 1), 1.0, 0.5)
    assert abs(value - expected) <= 1e-12 * expected
    assert abs(value - 1.0243) <= 2e-4


def test_ratio_R_at_p_one_never_exceeds_one():
    params = EnergyParams(1.0, 2)
    for a in np.geomspace(0.1, 4.0, 12):
        for b in np.geomspace(0.1, 4.0, 12):
            assert ratio_R(params, float(a), float(b)) <= 1.0 + 1e-9


def test_ratio_R_at_p_one_sharp_on_diagonal():
    for n in (1, 2, 3):
        values, _ = ratio_grid(EnergyParams(1.0, n), 32)
        mx = float(values.max())
        assert 1.0 - 1e-6 <= mx <= 1.0 + 1e-6
        i, j = np.unravel_index(int(values.argmax()), values.shape)
        assert i == j


def test_ratio_R_bounded_by_d_const_on_grid():
    for p in (0.25, 0.5, 2.0, 4.0):
        for n in (1, 2, 3):
            params = EnergyParams(p, n)
            values, _ = ratio_grid(params, 24)
            assert values.max() <= d_const(p, n) * (1.0 + 1e-6)


def test_ratio_general_matches_ratio_R_for_uniform_tail():
    for p, n, a, b in [(0.5, 1, 1.0, 2.0), (2.0, 2, 0.7, 1.3), (4.0, 3, 1.0, 0.5)]:
        params = EnergyParams(p, n)
        quad = ratio_general(params, a, [b] * n)
        closed = ratio_R(params, a, b)
        assert abs(quad - closed) <= 1e-8 * closed


def test_ratio_general_identity_and_bound():
    params = EnergyParams(0.5, 2)
    assert abs(ratio_general(params, 1.3, [1.3, 1.3]) - 1.0) <= 1e-8
    value = ratio_general(params, 1.0, [0.5, 2.0])
    assert 0.0 < value <= d_const(0.5, 2) * (1.0 + 1e-6)


def test_two_term_trivial_case():
    holds, slack = check_two_term(0.5, 2, 1.3, 1.3, 0.8)
    assert holds and slack > 0.0


def test_two_term_examples():
    holds, slack = check_two_term(0.5, 2, 1.0, 2.0, 1.0)
    assert holds and slack > 0.0
    holds, slack = check_two_term(0.5, 1, 2.0, 0.5, 1.0)
    assert holds and slack > 0.0


def test_two_term_requires_fractional_p():
    with pytest.raises(ValueError):
        check_two_term(1.5, 1, 1.0, 2.0, 1.0)


def test_find_violation_p2_n1():
    cert = find_violation(EnergyParams(2.0, 1))
    assert cert.violation_found
    assert cert.ratio >= 1.0243 - 5e-3
    assert abs(cert.ratio - cert.quad_crosscheck) <= cert.error_bound
    assert cert.ratio - 1.0 > 10.0 * cert.error_bound
    assert cert.f_value > 0.0


def test_find_violation_small_p():
    cert = find_violation(EnergyParams(0.5, 1))
    assert cert.violation_found
    assert cert.ratio > 1.0 + 1e-3


def test_find_violation_no_violation_at_p_one():
    cert = find_violation(EnergyParams(1.0, 2))
    assert not cert.violation_found
    assert 1.0 - 1e-6 <= cert.ratio <= 1.0 + 1e-6


def test_find_violation_certificate_soundness():
    for p, n in [(0.5, 2), (3.0, 1)]:
        cert = find_violation(EnergyParams(p, n))
        assert cert.violation_found
        assert cert.ratio > 1.0
        assert abs(cert.ratio - cert.quad_crosscheck) <= cert.error_bound
        assert cert.ratio - 1.0 > 10.0 * cert.error_bound


def test_find_violation_rejects_sloppy_tolerance():
    # a coarse quadrature tolerance inflates the error bound past the excess
    with pytest.raises(CertificateError):
        find_violation(EnergyParams(2.0, 1), spec=QuadratureSpec(rel_tol=1e-2))


def test_ratio_grid_matches_ratio_R():
    for p, n in [(2.0, 2), (0.3, 1), (7.5, 4)]:
        params = EnergyParams(p, n)
        values, axis = ratio_grid(params, 40, 0.05, 6.0)  # two row blocks, one partial
        for i, a in enumerate(axis):
            for j, b in enumerate(axis):
                scalar = ratio_R(params, float(a), float(b))
                assert abs(values[i, j] - scalar) <= 1e-14 * scalar, (p, n, i, j)


def _oracle_log_energy(p, n, a, b):
    # log(b^n (b+1)/a) + ln B(p+1, (b+1) n / a) in 50-digit decimal
    a, b = Decimal(repr(a)), Decimal(repr(b))
    return n * b.ln() + (b + 1).ln() - a.ln() + oracle_log_beta(p + 1.0, float((b + 1) * n / a))


def test_ratio_R_matches_oracle():
    for p, n, a, b in [
        (2.0, 1, 1.0, 0.5),
        (0.5, 2, 2.38, 3.98),
        (3.0, 3, 0.1, 4.0),
        (7.5, 6, 4.0, 0.1),
    ]:
        weight = Decimal(repr(p))
        log_den = (weight * _oracle_log_energy(p, n, a, a) + n * _oracle_log_energy(p, n, b, b)) / (
            weight + n
        )
        expected = float((_oracle_log_energy(p, n, a, b) - log_den).exp())
        value = ratio_R(EnergyParams(p, n), a, b)
        assert abs(value - expected) <= 1e-12 * expected, (p, n, a, b)


def test_constants_report_fields():
    report = constants_report(2.0, 1)
    assert report.alpha == 1.0
    assert report.d_p == 4.0
    assert abs(report.f_p2n - (-1.0 / 12.0)) <= 1e-10
    assert report.d_p >= 1.0


def test_validation():
    with pytest.raises(ValueError):
        alpha_const(0.0, 1)
    with pytest.raises(ValueError):
        d_const(-2.0, 1)
    with pytest.raises(ValueError):
        f_lemma(1.0, 0)
    with pytest.raises(ValueError):
        F_func(1.0, 1, -1.0, 1.0)
    with pytest.raises(ValueError):
        ratio_R(EnergyParams(1.0, 1), 0.0, 1.0)
    with pytest.raises(ValueError, match="a must"):
        ratio_R(EnergyParams(2.0, 1), math.inf, 1.0)
    assert math.isfinite(ratio_R(EnergyParams(2.0, 1), 1e300, 1.0))
    with pytest.raises(ValueError):
        ratio_R(EnergyParams(2.0, 1), 1e-306, 1.0)  # ln Gamma((b+1) n / a) overflows
    for amin, amax in [(0.1, math.inf), (math.nan, 4.0), (-math.inf, 4.0)]:
        with pytest.raises(ValueError, match="amin"):
            ratio_grid(EnergyParams(2.0, 1), 8, amin, amax)
    # R itself, not its logarithm, leaves the float range
    with pytest.raises(ValueError, match="R.*overflows a float"):
        ratio_R(EnergyParams(2.0, 1), 1e-150, 1e150)
    with pytest.raises(ValueError, match="F.*overflows a float"):
        F_func(2.0, 1, 1e-150, 1e150)
    # the Beta argument (b + 1) n / a overflows; the error names a, b and it
    with pytest.raises(ValueError, match=r"a = 1e-300, b = 1e\+300: \(b \+ 1\) n / a = inf"):
        ratio_R(EnergyParams(2.0, 1), 1e-300, 1e300)
    with pytest.raises(ValueError, match=r"a = 1e-300, b = 1e\+150"):
        ratio_grid(EnergyParams(2.0, 1), 5, 1e-300, 1e300)
