import math
from collections import Counter
from decimal import Decimal

import numpy as np
import pytest

from qma import energy, ineq
from qma.energy import EnergyParams, _log_energy_quad, energy_closed_core, energy_numeric, log_pair_energy
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
from qma.specfun import _ArgumentError, beta, log_gamma

from oracles import oracle_f_lemma, oracle_log_pair_energy, oracle_log_tail_energy, oracle_ratio


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


def test_f_lemma_against_oracle():
    # within 1e-14 of its terms' scale 1/n + p/(n+p) at every n, which two psi
    # values of size ln n subtracted in floats miss by ~ulp(ln n)
    for p in (0.1, 0.5, 0.9, 0.999, 1.0, 1.001, 1.1, 2.0, 3.7, 16.0, 1e3):
        for n in [*range(1, 21), 50, 100, *(10**k for k in range(3, 9))]:
            ref = oracle_f_lemma(p, n)
            assert abs(f_lemma(p, n) - float(ref)) <= 1e-14 * (1.0 / n + p / (n + p)), (p, n)


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


def _quadrature_two_term(p, n, a, b, c):
    """check_two_term of the previous release, on three quadrature energies."""
    params = EnergyParams(p, n)
    rest = [c] * (n - 1)
    lhs = energy_numeric(params, a, [b] + rest).value
    e_aa = energy_numeric(params, a, [a] + rest).value
    e_bb = energy_numeric(params, b, [b] + rest).value
    rhs = p ** (-1.0 / (1.0 - p)) * e_aa ** (p / (p + 1.0)) * e_bb ** (1.0 / (p + 1.0))
    return rhs - lhs >= 0.0, rhs - lhs, rhs


def test_two_term_closed_matches_quadrature_reference():
    # the 450 cases of acceptance criterion 8
    rng = np.random.default_rng(808)
    triples = np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=(50, 3)))
    for p in (0.25, 0.5, 0.75):
        for n in (1, 2, 3):
            for a, b, c in triples.tolist():
                holds, slack = check_two_term(p, n, a, b, c)
                want_holds, want_slack, rhs = _quadrature_two_term(p, n, a, b, c)
                assert holds == want_holds, (p, n, a, b, c)
                assert abs(slack - want_slack) <= 1e-9 * rhs, (p, n, a, b, c, slack, want_slack)


def test_two_term_checks_c():
    # c enters the tail from n = 2 on
    for c in (0.0, -1.0, math.nan, math.inf, True, "1"):
        for n in (2, 3):
            with pytest.raises(ValueError, match="^c must be a finite positive real"):
                check_two_term(0.5, n, 1.0, 2.0, c)


def test_two_term_checks_c_at_every_n():
    # at n = 1 c enters no energy; it was accepted unchecked there
    for c in ("x", math.nan, True, -1.0):
        for n in (1, 2):
            with pytest.raises(ValueError, match="^c must be a finite positive real"):
                check_two_term(0.5, n, 1.0, 2.0, c)


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


def test_grid_arguments_are_value_errors():
    # each raised TypeError from deep in numpy or a comparison
    params = EnergyParams(2.0, 1)
    with pytest.raises(ValueError, match="^amin must be a finite positive real, got '0.1'$"):
        ratio_grid(params, 8, "0.1", 4.0)
    with pytest.raises(ValueError, match="grid_size must be an integer, got 8.5"):
        find_violation(params, 8.5)
    for grid_size in (True, "8", 8.5, math.nan):
        with pytest.raises(ValueError, match="grid_size must be an integer"):
            ratio_grid(params, grid_size)
    # each bound by the shared rule for a real, then their order
    for amin, amax, message in (
        (0.1, "4", "amax must be a finite positive real, got '4'"),
        (np.array(0.1), 4.0, r"amin must be a finite positive real, got array\(0.1\)"),
        (False, 4.0, "amin must be a finite positive real, got False"),
        (2**1100, 4.0, "amin must be within the float range, got an integer of 1101 bits"),
        (4.0, 0.1, "need finite 0 < amin < amax, got amin=4.0, amax=0.1"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ratio_grid(params, 8, amin, amax)
    with pytest.raises(ValueError, match="grid_size must be >= 2, got 1"):
        ratio_grid(params, 1)
    # from above too: these were a MemoryError, numpy's plain ValueError and an OverflowError
    huge = ((2**40, "1099511627776"), (2**100, "an integer of 101 bits"), (2**1100, "an integer of 1101 bits"))
    for grid_size, got in huge:
        with pytest.raises(_ArgumentError, match=f"^grid_size must be <= 4096, got {got}$"):
            ratio_grid(params, grid_size)
    assert ratio_grid(params, 384)[0].shape == (384, 384)
    # an integral float is the integer, as for n
    values, axis = ratio_grid(params, 8.0, 0.1, 4.0)
    expected_values, expected_axis = ratio_grid(params, 8, 0.1, 4.0)
    assert values.tobytes() == expected_values.tobytes()
    assert axis.tobytes() == expected_axis.tobytes()
    assert find_violation(params, 8.0) == find_violation(params, 8)


def test_find_violation_rejects_sloppy_tolerance():
    # near p = 1 the excess R - 1 is within 10x the error bound's floor of 10 * 1e-10 R
    with pytest.raises(CertificateError, match=r"ratio 1\.0000000004\d* minus one is within 10x the error bound 1\.000e-09"):
        find_violation(EnergyParams(1.0001, 1))


def _reference_golden_max(fn, lo, hi, iters):
    # the golden section of the search, copied so the reference stands alone
    g = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    best_x, best_f = (x1, f1) if f1 >= f2 else (x2, f2)
    for _ in range(iters):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + g * (hi - lo)
            f2 = fn(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - g * (hi - lo)
            f1 = fn(x1)
        if f1 >= best_f:
            best_x, best_f = x1, f1
        if f2 >= best_f:
            best_x, best_f = x2, f2
    return best_x, best_f


def _reference_find_violation(params, grid_size=64, amin=0.1, amax=4.0):
    # the search with every golden-section probe a call of the public ratio_R
    p, n = params.p, params.n
    values, axis = ratio_grid(params, grid_size, amin, amax)
    i, j = np.unravel_index(int(np.argmax(values)), values.shape)
    a_star, b_star, r_star = float(axis[i]), float(axis[j]), float(values[i, j])
    f_seed = f_lemma(p, 2 * n)
    if abs(f_seed) > 1e-12 and amin <= 1.0 <= amax:
        lo, hi = (1.0, amax) if f_seed > 0.0 else (amin, 1.0)
        seed_b, seed_r = _reference_golden_max(lambda b: ratio_R(params, 1.0, b), lo, hi, 60)
        if seed_r > r_star:
            a_star, b_star, r_star = 1.0, seed_b, seed_r
    bracket = ((amax / amin) ** (1.0 / (grid_size - 1))) ** 2
    for _ in range(3):
        lo, hi = max(amin, b_star / bracket), min(amax, b_star * bracket)
        cand_b, cand_r = _reference_golden_max(lambda b: ratio_R(params, a_star, b), lo, hi, 60)
        if cand_r > r_star:
            b_star, r_star = cand_b, cand_r
        lo, hi = max(amin, a_star / bracket), min(amax, a_star * bracket)
        cand_a, cand_r = _reference_golden_max(lambda a: ratio_R(params, a, b_star), lo, hi, 60)
        if cand_r > r_star:
            a_star, r_star = cand_a, cand_r
    r_star = ratio_R(params, a_star, b_star)
    quad = ratio_general(params, a_star, [b_star] * n)
    error_bound = max(abs(r_star - quad), 10.0 * 1e-10 * abs(r_star))
    found = p != 1.0 and r_star - 1.0 > 10.0 * error_bound
    return ineq.RatioCertificate(
        p, n, a_star, b_star, r_star, F_func(p, n, a_star, b_star), quad, error_bound, found
    )


def _refinement_cases():
    cases = [((p, n), {}) for p in (0.1, 0.5, 1.0, 2.0, 7.3, 16.0) for n in range(1, 7)]
    # a finer grid in a wider box, and boxes without 1, which have no a = 1
    # seed line in the reference (f(2, 2) < 0 would put it on [amin, 1])
    cases += [((2.3, 2), dict(grid_size=48, amin=0.05, amax=6.0))]
    cases += [((2.0, 1), dict(grid_size=24, amin=1.5, amax=5.0))]
    cases += [((p, n), dict(grid_size=16, amin=0.05, amax=0.5)) for p, n in [(2.0, 1), (2.0, 2), (4.0, 2)]]
    # no golden-section probe beats the grid's maximum, a corner of the box,
    # and the grid's array value there is one ulp below ratio_R's
    cases += [((2.8867638828083697, 1), dict(grid_size=4, amin=0.9, amax=1.1))]
    return cases


def test_find_violation_matches_ratio_R_refinement():
    for (p, n), box in _refinement_cases():
        params = EnergyParams(p, n)
        cert = find_violation(params, **box)
        reference = _reference_find_violation(params, **box)
        # Newton ends no lower than 434 golden-section probes of ratio_R, up to
        # ratio_R's rounding: at a flat peak the probes keep its largest error
        assert cert.ratio >= reference.ratio * (1.0 - 1e-13), (p, n, box, cert.ratio, reference.ratio)
        assert cert.violation_found == reference.violation_found, (p, n, box)
        # the certified ratio is ratio_R's, at a point of the box
        assert cert.ratio == ratio_R(params, cert.a_star, cert.b_star)
        amin, amax = box.get("amin", 0.1), box.get("amax", 4.0)
        assert amin <= cert.a_star <= amax and amin <= cert.b_star <= amax, (p, n, box)


def test_search_ends_at_a_first_order_point():
    # off the box's edge, each coordinate of a certificate has a vanishing
    # derivative of ln R, here central differences of ln ratio_R in ln a, ln b
    cases = [((p, n), {}) for p in (0.5, 2.0, 3.0) for n in (1, 2)]  # criterion 9
    h = 1e-6
    for (p, n), box in cases + _refinement_cases():
        params = EnergyParams(p, n)
        cert = find_violation(params, **box)
        amin, amax = box.get("amin", 0.1), box.get("amax", 4.0)
        u, t = math.log(cert.a_star), math.log(cert.b_star)

        def ln_r(u, t):
            return math.log(ratio_R(params, math.exp(u), math.exp(t)))

        for x, slope in [
            (cert.a_star, (ln_r(u + h, t) - ln_r(u - h, t)) / (2 * h)),
            (cert.b_star, (ln_r(u, t + h) - ln_r(u, t - h)) / (2 * h)),
        ]:
            if amin < x < amax:
                assert abs(slope) <= 1e-7, (p, n, box, x, slope)


def test_closed_derivatives_of_ln_R_match_central_differences():
    rng = np.random.default_rng(11)
    h = 1e-3
    for p, n in [(0.1, 1), (0.5, 2), (2.0, 1), (2.0, 3), (7.3, 6), (16.0, 2), (1.0, 4)]:
        params = EnergyParams(p, n)
        _, derivs = ineq._log_ratio_model(p, n)

        def f(u, t):
            return math.log(ratio_R(params, math.exp(u), math.exp(t)))

        for u, t in rng.uniform(math.log(0.1), math.log(40.0), (6, 2)).tolist():
            closed = derivs(math.exp(u), math.exp(t))
            fd = (
                (f(u + h, t) - f(u - h, t)) / (2 * h),
                (f(u, t + h) - f(u, t - h)) / (2 * h),
                (f(u + h, t) - 2 * f(u, t) + f(u - h, t)) / h**2,
                (f(u + h, t + h) - f(u + h, t - h) - f(u - h, t + h) + f(u - h, t - h)) / (4 * h * h),
                (f(u, t + h) - 2 * f(u, t) + f(u, t - h)) / h**2,
            )
            for k, (c, d) in enumerate(zip(closed, fd)):
                assert abs(c - d) <= 1e-6 * max(1.0, abs(c)), (p, n, u, t, k, c, d)


def test_search_makes_a_constant_number_of_checked_calls(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(ineq, "log_pair_energy", counted(ineq.log_pair_energy))
    monkeypatch.setattr(ineq, "ratio_R", counted(ineq.ratio_R))
    for p, n in [(2.0, 1), (0.5, 3), (7.3, 6), (1.0, 2), (1.03, 6)]:
        calls.clear()
        cert = find_violation(EnergyParams(p, n))
        # the cross-check's diagonal energy per distinct exponent and one checked
        # ratio_R: the grid checks its box once and fills its blocks, and ratio_R,
        # F_func and the Newton steps read ln E, off the unchecked pair formula,
        # however many steps they take
        diagonal = ["log_pair_energy"] * len({cert.a_star, cert.b_star})
        assert calls == [*diagonal, "ratio_R"], (p, n, calls)


def test_ineq_holds_no_module_level_cache():
    # ratio_R and F_func each check their point and evaluate its pair energies
    assert [name for name, obj in vars(ineq).items() if hasattr(obj, "cache_info")] == []


def test_ratio_R_and_F_name_the_first_pair_past_the_range():
    # pairs are checked as (a, b), (a, a), (b, b); at a = 1 only (b, b) overflows
    params = EnergyParams(2.0, 1)
    for a, b, named in ((1.0, 1e-306, "a = 1e-306, b = 1e-306"), (1e-306, 1.0, "a = 1e-306, b = 1.0")):
        with pytest.raises(ValueError, match=f"{named}: "):
            ratio_R(params, a, b)
        with pytest.raises(ValueError, match=f"{named}: "):
            F_func(2.0, 1, a, b)


def test_scalar_arguments_refuse_arrays():
    # each raised TypeError from a cache or from float() deep in the stack,
    # or returned an array
    params, pair = EnergyParams(2.0, 2), np.array([1.0, 2.0])
    refused = (
        lambda: ratio_R(params, pair, 1.0),
        lambda: F_func(2.0, 2, 1.0, pair),
        lambda: check_two_term(0.5, 2, pair, 1.0, 1.0),
        lambda: check_two_term(0.5, 2, 1.0, pair, 1.0),
        lambda: check_two_term(0.5, 2, 1.0, 1.0, pair),
        lambda: energy_closed_core(2.0, 2, pair, [1.0, 1.0]),
        lambda: energy_numeric(params, pair, [1.0, 1.0]),
        lambda: ratio_general(params, pair, [1.0, 1.0]),
        lambda: log_gamma(pair),
        lambda: beta(pair, 1.0),
    )
    for call in refused:
        with pytest.raises(ValueError, match=r"must be a finite positive real, got array\("):
            call()


def test_search_evaluates_each_diagonal_once(monkeypatch):
    # the model keeps E(x, x)'s derivative pair per x, and each point's
    # derivatives: over half of the diagonal points that the searches visit
    # repeat one, as an edge search holds a coordinate at a bound
    kernel, model = ineq._log_gamma_ratio_derivs, ineq._log_ratio_model
    kernel_args, points = [], []

    def recorded_kernel(y, s):
        kernel_args.append(y)
        return kernel(y, s)

    def recorded_model(p, n):
        value, derivs = model(p, n)

        def recorded_derivs(a, b):
            points.append((a, b))
            return derivs(a, b)

        return value, recorded_derivs

    monkeypatch.setattr(ineq, "_log_gamma_ratio_derivs", recorded_kernel)
    monkeypatch.setattr(ineq, "_log_ratio_model", recorded_model)
    for p in (0.2, 2.0, 16.0):
        for n in (1, 6):
            kernel_args.clear()
            points.clear()
            cert = find_violation(EnergyParams(p, n))
            # each distinct point's own (b + 1) n / a; what is left are the diagonal's
            off_diagonal = Counter((b + 1.0) * n / a for a, b in set(points))
            diagonal = Counter(kernel_args) - off_diagonal
            assert sum(off_diagonal.values()) + sum(diagonal.values()) == len(kernel_args)
            assert max(diagonal.values()) == 1, (p, n, diagonal.most_common(3))
            assert set(diagonal) == {(x + 1.0) * n / x for point in points for x in point}
            # a second search builds its own model and finds the same certificate
            assert find_violation(EnergyParams(p, n)) == cert, (p, n)


def test_search_objective_is_ln_ratio_R():
    # the search maximizes ratio_R's own ln R: exp of it is ratio_R, bit for bit
    rng = np.random.default_rng(7)
    for p, n in [(0.1, 1), (2.0, 1), (1.0, 3), (7.3, 6), (16.0, 2)]:
        params = EnergyParams(p, n)
        value, _ = ineq._log_ratio_model(p, n)
        # math.log misses np.log's bits at ~1 point in 1250, so 3000 points
        for a, b in rng.uniform(0.1, 4.0, (600, 2)).tolist():
            r = ratio_R(params, a, b)
            ln_r = value(a, b)
            assert math.exp(ln_r) == r, (p, n, a, b)
            assert abs(ln_r - math.log(r)) <= 4 * math.ulp(max(1.0, abs(ln_r))), (p, n, a, b)
    # at the Beta argument y = (b + 1) n / a = 1e300 ln R takes the log-Gamma
    # ratio; two lgamma values of size y ln y cancelled there
    params = EnergyParams(2.0, 1)
    expected = float(oracle_ratio(2.0, 1, 1e-150, 1e150))
    assert abs(ratio_R(params, 1e-150, 1e150) - expected) <= 1e-12 * expected
    assert math.exp(ineq._log_ratio_model(2.0, 1)[0](1e-150, 1e150)) == ratio_R(params, 1e-150, 1e150)


def test_refinement_on_extreme_boxes_has_no_spurious_overflow():
    # for n = 1, R <= D_p = 4, so no point in a box whose Beta arguments are
    # floats overflows.  An 8-point grid on [1e4, 1e306] finds no R > 1 off
    # its diagonal, but the searches along its edges a = 1e4 and b = 1e4 do
    for p in (0.5, 2.0):
        cert = find_violation(EnergyParams(p, 1), grid_size=8, amin=1e4, amax=1e306)
        expected = float(oracle_ratio(p, 1, cert.a_star, cert.b_star))
        assert cert.violation_found and cert.ratio > 1.01
        assert abs(cert.ratio - expected) <= 1e-12 * expected
    cert = find_violation(EnergyParams(2.0, 1), amin=1e-150, amax=1e150)
    expected = float(oracle_ratio(2.0, 1, cert.a_star, cert.b_star))
    assert cert.violation_found and cert.ratio > 1.02
    assert abs(cert.ratio - expected) <= 1e-12 * expected


def test_ratio_grid_matches_ratio_R(monkeypatch):
    # the oracle on a sub-lattice holding the corners and both sides of the row-block edge
    sample = sorted({*range(0, 40, 3), 31, 32, 39})
    monkeypatch.setattr(ineq, "_GRID_BLOCK_CELLS", 32 * 40)
    for p, n in [(2.0, 2), (0.3, 1), (7.5, 4)]:
        params = EnergyParams(p, n)
        values, axis = ratio_grid(params, 40, 0.05, 6.0)  # two row blocks, one partial
        for i, a in enumerate(axis):
            for j, b in enumerate(axis):
                # ratio_R takes two lgamma values here, good to its documented 1e-12
                scalar = ratio_R(params, float(a), float(b))
                assert abs(values[i, j] - scalar) <= 1e-12 * scalar, (p, n, i, j)
        weight = Decimal(repr(p))
        diag = {i: oracle_log_pair_energy(p, n, axis[i], axis[i]) for i in sample}
        for i in sample:
            for j in sample:
                log_ab = oracle_log_pair_energy(p, n, axis[i], axis[j])
                expected = float((log_ab - (weight * diag[i] + n * diag[j]) / (weight + n)).exp())
                assert abs(values[i, j] - expected) <= 5e-14 * expected, (p, n, i, j)


def _ratio_grid_two_calls(params, grid_size, amin, amax):
    """ratio_grid's earlier form: the diagonal from its own call on the axis, then 32-row blocks."""
    p, n = params.p, params.n
    with np.errstate(over="ignore"):
        axis = np.geomspace(amin, amax, grid_size)
    log_diag = log_pair_energy(p, n, axis, axis)
    values = np.empty((grid_size, grid_size))
    with np.errstate(over="ignore"):
        for lo in range(0, grid_size, 32):
            rows = slice(lo, lo + 32)
            log_den = (p * log_diag[rows, None] + n * log_diag) / (n + p)
            values[rows] = np.exp(log_pair_energy(p, n, axis[rows, None], axis) - log_den)
    return values, axis


def test_ratio_grid_bits_do_not_depend_on_its_blocks(monkeypatch):
    # the diagonal read off the grid is the axis' own diagonal energies, bit
    # for bit, whether the grid is one block, one per row, or 64^2-cell ones
    cases = [
        (2.0, 1, 64, 0.1, 4.0),
        (0.3, 3, 40, 0.05, 6.0),
        (16.0, 6, 97, 0.1, 4.0),
        (1.0, 2, 65, 0.2, 3.0),
        (1e100, 1, 8, 0.1, 4.0),  # inf cells
        (2.0, 1, 64, 1e-150, 1e150),
        (0.5, 4, 33, 1e-150, 1e150),
    ]
    for p, n, grid_size, amin, amax in cases:
        params = EnergyParams(p, n)
        expected = [x.tobytes() for x in _ratio_grid_two_calls(params, grid_size, amin, amax)]
        for cells in (1, 64 * 64, 1 << 30):
            monkeypatch.setattr(ineq, "_GRID_BLOCK_CELLS", cells)
            values, axis = ratio_grid(params, grid_size, amin, amax)
            assert [values.tobytes(), axis.tobytes()] == expected, (p, n, grid_size, amin, amax, cells)
            if p == 1e100:
                assert np.isinf(values).any() and np.isfinite(values).any()
    # the overflowing Beta argument is named in the same cell however the grid
    # is cut: the largest off the diagonal, or a diagonal one if that overflows
    overflows = [
        ((1e-300, 1e300), r"a = 1e-300, b = 1e\+150: \(b \+ 1\) n / a = inf"),
        ((1e-306, 1.0), r"a = 1e-306, b = 1e-306: \(b \+ 1\) n / a = 1e\+306"),
    ]
    for (amin, amax), message in overflows:
        with pytest.raises(ValueError, match=message):
            _ratio_grid_two_calls(EnergyParams(2.0, 1), 5, amin, amax)
        for cells in (1, 64 * 64, 1 << 30):
            monkeypatch.setattr(ineq, "_GRID_BLOCK_CELLS", cells)
            with pytest.raises(ValueError, match=message):
                ratio_grid(EnergyParams(2.0, 1), 5, amin, amax)


def test_ratio_R_matches_oracle():
    for p, n, a, b in [
        (2.0, 1, 1.0, 0.5),
        (0.5, 2, 2.38, 3.98),
        (3.0, 3, 0.1, 4.0),
        (7.5, 6, 4.0, 0.1),
    ]:
        expected = float(oracle_ratio(p, n, a, b))
        value = ratio_R(EnergyParams(p, n), a, b)
        assert abs(value - expected) <= 1e-12 * expected, (p, n, a, b)


def test_constants_report_fields():
    report = constants_report(2.0, 1)
    assert report.alpha == 1.0
    assert report.d_p == 4.0
    assert abs(report.f_p2n - (-1.0 / 12.0)) <= 1e-10
    assert report.d_p >= 1.0


def test_non_integral_n_is_refused():
    # one validator behind every (p, n) entry point; it never truncates n
    for fn in (alpha_const, d_const, f_lemma, dFdb_closed, constants_report):
        with pytest.raises(ValueError, match="n must be an integer, got 1.5"):
            fn(2.0, 1.5)
    with pytest.raises(ValueError, match="n must be an integer"):
        F_func(2.0, 1.5, 1.0, 1.2)
    with pytest.raises(ValueError, match="n must be an integer"):
        ratio_R(EnergyParams(2.0, 1.5), 1.0, 1.2)
    with pytest.raises(ValueError, match="p must be a finite positive real"):
        alpha_const("2", 1)
    assert alpha_const(2.0, 2.0) == alpha_const(2.0, 2)
    assert constants_report(2.0, 1.0) == constants_report(2.0, 1)


def test_an_n_past_the_float_range_is_a_value_error():
    # an int n that float() cannot convert is refused by the (p, n) validator,
    # which once let the OverflowError of float(n) or 2.0 * n escape
    for n in (10**400, 2**1024 - 1):
        for fn in (
            lambda: f_lemma(2.0, n),
            lambda: dFdb_closed(2.0, n),
            lambda: log_pair_energy(2.0, n, 1.0, 1.0),
            lambda: ratio_R(EnergyParams(2.0, n), 1.0, 1.0),
        ):
            with pytest.raises(ValueError, match="n must be within the float range"):
                fn()
    # an n that converts is still accepted
    assert EnergyParams(2.0, 10**300).n == 10**300


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
    for amin, amax, message in [
        (0.1, math.inf, "amax must be a finite positive real, got inf"),
        (math.nan, 4.0, "amin must be a finite positive real, got nan"),
        (-math.inf, 4.0, "amin must be a finite positive real, got -inf"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            ratio_grid(EnergyParams(2.0, 1), 8, amin, amax)
    # at the Beta argument y = 1e300, where two lgamma values of size y ln y
    # cancelled, R ~ 1.8e-200 and F ~ -1.1e-300 are floats; at p = 2,
    # B(3, y) = 2 / (y (y + 1) (y + 2)) and F = (B_a^2 B_b)^(1/3) (R - 1)
    r = oracle_ratio(2.0, 1, 1e-150, 1e150)
    assert abs(ratio_R(EnergyParams(2.0, 1), 1e-150, 1e150) - float(r)) <= 1e-12 * float(r)
    a, b = Decimal("1e-150"), Decimal("1e150")
    beta3 = [2 / (y * (y + 1) * (y + 2)) for y in ((a + 1) / a, (b + 1) / b)]
    f = float((beta3[0] ** 2 * beta3[1]) ** (Decimal(1) / 3) * (r - 1))
    assert abs(F_func(2.0, 1, 1e-150, 1e150) - f) <= 1e-12 * abs(f)
    # the Beta argument (b + 1) n / a overflows; the error names a, b and it
    with pytest.raises(ValueError, match=r"a = 1e-300, b = 1e\+300: \(b \+ 1\) n / a = inf"):
        ratio_R(EnergyParams(2.0, 1), 1e-300, 1e300)
    with pytest.raises(ValueError, match=r"a = 1e-300, b = 1e\+150"):
        ratio_grid(EnergyParams(2.0, 1), 5, 1e-300, 1e300)


def test_ratio_general_underflow_is_a_value_error():
    # C cancels and is never computed, and ln R is taken in log scale, so
    # nothing underflows at p = 1e6, n = 100: R = 1 at a0 = b, up to the
    # closed denominator's log-Gamma rounding; at p = 1e12 the smoothed
    # quadrature finds the integrand's narrow peak
    assert abs(ratio_general(EnergyParams(1e6, 100), 1.0, [1.0] * 100) - 1.0) <= 1e-8
    exact = float(oracle_log_tail_energy(1e12, 100, 1.0, [1.0] * 100))
    assert abs(_log_energy_quad(1e12, 100, 1.0, [1.0] * 100) - exact) <= 1e-14 * abs(exact)
    # where the peak falls between the Gauss nodes, the error names n
    # instead of taking the log of a zero integral
    with pytest.raises(ValueError, match=r"quadrature at n = 1 misses its integrand's peak at a0 = 0\.01"):
        ratio_general(EnergyParams(1e4, 1), 0.01, [0.005])


def test_overflows_and_nan_are_value_errors():
    for p, n in ((1e-300, 6), (1e-10, 40)):
        with pytest.raises(ValueError, match=f"alpha\\(p, n\\) overflows a float at p = {p!r}, n = {n}"):
            alpha_const(p, n)
        with pytest.raises(ValueError, match="overflows"):
            constants_report(p, n)
    # D_p past the float range is the documented inf
    assert d_const(0.5, 200) == math.inf
    with pytest.raises(ValueError, match="a0 must be a finite positive real, got nan"):
        check_two_term(0.5, 1, math.nan, 1.0, 1.0)
    with pytest.raises(ValueError, match=r"p a normal float, got 5e-324"):
        check_two_term(5e-324, 1, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError, match="dF/db at"):
        dFdb_closed(7.741001517595157e153, 7.741001517595157e153)


def test_ratio_general_with_the_closed_energy_is_ratio_R_bit_for_bit(monkeypatch):
    # with ln E(a, b) in place of its quadrature, the cross-check's Hoelder
    # denominator is ratio_R's: ln E(a, a), and the tail's sum n ln E(b, b)
    def closed(p, n, a0, tail):
        return float(energy._log_pair_energy(p, n, a0, tail[0]))

    monkeypatch.setattr(ineq, "_log_energy_quad", closed)
    for p in (0.37, 1.0, 2.3, 17.0, 1e4):
        for n in (1, 2, 3, 7, 30, 101):
            for a in (1e-3, 0.21, 1.0, 3.7, 250.0):
                for b in (2e-3, 0.5, 1.0, 4.4, 1e3):
                    params = EnergyParams(p, n)
                    assert ratio_general(params, a, [b] * n) == ratio_R(params, a, b), (p, n, a, b)


def test_an_equal_tail_makes_two_diagonal_evaluations(monkeypatch):
    # the cross-check once sent all n + 1 exponents through one array call
    cells = []

    def counted(p, n, a, b):
        cells.append(np.size(a))
        return log_pair_energy(p, n, a, b)

    monkeypatch.setattr(ineq, "log_pair_energy", counted)
    n = 1000
    value = ratio_general(EnergyParams(2.0, n), 0.8, [1.2] * n)
    assert sum(cells) == 2
    assert abs(value - ratio_R(EnergyParams(2.0, n), 0.8, 1.2)) <= 1e-8 * value
