import math
import sys
import warnings
from decimal import Decimal

import numpy as np
import pytest

from qma import specfun
from qma.energy import (
    EnergyParams,
    QuadratureError,
    _log_c_energy,
    _log_energy_quad,
    energy_closed_core,
    energy_numeric,
    integrate_unit_interval,
    log_pair_energy,
    sphere_area,
    total_mass,
)
from qma.hessian import PowerFamilyMember, mixed_density
from qma.ineq import check_two_term, find_violation, ratio_general, ratio_R

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import PI_50, oracle_log_pair_energy, oracle_log_tail_energy, oracle_total_mass


def test_sphere_area_examples():
    assert abs(sphere_area(1) - 2.0 * math.pi**2) <= 1e-14
    assert abs(sphere_area(2) - math.pi**4 / 3.0) <= 1e-13
    # Gamma-function oracle: area = 2 pi^{2n} / Gamma(2n)
    for n in (1, 2, 3, 4):
        assert abs(sphere_area(n) - 2.0 * math.pi ** (2 * n) / math.factorial(2 * n - 1)) == 0.0


def test_constants_past_the_factorial_range():
    # (2n - 1)! leaves the float range at n = 86; C, the sphere area and the
    # energies do not.  50-digit references: area = 2 pi^{2n} / (2n-1)!, and at
    # a = b = 1 the energy is C * 2 * B(3, 2n) = 2 pi^{2n} / (2n+2)!.
    n = 86
    pi_2n = PI_50 ** (2 * n)
    c = pi_2n / (2 * math.factorial(2 * n - 1))
    cases = [
        (sphere_area(n), 4 * c),
        (energy_closed_core(2.0, n, 1.0, [1.0] * n), 2 * pi_2n / math.factorial(2 * n + 2)),
        # b^n (b+1) / a = 1 and B(3, 86) = 2 / (86 * 87 * 88)
        (energy_closed_core(2.0, n, 2.0, [1.0] * n), c * 2 / (86 * 87 * 88)),
    ]
    for value, expected in cases:
        assert abs(Decimal(value) / expected - 1) <= Decimal("1e-12"), (value, expected)


def test_constants_agree_with_factorial_form():
    for n in range(1, 86):
        assert sphere_area(n) == 2.0 * math.pi ** (2 * n) / math.factorial(2 * n - 1)
    for n in range(1, 11):
        c = math.pi ** (2 * n) / (2.0 * math.factorial(2 * n - 1))
        for p, a, b in [(0.0, 1.0, 1.0), (0.5, 0.3, 2.0), (2.0, 1.5, 0.7), (7.0, 4.0, 4.0)]:
            value = energy_closed_core(p, n, a, [b] * n)
            expected = c * math.exp(log_pair_energy(p, n, a, b))
            assert abs(value - expected) <= 1e-14 * expected, (n, p, a, b)


def test_ball_volume_consistency():
    # the radial integral of t^{4n-1} carries no constant: the ball's volume is sphere_area(n) times it
    for n in (1, 2, 3):
        vol = integrate_unit_interval(lambda t: t ** (4 * n - 1))
        assert abs(vol - 1.0 / (4 * n)) <= 1e-10 * vol
    area = sphere_area(1)
    assert abs(integrate_unit_interval(lambda t: t**3) - math.pi**2 / 2.0 / area) <= 1e-10 / area


def test_integrable_singularity():
    value = integrate_unit_interval(lambda t: 1.0 / t * t**3)
    assert abs(value - 2.0 * math.pi**2 / 3.0 / sphere_area(1)) <= 1e-9 * value


def test_radial_reduction_reproduces_beta_form():
    # int (1 - t^{2a})^p t^{2n(b-1)} t^{4n-1} dt = B(p+1, (b+1) n / a) / (2a)
    from qma.specfun import beta

    for (p, a, b, n) in [(0.5, 1.0, 0.6, 1), (2.0, 1.5, 1.0, 2), (1.0, 0.75, 2.0, 3)]:
        value = integrate_unit_interval(
            lambda t: (1.0 - t ** (2 * a)) ** p * t ** (2 * n * (b - 1.0)) * t ** (4 * n - 1)
        )
        expected = beta(p + 1.0, (b + 1.0) * n / a) / (2.0 * a)
        assert abs(value - expected) <= 1e-8 * abs(expected)


def test_energy_spot_values():
    params = EnergyParams(1.0, 1)
    closed = energy_closed_core(params.p, params.n, 1.0, [1.0])
    assert abs(closed - math.pi**2 / 6.0) <= 1e-10
    result = energy_numeric(params, 1.0, [1.0])
    assert abs(result.value - math.pi**2 / 6.0) <= 1e-10
    assert result.method == "both"
    assert result.discrepancy <= 1e-8


def test_total_mass_values_and_law():
    assert abs(total_mass(PowerFamilyMember(1.0, 1)) - math.pi**2 / 2.0) <= 1e-10
    assert abs(total_mass(PowerFamilyMember(2.0, 1)) - math.pi**2) <= 1e-9
    for n in (1, 2, 3):
        base = total_mass(PowerFamilyMember(1.0, n))
        for a in (0.25, 0.5, 2.0, 4.0):
            mass = total_mass(PowerFamilyMember(a, n))
            assert abs(mass / base - a**n) <= 1e-8 * a**n


def test_total_mass_monotone_witnesses():
    masses = [total_mass(PowerFamilyMember(a, 2)) for a in (0.5, 1.0, 2.0)]
    assert masses[0] < masses[1] < masses[2]


def test_closed_form_matches_quadrature_small_grid():
    for p in (0.25, 1.0, 4.0):
        for a in (0.25, 1.0, 4.0):
            for b in (0.25, 1.0, 4.0):
                for n in (1, 2):
                    result = energy_numeric(EnergyParams(p, n), a, [b] * n)
                    assert result.method == "both"
                    assert result.discrepancy <= 1e-8, (p, a, b, n, result.discrepancy)


def test_closed_core_total_mass_identity():
    # p = 0 closed form must reduce to C a^n / n independently of the weight exponent
    for n in (1, 2, 3):
        c = sphere_area(n) / 4
        for a in (0.5, 1.0, 3.0):
            for weight in (0.5, 1.0, 2.0):
                value = energy_closed_core(0.0, n, weight, [a] * n)
                assert abs(value - c * a**n / n) <= 1e-12 * abs(value)


def test_mixed_tail_energy_cross_checked_termwise():
    # (1 - r^2) against the (1,1) tail in H^2: termwise Beta integrals give pi^4/120
    result = energy_numeric(EnergyParams(1.0, 2), 1.0, [1.0, 1.0])
    assert abs(result.value - math.pi**4 / 120.0) <= 1e-10
    # non-uniform tail (2, 1) in H^2: alpha = (2s, 1), beta = (1, 0), so the
    # mixed density is 2s + (s/2) = 2.5 t^2; integrate termwise.  The closed
    # form covers unequal tails too, so the quadrature is cross-checked
    result = energy_numeric(EnergyParams(1.0, 2), 1.0, [2.0, 1.0])
    expected = sphere_area(2) * 2.5 * (1.0 / 10.0 - 1.0 / 12.0)
    assert abs(result.value - expected) <= 1e-9 * abs(expected)
    assert result.method == "both"
    assert result.discrepancy <= 1e-9
    closed = energy_closed_core(1.0, 2, 1.0, [2.0, 1.0])
    assert abs(closed - expected) <= 1e-13 * expected


def test_comparison_principle_instance():
    grid = (0.25, 0.5, 1.0, 2.0, 4.0)
    rng = np.random.default_rng(30)
    radii = rng.uniform(0.0, 1.0, size=200)
    for n in (1, 2):
        masses = {a: total_mass(PowerFamilyMember(a, n)) for a in grid}
        for a in grid:
            for b in grid:
                if a >= b:
                    ua = radii ** (2 * a) - 1.0
                    ub = radii ** (2 * b) - 1.0
                    assert np.all(ua <= ub + 1e-15)
                    assert masses[a] >= masses[b] * (1.0 - 1e-12)


def test_endpoint_robustness_small_b():
    for n in (1, 2, 3):
        result = energy_numeric(EnergyParams(0.5, n), 1.0, [0.1] * n)
        assert math.isfinite(result.value) and result.value > 0.0
        assert result.discrepancy <= 1e-8


def test_energy_result_invariants():
    result = energy_numeric(EnergyParams(2.0, 1), 0.5, [2.0])
    assert result.value >= 0.0
    closed = energy_closed_core(2.0, 1, 0.5, [2.0])
    assert abs(result.discrepancy - abs(closed - result.value) / closed) <= 1e-15


def test_quadrature_failure_is_reported():
    # the cascade into t = 0 never evaluates 0 itself, and reaches the depth limit
    with pytest.raises(QuadratureError, match="tolerance 1e-10 not met within 60 subdivisions"):
        integrate_unit_interval(lambda t: t**-0.9)
    with pytest.raises(QuadratureError, match=r"non-finite integrand on panel \(0\.0, 1\.0\)"):
        integrate_unit_interval(lambda t: np.where(t < 0.5, np.inf, 1.0))
    # nan on the first node of one or both children of the first bisection:
    # the first bad panel is named
    x0 = 0.5 * (np.polynomial.legendre.leggauss(32)[0][0] + 1.0)
    for bad, name in (([0.5 + 0.5 * x0], r"0\.5, 1\.0"), ([0.5 * x0, 0.5 + 0.5 * x0], r"0\.0, 0\.5")):
        with pytest.raises(QuadratureError, match=r"non-finite integrand on panel \(" + name):
            integrate_unit_interval(lambda t: np.where(np.isin(t, bad), np.nan, t**-0.5))


def test_rel_tol_is_checked_before_the_integrand_runs():
    calls = []

    def f(t):
        calls.append(t.size)
        return t

    params = EnergyParams(2.0, 1)
    entries = (
        lambda tol: integrate_unit_interval(f, rel_tol=tol),
        lambda tol: _log_energy_quad(2.0, 1, 1.0, [2.0], tol),
        lambda tol: energy_numeric(params, 1.0, [2.0], rel_tol=tol),
        lambda tol: ratio_general(params, 1.0, [2.0], rel_tol=tol),
        lambda tol: find_violation(params, rel_tol=tol),
    )
    for entry in entries:
        for tol in (0.0, math.nan, math.inf, 1e-17, "1e-3", True):
            with pytest.raises(ValueError, match="rel_tol must be finite and at least 2.22"):
                entry(tol)
    assert calls == []
    assert integrate_unit_interval(f, rel_tol=sys.float_info.epsilon) == 0.5
    assert integrate_unit_interval(f, rel_tol=1) == 0.5


def test_cascade_into_an_endpoint_can_evaluate_it():
    # the Gauss nodes are interior, but on the narrow panels of the cascade
    # into t = 1 the node a + width * x rounds to 1.0 at the default rel_tol
    with np.errstate(divide="ignore"):
        with pytest.raises(
            QuadratureError, match=r"non-finite integrand on panel \(0\.9999999999998863, 1\.0\)"
        ):
            integrate_unit_interval(lambda t: (1.0 - t) ** -0.5)


def test_parameter_validation():
    with pytest.raises(ValueError):
        EnergyParams(0.0, 1)
    with pytest.raises(ValueError):
        EnergyParams(1.0, 0)
    for n in (1.5, math.nan, math.inf, "2", None, True):
        with pytest.raises(ValueError, match="n must be an integer"):
            EnergyParams(2.0, n)
    for p in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="p must be a finite positive real"):
            EnergyParams(p, 1)
    # p is not coerced either: a string or a bool is refused like n
    for p in ("2", True, None):
        with pytest.raises(ValueError, match="p must be a finite positive real"):
            EnergyParams(p, 1)
    # an integral n is kept as an int, p as a float
    params = EnergyParams(2, 3.0)
    assert (params.p, params.n) == (2.0, 3)
    assert type(params.p) is float and type(params.n) is int
    assert EnergyParams(2.0, np.int64(2)).n == 2
    # one positive-real check: a string or a bool is refused wherever a real is read
    params = EnergyParams(2.0, 1)
    refused = (
        lambda: EnergyParams(True, 1),
        lambda: PowerFamilyMember("1", 1),
        lambda: specfun.digamma("3"),
        lambda: specfun.log_gamma(True),
        lambda: specfun.log_gamma(np.array([True])),
        lambda: specfun.log_beta(np.array(["1"]), 1.0),
        lambda: ratio_R(params, "1", 2.0),
        lambda: energy_numeric(params, "1", [1.0]),
        lambda: energy_numeric(params, 1.0, ["1"]),
        lambda: check_two_term("0.5", 1, 1.0, 2.0, 1.0),
        lambda: check_two_term(0.5, 2, 1.0, 2.0, False),
    )
    for call in refused:
        with pytest.raises(ValueError, match="must be a finite positive real, got"):
            call()
    with pytest.raises(ValueError):
        energy_numeric(EnergyParams(1.0, 2), 1.0, [1.0])  # tail too short
    with pytest.raises(ValueError):
        energy_numeric(EnergyParams(1.0, 1), -1.0, [1.0])
    with pytest.raises(ValueError):
        sphere_area(0)
    with pytest.raises(ValueError, match="p must be finite"):
        log_pair_energy(math.inf, 1, 1.0, 1.0)
    for p in (math.nan, True, "2"):
        with pytest.raises(ValueError, match="non-negative"):
            log_pair_energy(p, 1, 1.0, 1.0)
    with pytest.raises(ValueError, match="non-negative"):
        energy_closed_core(True, 1, 1.0, [1.0])
    # arrays: the error names the cell whose Beta argument overflows, and
    # numpy warns of no overflow before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"a = 1e-300, b = 1e\+300"):
            log_pair_energy(2.0, 1, np.array([1.0, 1e-300]), np.array([[1.0], [1e300]]))
        with pytest.raises(ValueError, match=r"a = 1e-308, b = 1e-308"):
            log_pair_energy(2.0, 1, np.array([1e-308, 1.0]), np.array([1e-308, 1.0]))


def _reference_integrate(f, rel_tol=1e-10):
    """The per-panel integrator of the previous release: two calls of f per panel.

    Returns the integral and the number of bisections.
    """
    m = 32
    xs1, ws1 = np.polynomial.legendre.leggauss(m)
    xs2, ws2 = np.polynomial.legendre.leggauss(2 * m)
    xs1, ws1, xs2, ws2 = 0.5 * (xs1 + 1.0), 0.5 * ws1, 0.5 * (xs2 + 1.0), 0.5 * ws2

    def panel(a, b):
        width = b - a
        v1 = np.asarray(f(a + width * xs1), dtype=float)
        v2 = np.asarray(f(a + width * xs2), dtype=float)
        coarse = width * float(ws1 @ v1)
        fine = width * float(ws2 @ v2)
        return fine, abs(fine - coarse)

    panels = [(0.0, 1.0, 0, *panel(0.0, 1.0))]
    bisections = 0
    while True:
        total = math.fsum(p[3] for p in panels)
        total_err = math.fsum(p[4] for p in panels)
        if 8.0 * total_err <= rel_tol * max(abs(total), 1e-300):
            return total, bisections
        worst = max(range(len(panels)), key=lambda i: panels[i][4])
        a, b, depth, _, _ = panels[worst]
        mid = 0.5 * (a + b)
        panels[worst] = (a, mid, depth + 1, *panel(a, mid))
        panels.append((mid, b, depth + 1, *panel(mid, b)))
        bisections += 1


def test_batched_integrator_matches_per_panel_reference():
    p, n, a0, tail = 2.3, 3, 0.7, [0.4, 1.9, 3.1]
    members = [PowerFamilyMember(b, n) for b in tail]

    def energy_integrand(t):
        return (1.0 - t ** (2.0 * a0)) ** p * mixed_density(members, t) * t ** (4 * n - 1)

    # past rel_tol 1e-6, nodes of the cascade into t = 1 round to 1.0
    singular = (lambda t: (1.0 - t) ** -0.5, 1e-6)
    counts = []
    smooth = (lambda t: t**3.7, 1e-10)
    for f, rel_tol in (singular, smooth, (energy_integrand, 1e-10)):
        sizes = []

        def counted(t, f=f):
            sizes.append(t.size)
            return f(t)

        expected, bisections = _reference_integrate(f, rel_tol)
        counts.append(bisections)
        assert integrate_unit_interval(counted, rel_tol=rel_tol) == expected
        # one call on the first panel, then one per bisection on both children
        assert sizes == [96] + [192] * bisections
    assert counts[0] > 20 and counts[2] > 0
    # the quadrature of hessian.mixed_density is the closed energy of energy.py
    closed = energy_closed_core(p, n, a0, tail)
    assert abs(sphere_area(n) * expected - closed) <= 1e-10 * closed


def test_energy_underflow_is_a_value_error():
    # sphere_area(n) is subnormal from n = 110 on, so the energy is no longer
    # a normal float; the error names n
    for n in (110, 120):
        with pytest.raises(ValueError, match=f"energy at n = {n} underflows"):
            energy_numeric(EnergyParams(2.0, n), 1.0, [1.2] * n)
    assert energy_numeric(EnergyParams(2.0, 109), 1.0, [1.2] * 109).value > 0.0


def test_closed_form_and_total_mass_underflow_are_value_errors():
    # the closed form and the total mass leave the normal range with
    # sphere_area(n), which itself is returned as is
    assert 0.0 < sphere_area(109) and sphere_area(110) < 2.2250738585072014e-308
    assert sphere_area(113) > 0.0 and sphere_area(114) == 0.0
    with pytest.raises(ValueError, match=r"energy at n = 120 underflows a float at a0 = 1\.0"):
        energy_closed_core(2.0, 120, 1.0, [1.2] * 120)
    with pytest.raises(ValueError, match="total mass at n = 120 underflows"):
        total_mass(PowerFamilyMember(1.0, 120))
    assert energy_closed_core(2.0, 109, 1.0, [1.2] * 109) > 0.0
    assert total_mass(PowerFamilyMember(1.0, 108)) > 0.0


def test_n_is_checked_by_the_one_validator():
    for fn in (
        lambda n: energy_closed_core(2.0, n, 1.0, [1.0]),
        lambda n: log_pair_energy(2.0, n, 1.0, 1.0),
        sphere_area,
        lambda n: energy_numeric(EnergyParams(2.0, n), 1.0, [1.0]),
    ):
        for n in (1.5, True, "2"):
            with pytest.raises(ValueError, match="n must be an integer"):
                fn(n)
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            fn(0)
    assert energy_closed_core(2, 1.0, 1, [1]) == energy_closed_core(2.0, 1, 1.0, [1.0])


def test_nan_fails_the_a0_check():
    for a0 in (math.nan, 0.0, -1.0, math.inf):
        with pytest.raises(ValueError, match="a0 must be a finite positive real"):
            energy_numeric(EnergyParams(2.0, 1), a0, [1.0])
    with pytest.raises(ValueError, match="a must be a finite positive real, got nan"):
        energy_numeric(EnergyParams(2.0, 1), 1.0, [math.nan])


def test_total_mass_folds_the_density_power_into_the_weight():
    # the density r^(2n(a-1)) alone overflows near r = 0 at a = 0.3, n = 60;
    # the mass is the closed form sphere_area(n) a^n / (4n), which no such
    # factor enters
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, n in ((0.3, 60), (0.05, 40), (3.0, 100)):
            expected = sphere_area(n) * a**n / (4 * n)
            assert abs(total_mass(PowerFamilyMember(a, n)) - expected) <= 1e-12 * expected, (a, n)
        # masses below the normal float range
        for a, n in ((0.3, 106), (1.0, 120)):
            with pytest.raises(ValueError, match=f"total mass at n = {n} underflows"):
                total_mass(PowerFamilyMember(a, n))
        # the coefficient a^n is past the float range, the mass 3.08e300 is not
        mass = total_mass(PowerFamilyMember(1e20, 16))
        expected = oracle_total_mass(1e20, 16)
        assert abs(Decimal(mass) - expected) <= Decimal("1e-13") * expected
        with pytest.raises(ValueError, match=r"total mass at n = 16, a = 1e\+22 overflows a float"):
            total_mass(PowerFamilyMember(1e22, 16))


def test_total_mass_is_the_closed_form():
    # the quadrature of the density reported an underflow at a = 1e150 and was
    # 2.8e-11 off at a = 1e6; the Beta form at p = 0 cancels in ln Gamma for
    # small a (27% off at a = 1e-14, a factor 1e300 at a = 1e-300)
    cases = [(1e150, 1), (1e6, 1), (1e6, 3), (1.0, 1), (0.25, 5), (7.5, 30), (1e-3, 1)]
    cases += [(1e-14, 1), (1e-300, 1), (1e-10, 2), (0.3, 60), (3.0, 100)]
    for a, n in cases:
        mass = total_mass(PowerFamilyMember(a, n))
        expected = oracle_total_mass(a, n)
        assert abs(Decimal(mass) - expected) <= Decimal("1e-13") * expected, (a, n, mass)


def test_closed_energy_at_large_beta_arguments():
    # at y = (b + 1) n / a from 2e6 to 1e300 two lgamma values of size y ln y
    # cancelled: 2.0e-5 off at (2, 1, 1e-10, 1), 27% at p = 0, a = b = 1e-14
    cases = [(2.0, 1, 1e-10, 1.0), (2.0, 1, 1e-6, 1.0), (0.5, 2, 1e-8, 2.0)]
    cases += [(0.0, 1, 1e-14, 1e-14), (0.0, 1, 1e-300, 1e-300), (0.5, 3, 1e-100, 10.0)]
    for p, n, a, b in cases:
        log_c = 2 * n * PI_50.ln() - Decimal(2 * math.factorial(2 * n - 1)).ln()
        expected = float((log_c + oracle_log_pair_energy(p, n, a, b)).exp())
        value = energy_closed_core(p, n, a, [b] * n)
        assert abs(value - expected) <= 1e-12 * expected, (p, n, a, b, value, expected)


def _oracle_energy(p, n, a0, tail):
    log_c = 2 * n * PI_50.ln() - Decimal(2 * math.factorial(2 * n - 1)).ln()
    return (log_c + oracle_log_tail_energy(p, n, a0, tail)).exp()


def test_closed_tail_energy_matches_oracle():
    # below y = 512 the two lgamma values of log B lose ~y ln y ulps: y <= 280 here
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(150):
        n = int(rng.integers(1, 8))
        p = float(rng.uniform(0.05, 8.0))
        a0 = float(np.exp(rng.uniform(np.log(0.1), np.log(4.0))))
        tail = np.exp(rng.uniform(np.log(0.1), np.log(4.0), size=n)).tolist()
        expected = _oracle_energy(p, n, a0, tail)
        value = energy_closed_core(p, n, a0, tail)
        worst = max(worst, float(abs(Decimal(value) - expected) / expected))
    assert worst <= 5e-13, worst
    # at a Beta argument of 512 or more, log B is the log-Gamma ratio
    for p, n, a0, tail in [(0.5, 3, 1e-3, [0.2, 7.0, 30.0]), (2.0, 2, 1e-100, [1e-5, 1e5])]:
        expected = _oracle_energy(p, n, a0, tail)
        value = energy_closed_core(p, n, a0, tail)
        assert abs(Decimal(value) - expected) <= Decimal("1e-13") * expected, (p, n, a0, tail)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    p=st.floats(0.05, 8.0),
    a0=st.floats(0.1, 4.0),
    tail=st.lists(st.floats(0.1, 4.0), min_size=1, max_size=7),
)
def test_closed_tail_energy_matches_quadrature(p, a0, tail):
    result = energy_numeric(EnergyParams(p, len(tail)), a0, tail)
    assert result.method == "both"
    assert result.discrepancy <= 1e-9, result


def test_closed_energy_of_an_equal_tail_is_the_pair_form():
    rng = np.random.default_rng(1011)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        p = float(rng.uniform(0.0, 8.0))
        a, b = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=2)).tolist()
        pair = math.exp(_log_c_energy(n) + log_pair_energy(p, n, a, b))
        assert abs(energy_closed_core(p, n, a, [b] * n) - pair) <= 1e-15 * pair, (p, n, a, b)


def test_closed_tail_energy_errors():
    # a tail whose sum overflows a float, and a Beta argument past ln Gamma's range
    for a0, tail in [(1.0, [1.0, 1e308, 1e308]), (1.0, [1e308] * 3), (1e-306, [1.0] * 3)]:
        with pytest.raises(ValueError, match="the energy, tail mean or log B overflows a float at n = 3"):
            energy_closed_core(2.0, 3, a0, tail)
    with pytest.raises(ValueError, match="tail must list n = 2 exponents, got 3"):
        energy_closed_core(2.0, 2, 1.0, [1.0, 1.0, 1.0])
    for tail in ([1.0, math.nan], [1.0, 0.0], [1.0, "1"], [1.0, True]):
        with pytest.raises(ValueError, match="a must be a finite positive real"):
            energy_closed_core(2.0, 2, 1.0, tail)
    with pytest.raises(ValueError, match="a0 must be a finite positive real"):
        energy_closed_core(2.0, 2, -1.0, [1.0, 1.0])


def test_quadrature_is_scale_free():
    # the density r^(2n(b-1)) overflowed near r = 0 at b = 0.3, n = 60, and
    # prod(b) at b = 1e100 pushed the integrand past the float range; the
    # quadrature of ln(E / C) has its integrand in (0, 1] at every scale
    for p, n, a0, b in [(2.0, 60, 1.0, 0.3), (3.0, 2, 1.0, 1e100), (2.0, 1, 1e150, 6.93e149)]:
        result = energy_numeric(EnergyParams(p, n), a0, [b] * n)
        assert result.discrepancy <= 1e-10, (p, n, a0, b, result)
    for p, n, a0, tail in [(0.5, 1, 1e-150, [1e-150]), (2.0, 3, 1e12, [1e-12, 1.0, 1e12])]:
        log_closed = math.log(energy_closed_core(p, n, a0, tail)) - _log_c_energy(n)
        assert abs(_log_energy_quad(p, n, a0, tail, 1e-10) - log_closed) <= 1e-10, (p, n, a0, tail)
    # at p = 1e6, n = 100 gamma = beta / 64 pushed the peak to v = 2.6e-12,
    # below every Gauss node; at p = 1e8 ln(1 - v^A) as ln(-expm1) alone was
    # noisy to 1e-8 of the integrand and the panel budget ran out
    for p in (1e6, 1e8):
        exact = float(oracle_log_pair_energy(p, 100, 1.0, 1.0))
        assert abs(_log_energy_quad(p, 100, 1.0, [1.0] * 100, 1e-10) - exact) <= 1e-12 * abs(exact), p
