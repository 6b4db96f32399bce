import math
from decimal import Decimal

import numpy as np
import pytest

from qma.energy import (
    DEFAULT_QUADRATURE,
    EnergyParams,
    QuadratureError,
    QuadratureSpec,
    energy_closed_core,
    energy_closed_pair,
    energy_numeric,
    integrate_radial,
    integrate_unit_interval,
    log_pair_energy,
    sphere_area,
    total_mass,
)
from qma.hessian import PowerFamilyMember, normalization_constants

from oracles import PI_50


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
        (normalization_constants(n).c_energy, c),
        (energy_closed_core(2.0, n, 1.0, 1.0), 2 * pi_2n / math.factorial(2 * n + 2)),
        # b^n (b+1) / a = 1 and B(3, 86) = 2 / (86 * 87 * 88)
        (energy_closed_core(2.0, n, 2.0, 1.0), c * 2 / (86 * 87 * 88)),
    ]
    for value, expected in cases:
        assert abs(Decimal(value) / expected - 1) <= Decimal("1e-12"), (value, expected)


def test_constants_agree_with_factorial_form():
    for n in range(1, 86):
        assert sphere_area(n) == 2.0 * math.pi ** (2 * n) / math.factorial(2 * n - 1)
    for n in range(1, 11):
        c = math.pi ** (2 * n) / (2.0 * math.factorial(2 * n - 1))
        for p, a, b in [(0.0, 1.0, 1.0), (0.5, 0.3, 2.0), (2.0, 1.5, 0.7), (7.0, 4.0, 4.0)]:
            value = energy_closed_core(p, n, a, b)
            expected = c * math.exp(log_pair_energy(p, n, a, b))
            assert abs(value - expected) <= 1e-14 * expected, (n, p, a, b)


def test_ball_volume_consistency():
    for n in (1, 2, 3):
        vol = integrate_radial(lambda t: np.ones_like(t), n)
        assert abs(vol - sphere_area(n) / (4 * n)) <= 1e-10 * vol
    assert abs(integrate_radial(lambda t: np.ones_like(t), 1) - math.pi**2 / 2.0) <= 1e-10


def test_integrable_singularity():
    value = integrate_radial(lambda t: 1.0 / t, 1)
    assert abs(value - 2.0 * math.pi**2 / 3.0) <= 1e-9 * value


def test_radial_reduction_reproduces_beta_form():
    # sphere_area(n) * int (1 - t^{2a})^p t^{2n(b-1)} t^{4n-1} dt
    #   = sphere_area(n) / (2a) * B(p+1, (b+1) n / a)
    from qma.specfun import beta

    for (p, a, b, n) in [(0.5, 1.0, 0.6, 1), (2.0, 1.5, 1.0, 2), (1.0, 0.75, 2.0, 3)]:
        value = integrate_radial(
            lambda t: (1.0 - t ** (2 * a)) ** p * t ** (2 * n * (b - 1.0)), n
        )
        expected = sphere_area(n) / (2.0 * a) * beta(p + 1.0, (b + 1.0) * n / a)
        assert abs(value - expected) <= 1e-8 * abs(expected)


def test_energy_spot_values():
    params = EnergyParams(1.0, 1)
    closed = energy_closed_pair(params, 1.0, 1.0)
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
    from qma.energy import energy_closed_core
    from qma.hessian import normalization_constants

    for n in (1, 2, 3):
        c = normalization_constants(n).c_energy
        for a in (0.5, 1.0, 3.0):
            for weight in (0.5, 1.0, 2.0):
                value = energy_closed_core(0.0, n, weight, a)
                assert abs(value - c * a**n / n) <= 1e-12 * abs(value)


def test_mixed_tail_energy_cross_checked_termwise():
    # (1 - r^2) against the (1,1) tail in H^2: termwise Beta integrals give pi^4/120
    result = energy_numeric(EnergyParams(1.0, 2), 1.0, [1.0, 1.0])
    assert abs(result.value - math.pi**4 / 120.0) <= 1e-10
    # non-uniform tail (2, 1) in H^2: alpha = (2s, 1), beta = (1, 0), so the
    # mixed density is 2s + (s/2) = 2.5 t^2; integrate termwise
    result = energy_numeric(EnergyParams(1.0, 2), 1.0, [2.0, 1.0])
    expected = sphere_area(2) * 2.5 * (1.0 / 10.0 - 1.0 / 12.0)
    assert abs(result.value - expected) <= 1e-9 * abs(expected)
    assert result.method == "quadrature"
    assert result.discrepancy is None


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
    closed = energy_closed_pair(EnergyParams(2.0, 1), 0.5, 2.0)
    assert abs(result.discrepancy - abs(closed - result.value) / closed) <= 1e-15


def test_quadrature_failure_is_reported():
    spec = QuadratureSpec(rel_tol=1e-16, max_subdivisions=4)
    with pytest.raises(QuadratureError):
        integrate_unit_interval(lambda t: (1.0 - t) ** -0.5, spec)
    with pytest.raises(QuadratureError):
        integrate_unit_interval(lambda t: np.where(t < 0.5, np.inf, 1.0), DEFAULT_QUADRATURE)


def test_parameter_validation():
    with pytest.raises(ValueError):
        EnergyParams(0.0, 1)
    with pytest.raises(ValueError):
        EnergyParams(1.0, 0)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        energy_numeric(EnergyParams(1.0, 2), 1.0, [1.0])  # tail too short
    with pytest.raises(ValueError):
        energy_numeric(EnergyParams(1.0, 1), -1.0, [1.0])
    with pytest.raises(ValueError):
        sphere_area(0)
    with pytest.raises(ValueError, match="p must be finite"):
        log_pair_energy(math.inf, 1, 1.0, 1.0)
    with pytest.raises(ValueError, match="non-negative"):
        log_pair_energy(math.nan, 1, 1.0, 1.0)
    # arrays: the error names the cell whose Beta argument overflows
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=r"a = 1e-300, b = 1e\+300"):
        log_pair_energy(2.0, 1, np.array([1.0, 1e-300]), np.array([[1.0], [1e300]]))
