import math
import warnings
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
from qma.hessian import PowerFamilyMember, mixed_density, normalization_constants

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
    with pytest.raises(QuadratureError, match=r"non-finite integrand on panel \(0\.0, 1\.0\)"):
        integrate_unit_interval(lambda t: np.where(t < 0.5, np.inf, 1.0), DEFAULT_QUADRATURE)
    # nan on the first node of one or both children of the first bisection:
    # the first bad panel is named
    x0 = 0.5 * (np.polynomial.legendre.leggauss(32)[0][0] + 1.0)
    for bad, name in (([0.5 + 0.5 * x0], r"0\.5, 1\.0"), ([0.5 * x0, 0.5 + 0.5 * x0], r"0\.0, 0\.5")):
        with pytest.raises(QuadratureError, match=r"non-finite integrand on panel \(" + name):
            integrate_unit_interval(lambda t: np.where(np.isin(t, bad), np.nan, t**-0.5))


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
    # arrays: the error names the cell whose Beta argument overflows, and
    # numpy warns of no overflow before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"a = 1e-300, b = 1e\+300"):
            log_pair_energy(2.0, 1, np.array([1.0, 1e-300]), np.array([[1.0], [1e300]]))
        with pytest.raises(ValueError, match=r"a = 1e-308, b = 1e-308"):
            log_pair_energy(2.0, 1, np.array([1e-308, 1.0]), np.array([1e-308, 1.0]))


def _reference_integrate(f, spec=DEFAULT_QUADRATURE):
    """The per-panel integrator of the previous release: two calls of f per panel.

    Returns the integral and the number of bisections.
    """
    m = spec.nodes_per_panel
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
        if 8.0 * total_err <= spec.rel_tol * max(abs(total), 1e-300):
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
    singular = (lambda t: (1.0 - t) ** -0.5, QuadratureSpec(rel_tol=1e-6))
    counts = []
    smooth = (lambda t: t**3.7, DEFAULT_QUADRATURE)
    for f, spec in (singular, smooth, (energy_integrand, DEFAULT_QUADRATURE)):
        sizes = []

        def counted(t, f=f):
            sizes.append(t.size)
            return f(t)

        expected, bisections = _reference_integrate(f, spec)
        counts.append(bisections)
        assert integrate_unit_interval(counted, spec) == expected
        # one call on the first panel, then one per bisection on both children
        assert sizes == [96] + [192] * bisections
    assert counts[0] > 20 and counts[2] > 0
    # energy_integrand is the one energy_numeric integrates
    assert energy_numeric(EnergyParams(p, n), a0, tail).value == sphere_area(n) * expected


def test_energy_underflow_is_a_value_error():
    # sphere_area(n) is subnormal from n = 110 on, so the energy is no longer
    # a normal float; the error names n
    for n in (110, 120):
        with pytest.raises(ValueError, match=f"energy at n = {n} underflows"):
            energy_numeric(EnergyParams(2.0, n), 1.0, [1.2] * n)
    assert energy_numeric(EnergyParams(2.0, 109), 1.0, [1.2] * 109).value > 0.0
