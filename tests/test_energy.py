import math
import os
import random
import subprocess
import sys
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from qma import energy, specfun
from qma.energy import (
    EnergyParams,
    QuadratureError,
    _log_c_energy,
    _log_energy_quad,
    energy_closed_core,
    energy_numeric,
    integrate_unit_interval,
    log_pair_energy,
)
from qma.hessian import PowerFamilyMember, ma_density
from qma.ineq import check_two_term, ratio_R, ratio_general

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import PI_50, oracle_gauss_legendre, oracle_log_pair_energy, oracle_log_tail_energy


def _sphere_area(n):
    """Area 4C = 2 pi^{2n} / (2n-1)! of the unit sphere in R^{4n}, from energy's ln C."""
    return 4.0 * math.exp(_log_c_energy(n))


def _total_mass(a, n):
    """Total MA mass of u_a on the ball: the sphere area times the radial integral of its density."""
    member = PowerFamilyMember(a, n)
    return _sphere_area(n) * integrate_unit_interval(lambda t: ma_density(member, t) * t ** (4 * n - 1))


def test_sphere_area_examples():
    assert abs(_sphere_area(1) - 2.0 * math.pi**2) <= 1e-14
    assert abs(_sphere_area(2) - math.pi**4 / 3.0) <= 1e-13
    # Gamma-function oracle: area = 2 pi^{2n} / Gamma(2n)
    for n in (1, 2, 3, 4):
        expected = 2.0 * math.pi ** (2 * n) / math.factorial(2 * n - 1)
        assert abs(_sphere_area(n) - expected) <= 1e-15 * expected


def test_constants_past_the_factorial_range():
    # (2n - 1)! leaves the float range at n = 86; C, the sphere area and the
    # energies do not.  50-digit references: area = 2 pi^{2n} / (2n-1)!, and at
    # a = b = 1 the energy is C * 2 * B(3, 2n) = 2 pi^{2n} / (2n+2)!.
    n = 86
    pi_2n = PI_50 ** (2 * n)
    c = pi_2n / (2 * math.factorial(2 * n - 1))
    cases = [
        (_sphere_area(n), 4 * c),
        (energy_closed_core(2.0, n, 1.0, [1.0] * n), 2 * pi_2n / math.factorial(2 * n + 2)),
        # b^n (b+1) / a = 1 and B(3, 86) = 2 / (86 * 87 * 88)
        (energy_closed_core(2.0, n, 2.0, [1.0] * n), c * 2 / (86 * 87 * 88)),
    ]
    for value, expected in cases:
        assert abs(Decimal(value) / expected - 1) <= Decimal("1e-12"), (value, expected)


def test_constants_agree_with_factorial_form():
    # exp(ln C) keeps ~|ln C| ulps, and |ln C| reaches 700 at n = 85
    for n in range(1, 86):
        expected = 2.0 * math.pi ** (2 * n) / math.factorial(2 * n - 1)
        assert abs(_sphere_area(n) - expected) <= 2e-13 * expected, n
    for n in range(1, 11):
        c = math.pi ** (2 * n) / (2.0 * math.factorial(2 * n - 1))
        for p, a, b in [(0.5, 0.3, 2.0), (2.0, 1.5, 0.7), (7.0, 4.0, 4.0)]:
            value = energy_closed_core(p, n, a, [b] * n)
            expected = c * math.exp(log_pair_energy(p, n, a, b))
            assert abs(value - expected) <= 1e-14 * expected, (n, p, a, b)


def test_ball_volume_consistency():
    # the radial integral of t^{4n-1} carries no constant: the ball's volume is the sphere area times it
    for n in (1, 2, 3):
        vol = integrate_unit_interval(lambda t: t ** (4 * n - 1))
        assert abs(vol - 1.0 / (4 * n)) <= 1e-10 * vol
    area = 2.0 * math.pi**2
    assert abs(integrate_unit_interval(lambda t: t**3) - math.pi**2 / 2.0 / area) <= 1e-10 / area


def test_integrable_singularity():
    value = integrate_unit_interval(lambda t: 1.0 / t * t**3)
    assert abs(value - 1.0 / 3.0) <= 1e-9 * value


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
    # the mass is C a^n / n: pi^2 / 2 a at n = 1, and a^n times that of u_1
    assert abs(_total_mass(1.0, 1) - math.pi**2 / 2.0) <= 1e-10
    assert abs(_total_mass(2.0, 1) - math.pi**2) <= 1e-9
    for n in (1, 2, 3):
        base = _total_mass(1.0, n)
        for a in (0.25, 0.5, 2.0, 4.0):
            mass = _total_mass(a, n)
            assert abs(mass / base - a**n) <= 1e-8 * a**n


def test_total_mass_monotone_witnesses():
    masses = [_total_mass(a, 2) for a in (0.5, 1.0, 2.0)]
    assert masses[0] < masses[1] < masses[2]


def test_closed_form_matches_quadrature_small_grid():
    for p in (0.25, 1.0, 4.0):
        for a in (0.25, 1.0, 4.0):
            for b in (0.25, 1.0, 4.0):
                for n in (1, 2):
                    result = energy_numeric(EnergyParams(p, n), a, [b] * n)
                    assert result.method == "both"
                    assert result.discrepancy <= 1e-8, (p, a, b, n, result.discrepancy)


def test_mixed_tail_energy_cross_checked_termwise():
    # (1 - r^2) against the (1,1) tail in H^2: termwise Beta integrals give pi^4/120
    result = energy_numeric(EnergyParams(1.0, 2), 1.0, [1.0, 1.0])
    assert abs(result.value - math.pi**4 / 120.0) <= 1e-10
    # non-uniform tail (2, 1) in H^2: alpha = (2s, 1), beta = (1, 0), so the
    # mixed density is 2s + (s/2) = 2.5 t^2; integrate termwise.  The closed
    # form covers unequal tails too, so the quadrature is cross-checked
    result = energy_numeric(EnergyParams(1.0, 2), 1.0, [2.0, 1.0])
    expected = math.pi**4 / 3.0 * 2.5 * (1.0 / 10.0 - 1.0 / 12.0)
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
        masses = {a: _total_mass(a, n) for a in grid}
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


def test_panel_budget_stops_after_that_many_integrand_calls(monkeypatch):
    # one call for the first panel, then one per bisection, each adding a panel
    monkeypatch.setattr(energy, "_MAX_PANELS", 50)
    calls = []

    def noisy(t):
        calls.append(len(t))
        return (t * 1.23456789e9) % 1.0 + 1.0

    with pytest.raises(QuadratureError, match="panel budget exhausted"):
        integrate_unit_interval(noisy)
    assert calls == [96] + [192] * 49


def test_panel_budget_costs_one_integrand_call_per_panel_at_the_default():
    # a converging integral takes a few dozen panels, so the default budget
    # of 2000 leaves a wide margin and is spent in a fraction of a second
    # the per-panel caches see all 2000 panel sets, the energy's logs too, and stay bounded
    calls = []

    def noisy(t):
        calls.append(len(t))
        assert not t.flags.writeable and all(not x.flags.writeable for x in energy._sidi_logs(t.tobytes()))
        return (t * 1.23456789e9) % 1.0 + 1.0

    with pytest.raises(QuadratureError, match="panel budget exhausted"):
        integrate_unit_interval(noisy)
    assert energy._MAX_PANELS == 2000
    assert calls == [96] + [192] * 1999
    for cache in (energy._abscissae, energy._sidi_logs):
        info = cache.cache_info()
        assert info.currsize == info.maxsize == energy._CACHED_PANEL_SETS, info


def test_smoothed_energy_quadrature_takes_few_integrand_calls(monkeypatch):
    # (1 - v^A)^p has a branch point at v = 1 for non-integer p; through
    # v = psi(x) the integrand vanishes like (1 - x)^(4p + 3) there instead,
    # and one or two panels meet the tolerance
    panels = energy._panels
    calls = []

    def counted(f, edges):
        calls.append(len(edges))
        return panels(f, edges)

    monkeypatch.setattr(energy, "_panels", counted)
    for p in (0.1, 0.318, 0.853):
        for a0, tail in ((0.7, [1.3] * 3), (0.7, [0.4, 1.9, 3.1]), (2.5, [0.2, 0.2, 3.7])):
            calls.clear()
            value = _log_energy_quad(p, 3, a0, tail)
            exact = float(oracle_log_tail_energy(p, 3, a0, tail))
            assert len(calls) <= 3, (p, a0, tail, calls)
            assert abs(value - exact) <= 1e-13 * abs(exact), (p, a0, tail, value, exact)


def _uncached_panels(f, edges):
    """The panel builder before its caches: leggauss nodes, and a new node array on every call."""
    m = 32
    (xs1, ws1), (xs2, ws2) = (np.polynomial.legendre.leggauss(k) for k in (m, 2 * m))
    xs1, ws1, xs2, ws2 = 0.5 * (xs1 + 1.0), 0.5 * ws1, 0.5 * (xs2 + 1.0), 0.5 * ws2
    t = np.concatenate([a + (b - a) * xs for a, b in edges for xs in (xs1, xs2)])
    rows = np.asarray(f(t), dtype=float).reshape(len(edges), 3 * m)
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        a, b = edges[int(np.argmin(finite))]
        raise QuadratureError(f"non-finite integrand on panel ({a!r}, {b!r})")
    out = []
    for (a, b), row in zip(edges, rows):
        width = b - a
        coarse = width * float(ws1 @ row[:m])
        fine = width * float(ws2 @ row[m:])
        out.append((fine, abs(fine - coarse)))
    return out


def _uncached_energy_integrand(p, alpha, beta, log_peak, log_gap):
    """The energy's integrand in x before its caches: every log computed on every call."""

    def g(x):
        y = np.minimum(x, 1.0 - x)
        with np.errstate(divide="ignore"):
            log_y = np.log(y)
            log_psi_y = 4.0 * log_y + np.log(35.0 + y * (-84.0 + y * (70.0 - 20.0 * y)))
            log_v = np.where(x < 0.5, log_psi_y, np.log1p(-np.exp(log_psi_y)))
            v_a = np.exp(alpha * log_v)
            log_gap_v = np.where(v_a < 0.5, np.log1p(-v_a), np.log(-np.expm1(alpha * log_v)))
            log_dpsi = math.log(140.0) + 3.0 * (log_y + np.log1p(-y))
            return np.exp((beta - 1.0) * (log_v - log_peak) + p * (log_gap_v - log_gap) + log_dpsi)

    return g


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


def test_cached_quadrature_is_the_uncached_one_bit_for_bit(monkeypatch):
    # the energy cases of this module that bisect (up to 7 times at p = 1e8) or
    # not, and integrands that cascade into an endpoint, in shuffled order on
    # cold caches and then again on warm ones
    tails = ((0.7, [1.3] * 3), (0.7, [0.4, 1.9, 3.1]), (2.5, [0.2, 0.2, 3.7]))
    cases = [(p, 3, a0, tail) for p in (0.1, 0.318, 0.853) for a0, tail in tails]
    pairs = [(2.0, 60, 1.0, 0.3), (3.0, 2, 1.0, 1e100), (2.0, 1, 1e150, 6.93e149)]
    cases += [(p, n, a0, [b] * n) for p, n, a0, b in pairs]
    cases += [(0.5, 1, 1e-150, [1e-150]), (2.0, 3, 1e12, [1e-12, 1.0, 1e12]), (2.3, 3, 0.7, [0.4, 1.9, 3.1])]
    cases += [(1e6, 100, 1.0, [1.0] * 100), (1e8, 100, 1.0, [1.0] * 100), (2.0, 109, 1.0, [1.2] * 109)]
    cascades = (lambda t: (1.0 - t) ** -0.25, lambda t: t**-0.5)
    calls = [lambda f=f: integrate_unit_interval(f) for f in cascades]
    for p, n, a0, tail in cases:
        params = EnergyParams(p, n)
        calls.append(lambda c=(p, n, a0, tail): _log_energy_quad(*c))
        calls.append(lambda c=(params, a0, tail): energy_numeric(*c))
        calls.append(lambda c=(params, a0, tail): ratio_general(*c))
    random.Random(31).shuffle(calls)

    integrate = energy.integrate_unit_interval

    def uncached_integrate(f):
        if f.__qualname__ == "_log_quad.<locals>.g":  # the energy's integrand, rebuilt from its parameters
            args = dict(zip(f.__code__.co_freevars, (cell.cell_contents for cell in f.__closure__)))
            f = _uncached_energy_integrand(*(args[k] for k in ("p", "alpha", "beta", "log_peak", "log_gap")))
        return integrate(f)

    with monkeypatch.context() as patch:
        patch.setattr(energy, "_panels", _uncached_panels)
        patch.setattr(energy, "integrate_unit_interval", uncached_integrate)
        expected = [_outcome(call) for call in calls]
    # the one kind of ValueError: energy_numeric's closed form underflows at n = 100 and p = 1e6, 1e8
    assert sum(isinstance(x, tuple) for x in expected) == 2, expected
    energy._abscissae.cache_clear()
    energy._sidi_logs.cache_clear()
    for _ in range(2):
        assert [_outcome(call) for call in calls] == expected
    assert energy._abscissae.cache_info().hits > 0 and energy._sidi_logs.cache_info().hits > 0


def test_cached_arrays_are_read_only():
    energy_numeric(EnergyParams(2.5, 2), 0.7, [1.3, 0.4])
    seen = []

    def f(t):
        seen.append(t)
        return t * t

    integrate_unit_interval(f)
    [nodes] = seen
    assert nodes is energy._abscissae(((0.0, 1.0),))
    with pytest.raises(ValueError, match="read-only"):
        nodes[0] = 0.5
    for array in (*energy._sidi_logs(nodes.tobytes()), *energy._nodes(32), *energy._nodes(64)):
        assert not array.flags.writeable


def test_energy_numeric_takes_ln_c_once(monkeypatch):
    cases = [
        (EnergyParams(2.5, 2), 0.7, [1.3, 0.4]),
        (EnergyParams(0.5, 1), 1.0, [2.0]),
        (EnergyParams(3.0, 6), 0.2, [0.9] * 6),
    ]
    expected = [energy_numeric(*case) for case in cases]
    calls = []
    log_c = energy._log_c_energy
    monkeypatch.setattr(energy, "_log_c_energy", lambda n: calls.append(n) or log_c(n))
    assert [energy_numeric(*case) for case in cases] == expected
    assert calls == [params.n for params, _, _ in cases]


def test_node_table_is_leggauss_and_the_exact_rule():
    # leggauss bit for bit here; within 1 ulp of it for other numpy versions,
    # and of the 50-digit rule for the nodes.  leggauss's weights at the
    # outermost nodes are ~1e-12 off in relative terms, so the table's are too
    for m in (32, 64):
        xs, ws = (np.array(half) for half in energy._GAUSS_HALVES[m])
        ref_xs, ref_ws = (half[m // 2 :] for half in np.polynomial.legendre.leggauss(m))
        for table, ref in ((xs, ref_xs), (ws, ref_ws)):
            assert np.all(np.abs(table - ref) <= np.spacing(ref)), m
        exact_xs, exact_ws = oracle_gauss_legendre(m)
        assert all(abs(float(e) - x) <= np.spacing(x) for e, x in zip(exact_xs, xs, strict=True)), m
        assert all(abs(Decimal(w) / e - 1) <= Decimal("2e-12") for e, w in zip(exact_ws, ws, strict=True)), m
        # mirrored and mapped to (0, 1) as from leggauss
        nodes, weights = energy._nodes(m)
        full_xs, full_ws = np.polynomial.legendre.leggauss(m)
        assert np.all(np.abs(nodes - 0.5 * (full_xs + 1.0)) <= np.spacing(nodes))
        assert np.all(np.abs(weights - 0.5 * full_ws) <= np.spacing(weights))


def test_an_energy_imports_no_numpy_polynomial():
    # the Gauss rules come from a table, not from leggauss's eigensolver
    code = (
        "import sys, qma\n"
        "qma.energy_numeric(qma.EnergyParams(2.5, 2), 0.7, [1.3, 0.4])\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n"
    )
    src = str(Path(energy.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout == "[]\n", out


def test_cascade_into_an_endpoint_can_evaluate_it():
    # the Gauss nodes are interior, but on the narrow panels of the cascade
    # into t = 1 the node a + width * x rounds to 1.0 at the tolerance 1e-10
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
        lambda: EnergyParams(np.array(2.0), 1),
        lambda: energy_closed_core(np.array([2.0, 3.0]), 1, 1.0, [1.0]),
        lambda: log_pair_energy(np.array([2.0, 3.0]), 1, 1.0, 1.0),
        lambda: PowerFamilyMember("1", 1),
        lambda: specfun.log_gamma(True),
        lambda: specfun.log_gamma(np.array([True])),
        lambda: specfun.beta(np.array(["1"]), 1.0),
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
    for p in (math.inf, math.nan, True, "2"):
        with pytest.raises(ValueError, match="p must be a finite positive real"):
            log_pair_energy(p, 1, 1.0, 1.0)
    with pytest.raises(ValueError, match="p must be a finite positive real"):
        energy_closed_core(True, 1, 1.0, [1.0])
    # arrays: the error names the cell whose Beta argument overflows, and
    # numpy warns of no overflow before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"a = 1e-300, b = 1e\+300"):
            log_pair_energy(2.0, 1, np.array([1.0, 1e-300]), np.array([[1.0], [1e300]]))
        with pytest.raises(ValueError, match=r"a = 1e-308, b = 1e-308"):
            log_pair_energy(2.0, 1, np.array([1e-308, 1.0]), np.array([1e-308, 1.0]))


def _reference_integrate(f):
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
        if 8.0 * total_err <= 1e-10 * max(abs(total), 1e-300):
            return total, bisections
        worst = max(range(len(panels)), key=lambda i: panels[i][4])
        a, b, depth, _, _ = panels[worst]
        mid = 0.5 * (a + b)
        panels[worst] = (a, mid, depth + 1, *panel(a, mid))
        panels.append((mid, b, depth + 1, *panel(mid, b)))
        bisections += 1


def test_batched_integrator_matches_per_panel_reference():
    p, n, a0, tail = 2.3, 3, 0.7, [0.4, 1.9, 3.1]
    total = sum(b - 1.0 for b in tail)

    def energy_integrand(t):
        # the mixed MA density of the tail is prod(b) (1 + S / (2n)) t^(2S), S = sum(b - 1)
        density = math.prod(tail) * (1.0 + total / (2 * n)) * t ** (2.0 * total)
        return (1.0 - t ** (2.0 * a0)) ** p * density * t ** (4 * n - 1)

    # (1 - t)**-0.5 would reach a node at t = 1.0; -0.25 stops short of it
    counts = []
    for f in (lambda t: (1.0 - t) ** -0.25, lambda t: t**3.7, energy_integrand):
        sizes = []

        def counted(t, f=f):
            sizes.append(t.size)
            return f(t)

        expected, bisections = _reference_integrate(f)
        counts.append(bisections)
        assert integrate_unit_interval(counted) == expected
        # one call on the first panel, then one per bisection on both children
        assert sizes == [96] + [192] * bisections
    assert counts[0] > 20 and counts[2] > 0
    # the quadrature of the mixed density is the closed energy of energy.py
    closed = energy_closed_core(p, n, a0, tail)
    assert abs(_sphere_area(n) * expected - closed) <= 1e-10 * closed


def test_energy_underflow_is_a_value_error():
    # the sphere area 4C is subnormal from n = 110 on, so the energy is no longer
    # a normal float; the error names n
    for n in (110, 120):
        with pytest.raises(ValueError, match=f"energy at n = {n} underflows"):
            energy_numeric(EnergyParams(2.0, n), 1.0, [1.2] * n)
    assert energy_numeric(EnergyParams(2.0, 109), 1.0, [1.2] * 109).value > 0.0


def test_closed_form_underflow_is_a_value_error():
    # the closed form leaves the normal range with the sphere area 4C
    assert 0.0 < _sphere_area(109) and _sphere_area(110) < 2.2250738585072014e-308
    with pytest.raises(ValueError, match=r"energy at n = 120 underflows a float at a0 = 1\.0"):
        energy_closed_core(2.0, 120, 1.0, [1.2] * 120)
    assert energy_closed_core(2.0, 109, 1.0, [1.2] * 109) > 0.0


def test_n_is_checked_by_the_one_validator():
    for fn in (
        lambda n: energy_closed_core(2.0, n, 1.0, [1.0]),
        lambda n: log_pair_energy(2.0, n, 1.0, 1.0),
        lambda n: energy_numeric(EnergyParams(2.0, n), 1.0, [1.0]),
    ):
        for n in (1.5, True, "2"):
            with pytest.raises(ValueError, match="n must be an integer"):
                fn(n)
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            fn(0)
    assert energy_closed_core(2, 1.0, 1, [1]) == energy_closed_core(2.0, 1, 1.0, [1.0])


def test_a_tail_that_is_not_a_sequence_is_a_value_error():
    # len(tail) came before any check, and raised TypeError
    params = EnergyParams(1.0, 1)
    for call in (
        lambda: energy_numeric(params, 1.0, None),
        lambda: ratio_general(params, 1.0, None),
        lambda: energy_closed_core(1.0, 1, 1.0, (x for x in [1.0])),
    ):
        with pytest.raises(ValueError, match="tail must be a sequence of n = 1 exponents"):
            call()


def test_log_pair_energy_refuses_an_empty_array():
    # numpy's "zero-size array to reduction operation maximum" named neither a nor the rule
    with pytest.raises(ValueError, match="a must be a finite positive real"):
        log_pair_energy(2.0, 1, np.array([]), 1.0)
    with pytest.raises(ValueError, match="b must be a finite positive real"):
        log_pair_energy(2.0, 1, 1.0, np.zeros((0, 3)))


def test_p_zero_is_refused_by_the_one_validator():
    # p = 0, the total-mass exponent, lies outside the domain of every entry point
    for call in (lambda p: log_pair_energy(p, 1, 1.0, 1.0), lambda p: energy_closed_core(p, 1, 1.0, [1.0])):
        for p in (0.0, 0, -0.0):
            with pytest.raises(ValueError, match=rf"^p must be a finite positive real, got {p!r}$"):
                call(p)


def test_nan_fails_the_a0_check():
    for a0 in (math.nan, 0.0, -1.0, math.inf):
        with pytest.raises(ValueError, match="a0 must be a finite positive real"):
            energy_numeric(EnergyParams(2.0, 1), a0, [1.0])
    with pytest.raises(ValueError, match="a must be a finite positive real, got nan"):
        energy_numeric(EnergyParams(2.0, 1), 1.0, [math.nan])


def test_closed_energy_at_large_beta_arguments():
    # at y = (b + 1) n / a from 2e6 to 1e300 two lgamma values of size y ln y
    # cancelled: 2.0e-5 off at (2, 1, 1e-10, 1)
    cases = [(2.0, 1, 1e-10, 1.0), (2.0, 1, 1e-6, 1.0), (0.5, 2, 1e-8, 2.0)]
    cases += [(1e-3, 1, 1e-14, 1e-14), (1e-3, 1, 1e-300, 1e-300), (0.5, 3, 1e-100, 10.0)]
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
        assert abs(_log_energy_quad(p, n, a0, tail) - log_closed) <= 1e-10, (p, n, a0, tail)
    # at p = 1e6, n = 100 gamma = beta / 64 pushed the peak to v = 2.6e-12,
    # below every Gauss node; at p = 1e8 ln(1 - v^A) as ln(-expm1) alone was
    # noisy to 1e-8 of the integrand and the panel budget ran out
    for p in (1e6, 1e8):
        exact = float(oracle_log_pair_energy(p, 100, 1.0, 1.0))
        assert abs(_log_energy_quad(p, 100, 1.0, [1.0] * 100) - exact) <= 1e-12 * abs(exact), p
