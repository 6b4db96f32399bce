"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import math

import numpy as np

from qma.energy import EnergyParams, energy_numeric, integrate_unit_interval
from qma.hessian import (
    EvaluationPoint,
    PowerFamilyMember,
    fd_quaternionic_hessian,
    ma_density,
)
from qma.ineq import (
    F_func,
    check_two_term,
    d_const,
    dFdb_closed,
    f_lemma,
    find_violation,
    ratio_R,
    ratio_general,
    ratio_grid,
)
from qma.quatlin import HyperhermitianMatrix, moore_det
from qma.specfun import _log_gamma_ratio_derivs, beta

from quaternion import Quaternion, complex_adjoint, conj_transpose, diagonal


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {tag} - {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


def _total_mass(a, n):
    """Total MA mass of u_a: the sphere area 2 pi^{2n} / (2n-1)! times the radial integral of the density."""
    member = PowerFamilyMember(a, n)
    radial = integrate_unit_interval(lambda t: ma_density(member, t) * t ** (4 * n - 1))
    return 2.0 * math.pi ** (2 * n) / math.factorial(2 * n - 1) * radial


def _ball_point(rng, n, radius):
    d = rng.normal(size=4 * n)
    d *= radius / np.linalg.norm(d)
    return EvaluationPoint.from_coords(d)


def test_criterion_1_special_functions():
    ok = beta(1.0, 1.0) == 1.0
    worst_rec = 0.0
    for x in np.geomspace(1e-2, 1e4, 120):
        x = float(x)
        # psi(x + 1) - psi(x) = -D1(x, 1) / x, D1 the kernel's scaled psi difference
        worst_rec = max(worst_rec, abs(-_log_gamma_ratio_derivs(x, 1.0)[0] / x - 1.0 / x))
    ok = ok and worst_rec <= 1e-12
    worst_f1 = max(abs(f_lemma(1.0, n)) for n in range(1, 11))
    ok = ok and worst_f1 <= 1e-12
    ok = ok and abs(f_lemma(2.0, 2) - (-1.0 / 12.0)) <= 1e-10
    _report(1, "special functions", ok, f"recurrence {worst_rec:.2e}, f(1,n) {worst_f1:.2e}")


def test_criterion_2_moore_determinant():
    ok = moore_det(HyperhermitianMatrix(diagonal([2.0, -3.0, 0.5]))) == -3.0
    rng = np.random.default_rng(202)
    worst_sq = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        d = rng.normal(size=(n, n, 4))
        m = HyperhermitianMatrix(0.5 * (d + conj_transpose(d)))
        det = moore_det(m)
        adj = np.linalg.det(complex_adjoint(m)).real
        worst_sq = max(worst_sq, abs(det * det - adj) / max(1e-30, abs(adj)))
    ok = ok and worst_sq <= 1e-10
    worst_rank1 = 0.0
    for n in (1, 2, 3, 4):
        qs = [Quaternion(*rng.normal(size=4)) for _ in range(n)]
        alpha, beta_coef = 1.1, -0.4
        data = np.zeros((n, n, 4))
        for j in range(n):
            for k in range(n):
                data[j, k] = beta_coef * (qs[j].conj() * qs[k]).as_array()
        for i in range(n):
            data[i, i, 0] += alpha
        det = moore_det(HyperhermitianMatrix(data))
        expected = alpha ** (n - 1) * (alpha + beta_coef * sum(q.norm_sq() for q in qs))
        worst_rank1 = max(worst_rank1, abs(det - expected) / max(1.0, abs(expected)))
    ok = ok and worst_rank1 <= 1e-10
    _report(2, "Moore determinant", ok, f"square id {worst_sq:.2e}, rank-one {worst_rank1:.2e}")


def test_criterion_3_hessian_calibration():
    worst_cal = 0.0
    worst_resid = 0.0
    for n in (1, 2, 3):
        rng = np.random.default_rng(300 + n)
        for _ in range(3):
            point = _ball_point(rng, n, rng.uniform(0.3, 0.8))
            matrix, resid = fd_quaternionic_hessian(lambda c: np.vecdot(c, c), point, 1e-2)
            err = np.max(np.abs(matrix.data - diagonal([1.0] * n)))
            worst_cal = max(worst_cal, err)
            worst_resid = max(worst_resid, resid)

    def smooth(c):
        return np.exp(0.25 * c[:, 0]) + np.sin(0.4 * c[:, 1]) * c[:, 2] ** 2 + np.sum(c**4, axis=1)

    rng = np.random.default_rng(333)
    for n in (1, 2):
        for _ in range(3):
            point = _ball_point(rng, n, rng.uniform(0.2, 0.9))
            _, resid = fd_quaternionic_hessian(smooth, point)
            worst_resid = max(worst_resid, resid)
    ok = worst_cal <= 1e-8 and worst_resid <= 1e-6
    _report(3, "Hessian calibration", ok, f"calibration {worst_cal:.2e}, residual {worst_resid:.2e}")


def test_criterion_4_density_law():
    rng = np.random.default_rng(404)
    worst_ratio_dev = 0.0
    fitted = []
    for a in (0.5, 1.0, 2.0, 3.0):
        for n in (1, 2, 3):
            member = PowerFamilyMember(a, n)
            func = member.as_function()
            for _ in range(20):
                point = _ball_point(rng, n, rng.uniform(0.2, 0.9))
                matrix, _ = fd_quaternionic_hessian(func, point)
                fd = moore_det(matrix)
                closed = ma_density(member, point.radius)
                worst_ratio_dev = max(worst_ratio_dev, abs(fd / closed - 1.0))
                # constant in front of a^n (a+1) r^{2n(a-1)}
                fitted.append(fd / (a**n * (a + 1.0) * point.radius ** (2 * n * (a - 1.0))))
    fitted = np.array(fitted)
    spread = float(fitted.max() - fitted.min()) / 0.5
    pinned = abs(float(np.median(fitted)) - 0.5) <= 1e-4 * 0.5
    ok = worst_ratio_dev <= 1e-4 and spread <= 2e-4 and pinned
    _report(
        4,
        "density law pins C0 = 1/2",
        ok,
        f"ratio dev {worst_ratio_dev:.2e}, constant spread {spread:.2e}",
    )


def test_criterion_5_energy_closed_form():
    worst = 0.0
    for p in (0.25, 0.5, 1.0, 2.0, 4.0):
        for a in (0.25, 0.5, 1.0, 2.0, 4.0):
            for b in (0.25, 0.5, 1.0, 2.0, 4.0):
                for n in (1, 2, 3):
                    result = energy_numeric(EnergyParams(p, n), a, [b] * n)
                    worst = max(worst, result.discrepancy)
    ok = worst <= 1e-8
    mass = _total_mass(1.0, 1)
    ok = ok and abs(mass - math.pi**2 / 2.0) <= 1e-10
    e11 = energy_numeric(EnergyParams(1.0, 1), 1.0, [1.0]).value
    ok = ok and abs(e11 - math.pi**2 / 6.0) <= 1e-10
    _report(5, "energy closed form vs quadrature", ok, f"worst discrepancy {worst:.2e}")


def test_criterion_6_comparison_principle():
    grid = (0.25, 0.5, 1.0, 2.0, 4.0)
    rng = np.random.default_rng(606)
    ok = True
    for n in (1, 2, 3):
        radii = np.array([np.linalg.norm(rng.normal(size=4 * n) * rng.uniform(0, 1)) for _ in range(1000)])
        radii = np.clip(radii / radii.max(), 0.0, 1.0)
        masses = {a: _total_mass(a, n) for a in grid}
        for a in grid:
            for b in grid:
                if a >= b:
                    ua = radii ** (2 * a) - 1.0
                    ub = radii ** (2 * b) - 1.0
                    ok = ok and bool(np.all(ua <= ub + 1e-15))
                    ok = ok and masses[a] >= masses[b] * (1.0 - 1e-12)
    _report(6, "comparison-principle instance", ok)


def test_criterion_7_energy_inequality():
    ok = True
    detail = []
    for p in (0.25, 0.5, 2.0, 4.0):
        for n in (1, 2, 3):
            params = EnergyParams(p, n)
            values, axis = ratio_grid(params, 64)
            bound = d_const(p, n) * (1.0 + 1e-6)
            ok = ok and float(values.max()) <= bound
            # quadrature-backed ratios on a coarser sub-grid of the same box
            sub = axis[::9]
            for a in sub:
                for b in sub:
                    ok = ok and ratio_general(params, float(a), [float(b)] * n) <= bound
    for n in (1, 2, 3):
        values, _ = ratio_grid(EnergyParams(1.0, n), 64)
        mx = float(values.max())
        detail.append(f"p=1 n={n} max {mx:.12f}")
        ok = ok and 1.0 - 1e-6 <= mx <= 1.0 + 1e-6
    _report(7, "energy inequality ratio <= D_p", ok, "; ".join(detail))


def test_criterion_8_two_term_inequality():
    rng = np.random.default_rng(808)
    triples = np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=(50, 3)))
    worst_slack = math.inf
    ok = True
    for p in (0.25, 0.5, 0.75):
        for n in (1, 2, 3):
            for a, b, c in triples:
                holds, slack = check_two_term(p, n, float(a), float(b), float(c))
                ok = ok and holds
                worst_slack = min(worst_slack, slack)
    ok = ok and worst_slack >= 0.0
    _report(8, "two-term inequality", ok, f"minimal slack {worst_slack:.3e}")


def test_criterion_9_counterexample_certificates():
    ok = True
    detail = []
    for p in (0.5, 2.0, 3.0):
        for n in (1, 2):
            cert = find_violation(EnergyParams(p, n))
            ok = ok and cert.violation_found and cert.ratio > 1.0 + 1e-3
            ok = ok and abs(cert.ratio - cert.quad_crosscheck) <= cert.error_bound
            ok = ok and cert.ratio - 1.0 > 10.0 * cert.error_bound
            if p == 2.0 and n == 1:
                ok = ok and cert.ratio >= 1.0243 - 5e-3
                detail.append(f"(2,1) ratio {cert.ratio:.6f}")
    # the reference point itself
    ok = ok and abs(ratio_R(EnergyParams(2.0, 1), 1.0, 0.5) - 1.0243) <= 2e-4
    _report(9, "counterexample certificates", ok, "; ".join(detail))


def test_criterion_10_derivative_argument():
    ok = True
    worst_fd = 0.0
    worst_id = 0.0
    h = 1e-5
    for p in (0.5, 2.0, 3.0):
        for n in (1, 2):
            closed = dFdb_closed(p, n)
            fd = (F_func(p, n, 1.0, 1.0 + h) - F_func(p, n, 1.0, 1.0 - h)) / (2.0 * h)
            worst_fd = max(worst_fd, abs(fd - closed) / abs(closed))
            product = (2.0 * n * n + n * p) / (n + p) * beta(p + 1.0, 2.0 * n) * f_lemma(p, 2 * n)
            worst_id = max(worst_id, abs(closed - product))
    ok = worst_fd <= 1e-6 and worst_id <= 1e-10
    _report(10, "derivative argument at (1,1)", ok, f"fd {worst_fd:.2e}, identity {worst_id:.2e}")
