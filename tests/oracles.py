"""Slow high-precision oracles used to pin expected values in the tests.

Everything here runs in 50-digit decimal arithmetic: for the special
functions, recurrence shifts the argument far up, then the Stirling /
digamma asymptotic series with many Bernoulli terms leaves truncation error
dozens of digits below double precision; densities and masses follow their
defining formulas, with no float range to leave.  These routines share no
code with the package implementations.
"""

from __future__ import annotations

import math
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

getcontext().prec = 50

PI_50 = Decimal("3.1415926535897932384626433832795028841971693993751")

# B_{2k} for k = 1..8
_BERNOULLI = [
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
]

_SHIFT = 1000


def _to_decimal(x) -> Decimal:
    """x as a decimal: a Decimal as is, anything else as the exact value of its float.

    Exact, not the shortest repr, which for a subnormal such as 5e-324
    (4.94e-324) is off by up to 1.2%.
    """
    return x if isinstance(x, Decimal) else Decimal(float(x))


def oracle_log_gamma(x) -> Decimal:
    """ln Gamma(x) by recurrence to z >= 1000 plus the Stirling series."""
    return _log_gamma(_to_decimal(x))


def _log_gamma(z: Decimal) -> Decimal:
    """ln Gamma(z) at the precision of the current decimal context."""
    if z <= 0:
        raise ValueError("oracle domain is x > 0")
    # ln Gamma(z) = ln Gamma(z + k) - ln(z (z + 1) ... (z + k - 1)), one ln for the product
    shift = Decimal(1)
    while z < _SHIFT:
        shift *= z
        z += 1
    half = Decimal("0.5")
    result = (z - half) * z.ln() - z + half * (2 * PI_50).ln()
    zpow = z
    z2 = z * z
    for k, b in enumerate(_BERNOULLI, start=1):
        term = Decimal(b.numerator) / Decimal(b.denominator) / (Decimal(2 * k * (2 * k - 1)) * zpow)
        result += term
        zpow *= z2
    return result - shift.ln()


def oracle_digamma(x) -> Decimal:
    """psi(x) by recurrence to z >= 1000 plus the asymptotic series."""
    z = _to_decimal(x)
    if z <= 0:
        raise ValueError("oracle domain is x > 0")
    acc = Decimal(0)
    while z < _SHIFT:
        acc -= 1 / z
        z += 1
    result = z.ln() - Decimal("0.5") / z
    zpow = z * z
    z2 = z * z
    for k, b in enumerate(_BERNOULLI, start=1):
        term = Decimal(b.numerator) / Decimal(b.denominator) / (Decimal(2 * k) * zpow)
        result -= term
        zpow *= z2
    return result + acc


def oracle_trigamma(x) -> Decimal:
    """psi'(x) by recurrence to z >= 1000 plus the asymptotic series."""
    z = _to_decimal(x)
    if z <= 0:
        raise ValueError("oracle domain is x > 0")
    acc = Decimal(0)
    while z < _SHIFT:
        acc += 1 / (z * z)
        z += 1
    result = 1 / z + Decimal("0.5") / (z * z)
    zpow = z * z * z
    z2 = z * z
    for b in _BERNOULLI:
        result += Decimal(b.numerator) / Decimal(b.denominator) / zpow
        zpow *= z2
    return result + acc


def oracle_scaled_psi_differences(y, s) -> tuple[Decimal, Decimal]:
    """(y (psi(y) - psi(y + s)), y^2 (psi'(y) - psi'(y + s))) to 40 digits after the point.

    The differences are of size s / y and s / y^2, so the precision grows
    with twice log10(y + s), and y + s is formed in decimal.
    """
    y, s = _to_decimal(y), _to_decimal(s)
    with localcontext() as ctx:
        ctx.prec = 50 + 2 * max(0, (y + s).adjusted())
        d1 = y * (oracle_digamma(y) - oracle_digamma(y + s))
        d2 = y * y * (oracle_trigamma(y) - oracle_trigamma(y + s))
    return +d1, +d2


def oracle_f_lemma(p, n: int) -> Decimal:
    """f(p, n) = 1/n + p/(n + p) + psi(n) - psi(n + p + 1), at the precision of oracle_scaled_psi_differences."""
    p, n = _to_decimal(p), Decimal(n)
    with localcontext() as ctx:
        ctx.prec = 50 + 2 * max(0, (n + p).adjusted())
        value = 1 / n + p / (n + p) + oracle_digamma(n) - oracle_digamma(n + p + 1)
    return +value


def oracle_log_beta(x, y) -> Decimal:
    """ln B(x, y) = ln Gamma(x) + (ln Gamma(y) - ln Gamma(y + x)), with y + x formed in decimal."""
    return oracle_log_gamma(x) + oracle_log_gamma_ratio(y, x)


def oracle_log_gamma_ratio(y, s) -> Decimal:
    """ln Gamma(y) - ln Gamma(y + s) to 40 digits after the point, at any y, s > 0.

    Both terms are of size y ln y, so the precision grows with log10(y + s),
    and y + s is formed in decimal, not rounded to a float.
    """
    y, s = _to_decimal(y), _to_decimal(s)
    with localcontext() as ctx:
        ctx.prec = 50 + max(0, (y + s).adjusted())
        return _log_gamma(y) - _log_gamma(y + s)


def oracle_log_tail_energy(p, n: int, a0, tail) -> Decimal:
    """log(prod(b) (1 + m) / a0) + ln B(p + 1, n (1 + m) / a0), m the mean of the n exponents b.

    The log energy without C of u_{a0} against the tail, from its mean and
    log-product formed in decimal, with no float rounding on the way.
    """
    p, a0 = _to_decimal(p), _to_decimal(a0)
    bs = [_to_decimal(b) for b in tail]
    if len(bs) != n:
        raise ValueError("the tail must list n exponents")
    mean = sum(bs) / n
    y = n * (1 + mean) / a0
    log_front = sum(b.ln() for b in bs) + (1 + mean).ln()
    return log_front - a0.ln() + _log_gamma(p + 1) + oracle_log_gamma_ratio(y, p + 1)


def oracle_log_pair_energy(p, n: int, a, b) -> Decimal:
    """log(b^n (b + 1) / a) + ln B(p + 1, (b + 1) n / a): the equal tail of oracle_log_tail_energy."""
    return oracle_log_tail_energy(p, n, a, [b] * n)


def oracle_ratio(p, n: int, a, b) -> Decimal:
    """R(a, b) = E(a, b) / (E(a, a)^p E(b, b)^n)^(1 / (n + p)) from the log pair energies."""
    w = _to_decimal(p)
    log_aa, log_bb = oracle_log_pair_energy(p, n, a, a), oracle_log_pair_energy(p, n, b, b)
    log_den = (w * log_aa + n * log_bb) / (w + n)
    return (oracle_log_pair_energy(p, n, a, b) - log_den).exp()


def oracle_beta(x, y) -> Decimal:
    return oracle_log_beta(x, y).exp()


def oracle_gauss_legendre(m: int) -> tuple[list[Decimal], list[Decimal]]:
    """The m-point Gauss-Legendre nodes in (0, 1) of [-1, 1], ascending, and their weights.

    Newton's method on P_m from the asymptotic guess cos(pi (k - 1/4) / (m + 1/2)),
    with P_m and P_{m-1} from the three-term recurrence and the weight
    2 / ((1 - x^2) P_m'(x)^2); the iteration stops once a step is below 1e-45.
    """

    def legendre(x: Decimal) -> tuple[Decimal, Decimal]:
        # (P_m(x), P_m'(x))
        prev, cur = Decimal(1), x
        for k in range(2, m + 1):
            prev, cur = cur, ((2 * k - 1) * x * cur - (k - 1) * prev) / k
        return cur, m * (x * cur - prev) / (x * x - 1)

    nodes, weights = [], []
    for k in range(m // 2, 0, -1):
        x = Decimal(math.cos(math.pi * (k - 0.25) / (m + 0.5)))
        for _ in range(100):
            value, slope = legendre(x)
            step = value / slope
            x -= step
            if abs(step) < Decimal("1e-45"):
                break
        else:
            raise ArithmeticError(f"Newton's method did not converge on node {k} of {m}")
        slope = legendre(x)[1]
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * slope * slope))
    return nodes, weights


def oracle_mixed_density(exps, r) -> Decimal:
    """Mixed MA density of u_{b_1}, ..., u_{b_n} at radius r, from the Hessian coefficients.

    Each Hessian is alpha_i I + beta_i Q at s = r^2, alpha_i = b s^(b-1) and
    beta_i = b (b - 1) / 2 s^(b-2); the mixed determinant is prod(alpha) +
    (s / n) sum_i beta_i prod_{j != i} alpha_j.  No overflow at any exponent.
    """
    bs = [_to_decimal(b) for b in exps]
    n = len(bs)
    s = _to_decimal(r) ** 2
    log_s = s.ln()
    alphas = [b * ((b - 1) * log_s).exp() for b in bs]
    betas = [b * (b - 1) / 2 * ((b - 2) * log_s).exp() for b in bs]
    prod_alpha = Decimal(1)
    for alpha in alphas:
        prod_alpha *= alpha
    cross = Decimal(0)
    for i, beta in enumerate(betas):
        term = beta
        for j, alpha in enumerate(alphas):
            if j != i:
                term *= alpha
        cross += term
    return prod_alpha + s / n * cross


def oracle_total_mass(a, n: int) -> Decimal:
    """Total MA mass of u_a on the ball of H^n: 2 pi^{2n} / (2n-1)! * a^n / (4n)."""
    area = 2 * PI_50 ** (2 * n) / Decimal(math.factorial(2 * n - 1))
    return area * _to_decimal(a) ** n / (4 * n)


def oracle_mixed_moore_det(datas) -> Decimal:
    """Mixed Moore determinant of n definite hyperhermitian (n, n, 4) arrays, by polarization.

    (1/n!) times the sum over nonempty subsets S of (-1)^(n - |S|) times the
    Moore determinant of the sum over S, each sum being definite too.
    """
    n = len(datas)
    mats = [[[[_to_decimal(c) for c in entry] for entry in row] for row in data.tolist()] for data in datas]
    total = Decimal(0)
    for mask in range(1, 1 << n):
        picked = [m for i, m in enumerate(mats) if mask >> i & 1]
        summed = [[[sum(m[j][k][c] for m in picked) for c in range(4)] for k in range(n)] for j in range(n)]
        term = _definite_moore_det(summed)
        total += -term if (n - len(picked)) % 2 else term
    return total / math.factorial(n)


def _definite_moore_det(q) -> Decimal:
    """Moore determinant of a definite hyperhermitian matrix, a list of n x n quaternions (w, x, y, z).

    Gaussian elimination on the complex adjoint, held as real and imaginary
    parts: entry w + x i + y j + z k becomes [[w + x i, y + z i], [-y + z i,
    w - x i]].  Its pivots come in equal pairs, and the product of one of
    each pair, d_0 d_2 d_4 ..., is the Moore determinant.
    """
    m = 2 * len(q)
    re = [[Decimal(0)] * m for _ in range(m)]
    im = [[Decimal(0)] * m for _ in range(m)]
    for j, row in enumerate(q):
        for k, (w, x, y, z) in enumerate(row):
            re[2 * j][2 * k], im[2 * j][2 * k] = w, x
            re[2 * j][2 * k + 1], im[2 * j][2 * k + 1] = y, z
            re[2 * j + 1][2 * k], im[2 * j + 1][2 * k] = -y, z
            re[2 * j + 1][2 * k + 1], im[2 * j + 1][2 * k + 1] = w, -x
    det = Decimal(1)
    for k in range(m):
        pivot = re[k][k]  # real, as the adjoint is Hermitian
        if k % 2 == 0:
            det *= pivot
        for i in range(k + 1, m):
            fr, fi = re[i][k] / pivot, im[i][k] / pivot
            for j in range(k + 1, m):
                re[i][j] -= fr * re[k][j] - fi * im[k][j]
                im[i][j] -= fr * im[k][j] + fi * re[k][j]
    return det
