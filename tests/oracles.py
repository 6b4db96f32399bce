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
from decimal import Decimal, getcontext
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
    return Decimal(repr(float(x)))


def oracle_log_gamma(x) -> Decimal:
    """ln Gamma(x) by recurrence to z >= 1000 plus the Stirling series."""
    z = _to_decimal(x)
    if z <= 0:
        raise ValueError("oracle domain is x > 0")
    shift_log = Decimal(0)
    while z < _SHIFT:
        shift_log += z.ln()
        z += 1
    half = Decimal("0.5")
    result = (z - half) * z.ln() - z + half * (2 * PI_50).ln()
    zpow = z
    z2 = z * z
    for k, b in enumerate(_BERNOULLI, start=1):
        term = Decimal(b.numerator) / Decimal(b.denominator) / (Decimal(2 * k * (2 * k - 1)) * zpow)
        result += term
        zpow *= z2
    return result - shift_log


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


def oracle_log_beta(x, y) -> Decimal:
    return oracle_log_gamma(x) + oracle_log_gamma(y) - oracle_log_gamma(float(x) + float(y))


def oracle_beta(x, y) -> Decimal:
    return oracle_log_beta(x, y).exp()


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
