"""Real special functions on the positive half-line: log-Gamma, Beta, digamma.

These are the primitives every closed-form energy rests on.  The domain
is strictly positive reals; no reflection formulas are provided.
log-Gamma and log-Beta also act elementwise on float arrays, and a
private kernel takes ln Gamma(y) - ln Gamma(y + s) on arrays without the
cancellation of two log-Gamma values of size y ln y.  The argument checks
that every layer shares live here as well.
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

__all__ = ["log_gamma", "log_beta", "beta", "digamma"]

# B_{2k}/(2k) for k = 1..6; psi(z) ~ ln z - 1/(2z) - sum_k B_{2k}/(2k z^{2k}).
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
)
# Recurrence shift target.  At z = 10 the first omitted Bernoulli term is
# ~8e-16, which keeps the absolute error well under the 1e-12 budget.
_DIGAMMA_SHIFT = 10.0

# B_{2k}/(2k (2k-1)) for k = 1..7: the Stirling remainder
# phi(z) = ln Gamma(z) - (z - 1/2) ln z + z - ln(2 pi)/2 ~ sum_k c_k z^(1-2k).
_STIRLING_TAIL = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)
# The log-Gamma ratio shifts arguments below the floor up by exactly the
# floor, into [10, 20); at z = 10 the first omitted term of phi is 3e-17.
_RATIO_FLOOR = 10


def _is_real(x) -> bool:
    """Whether x is a real number; a bool, a string and an array are not."""
    # a float first: the numbers.Real check is an ABC lookup, slow next to the arithmetic it guards
    return type(x) is float or (isinstance(x, numbers.Real) and not isinstance(x, bool))


def _positive_real(name: str, x):
    """x once it is finite and positive: a real as a float, a real array as is.

    A string or a bool, and an array of either, is refused like any other
    non-real.
    """
    if isinstance(x, np.ndarray):
        if x.dtype.kind in "fiu" and np.all((x > 0.0) & np.isfinite(x)):
            return x
    elif _is_real(x) and 0.0 < float(x) < math.inf:
        return float(x)
    raise ValueError(f"{name} must be a finite positive real, got {x!r}")


def _validate_n(n, name: str = "n", least: int = 1) -> int:
    """n as an int once it is an integer >= least; an integral float such as 2.0 is accepted.

    name is the argument's name in the error, for counts other than the dimension n.
    """
    if isinstance(n, float) and n.is_integer():
        n = int(n)
    try:
        if isinstance(n, bool):
            raise TypeError
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {n!r}") from None
    if n < least:
        raise ValueError(f"{name} must be >= {least}, got {n!r}")
    return n


def _validate_pn(p, n) -> tuple[float, int]:
    """(p, n) as a float and an int: the one check of every (p, n) entry point."""
    return _positive_real("p", p), _validate_n(n)


def log_gamma(x):
    """ln Gamma(x) for x > 0 (stdlib lgamma); elementwise on float arrays."""
    x = _positive_real("x", x)
    try:
        if isinstance(x, np.ndarray):
            # fromiter fills the float result directly, with no object array in between
            return np.fromiter(map(math.lgamma, x.flat), float, x.size).reshape(x.shape)
        return math.lgamma(x)
    except OverflowError:
        raise ValueError("ln Gamma(x) overflows a float for x above about 2.5e305") from None


def _stirling_remainder(z):
    """phi(z) = ln Gamma(z) - (z - 1/2) ln z + z - ln(2 pi)/2 for z >= 10, to 3e-17."""
    r = 1.0 / z
    w = r * r
    acc = _STIRLING_TAIL[-1]
    for c in reversed(_STIRLING_TAIL[:-1]):
        acc = acc * w + c
    return acc * r


def _stirling_log_gamma_ratio(z, s: float):
    """ln Gamma(z) - ln Gamma(z + s) for z >= 10 and s >= 1, a float or an array.

    Stirling's series of both terms (DLMF 5.11; Tricomi and Erdelyi, Pacific
    J. Math. 1 (1951) 133-142 expand the ratio itself), with the difference
    of the leading terms in closed form, -(z + s - 1/2) log1p(s / z) - s ln z
    + s, so that nothing of size z ln z is formed and cancels.
    """
    return (s - (z + (s - 0.5)) * np.log1p(s / z) - s * np.log(z)) + (
        _stirling_remainder(z) - _stirling_remainder(z + s)
    )


def _log_gamma_ratio(y, s: float):
    """ln Gamma(y) - ln Gamma(y + s) for a float s >= 1.

    Elementwise on a float array y > 0, or at one float y >= 10.

    Cells below 10 are shifted up by 10 first: ln Gamma(y) - ln Gamma(y + s)
    is that at y + 10 plus ln prod_{i<10} (y + s + i) / (y + i), whose
    products are scaled so that neither overflows nor goes subnormal:
    prod_i (x + i) = x^10 prod_{i>0} (1 + i / x) at x = y + s >= 1, and
    prod_i (y + i) = y prod_{i>0} (y + i).  No Python loop runs over cells.
    Against a decimal oracle the error is below 4e-15 of max(1, |value|) for
    y in [5e-324, 2.5e305] and s in [1, 1e3]; two lgamma values lose ~y ln y
    ulps instead.  The caller keeps y + s below the overflow of ln Gamma
    (about 2.5e305), the domain of log_beta.
    """
    small = y < _RATIO_FLOOR
    if not np.any(small):
        return _stirling_log_gamma_ratio(y, s)
    ys = y[small]
    x = ys + s
    w = 1.0 / x
    num = 1.0 + w
    den = ys + 1.0
    for i in range(2, _RATIO_FLOOR):
        num *= 1.0 + i * w
        den *= ys + i
    z = y.copy()
    z[small] += _RATIO_FLOOR
    out = _stirling_log_gamma_ratio(z, s)
    out[small] += (_RATIO_FLOOR * np.log(x) - np.log(ys)) + np.log(num / den)
    return out


def log_beta(x, y):
    """ln B(x, y); symmetric in its arguments by construction, elementwise on arrays."""
    x = _positive_real("x", x)
    y = _positive_real("y", y)
    return log_gamma(x) + log_gamma(y) - log_gamma(x + y)


def beta(x: float, y: float) -> float:
    """Beta function B(x, y) = Gamma(x) Gamma(y) / Gamma(x + y) for x, y > 0."""
    try:
        return math.exp(log_beta(x, y))
    except OverflowError:
        raise ValueError(f"B(x, y) overflows a float at x = {x!r}, y = {y!r}") from None


def digamma(x: float) -> float:
    """psi(x) for x > 0: upward recurrence, then the asymptotic series."""
    x = _positive_real("x", x)
    if 1.0 / x == math.inf:
        # psi(x) ~ -1/x near 0
        raise ValueError(f"psi(x) overflows a float at x = {x!r}")
    acc = 0.0
    while x < _DIGAMMA_SHIFT:
        acc -= 1.0 / x
        x += 1.0
    w = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_DIGAMMA_TAIL):
        tail = (tail + c) * w
    return acc + math.log(x) - 0.5 / x - tail
