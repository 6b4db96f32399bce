"""Real special functions on the positive half-line: log-Gamma, Beta, digamma.

These are the primitives every closed-form energy rests on.  The domain
is strictly positive reals; no reflection formulas are provided.
log-Gamma and log-Beta also act elementwise on float arrays.  The
argument checks that every layer shares live here as well.
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


def _is_real(x) -> bool:
    """Whether x is a real number; a bool, a string and an array are not."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


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
