"""Real special functions on the positive half-line: log-Gamma, Beta, digamma.

These are the primitives every closed-form energy rests on.  The domain
is strictly positive reals; no reflection formulas are provided.
log-Gamma and log-Beta also act elementwise on float arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpecialValue",
    "log_gamma",
    "log_beta",
    "beta",
    "digamma",
    "log_gamma_value",
    "beta_value",
    "digamma_value",
]

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

_LOG_GAMMA_REL_BOUND = 1e-12
_BETA_REL_BOUND = 1e-11
_DIGAMMA_ABS_BOUND = 1e-12


@dataclass(frozen=True)
class SpecialValue:
    """A computed value paired with a worst-case absolute error bound."""

    value: float
    abs_error_bound: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError("special-function value must be finite")
        if not (self.abs_error_bound >= 0.0):
            raise ValueError("abs_error_bound must be non-negative")


def _require_positive(name: str, x):
    """x as a float, or a float array as is, once every entry is finite and positive."""
    if isinstance(x, np.ndarray):
        if not np.all((x > 0.0) & np.isfinite(x)):
            raise ValueError(f"{name} must hold finite positive reals only")
        return x
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"{name} must be a finite positive real, got {x!r}")
    return x


def log_gamma(x):
    """ln Gamma(x) for x > 0 (stdlib lgamma); elementwise on float arrays."""
    x = _require_positive("x", x)
    try:
        if isinstance(x, np.ndarray):
            # fromiter fills the float result directly, with no object array in between
            return np.fromiter(map(math.lgamma, x.flat), float, x.size).reshape(x.shape)
        return math.lgamma(x)
    except OverflowError:
        raise ValueError("ln Gamma(x) overflows a float for x above about 2.5e305") from None


def log_beta(x, y):
    """ln B(x, y); symmetric in its arguments by construction, elementwise on arrays."""
    x = _require_positive("x", x)
    y = _require_positive("y", y)
    return log_gamma(x) + log_gamma(y) - log_gamma(x + y)


def beta(x: float, y: float) -> float:
    """Beta function B(x, y) = Gamma(x) Gamma(y) / Gamma(x + y) for x, y > 0."""
    return math.exp(log_beta(x, y))


def digamma(x: float) -> float:
    """psi(x) for x > 0: upward recurrence, then the asymptotic series."""
    x = _require_positive("x", x)
    acc = 0.0
    while x < _DIGAMMA_SHIFT:
        acc -= 1.0 / x
        x += 1.0
    w = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_DIGAMMA_TAIL):
        tail = (tail + c) * w
    return acc + math.log(x) - 0.5 / x - tail


def log_gamma_value(x: float) -> SpecialValue:
    v = log_gamma(x)
    return SpecialValue(v, _LOG_GAMMA_REL_BOUND * max(1.0, abs(v)))


def beta_value(x: float, y: float) -> SpecialValue:
    v = beta(x, y)
    return SpecialValue(v, _BETA_REL_BOUND * abs(v))


def digamma_value(x: float) -> SpecialValue:
    return SpecialValue(digamma(x), _DIGAMMA_ABS_BOUND)
