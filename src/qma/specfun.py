"""Real special functions on the positive half-line: log-Gamma and Beta.

These are the primitives every closed-form energy rests on.  The domain
is strictly positive reals; no reflection formulas are provided.  A
private kernel takes ln Gamma(y) - ln Gamma(y + s) on arrays without the
cancellation of two log-Gamma values of size y ln y, in two steps: the
geometry of y, which s does not enter, and its evaluation at s.  Another
gives its derivatives in ln y, the scaled psi differences that every psi
in qma is read off.  The argument checks that every layer shares live
here too, with the error type that marks an argument as the caller's
mistake: one rule for a real and one for a real array, which refuse a
bool, a string, bytes, a complex number, None, a ragged nesting and an
int past the float range.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys

import numpy as np

__all__ = ["log_gamma", "beta"]

# Arguments below the floor are shifted up by recurrence, the log-Gamma
# ratio's by exactly the floor; at z = 10 the first omitted terms of the
# series of phi, psi and psi' are 3e-17, 8e-16 and 7e-17.
_RATIO_FLOOR = 10


def _psi_tail(w):
    """sum_k B_2k / (2k) w^(k-1), k = 1..6: psi(z) ~ ln z - 1/(2z) - w _psi_tail(w) at w = 1/z^2."""
    return 1 / 12 - w * (1 / 120 - w * (1 / 252 - w * (1 / 240 - w * (1 / 132 - w * (691 / 32760)))))


def _trigamma_tail(w):
    """sum_k B_2k w^(k-1), k = 1..7: psi'(z) ~ 1/z + 1/(2z^2) + w _trigamma_tail(w) / z, w = 1/z^2."""
    return 1 / 6 - w * (1 / 30 - w * (1 / 42 - w * (1 / 30 - w * (5 / 66 - w * (691 / 2730 - w * 7 / 6)))))


class _ArgumentError(ValueError):
    """An argument broke its documented rule: the caller's error, not a failed computation.

    Every argument validator raises it, and the CLI reads it as a usage
    error (exit 2); a computation that fails is a plain ValueError.
    """


def _is_real(x) -> bool:
    """Whether x is a real number; a bool, a string and an array are not."""
    # a float or an int first: the numbers.Real check is an ABC lookup, slow next to the arithmetic it guards
    return type(x) is float or type(x) is int or (isinstance(x, numbers.Real) and not isinstance(x, bool))


def _require_type(name: str, x, cls: type) -> None:
    """Refuse an x that is not an instance of cls, naming the type expected and the type given."""
    if not isinstance(x, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise _ArgumentError(f"{name} must be {article} {cls.__name__}, got {type(x).__name__}")


def _positive_real(name: str, x) -> float:
    """x as a float once it is a finite positive real; a string, a bool, an array and an int past floats are not."""
    if _is_real(x):
        try:
            value = float(x)
        except OverflowError:
            bits = math.trunc(x).bit_length()
            raise _ArgumentError(f"{name} must be within the float range, got an integer of {bits} bits") from None
        if 0.0 < value < math.inf:
            return value
    raise _ArgumentError(f"{name} must be a finite positive real, got {x!r}")


def _real_array(name: str, data) -> np.ndarray:
    """data as a float64 array (itself if it is one): integers, floats, or objects that are all reals.

    Bool, string, bytes and complex arrays, other objects, ragged nestings and ints past floats are refused.
    Any input but an array is checked entry by entry, as an array of objects is.
    """
    try:
        raw = np.asarray(data)
    except ValueError as exc:  # numpy's message on a ragged nesting
        raise _ArgumentError(f"{name} must be real numbers of one shape: {exc}") from None
    if not isinstance(data, np.ndarray):
        raw = np.asarray(data, dtype=object)  # numpy's own dtype would read [0.5, True] as [0.5, 1.0]
    if raw.dtype.kind == "O":
        for x in raw.flat:
            if not _is_real(x):
                raise _ArgumentError(f"{name} must be real numbers, got {x!r}")
        try:
            return raw.astype(float)
        except OverflowError:  # an integer past the float range
            raise _ArgumentError(f"{name} must be finite") from None
    if raw.dtype.kind not in "iuf":
        raise _ArgumentError(f"{name} must be real numbers, got an array of {raw.dtype}")
    return raw.astype(float, copy=False)


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
        raise _ArgumentError(f"{name} must be an integer, got {n!r}") from None
    if n < least:
        raise _ArgumentError(f"{name} must be >= {least}, got {n!r}")
    return n


def _validate_pn(p, n) -> tuple[float, int]:
    """(p, n) as a float and an int within the float range: the one check of every (p, n) entry point."""
    p, n = _positive_real("p", p), _validate_n(n)
    _positive_real("n", n)  # which refuses an n past the float range
    return p, n


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0 (stdlib lgamma)."""
    x = _positive_real("x", x)
    try:
        return math.lgamma(x)
    except OverflowError:
        raise ValueError("ln Gamma(x) overflows a float for x above about 2.5e305") from None


def _stirling_remainder(z):
    """phi(z) = ln Gamma(z) - (z - 1/2) ln z + z - ln(2 pi)/2 for z >= 10, to 3e-17."""
    r = 1.0 / z
    w = r * r
    # sum_k B_2k / (2k (2k - 1)) z^(1 - 2k), k = 1..7
    tail = 1 / 1680 - w * (1 / 1188 - w * (691 / 360360 - w * (1 / 156)))
    return r * (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * tail)))


def _stirling_log_gamma_ratio(z: float, s: float) -> float:
    """ln Gamma(z) - ln Gamma(z + s) at floats z >= 10 and s >= 1.

    Stirling's series of both terms (DLMF 5.11; Tricomi and Erdelyi, Pacific
    J. Math. 1 (1951) 133-142 expand the ratio itself), with the difference
    of the leading terms in closed form, -(z + s - 1/2) log1p(s / z) - s ln z
    + s, so that nothing of size z ln z is formed and cancels.  math's logs
    cost a tenth of numpy's on one float; _log_gamma_ratio_at takes the same
    terms, in the same order, on arrays.
    """
    return (s - (z + (s - 0.5)) * math.log1p(s / z) - s * math.log(z)) + (
        _stirling_remainder(z) - _stirling_remainder(z + s)
    )


def _log_gamma_ratio(y, s: float, geometry=None):
    """ln Gamma(y) - ln Gamma(y + s) for a float s >= 1.

    Elementwise on a float array y > 0, or at one float y >= 10.  On an
    array it is _log_gamma_ratio_at, from geometry if given, which must be
    _log_gamma_ratio_geometry(y) and is then all that is read, or else from
    the geometry of y computed here.

    Cells below 10 are shifted up by 10 first: ln Gamma(y) - ln Gamma(y + s)
    is that at y + 10 plus ln prod_{i<10} (y + s + i) / (y + i), whose
    products are scaled so that neither overflows nor goes subnormal:
    prod_i (x + i) = x^10 prod_{i>0} (1 + i / x) at x = y + s >= 1, and
    prod_i (y + i) = y prod_{i>0} (y + i).  No Python loop runs over cells.
    Against a decimal oracle the error is below 4e-15 of max(1, |value|) for
    y in [5e-324, 2.5e305] and s in [1, 1e3]; two lgamma values lose ~y ln y
    ulps instead.  The caller keeps y + s below the overflow of ln Gamma
    (about 2.5e305), the domain of log_gamma.
    """
    if isinstance(y, float):
        return _stirling_log_gamma_ratio(y, s)
    return _log_gamma_ratio_at(_log_gamma_ratio_geometry(y) if geometry is None else geometry, s)


def _shifted_up(y, small):
    """(z, y[small]): y with its cells below the floor, which small marks, shifted up by the floor."""
    z = y.copy()
    np.add(z, _RATIO_FLOOR, out=z, where=small)
    return z, y[small]


def _stirling_remainder_into(z, out, w, r):
    """_stirling_remainder(z) on an array z, written into out, with w and r as scratch arrays of its shape.

    The float form's operations in its order, each into an existing array,
    so every cell has its bits; out may be z itself.
    """
    np.divide(1.0, z, out=r)
    np.multiply(r, r, out=w)
    np.multiply(w, 1 / 156, out=out)
    for c in (691 / 360360, 1 / 1188, 1 / 1680, 1 / 1260, 1 / 360):
        np.subtract(c, out, out=out)
        out *= w
    np.subtract(1 / 12, out, out=out)
    out *= r
    return out


def _log_gamma_ratio_geometry(y) -> tuple:
    """The half of _log_gamma_ratio on a float array y > 0 that does not depend on s.

    It is (small, z, y[small], ln z, phi(z), prod_{i=1..9} (y + i), ln y):
    small marks the cells below the floor, z is y with those cells shifted
    up by it, and the last three are taken on the shifted cells only.  The
    evaluation reads the geometry alone, so y is shifted once whether the
    geometry serves one s or is kept for many: 3 doubles and a bool a cell,
    and 3 doubles more a shifted cell.
    """
    small = y < _RATIO_FLOOR
    z, ys = _shifted_up(y, small)
    den, factor = ys + 1.0, np.empty_like(ys)
    for i in range(2, _RATIO_FLOOR):
        den *= np.add(ys, i, out=factor)
    phi_z = _stirling_remainder_into(z, np.empty_like(z), np.empty_like(z), np.empty_like(z))
    return small, z, ys, np.log(z), phi_z, den, np.log(ys)


def _log_gamma_ratio_at(geometry: tuple, s: float):
    """ln Gamma(y) - ln Gamma(y + s) on a float array y > 0, from its _log_gamma_ratio_geometry, for s >= 1.

    Each cell takes _log_gamma_ratio's operations in its order, the products'
    factors on the shifted cells included, so its bits do not depend on
    whether the geometry was kept or on which cells share the array.  The
    operations write into the array returned and two scratch arrays of its
    shape, the shifted cells' terms into arrays of their count.
    """
    small, z, ys, log_z, phi_z, den, log_ys = geometry
    out, a, b = np.add(z, s), np.empty_like(z), np.empty_like(z)
    # phi(z) - phi(z + s)
    _stirling_remainder_into(out, out, a, b)
    np.subtract(phi_z, out, out=out)
    # plus s - (z + (s - 1/2)) log1p(s / z) - s ln z
    np.log1p(np.divide(s, z, out=a), out=a)
    a *= np.add(z, s - 0.5, out=b)
    np.subtract(s, a, out=a)
    a -= np.multiply(log_z, s, out=b)
    out += a
    if ys.size:
        x = ys + s
        w = 1.0 / x
        num, factor = w + 1.0, np.empty_like(w)
        for i in range(2, _RATIO_FLOOR):
            np.multiply(w, i, out=factor)
            factor += 1.0
            num *= factor
        # (10 ln x - ln y) + ln(num / den)
        np.log(x, out=x)
        x *= _RATIO_FLOOR
        x -= log_ys
        num /= den
        x += np.log(num, out=num)
        out[small] += x
    return out


def _log_gamma_ratio_derivs(y: float, s: float) -> tuple[float, float]:
    """(D1, D2) = (y (psi(y) - psi(y + s)), y^2 (psi'(y) - psi'(y + s))) at floats y > 0, s >= 1.

    The first two derivatives of ln Gamma(y) - ln Gamma(y + s) in ln y are D1
    and D1 + D2.  Scaled forms keep both O(s), within 1e-14 of max(1, |value|)
    for y in [1e-300, 1e300]: no y^2 and no psi(y) - psi(y + s) is formed.
    """
    d1 = d2 = 0.0
    x = y
    while x < _RATIO_FLOOR:
        # the shifted terms, y/x - y/(x + s) taken as y/x * s/(x + s)
        u = y / x
        term = u * s / (x + s)
        d1 -= term
        d2 += term * (u + u - term)
        x += 1.0
    # y (ln x - ln(x + s)) and y^2 (1/x - 1/(x + s)), then the series' other terms at x and x + s
    d1 -= y * math.log1p(s / x)
    d2 += y * (y / x) * (s / (x + s))
    for z, sign in ((x, 1.0), (x + s, -1.0)):
        r = 1.0 / z
        c = sign * y * r
        d1 -= c * (0.5 + r * _psi_tail(r * r))
        d2 += c * c * sign * (0.5 + r * _trigamma_tail(r * r))
    return d1, d2


def _log_beta(s: float, y, geometry=None):
    """ln B(s, y), unchecked, at a float y or on a float array y: the one rule for ln B in qma.

    A float y below 10 takes (ln Gamma(s) + ln Gamma(y)) - ln Gamma(s + y).
    Any other y takes ln Gamma(s) plus the log-Gamma ratio, which needs s >= 1
    and keeps 4e-15 of max(1, its value) where two lgamma values of size
    y ln y lose ~y ln y ulps.  The caller keeps s + y within ln Gamma's range.
    An array y may come as its _log_gamma_ratio_geometry alone, y then None;
    the array returned is new.
    """
    if isinstance(y, float) and y < _RATIO_FLOOR:
        return (math.lgamma(s) + math.lgamma(y)) - math.lgamma(s + y)
    out = _log_gamma_ratio(y, s, geometry)
    out += math.lgamma(s)
    return out


def beta(x: float, y: float) -> float:
    """Beta function B(x, y) for x, y > 0, from _log_beta.

    With lo <= hi the arguments, ln B is _log_beta(lo, hi) when lo >= 1, and
    _log_beta(hi, lo) when hi < 10.  Otherwise it is _log_beta(lo + 1, hi) +
    (ln(lo + hi) - ln lo), from B(lo, hi) = B(lo + 1, hi) (lo + hi) / lo,
    which keeps the log-Gamma ratio's accuracy where three lgamma values
    lose ~hi ln hi ulps.
    """
    x, y = _positive_real("x", x), _positive_real("y", y)
    # the range of ln Gamma(x + y); a sum rounded to inf is past it too
    log_gamma(min(x + y, sys.float_info.max))
    lo, hi = min(x, y), max(x, y)
    if lo >= 1.0:
        log_b = _log_beta(lo, hi)
    elif hi < _RATIO_FLOOR:
        log_b = _log_beta(hi, lo)
    else:
        log_b = _log_beta(lo + 1.0, hi) + (math.log(lo + hi) - math.log(lo))
    try:
        return math.exp(log_b)
    except OverflowError:
        raise ValueError(f"B(x, y) overflows a float at x = {x!r}, y = {y!r}") from None
