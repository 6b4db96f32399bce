"""p-energies of the power family on the unit ball of H^n, in closed form and by quadrature.

Every energy is C times a Beta integral over (0, 1), which the closed form
takes from log-Gamma and the quadrature integrates in log scale.  This
module alone knows the ball's constant C = pi^{2n}/(2 (2n-1)!): energies
multiply by it, and ratios, where C cancels, never compute it.  The
adaptive Gauss-Legendre engine works to one relative tolerance, 1e-10, and
bisects worst panels first, which drives a dyadic cascade into either
endpoint when the integrand is singular there.  The energy's integrand has
a branch point at v = 1 for non-integer p; the quadrature removes it by the
sigmoidal substitution v = psi(x) = I_x(4, 4) (Sidi, ISNM 112, 1993), so one
or two panels meet the tolerance instead of a cascade.

Three bounded caches keep work that no energy exponent p enters.  Two hold
a panel set's (the first panel (0, 1), or the two halves of a bisection):
its node array, and the energy integrand's ln v and ln psi'(x) on those
nodes.  Each holds the 64 panel sets last used, with read-only arrays of at
most 192 doubles, so both together, keys included, stay below 0.5 MB.  The
third holds a ratio grid's, keyed by (n, amin, amax, grid_size), for the
grids that ratio_grid evaluates in one block (up to 90 points a side): the
axis, the pair formula's log fronts n ln b + ln(1 + b) and ln a, and
specfun's log-Gamma-ratio geometry of the Beta arguments y = (b + 1) n / a,
namely the mask of the cells below 10, the shifted z, ln z, phi(z), and the
shifted cells' y, prod (y + i) and ln y, from which alone each p's log B is
evaluated.  It keeps the 8 grids last used, read-only: the certificate
search's six 64^2 grids (n = 1..6 on its default box) take ~0.94 MB, and
eight 90^2 grids at most ~3.2 MB.  A process that evaluates many energies
or many p at one grid, such as the certificate search's cross-checks or a
sweep of p, computes them once per panel set or grid; a one-shot `qma
energy` or `qma counterexample` fills them once and does the same work as
without.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .specfun import (
    _ArgumentError,
    _log_beta,
    _log_gamma_ratio_geometry,
    _positive_real,
    _real_array,
    _require_type,
    _validate_pn,
    log_gamma,
)

__all__ = [
    "QuadratureError",
    "EnergyParams",
    "EnergyResult",
    "integrate_unit_interval",
    "log_pair_energy",
    "energy_closed_core",
    "energy_numeric",
]

_MAX_PANELS = 2000
_MAX_SUBDIVISIONS = 60
_NODES_PER_PANEL = 32
_REL_TOL = 1e-10
_LOG_140 = math.log(140.0)
# The panel sets whose nodes, and whose Sidi logs in _log_energy_quad, stay
# cached: the first panel (0, 1) and the few bisections that energies repeat
_CACHED_PANEL_SETS = 64
# The one-block grids whose p-free half stays cached: a sweep of p over a few
# (n, box) pairs, as the certificate search's six dimensions on its default box
_CACHED_GRIDS = 8

# |fine - coarse| tracks the true panel error only up to a modest factor on
# panels touching an endpoint singularity; the stopping rule compensates.
_ERROR_SAFETY = 8.0


class QuadratureError(ValueError):
    """Adaptive quadrature failed to reach the requested tolerance: a failed computation, not an argument error."""


@dataclass(frozen=True)
class EnergyParams:
    """Energy exponent p > 0 and quaternionic dimension n >= 1."""

    p: float
    n: int

    def __post_init__(self) -> None:
        p, n = _validate_pn(self.p, self.n)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)


@dataclass(frozen=True)
class EnergyResult:
    value: float
    method: str
    discrepancy: Optional[float] = None


# The non-negative halves of numpy's leggauss(32) and leggauss(64), nodes then
# weights, as repr'd doubles: leggauss symmetrizes its rule, so the negative
# halves are these negated, and the table is leggauss bit for bit without
# importing numpy.polynomial or running its eigensolver.  The nodes are within
# 1 ulp of the exact rule; the weights of the outermost nodes are up to ~1e-12
# off in relative terms, as numpy computes them, far below the tolerance.
_GAUSS_HALVES = {
    32: (
        (
            0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
            0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
            0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
            0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816,
        ),
        (
            0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
            0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
            0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
            0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506,
        ),
    ),
    64: (
        (
            0.02435029266342443, 0.07299312178779904, 0.12146281929612054, 0.16964442042399283,
            0.21742364374000708, 0.2646871622087674, 0.31132287199021097, 0.3572201583376681,
            0.4022701579639916, 0.4463660172534641, 0.48940314570705296, 0.5312794640198946,
            0.571895646202634, 0.6111553551723933, 0.6489654712546573, 0.6852363130542333,
            0.7198818501716109, 0.7528199072605319, 0.7839723589433414, 0.8132653151227975,
            0.8406292962525803, 0.8659993981540928, 0.8893154459951141, 0.9105221370785028,
            0.9295691721319396, 0.9464113748584028, 0.9610087996520538, 0.973326827789911,
            0.983336253884626, 0.9910133714767443, 0.9963401167719552, 0.9993050417357722,
        ),
        (
            0.048690957009139814, 0.04857546744150351, 0.048344762234802996, 0.04799938859645842,
            0.04754016571483042, 0.046968182816210076, 0.04628479658131447, 0.045491627927418184,
            0.044590558163756566, 0.04358372452932355, 0.04247351512365361, 0.041262563242623576,
            0.039953741132720544, 0.03855015317861564, 0.03705512854024009, 0.0354722132568823,
            0.033805161837141794, 0.032057928354851495, 0.030234657072402554, 0.028339672614259535,
            0.02637746971505491, 0.0243527025687112, 0.02227017380838297, 0.020134823153530088,
            0.017951715775697284, 0.01572603047602503, 0.01346304789671786, 0.011168139460131028,
            0.008846759826363397, 0.006504457968978502, 0.004147033260564499, 0.00178328072169414,
        ),
    ),
}


@lru_cache(maxsize=len(_GAUSS_HALVES))
def _nodes(m: int):
    half_xs, half_ws = (np.array(half) for half in _GAUSS_HALVES[m])
    xs, ws = np.concatenate((-half_xs[::-1], half_xs)), np.concatenate((half_ws[::-1], half_ws))
    # map from [-1, 1] to [0, 1]
    xs, ws = 0.5 * (xs + 1.0), 0.5 * ws
    xs.flags.writeable = ws.flags.writeable = False
    return xs, ws


@lru_cache(maxsize=_CACHED_PANEL_SETS)
def _abscissae(edges: tuple) -> np.ndarray:
    """The read-only nodes of the 32- and then the 64-node rule on each panel (a, b) of edges, in one array."""
    (xs1, _), (xs2, _) = _nodes(_NODES_PER_PANEL), _nodes(2 * _NODES_PER_PANEL)
    t = np.concatenate([a + (b - a) * xs for a, b in edges for xs in (xs1, xs2)])
    t.flags.writeable = False
    return t


def _panels(f: Callable[[np.ndarray], np.ndarray], edges):
    """(fine, |fine - coarse|) of each panel (a, b) in edges, from one call of f."""
    m = _NODES_PER_PANEL
    _, ws1 = _nodes(m)
    _, ws2 = _nodes(2 * m)
    rows = np.asarray(f(_abscissae(tuple(edges))), dtype=float).reshape(len(edges), 3 * m)
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


def integrate_unit_interval(f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Adaptive Gauss-Legendre integral of a vectorized f over (0, 1).

    Panels are estimated with 32- and 64-node rules; the worst panel, the
    first of equal ones, is bisected, at most 60 times down to any point,
    until the summed error estimate drops below 1e-10 of the total.  The
    sums are math.fsum's, redone at every bisection: a converging integral
    takes a few dozen panels at most, so a plain list serves.  The Gauss
    nodes are interior, but on the narrow panels of a cascade into an
    endpoint a + width * x can round to the endpoint itself: (1 - t)**-0.5
    reaches a node at t = 1.0 and fails as a non-finite integrand.  f is
    called once per bisection, on the nodes of both new panels at once, so
    it must act elementwise on a 1-d array.  The node arrays are cached per
    panel set and read-only, so f must not write into its argument.
    """
    [(value, err)] = _panels(f, [(0.0, 1.0)])
    # the panels as parallel lists, panel i being (lows[i], highs[i]) at depths[i]
    lows, highs, depths, values, errors = [0.0], [1.0], [0], [value], [err]
    while True:
        total, total_err = math.fsum(values), math.fsum(errors)
        if _ERROR_SAFETY * total_err <= _REL_TOL * max(abs(total), 1e-300):
            return total
        worst = errors.index(max(errors))
        a, b, depth = lows[worst], highs[worst], depths[worst]
        if depth >= _MAX_SUBDIVISIONS:
            raise QuadratureError(
                f"tolerance {_REL_TOL:g} not met within {_MAX_SUBDIVISIONS} subdivisions "
                f"(estimated error {total_err:.3e} on total {total:.6e})"
            )
        if len(values) >= _MAX_PANELS:
            raise QuadratureError("panel budget exhausted")
        mid = 0.5 * (a + b)
        (v_lo, e_lo), (v_hi, e_hi) = _panels(f, [(a, mid), (mid, b)])
        highs[worst], depths[worst], values[worst], errors[worst] = mid, depth + 1, v_lo, e_lo
        for column, entry in zip((lows, highs, depths, values, errors), (mid, b, depth + 1, v_hi, e_hi)):
            column.append(entry)


def _log_c_energy(n: int) -> float:
    """ln C for C = pi^{2n} / (2 (2n-1)!), finite for every n >= 1."""
    return 2 * n * math.log(math.pi) - math.log(2.0) - math.lgamma(2 * n)


def log_pair_energy(p, n: int, a, b):
    """log(b^n (b+1) / a) + log B(p+1, (b+1) n / a): the log Beta-form energy without C.

    The checked form of _log_pair_energy, elementwise on reals and on
    arrays of a, b > 0 by specfun's real-array rule.  A y = (b + 1) n / a
    past the range of ln Gamma is a ValueError naming a, b, y.
    """
    p, n = _validate_pn(p, n)
    a, b = _positive_reals("a", a), _positive_reals("b", b)
    _check_beta_argument(p, n, a, b)
    return _log_pair_energy(p, n, a, b)


def _positive_reals(name: str, x):
    """x once it is finite and positive: a real as a float, a nonempty real array as a float array."""
    if isinstance(x, np.ndarray):
        arr = _real_array(name, x)
        if arr.size and np.all((arr > 0.0) & np.isfinite(arr)):
            return arr
    return _positive_real(name, x)  # which refuses any array


def _check_beta_argument(p: float, n: int, a, b) -> None:
    """Refuse a, b whose y = (b + 1) n / a puts ln Gamma(p + 1 + y) past floats, naming the largest y."""
    if isinstance(a, float) and isinstance(b, float):  # Python floats, whose overflow is a silent inf
        y = top = (b + 1.0) * n / a
    else:
        with np.errstate(over="ignore"):
            y = (b + 1.0) * n / a
        top = float(y.max())
    try:
        log_gamma(p + 1.0 + top)
    except ValueError:  # y past ln Gamma's range, or inf
        k = int(np.argmax(y))
        a, b, y = (float(np.broadcast_to(x, np.shape(y)).flat[k]) for x in (a, b, y))
        raise ValueError(
            f"log B(p + 1, (b + 1) n / a) overflows a float at a = {a!r}, "
            f"b = {b!r}: (b + 1) n / a = {y!r}"
        ) from None


def _log_energy(p: float, log_front, log_a, y, geometry=None):
    """log_front - log_a + log B(p + 1, y), unchecked: the log Beta-form energy of any tail.

    For a tail of mean m against u_a, log_front = sum(ln b_i) + ln(1 + m) and
    y = n (1 + m) / a; the caller keeps p + 1 + y in ln Gamma's range.  An
    array y may come as its log-Gamma-ratio geometry alone, y then None, as
    _log_beta takes it; an array returned is new.
    """
    out = _log_beta(p + 1.0, y, geometry)
    out += log_front - log_a
    return out


def _log_pair_energy(p: float, n: int, a, b):
    """ln E(a, b) without C, unchecked, on floats or arrays: the one pair formula."""
    # numpy's logs on floats too: math.log misses their bits at ~1 point in 1250
    return _log_energy(p, n * np.log(b) + np.log1p(b), np.log(a), (b + 1.0) * n / a)


def _log_axis(amin: float, amax: float, grid_size: int) -> np.ndarray:
    """grid_size log-spaced points from amin to amax, both ends exact: the axis of a ratio grid."""
    with np.errstate(over="ignore"):
        # 10**log10(amax) can overflow; geomspace then sets the endpoint to amax itself
        return np.geomspace(amin, amax, grid_size)


@lru_cache(maxsize=_CACHED_GRIDS)
def _grid_logs(n: int, amin: float, amax: float, grid_size: int) -> tuple:
    """The p-free half of the log pair energies on a log grid, read-only: (axis, log front, ln a, geometry).

    For the cells (a, b) = (axis[i], axis[j]) of _log_axis(amin, amax,
    grid_size): the pair formula's log front n ln b + ln(1 + b) per column,
    ln a per row as a column, and specfun's log-Gamma-ratio geometry of the
    Beta arguments y = (b + 1) n / a, which holds all that the log B of a p
    reads, y shifted included.  The caller keeps every p + 1 + y in ln
    Gamma's range.
    """
    axis = _log_axis(amin, amax, grid_size)
    logs = (axis, n * np.log(axis) + np.log1p(axis), np.log(axis)[:, None])
    geometry = _log_gamma_ratio_geometry((axis + 1.0) * n / axis[:, None])
    for arr in (*logs, *geometry):
        arr.flags.writeable = False
    return (*logs, geometry)


def _log_grid_energy(p: float, n: int, amin: float, amax: float, grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """(axis, ln E(axis[i], axis[j]) without C), unchecked: _log_pair_energy's bits from the grid's cached half.

    axis is the cache's read-only array; the energies are a new array,
    evaluated in place from the cached geometry without forming y.
    """
    axis, log_front, log_a, geometry = _grid_logs(n, amin, amax, grid_size)
    return axis, _log_energy(p, log_front, log_a, None, geometry)


def _check_tail(n: int, a0, tail) -> tuple[float, list[float]]:
    """(a0, tail) as floats once a0 and each of the n exponents is a finite positive real."""
    a0 = _positive_real("a0", a0)
    try:
        count = len(tail)
    except TypeError:  # None, a number or a generator
        raise _ArgumentError(f"tail must be a sequence of n = {n} exponents, got {type(tail).__name__}") from None
    if count != n:
        raise _ArgumentError(f"tail must list n = {n} exponents, got {count}")
    return a0, [_positive_real("a", b) for b in tail]


def _tail_logs(n: int, tail: Sequence[float]) -> tuple[float, float]:
    """(m, ln(prod(b) (1 + m))) of n checked exponents of mean m: the tail's share of an energy."""
    # an equal tail keeps the pair form's bits: its mean is b exactly, its logs numpy's
    mean = tail[0] + math.fsum(b - tail[0] for b in tail) / n
    return mean, math.fsum(np.log(tail).tolist()) + np.log1p(mean)


def energy_closed_core(p: float, n: int, a0: float, tail: Sequence[float]) -> float:
    """Closed form of the ball integral of (-u_{a0})^p against the mixed MA measure of the tail.

    For n exponents of mean m: C prod(b) (1 + m) / a0 B(p + 1, n (1 + m) / a0),
    summed in log space, exp(ln C + log_pair_energy(p, n, a0, b)) for an equal
    tail b.  An energy outside the normal float range (near n = 110 with C), or
    a factor past it, is a ValueError.
    """
    p, n = _validate_pn(p, n)
    a0, tail = _check_tail(n, a0, tail)
    return _closed_energy(p, n, a0, tail, _log_c_energy(n))[0]


def _closed_energy(p: float, n: int, a0: float, tail: list[float], log_c: float) -> tuple[float, float, float]:
    """(E, m, ln(prod(b) (1 + m))) of checked arguments and log_c = ln C: energy_closed_core's value and the tail logs it took."""
    try:
        mean, log_front = _tail_logs(n, tail)
        y = (mean + 1.0) * n / a0
        log_gamma(p + 1.0 + y)  # the range check of log B(p + 1, y)
        value = math.exp(log_c + _log_energy(p, log_front, np.log(a0), y))
    except (OverflowError, ValueError):  # from fsum, exp, or log_gamma past ln Gamma's range
        where = f"at n = {n}, a0 = {a0!r}"
        raise ValueError(f"the energy, tail mean or log B overflows a float {where}") from None
    if value < sys.float_info.min:
        raise ValueError(f"the energy at n = {n} underflows a float at a0 = {a0!r} ({value!r})")
    return value, mean, log_front


@lru_cache(maxsize=_CACHED_PANEL_SETS)
def _sidi_logs(nodes: bytes) -> tuple[np.ndarray, np.ndarray]:
    """(ln v, ln psi'(x)), read-only, at the nodes x whose float64 bytes are given, for v = psi(x) = I_x(4, 4).

    The parameter-free half of _log_energy_quad's integrand, computed once per panel set.
    """
    x = np.frombuffer(nodes)
    # y = min(x, 1 - x), exact on x >= 1/2; psi(y) = y^4 q(y) <= 1/2, q(y) in [8, 35]
    y = np.minimum(x, 1.0 - x)
    with np.errstate(divide="ignore"):  # ln 0 = -inf at a node rounded to an end
        log_y = np.log(y)
        log_psi_y = 4.0 * log_y + np.log(35.0 + y * (-84.0 + y * (70.0 - 20.0 * y)))
        # ln v = ln psi(x) below 1/2, ln(1 - psi(1 - x)) above it: both branches are finite
        log_v = np.where(x < 0.5, log_psi_y, np.log1p(-np.exp(log_psi_y)))
        log_dpsi = _LOG_140 + 3.0 * (log_y + np.log1p(-y))  # ln psi'(x), symmetric in y
    log_v.flags.writeable = log_dpsi.flags.writeable = False
    return log_v, log_dpsi


def _log_energy_quad(p: float, n: int, a0: float, tail: Sequence[float]) -> float:
    """ln(E / C) of u_{a0} against a tail by quadrature, energy_closed_core's log without C: _log_quad, checked."""
    a0, tail = _check_tail(n, a0, tail)
    try:
        mean, log_front = _tail_logs(n, tail)
    except OverflowError:  # a tail sum past the float range
        raise _quad_range_error(n, a0) from None
    return _log_quad(p, n, a0, mean, log_front)


def _quad_range_error(n: int, a0: float) -> ValueError:
    return ValueError(f"the energy's quadrature at n = {n} leaves the float range at a0 = {a0!r}")


def _log_quad(p: float, n: int, a0: float, mean: float, log_front: float) -> float:
    """ln(E / C) by quadrature for a tail of mean m with log_front = ln(prod(b) (1 + m)), from checked arguments.

    E / C = 2 prod(b) (1 + m) int_0^1 t^(beta - 1) (1 - t^alpha)^p dt, beta = 2n (1 + m), alpha = 2 a0.
    t = v^(1/gamma), gamma = max(1, min(beta / 64, 1 / s)), s = -ln t at the peak in t, keeps the peak
    off v = 1 (p = 2, n = 1, a0 = 1e150, b = 6.9e149) and off v = 0 (p = 1e6, n = 100, a0 = b = 1).
    Divided by its peak, at v*^A = (B - 1) / (B - 1 + p A), A = alpha / gamma, B = beta / gamma, the
    integrand in v lies in (0, 1] at any scale.  A prefactor past floats, or a missed peak, is a ValueError.

    Last, v = psi(x) = x^4 (35 - 84x + 70x^2 - 20x^3), the regularized incomplete Beta I_x(4, 4), with
    psi'(x) = 140 x^3 (1 - x)^3 and 1 - psi(x) = psi(1 - x).  For non-integer p, (1 - v^A)^p has a branch
    point at v = 1 where Gauss-Legendre converges only algebraically, and the engine would bisect into
    v = 1 about 14 times per integral; in x the integrand vanishes like x^(4B - 1) at 0 and like
    (1 - x)^(4p + 3) at 1, and the 32/64-node pair converges on one or two panels.  Times psi'(x) <= 140/64,
    the integrand in x stays bounded at any scale.  No closed form enters it.
    """
    try:
        power = 2.0 * n * (1.0 + mean)
        s = math.log1p(p * 2.0 * a0 / (power - 1.0)) / (2.0 * a0)  # -ln t at the peak in t
        gamma = max(1.0, power / max(64.0, power * s))  # max(1, min(beta / 64, 1 / s)), at s = 0 too
        alpha, beta = 2.0 * a0 / gamma, power / gamma
        log_peak = -math.log1p(p * alpha / (beta - 1.0)) / alpha  # ln v*
        log_gap = -math.log1p((beta - 1.0) / (p * alpha))  # ln(1 - v*^A)
        log_scale = math.log(2.0 / gamma) + log_front + (beta - 1.0) * log_peak + p * log_gap
    except (ArithmeticError, ValueError):  # alpha or p alpha past the float range
        log_scale = math.nan
    if not math.isfinite(log_scale):
        raise _quad_range_error(n, a0)

    def g(x: np.ndarray) -> np.ndarray:
        log_v, log_dpsi = _sidi_logs(x.tobytes())
        with np.errstate(divide="ignore"):  # ln 0 = -inf at a node rounded to v = 1
            alpha_log_v = alpha * log_v
            v_a = np.exp(alpha_log_v)
            # ln(1 - v^A) to a relative epsilon, as p multiplies it
            log_gap_v = np.where(v_a < 0.5, np.log1p(-v_a), np.log(-np.expm1(alpha_log_v)))
            return np.exp((beta - 1.0) * (log_v - log_peak) + p * (log_gap_v - log_gap) + log_dpsi)

    integral = integrate_unit_interval(g)
    if not integral > 0.0:
        raise ValueError(f"the energy's quadrature at n = {n} misses its integrand's peak at a0 = {a0!r}")
    return log_scale + math.log(integral)


def energy_numeric(params: EnergyParams, a0: float, tail: Sequence[float]) -> EnergyResult:
    """Quadrature evaluation of the mutual p-energy of u_{a0} against the tail.

    The tail lists the n exponents whose mixed Monge-Ampere measure weights
    (-u_{a0})^p.  The method is "both": discrepancy is the relative distance
    to energy_closed_core, which runs first; its errors, and a quadrature
    that fails or leaves the normal float range, are ValueErrors.  Both
    take the tail's checks and logs, and ln C, from one pass.
    """
    _require_type("params", params, EnergyParams)
    p, n = params.p, params.n
    a0, tail = _check_tail(n, a0, tail)
    log_c = _log_c_energy(n)
    closed, mean, log_front = _closed_energy(p, n, a0, tail, log_c)
    try:
        value = math.exp(log_c + _log_quad(p, n, a0, mean, log_front))
    except OverflowError:
        value = math.inf
    if not sys.float_info.min <= value < math.inf:
        raise ValueError(f"the energy's quadrature at n = {n} leaves the normal float range ({value!r})")
    return EnergyResult(value, "both", abs(closed - value) / closed)

