"""Property tests over the public entry points and the CLI.

Every entry point returns a finite, documented result or raises ValueError,
whatever float it is given, and never emits a numpy warning; the CLI maps
every failure to exit 1 or 2 with one line on stderr.
"""

import contextlib
import dataclasses
import io
import json
import math
import sys
import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qma import cli, energy, hessian, ineq, specfun

EDGE_FLOATS = (
    math.nan,
    math.inf,
    -math.inf,
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    1e-320,
    sys.float_info.min,
    1e-308,
    -1e-308,
    1e308,
    -1e308,
    sys.float_info.max,
    -sys.float_info.max,
    0.5,
    1.0,
    2.0,
)

any_float = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
any_n = st.one_of(
    st.integers(min_value=-2, max_value=8),
    st.integers(),
    st.sampled_from((2.0, 1.5, -1.0, True, False, "2", "x")),
    st.floats(),
    st.booleans(),
    st.text(max_size=3),
)


def _tail(n, exps):
    # n exponents for n = 1..3, else one; other n reach the length check
    count = n if isinstance(n, int) and not isinstance(n, bool) and 1 <= n <= 3 else 1
    return list(exps[:count])


def _members(n, exps):
    return [hessian.PowerFamilyMember(c, n) for c in _tail(n, exps)]


ENTRY_POINTS = {
    "EnergyParams": lambda p, n, a, b, r: energy.EnergyParams(p, n),
    "PowerFamilyMember": lambda p, n, a, b, r: hessian.PowerFamilyMember(a, n),
    "alpha_const": lambda p, n, a, b, r: ineq.alpha_const(p, n),
    "d_const": lambda p, n, a, b, r: ineq.d_const(p, n),
    "f_lemma": lambda p, n, a, b, r: ineq.f_lemma(p, n),
    "dFdb_closed": lambda p, n, a, b, r: ineq.dFdb_closed(p, n),
    "constants_report": lambda p, n, a, b, r: ineq.constants_report(p, n),
    "F_func": lambda p, n, a, b, r: ineq.F_func(p, n, a, b),
    "ratio_R": lambda p, n, a, b, r: ineq.ratio_R(energy.EnergyParams(p, n), a, b),
    "log_pair_energy": lambda p, n, a, b, r: energy.log_pair_energy(p, n, a, b),
    # arrays take the log-Gamma ratio kernel instead of lgamma
    "log_pair_energy[array]": lambda p, n, a, b, r: energy.log_pair_energy(
        p, n, np.array([a, b, r]), np.array([[b], [a]])
    ),
    "ratio_grid": lambda p, n, a, b, r: ineq.ratio_grid(energy.EnergyParams(p, n), 3, a, b),
    "energy_closed_core": lambda p, n, a, b, r: energy.energy_closed_core(p, n, a, _tail(n, (b, r, a))),
    "log_gamma": lambda p, n, a, b, r: specfun.log_gamma(a),
    "log_beta": lambda p, n, a, b, r: specfun.log_beta(a, b),
    "beta": lambda p, n, a, b, r: specfun.beta(a, b),
    "digamma": lambda p, n, a, b, r: specfun.digamma(a),
    "power_hessian_closed": lambda p, n, a, b, r: hessian.power_hessian_closed(
        hessian.PowerFamilyMember(a, n), r
    ),
    "ma_density": lambda p, n, a, b, r: hessian.ma_density(hessian.PowerFamilyMember(a, n), r),
    "mixed_density": lambda p, n, a, b, r: hessian.mixed_density(_members(n, (a, b, p)), r),
}


def _numbers(result):
    if dataclasses.is_dataclass(result):
        return dataclasses.asdict(result).items()
    if isinstance(result, tuple):
        return [(str(i), v) for i, v in enumerate(result)]
    return [("value", result)]


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(ENTRY_POINTS)),
    p=any_float,
    n=any_n,
    a=any_float,
    b=any_float,
    r=any_float,
)
def test_entry_points_give_a_finite_value_or_a_value_error(name, p, n, a, b, r):
    _check_entry_point(name, p, n, a, b, r)


def _check_entry_point(name, p, n, a, b, r):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the property
        try:
            result = ENTRY_POINTS[name](p, n, a, b, r)
        except ValueError:
            return
    for field, value in _numbers(result):
        if isinstance(value, np.ndarray):
            assert np.isfinite(value).all(), (field, value)
        elif isinstance(value, (int, float)):
            # D_p past the float range is d_const's documented inf, never nan
            inf_ok = (name, field) in (("d_const", "value"), ("constants_report", "d_p"))
            assert math.isfinite(value) or (inf_ok and value == math.inf), (field, value)


def test_array_entry_points_at_p_0_and_subnormal_beta_arguments():
    # a near the float maximum puts y = (b + 1) n / a below the normal range;
    # p = 0 is the total-mass exponent, which log_pair_energy alone accepts
    huge = sys.float_info.max
    for p in (0.0, 0.5, 2.0):
        for a, b in [(huge, 5e-324), (huge, 1.0), (1e308, 0.5), (5e-324, huge), (1e-300, 1e300)]:
            _check_entry_point("log_pair_energy[array]", p, 1, a, b, 0.5)
        for box in [(0.5, 2.0), (1e300, huge), (1e-300, 1e-290), (1e-5, 1e300), (1e-300, 1e300)]:
            _check_entry_point("ratio_grid", p, 2, *box, 0.5)
    # the tail is (b, r, a): its sum overflows, with or without the energy
    for b, r, a in [(1.0, huge, huge), (5e-324, huge, 1e308), (huge, huge, huge)]:
        _check_entry_point("energy_closed_core", 2.0, 3, a, b, r)
    b = np.array([5e-324, 1.0])
    assert ((b + 1.0) / huge < sys.float_info.min).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = energy.log_pair_energy(0.0, 1, huge, b)
    # at p = 0, B(1, y) = 1 / y and the energy b^n (b + 1) / a B(1, y) is b^n / n
    assert np.allclose(values, np.log(b), rtol=1e-15, atol=0.0)


finite_float = st.one_of(
    st.sampled_from([x for x in EDGE_FLOATS if math.isfinite(x)]),
    st.floats(allow_nan=False, allow_infinity=False),
)
# mostly values that a command accepts, so that examples reach the computation
flag_float = st.one_of(st.floats(min_value=0.01, max_value=20.0), finite_float)
small_n = st.one_of(st.integers(min_value=1, max_value=3), st.integers(min_value=-1, max_value=0))
grid = st.one_of(st.integers(min_value=2, max_value=8), st.integers(min_value=-1, max_value=1))
box = st.one_of(st.tuples(flag_float, flag_float).map(sorted), st.tuples(flag_float, flag_float))


def _flag(name, value):
    # --x=value, so that argparse reads a negative value such as -1e-300 as a value
    return f"--{name}={value!r}" if isinstance(value, float) else f"--{name}={value}"


def _argv(command, **flags):
    return [command] + [_flag(k.replace("_", "-"), v) for k, v in flags.items() if v is not None]


def _energy_argv(p, n, a0, tail, method):
    # tail None stands for n copies of a0, a tail of the right length
    tail = [a0] * max(n, 1) if tail is None else tail
    return _argv("energy", p=p, n=n, a0=a0, method=method) + ["--ai=" + ",".join(map(repr, tail))]


commands = st.one_of(
    st.builds(lambda p, n: _argv("constants", p=p, n=n), flag_float, small_n),
    st.builds(
        lambda n_max, ps: ["lemma-f", f"--n-max={n_max}", "--p-list=" + ",".join(map(repr, ps))],
        small_n,
        st.lists(flag_float, max_size=3),
    ),
    st.builds(
        _energy_argv,
        flag_float,
        small_n,
        flag_float,
        st.one_of(st.none(), st.lists(flag_float, max_size=3)),
        st.sampled_from(["closed", "quad", "both"]),
    ),
    st.builds(
        lambda a, n, samples, h: _argv("density-check", a=a, n=n, samples=samples, h=h),
        flag_float,
        small_n,
        st.integers(min_value=-1, max_value=3),
        st.one_of(st.none(), flag_float),
    ),
    st.builds(
        lambda p, n, g, box: _argv("ratio-scan", p=p, n=n, grid=g, amin=box[0], amax=box[1]),
        flag_float,
        small_n,
        grid,
        box,
    ),
    st.builds(
        lambda p, n, g, box: _argv("counterexample", p=p, n=n, grid=g, amin=box[0], amax=box[1]),
        flag_float,
        small_n,
        grid,
        box,
    ),
)


def _run_cli(argv):
    """(exit code, stdout, stderr) of cli.main, with a numpy warning failing the call."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_exit_0_1_or_2(code, out, err):
    assert code in (0, 1, 2)
    if code != 0:
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n"), err


# n <= 3 and grids <= 8 only bound the run time.  Larger n fails elsewhere:
# from n = 60 on the density of u_a overflows for a < 1 (ROADMAP item 7).
@settings(max_examples=600, deadline=None, derandomize=True)
@given(argv=commands)
def test_cli_exits_0_1_or_2_with_one_error_line(argv):
    _assert_exit_0_1_or_2(*_run_cli(argv))


# JSON spells the non-finite floats Infinity and NaN; json.loads reads them back
EDGE_JSON = (math.inf, -math.inf, math.nan, 1.7, True, 1e308, -1e308, 0.0, 1.0)


def _matrix_payload(dim, cells, mirror):
    """The moore-det JSON of a 3 x 3 block of cells cut to dim; mirror makes it hyperhermitian."""
    size = dim if type(dim) is int and 1 <= dim <= 3 else 1
    entries = [[cells[4 * (3 * i + j) : 4 * (3 * i + j) + 4] for j in range(size)] for i in range(size)]
    if mirror:
        for i in range(size):
            entries[i][i] = [entries[i][i][0], 0.0, 0.0, 0.0]
            for j in range(i):
                w, x, y, z = entries[j][i]
                entries[i][j] = [w, -x, -y, -z]
    return json.dumps({"dim": dim, "entries": entries})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    dim=st.sampled_from((math.inf, math.nan, 1.7, True, 1e308, 1, 2, 3)),
    cells=st.lists(st.sampled_from(EDGE_JSON), min_size=36, max_size=36),
    mirror=st.booleans(),
)
def test_moore_det_cli_exits_0_1_or_2_on_edge_json(dim, cells, mirror):
    with mock.patch.object(sys, "stdin", io.StringIO(_matrix_payload(dim, cells, mirror))):
        _assert_exit_0_1_or_2(*_run_cli(["moore-det"]))
