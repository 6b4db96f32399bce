import io
import json
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from qma import cli, ineq
from qma.cli import _fmt_float, _write_scan_csv, main
from qma.energy import EnergyParams, energy_closed_core
from qma.hessian import EvaluationPoint, PowerFamilyMember, fd_quaternionic_hessian
from qma.ineq import constants_report, ratio_grid

from oracles import oracle_ratio


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_constants_command(capsys):
    code, out, _ = run_cli(capsys, "constants", "--p", "2", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == 1
    assert payload["d_p"] == 4
    assert abs(payload["f_p2n"] - (-1.0 / 12.0)) <= 1e-10


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # main builds its parser once per process; a sequence of good calls,
    # usage errors and help runs as it does with a fresh parser per call
    calls = [
        ["counterexample", "--p", "2", "--n", "1", "--grid", "8"],
        ["constants", "--p", "nan", "--n", "1"],
        ["constants", "--p", "2", "--n", "1"],
        ["ratio-scan", "--p", "0.5", "--n", "2", "--grid", "3"],
        ["counterexample", "--p", "2"],
        ["energy", "--p", "2", "--n", "2", "--a0", "1.5", "--ai", "1,2", "--method", "closed"],
        ["bogus"],
        ["constants", "--p", "2", "--n", "1", "--bogus", "1"],
        ["lemma-f", "--n-max", "2", "--p-list", "0.5,x"],
        ["constants", "--help"],
        [],
        ["counterexample", "--p", "1", "--n", "2", "--grid", "8"],
        ["constants", "--p", "2", "--n", "1"],
    ]

    def run_all():
        return [run_cli(capsys, *argv) for argv in calls]

    cached = run_all()
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = run_all()
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 2, 0, 0, 2, 0, 2, 2, 2, 0, 2, 0, 0]


def test_constants_rejects_bad_p(capsys):
    for bad in ("-3", "inf", "-inf", "nan"):
        code, out, err = run_cli(capsys, "constants", "--p", bad, "--n", "1")
        assert code == 2
        assert out == ""
        assert "p" in err


def test_a_syntax_error_is_one_usage_error_line(capsys):
    # argparse's own errors: a flag's value of the wrong type, a flag without its value, a missing flag
    for argv, expected in (
        (["constants", "--p", "abc", "--n", "1"], "argument --p: invalid float value: 'abc'"),
        (["counterexample", "--p", "2", "--n", "1", "--amin", "-inf"], "argument --amin: expected one argument"),
        (["density-check", "--a", "2"], "the following arguments are required: --n"),
    ):
        assert run_cli(capsys, *argv) == (2, "", f"usage error: {expected}\n")
    code, out, err = run_cli(capsys, "constants", "--help")
    assert (code, err) == (0, "") and out.startswith("usage: qma constants")


def test_unknown_flag_rejected(capsys):
    code, _, _ = run_cli(capsys, "constants", "--p", "2", "--n", "1", "--bogus", "1")
    assert code == 2


def test_determinism_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "counterexample", "--p", "2", "--n", "1", "--grid", "24")
    _, second, _ = run_cli(capsys, "counterexample", "--p", "2", "--n", "1", "--grid", "24")
    assert first == second
    _, third, _ = run_cli(capsys, "constants", "--p", "0.5", "--n", "2")
    _, fourth, _ = run_cli(capsys, "constants", "--p", "0.5", "--n", "2")
    assert third == fourth


def test_counterexample_p2(capsys):
    code, out, _ = run_cli(capsys, "counterexample", "--p", "2", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["violation_found"] is True
    assert payload["ratio"] >= 1.0243 - 5e-3


def test_counterexample_p1_no_violation(capsys):
    code, out, _ = run_cli(capsys, "counterexample", "--p", "1", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["violation_found"] is False
    assert 1.0 - 1e-6 <= payload["ratio"] <= 1.0 + 1e-6


def test_energy_both(capsys):
    code, out, _ = run_cli(
        capsys, "energy", "--p", "1", "--n", "1", "--a0", "1", "--ai", "1", "--method", "both"
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - math.pi**2 / 6.0) <= 1e-9
    assert payload["method"] == "both"
    assert payload["discrepancy"] <= 1e-8


def test_energy_closed_accepts_any_tail(capsys):
    argv = ["energy", "--p", "1", "--n", "2", "--a0", "1", "--method"]
    quad = {}
    for tail in ("1,2", "2,1"):
        code, out, _ = run_cli(capsys, *argv, "quad", "--ai", tail)
        assert code == 0
        quad[tail] = json.loads(out)["value"]
        code, out, err = run_cli(capsys, *argv, "closed", "--ai", tail)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["method"] == "closed_form"
        assert abs(payload["value"] - quad[tail]) <= 1e-9 * quad[tail]
    # the mixed density of the tail (2, 1) is 2.5 t^2, integrated termwise
    expected = math.pi**4 / 3.0 * 2.5 * (1.0 / 10.0 - 1.0 / 12.0)
    assert abs(payload["value"] - expected) <= 1e-13 * expected


def test_energy_tail_length_checked(capsys):
    for tail in ("1", "1,inf", "1,,2", "1,2,"):
        code, out, err = run_cli(
            capsys, "energy", "--p", "1", "--n", "2", "--a0", "1", "--ai", tail, "--method", "quad"
        )
        assert (code, out) == (2, "")
        assert err.startswith("usage error: ") and err.count("\n") == 1
    # lemma-f's list refuses an empty entry as the tail does
    for p_list in ("1,,2", "1,2,"):
        code, out, err = run_cli(capsys, "lemma-f", "--n-max", "2", "--p-list", p_list)
        assert (code, out) == (2, "")
        assert err == f"usage error: --p-list must be comma-separated reals: {p_list!r}\n"


def test_moore_det_stdin(capsys, monkeypatch):
    matrix = {
        "dim": 2,
        "entries": [
            [[2, 0, 0, 0], [1, 1, 0, 0]],
            [[1, -1, 0, 0], [3, 0, 0, 0]],
        ],
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(matrix)))
    code, out, _ = run_cli(capsys, "moore-det")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["moore_det"] - 4.0) <= 1e-10


def test_moore_det_file(capsys, tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"dim": 1, "entries": [[[5, 0, 0, 0]]]}))
    code, out, _ = run_cli(capsys, "moore-det", "--in", str(path))
    assert code == 0
    assert json.loads(out)["moore_det"] == 5


def test_moore_det_of_a_small_matrix_with_an_accepted_residual(capsys, monkeypatch):
    # the j part 5e-13 is within the 1e-12 the constructor allows; a pairing
    # test relative to the spectral radius 1e-10 once refused it with exit 1
    monkeypatch.setattr("sys.stdin", io.StringIO('{"dim": 1, "entries": [[[1e-10, 0, 5e-13, 0]]]}'))
    code, out, err = run_cli(capsys, "moore-det")
    assert (code, out, err) == (0, '{"dim": 1, "moore_det": 1e-10}\n', "")


def test_moore_det_bad_json(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("not json"))
    code, _, err = run_cli(capsys, "moore-det")
    assert code == 2
    assert "JSON" in err


def test_moore_det_dim_must_be_an_integer(capsys, monkeypatch):
    # int() of Infinity raised OverflowError, and 1.7 and true were read as dim 1
    for dim in ("Infinity", "1.7", "true"):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"dim": %s, "entries": [[[1, 0, 0, 0]]]}' % dim))
        code, out, err = run_cli(capsys, "moore-det")
        assert (code, out) == (2, ""), dim
        assert err.startswith("usage error: malformed matrix JSON: dim must be an integer, got "), err
        assert err.count("\n") == 1


def test_moore_det_entries_must_be_json_numbers(capsys, monkeypatch):
    # float() read "2" as 2 and true as 1, and a list payload failed on a list index
    for text, expected in (
        ('{"dim": 1, "entries": [[["2", "0", "0", "0"]]]}', "entries must be real numbers, got '2'"),
        ('{"dim": 1, "entries": [[[true, false, false, false]]]}', "entries must be real numbers, got True"),
        ('{"dim": 1, "entries": [[[1, 0, 0, null]]]}', "entries must be real numbers, got None"),
        ('{"dim": 1, "entries": [[[1, 0, 0, "x"]]]}', "entries must be real numbers, got 'x'"),
        ('{"dim": 1, "entries": [[[1, 0, 0, [0]]]]}', "entries must be real numbers, got [0]"),
        ('{"dim": 1, "entries": [[[1%s, 0, 0, 0]]]}' % ("0" * 400), "entries must be finite"),
        ("[1, 2]", "matrix JSON must be an object with dim and entries, got list"),
        ('"matrix"', "matrix JSON must be an object with dim and entries, got str"),
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run_cli(capsys, "moore-det") == (2, "", f"usage error: {expected}\n"), text
    # integral and fractional JSON numbers are read as before
    monkeypatch.setattr("sys.stdin", io.StringIO('{"dim": 1, "entries": [[[2, 0, 0.0, -0.0]]]}'))
    assert run_cli(capsys, "moore-det") == (0, '{"dim": 1, "moore_det": 2}\n', "")


def test_density_check(capsys):
    code, out, _ = run_cli(capsys, "density-check", "--a", "2", "--n", "1", "--samples", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["points_tested"] == 5
    assert payload["max_rel_err"] <= 1e-4
    assert payload["max_hh_residual"] <= 1e-6


def test_density_check_tolerance_failure_exit_code(capsys):
    # a step too small to resolve the entries, and a member too steep for the default step
    for argv, err_value in (
        (["--a", "0.3", "--n", "2", "--h", "1e-7"], "0.038516686715133933"),
        (["--a", "40", "--n", "4"], "0.00063734383412727784"),
    ):
        code, out, err = run_cli(capsys, "density-check", *argv)
        assert (code, out) == (1, "")
        assert err == f"error: max_rel_err {err_value} exceeds the bound 1e-04\n"


def test_ratio_scan_stdout_and_file(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "ratio-scan", "--p", "2", "--n", "1", "--grid", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,b,R"
    assert len(lines) == 17
    path = tmp_path / "scan.csv"
    code, out, _ = run_cli(
        capsys, "ratio-scan", "--p", "2", "--n", "1", "--grid", "4", "--out", str(path)
    )
    assert code == 0
    assert out == ""
    assert path.read_text().splitlines()[0] == "a,b,R"
    for bad in (["--amax", "inf"], ["--amin", "nan"]):
        code, out, _ = run_cli(capsys, "ratio-scan", "--p", "2", "--n", "1", "--grid", "4", *bad)
        assert code == 2
        assert out == ""
    # byte for byte what per-cell _fmt_float rendering of ratio_grid gives
    for p, n, grid, amin, amax in [(2.3, 3, 64, 0.07, 5.5), (2.0, 1, 9, 1e-150, 1e150)]:
        values, axis = ratio_grid(EnergyParams(p, n), grid, amin, amax)
        expected = "a,b,R\n" + "".join(
            f"{_fmt_float(a)},{_fmt_float(b)},{_fmt_float(values[i, j])}\n"
            for i, a in enumerate(axis)
            for j, b in enumerate(axis)
        )
        flags = ["--p", repr(p), "--n", str(n), "--grid", str(grid)]
        flags += ["--amin", repr(amin), "--amax", repr(amax)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "ratio-scan", *flags)
            assert (code, err) == (0, "")
            assert out == expected
            code, out, err = run_cli(capsys, "ratio-scan", *flags, "--out", str(path))
        assert (code, out, err) == (0, "", "")
        assert path.read_text(encoding="utf-8") == expected
    # the second grid's Beta arguments y = (b + 1) / a reach 1e300; R is
    # within 1e-12 of its exact p = 2 form, B(3, y) = 2 / (y (y + 1) (y + 2)),
    # in every cell, from 1e-200 to 1
    assert "Infinity" not in expected
    for line in expected.splitlines()[1:]:
        a, b, r = line.split(",")
        exact = _exact_ratio_p2_n1(Decimal(a), Decimal(b))
        assert abs(float(r) - exact) <= 1e-12 * exact, line


def _exact_ratio_p2_n1(a, b):
    """R(a, b) at p = 2, n = 1 from E(a, b) = b (b + 1) / a * B(3, (b + 1) / a), in decimal."""
    with localcontext() as ctx:
        ctx.prec = 60

        def energy(a, b):
            y = (b + 1) / a
            return b * (b + 1) / a * 2 / (y * (y + 1) * (y + 2))

        return float(energy(a, b) / (energy(a, a) ** 2 * energy(b, b)) ** (Decimal(1) / 3))


def test_write_scan_csv_spells_non_finite_cells():
    stream = io.StringIO()
    values = np.array([[1.5, math.inf], [-math.inf, math.nan]])
    _write_scan_csv(values, np.array([0.5, 2.0]), stream)
    assert stream.getvalue() == (
        "a,b,R\n0.5,0.5,1.5\n0.5,2,Infinity\n2,0.5,-Infinity\n2,2,NaN\n"
    )


def test_overflow_is_one_error_line(capsys):
    for argv, expected in (
        (
            ["counterexample", "--p", "2", "--n", "1", "--amin", "1e-300", "--amax", "1e300"],
            # the grid's Beta argument (b + 1) n / a overflows
            "error: log B(p + 1, (b + 1) n / a) overflows a float at a = 1e-300, "
            "b = 193069772888321.4: (b + 1) n / a = inf\n",
        ),
        (
            ["ratio-scan", "--p", "2", "--n", "1", "--grid", "5", "--amin", "1e-300", "--amax", "1e300"],
            None,
        ),
        (
            # several blocks, one check of the box: the row a = amin holds the largest Beta arguments
            ["ratio-scan", "--p", "2", "--n", "1", "--grid", "100", "--amin", "1e-300", "--amax", "1e300"],
            "error: log B(p + 1, (b + 1) n / a) overflows a float at a = 1e-300, "
            "b = 1232846739.4419928: (b + 1) n / a = inf\n",
        ),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflows a float" in err and "RuntimeWarning" not in err
        if expected is not None:
            assert err == expected


def test_counterexample_at_huge_p_prints_no_numpy_warning(capsys):
    # p ln E(a, a) overflows to -inf at p = 1e300; numpy warned of it on
    # stderr before the error line
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        code, out, err = run_cli(capsys, "counterexample", "--p", "1e300", "--n", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_counterexample_certifies_on_an_extreme_box(capsys):
    # the Beta arguments reach 1e300; the probes there once overflowed R
    argv = ["counterexample", "--p", "2", "--n", "1", "--amin", "1e-150", "--amax", "1e150"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    cert = json.loads(out)
    assert cert["violation_found"] is True
    exact = _exact_ratio_p2_n1(Decimal(repr(cert["a_star"])), Decimal(repr(cert["b_star"])))
    assert abs(cert["ratio"] - exact) <= 1e-12 * exact
    # the search's best point is certified, where R is the ray limit: along
    # b = lambda a, R tends to g(lambda) = 6 lambda^(2/3) / ((lambda + 1)(lambda + 2))
    # as a grows, largest at the root of 4 lambda^2 + 3 lambda - 4
    with localcontext() as ctx:
        ctx.prec = 50
        lam = (Decimal(73).sqrt() - 3) / 8
        g_star = 6 * (lam.ln() * 2 / 3).exp() / ((lam + 1) * (lam + 2))
    assert abs(Decimal(cert["ratio"]) - g_star) <= Decimal("1e-12") * g_star


def test_counterexample_cross_check_at_tiny_a(capsys):
    # at a* near 1e-136, t^(2 a*) rounds to 1 at every node, so the quadrature
    # integrand (1 - t^(2 a*))^p cancelled to 0 and the cross-check failed
    argv = ["counterexample", "--p", "0.5", "--n", "1", "--amin", "1e-150", "--amax", "1e150"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    cert = json.loads(out)
    assert cert["violation_found"] is True
    exact = oracle_ratio(0.5, 1, cert["a_star"], cert["b_star"])
    for key in ("ratio", "quad_crosscheck"):
        assert abs(Decimal(cert[key]) - exact) <= Decimal("1e-12") * exact, key


def test_counterexample_certifies_past_the_sphere_area_underflow(capsys):
    # the sphere area 4C is 0.0 from n = 114 on; the quadrature cross-check of the
    # ratio never computes it
    for n in ("120", "200", "1000"):
        code, out, err = run_cli(capsys, "counterexample", "--p", "2", "--n", n)
        assert code == 0 and err == "", n
        cert = json.loads(out)
        assert cert["violation_found"] is True
        assert abs(cert["quad_crosscheck"] - cert["ratio"]) <= 1e-10 * cert["ratio"], n
    # at n = 1000 the search's best point, b ~ 2.75, overflowed the density
    # 2.75^1000 of the old cross-check, which certified the grid's best cell
    assert cert["ratio"] >= 1.00015033


WIDE_BOX_PAIRS = [(0.2, 1), (0.5, 1), (2.0, 1), (0.5, 2), (0.2, 2), (2.0, 3), (16.0, 6)]
WIDE_BOXES = [(1e-12, 1e12), (1e-100, 1e100), (1e-150, 1e150)]


def test_counterexample_certifies_the_search_optimum_on_wide_boxes(capsys, monkeypatch):
    # near a = 1e12 and past it the cross-check's integrand lived in a sliver
    # of t that no Gauss node sampled, and a lesser point was certified or none
    found = []
    newton = ineq._newton_max

    def recorded(*args):
        found.append(newton(*args))
        return found[-1]

    monkeypatch.setattr(ineq, "_newton_max", recorded)
    for p, n in WIDE_BOX_PAIRS:
        for amin, amax in WIDE_BOXES:
            found.clear()
            argv = ["counterexample", f"--p={p!r}", f"--n={n}", f"--amin={amin!r}", f"--amax={amax!r}"]
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), argv
            cert = json.loads(out)
            _, a_star, b_star = max(found, key=lambda point: point[0])
            assert (cert["a_star"], cert["b_star"]) == (a_star, b_star), argv
            assert abs(cert["quad_crosscheck"] - cert["ratio"]) <= 1e-10 * cert["ratio"], argv


def test_lemma_f_table(capsys):
    code, out, _ = run_cli(capsys, "lemma-f", "--n-max", "2", "--p-list", "0.5,1")
    assert code == 0
    payload = json.loads(out)
    entries = payload["entries"]
    assert len(entries) == 4
    p1_entries = [e for e in entries if e["p"] == 1]
    assert all(abs(e["f"]) <= 1e-12 for e in p1_entries)


def test_certificate_tolerance_failure_exit_code(capsys, monkeypatch):
    # near p = 1 the excess R - 1 is within 10x the quadrature's error bound;
    # F is evaluated only for a certificate that is returned
    f_calls = []
    monkeypatch.setattr(ineq, "F_func", lambda *args: f_calls.append(args))
    code, out, err = run_cli(capsys, "counterexample", "--p", "1.0001", "--n", "1")
    assert (code, out, f_calls) == (1, "", [])
    assert err == (
        "error: certificate-invalid: ratio 1.000000000408222 minus one is within "
        "10x the error bound 1.000e-09\n"
    )


def test_constants_stdout_is_pinned(capsys):
    # vars gives the report's fields in their declared order; D_p past the
    # float range prints as Infinity
    for argv, expected in (
        (
            ["--p", "2", "--n", "1"],
            '{"p": 2, "n": 1, "alpha": 1, "d_p": 4, "f_pn": -0.1666666666666663, '
            '"f_p2n": -0.083333333333332371}\n',
        ),
        (
            ["--p", "0.5", "--n", "200"],
            '{"p": 0.5, "n": 200, "alpha": 2.2134499072989564e+95, "d_p": Infinity, '
            '"f_pn": 3.1094237305917539e-06, "f_p2n": 7.7929992370773248e-07}\n',
        ),
        (
            ["--p", "0.37", "--n", "4"],
            '{"p": 0.37, "n": 4, "alpha": 118.94087220895113, "d_p": 3.3217789346650965e+81, '
            '"f_pn": 0.0059477762804392431, "f_p2n": 0.0016437555042415619}\n',
        ),
    ):
        assert run_cli(capsys, "constants", *argv) == (0, expected, "")


def test_bad_p_n_a_are_usage_errors_with_the_validator_message(capsys):
    tail = ["--a0", "1", "--ai", "1"]
    # an n that float() cannot convert once ended in an OverflowError traceback
    huge, past_floats = str(10**400), "n must be within the float range, got an integer of 1329 bits"
    for argv, expected in (
        (["constants", "--p", "-3", "--n", "1"], "p must be a finite positive real, got -3.0"),
        (["constants", "--p", "2", "--n", "0"], "n must be >= 1, got 0"),
        (["energy", "--p", "0", "--n", "1", *tail], "p must be a finite positive real, got 0.0"),
        (["ratio-scan", "--p", "2", "--n", "-1"], "n must be >= 1, got -1"),
        (["ratio-scan", "--p", "2", "--n", huge], past_floats),
        (["counterexample", "--p", "2", "--n", huge], past_floats),
        # a grid past the documented maximum, which once ran out of memory
        (
            ["ratio-scan", "--p", "2", "--n", "1", "--grid", "1099511627776"],
            "grid_size must be <= 4096, got 1099511627776",
        ),
        (["counterexample", "--p", "2", "--n", "1", "--grid", "4097"], "grid_size must be <= 4096, got 4097"),
        (["counterexample", "--p", "-1", "--n", "1"], "p must be a finite positive real, got -1.0"),
        (["lemma-f", "--n-max", "2", "--p-list", "0.5,-1"], "p must be a finite positive real, got -1.0"),
        (["density-check", "--a", "-1", "--n", "1"], "a must be a finite positive real, got -1.0"),
        (["density-check", "--a", "2", "--n", "0"], "n must be >= 1, got 0"),
        (
            ["density-check", "--a", "2", "--n", "1", "--h", "1e-200"],
            "step h must be positive with h * h a normal float, got 1e-200",
        ),
    ):
        assert run_cli(capsys, *argv) == (2, "", f"usage error: {expected}\n")


def test_overflows_in_the_closed_forms_are_one_error_line(capsys):
    for argv, expected in (
        (["constants", "--p", "1e-300", "--n", "6"], "alpha(p, n) overflows a float at p = 1e-300, n = 6"),
        (["constants", "--p", "1e-10", "--n", "40"], "alpha(p, n) overflows a float at p = 1e-10, n = 40"),
        (
            ["density-check", "--a", "1e300", "--n", "1", "--samples", "2"],
            "the MA density of u_a at a = 1e+300, n = 1 is not a finite float",
        ),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(capsys, *argv) == (1, "", f"error: {expected}\n")
    # a message holding a multi-line array repr is printed on one line
    code, out, err = run_cli(capsys, "density-check", "--a", "1e308", "--n", "2", "--h", "0.5")
    assert (code, out) == (1, "")
    assert err.startswith("error: non-finite function value at array([") and err.count("\n") == 1


def test_a_bad_flag_is_refused_with_its_library_validators_message(capsys):
    # the CLI keeps no rules of its own for these flags: each error is the
    # one the library raises for the same argument
    params = EnergyParams(2.0, 1)
    point = EvaluationPoint.from_coords(np.array([0.5, 0.0, 0.0, 0.0]))
    pn, box, energy_p = ["--p", "2", "--n", "1"], ["--amin", "4", "--amax", "0.1"], ["energy", "--p", "2", "--n"]
    for argv, library_call in (
        (["ratio-scan", *pn, "--grid", "1"], lambda: ratio_grid(params, 1)),
        (["counterexample", *pn, "--grid", "1"], lambda: ratio_grid(params, 1)),
        (["ratio-scan", *pn, *box], lambda: ratio_grid(params, 64, 4.0, 0.1)),
        (["counterexample", *pn, *box], lambda: ratio_grid(params, 64, 4.0, 0.1)),
        ([*energy_p, "1", "--a0", "-1", "--ai", "1"], lambda: energy_closed_core(2.0, 1, -1.0, [1.0])),
        ([*energy_p, "2", "--a0", "1", "--ai", "1"], lambda: energy_closed_core(2.0, 2, 1.0, [1.0])),
        ([*energy_p, "2", "--a0", "1", "--ai", "1,inf"], lambda: energy_closed_core(2.0, 2, 1.0, [1.0, math.inf])),
        (
            ["density-check", "--a", "2", "--n", "1", "--h", "1e-200"],
            lambda: fd_quaternionic_hessian(PowerFamilyMember(2.0, 1).as_function(), point, 1e-200),
        ),
        (["constants", "--p", "nan", "--n", "1"], lambda: constants_report(math.nan, 1)),
        (["density-check", "--a", "inf", "--n", "1"], lambda: PowerFamilyMember(math.inf, 1)),
    ):
        with pytest.raises(ValueError) as refused:
            library_call()
        assert run_cli(capsys, *argv) == (2, "", f"usage error: {refused.value}\n"), argv
