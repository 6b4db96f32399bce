import io
import json
import math
import warnings

from qma.cli import _fmt_float, main
from qma.energy import EnergyParams
from qma.ineq import ratio_grid


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


def test_constants_rejects_bad_p(capsys):
    for bad in ("-3", "inf", "-inf", "nan"):
        code, out, err = run_cli(capsys, "constants", "--p", bad, "--n", "1")
        assert code == 2
        assert out == ""
        assert "p" in err


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


def test_energy_closed_requires_uniform_tail(capsys):
    code, _, err = run_cli(
        capsys, "energy", "--p", "1", "--n", "2", "--a0", "1", "--ai", "1,2", "--method", "closed"
    )
    assert code == 2
    assert "closed" in err


def test_energy_tail_length_checked(capsys):
    for tail in ("1", "1,inf"):
        code, _, _ = run_cli(
            capsys, "energy", "--p", "1", "--n", "2", "--a0", "1", "--ai", tail, "--method", "quad"
        )
        assert code == 2


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


def test_moore_det_bad_json(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("not json"))
    code, _, err = run_cli(capsys, "moore-det")
    assert code == 2
    assert "JSON" in err


def test_density_check(capsys):
    code, out, _ = run_cli(capsys, "density-check", "--a", "2", "--n", "1", "--samples", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["points_tested"] == 5
    assert payload["max_rel_err"] <= 1e-4
    assert payload["max_hh_residual"] <= 1e-6


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
    # byte for byte what per-cell _fmt_float rendering of ratio_grid gives;
    # the second grid has 4 cells where R overflows to inf
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
    assert expected.count(",Infinity\n") == 4


def test_overflow_is_one_error_line(capsys):
    for argv in (
        ["counterexample", "--p", "2", "--n", "1", "--amin", "1e-150", "--amax", "1e150"],
        ["ratio-scan", "--p", "2", "--n", "1", "--grid", "5", "--amin", "1e-300", "--amax", "1e300"],
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflows a float" in err and "RuntimeWarning" not in err


def test_underflow_is_one_error_line(capsys):
    # the quadrature cross-check's energy is subnormal from n = 110 on
    code, out, err = run_cli(capsys, "counterexample", "--p", "2", "--n", "120")
    assert code == 1
    assert out == ""
    assert err == "error: the energy at n = 120 underflows a float (quadrature gave 0.0)\n"


def test_lemma_f_table(capsys):
    code, out, _ = run_cli(capsys, "lemma-f", "--n-max", "2", "--p-list", "0.5,1")
    assert code == 0
    payload = json.loads(out)
    entries = payload["entries"]
    assert len(entries) == 4
    p1_entries = [e for e in entries if e["p"] == 1]
    assert all(abs(e["f"]) <= 1e-12 for e in p1_entries)


def test_reltol_env_override(capsys, monkeypatch):
    monkeypatch.setenv("QMA_RELTOL", "1e-2")
    code, out, _ = run_cli(
        capsys, "energy", "--p", "0.5", "--n", "1", "--a0", "1", "--ai", "2", "--method", "quad"
    )
    assert code == 0
    monkeypatch.setenv("QMA_RELTOL", "bogus")
    code, _, err = run_cli(
        capsys, "energy", "--p", "0.5", "--n", "1", "--a0", "1", "--ai", "2", "--method", "quad"
    )
    assert code == 2
    assert "QMA_RELTOL" in err
    for bad in ("nan", "inf", "-inf", "0", "1e-17"):
        monkeypatch.setenv("QMA_RELTOL", bad)
        code, out, err = run_cli(
            capsys, "energy", "--p", "0.5", "--n", "1", "--a0", "1", "--ai", "2", "--method", "quad"
        )
        assert code == 2
        assert out == ""
        assert "QMA_RELTOL" in err


def test_certificate_tolerance_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("QMA_RELTOL", "1e-2")
    code, out, err = run_cli(capsys, "counterexample", "--p", "2", "--n", "1", "--grid", "16")
    assert code == 1
    assert out == ""
    assert "certificate" in err.lower()
