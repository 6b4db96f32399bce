"""Command-line front end with deterministic JSON/CSV reports.

Exit codes: 0 success, 1 certificate-invalid or tolerance failure,
2 usage error.  Floats are rendered with 17 significant digits so that
identical flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from typing import Optional, Sequence

import numpy as np

from . import energy, hessian, ineq, quatlin

_FLOAT_FMT = ".17g"


class UsageError(ValueError):
    pass


def _fmt_float(v: float) -> str:
    v = float(v)
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "Infinity" if v > 0 else "-Infinity"
    return format(v, _FLOAT_FMT)


def _render_json(obj) -> str:
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {_render_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_render_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    return json.dumps(obj)


def _emit(obj, stream) -> None:
    stream.write(_render_json(obj) + "\n")


def _finite_float(text: str) -> float:
    """argparse type for real flags: nan and +-inf are usage errors (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite real, got {text!r}")
    return value


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise UsageError(message)


def _checked(check, *args):
    """check(*args), with the ValueError of a bad argument turned into a UsageError."""
    try:
        return check(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cmd_constants(args) -> int:
    params = _checked(energy.EnergyParams, args.p, args.n)
    _emit(dataclasses.asdict(ineq.constants_report(params.p, params.n)), sys.stdout)
    return 0


def _cmd_moore_det(args) -> int:
    if args.infile is None:
        text = sys.stdin.read()
    else:
        try:
            with open(args.infile, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {args.infile}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"matrix input is not valid JSON: {exc}") from exc
    try:
        matrix = quatlin.HyperhermitianMatrix.from_json_dict(payload)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    value = quatlin.moore_det(matrix)
    _emit({"dim": matrix.dim, "moore_det": value}, sys.stdout)
    return 0


def _cmd_density_check(args) -> int:
    member = _checked(hessian.PowerFamilyMember, args.a, args.n)
    _require(args.samples >= 1, "--samples must be >= 1")
    if args.h is not None:
        _checked(hessian._check_step, args.h)
    func = member.as_function()
    rng = np.random.default_rng(20240811)
    max_rel = 0.0
    max_resid = 0.0
    for _ in range(args.samples):
        direction = rng.normal(size=4 * args.n)
        direction /= np.linalg.norm(direction)
        r = rng.uniform(0.2, 0.9)
        point = hessian.EvaluationPoint.from_coords(r * direction)
        matrix, resid = hessian.fd_quaternionic_hessian(func, point, args.h)
        fd_density = quatlin.moore_det(matrix)
        closed = hessian.ma_density(member, r)
        if closed == 0.0:
            raise ValueError(f"the closed density at a = {args.a!r}, r = {r!r} underflows a float")
        max_rel = max(max_rel, abs(fd_density - closed) / abs(closed))
        max_resid = max(max_resid, resid)
    _emit(
        {"max_rel_err": max_rel, "max_hh_residual": max_resid, "points_tested": args.samples},
        sys.stdout,
    )
    return 0


def _parse_tail(raw: str, n: int) -> list[float]:
    try:
        tail = [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"--ai must be a comma-separated list of reals: {raw!r}") from exc
    _require(len(tail) == n, f"--ai must list exactly n = {n} exponents, got {len(tail)}")
    _require(all(0.0 < b < math.inf for b in tail), "--ai entries must be finite and positive")
    return tail


def _cmd_energy(args) -> int:
    params = _checked(energy.EnergyParams, args.p, args.n)
    _require(args.a0 > 0.0, "--a0 must be positive")
    tail = _parse_tail(args.ai, args.n)
    if args.method == "closed":
        value = energy.energy_closed_core(params.p, params.n, args.a0, tail)
        result = energy.EnergyResult(value, "closed_form")
    else:
        result = energy.energy_numeric(params, args.a0, tail)
        if args.method == "quad":
            result = energy.EnergyResult(result.value, "quadrature")
    _emit(dataclasses.asdict(result), sys.stdout)
    return 0


def _cmd_ratio_scan(args) -> int:
    params = _checked(energy.EnergyParams, args.p, args.n)
    _require(args.grid >= 2, "--grid must be >= 2")
    _require(0.0 < args.amin < args.amax, "need 0 < --amin < --amax")
    values, axis = ineq.ratio_grid(params, args.grid, args.amin, args.amax)
    if args.out is None:
        _write_scan_csv(values, axis, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_scan_csv(values, axis, fh)
    return 0


def _write_scan_csv(values: np.ndarray, axis: np.ndarray, stream) -> None:
    """Write the "a,b,R" CSV of values[i, j] = R(axis[i], axis[j]) one row of cells at a time.

    Each axis label is rendered once and each row is one %-format of its
    cells.  "%.17g" spells every finite float as _fmt_float does; it spells
    the non-finite ones "inf", "-inf" and "nan", which str.replace respells
    in grids that hold any.
    """
    labels = [_fmt_float(x) for x in axis]
    # "\0" marks where a row's a label goes; no float rendering contains it
    template = "".join(f"\0,{b},%{_FLOAT_FMT}\n" for b in labels)
    finite = bool(np.isfinite(values).all())
    stream.write("a,b,R\n")
    for a, row in zip(labels, values):
        text = template.replace("\0", a) % tuple(row)
        if not finite:
            # "-inf" becomes "-Infinity" by the same replace
            text = text.replace("inf", "Infinity").replace("nan", "NaN")
        stream.write(text)


def _cmd_counterexample(args) -> int:
    params = _checked(energy.EnergyParams, args.p, args.n)
    _require(args.grid >= 2, "--grid must be >= 2")
    _require(0.0 < args.amin < args.amax, "need 0 < --amin < --amax")
    cert = ineq.find_violation(params, args.grid, args.amin, args.amax)
    _emit(dataclasses.asdict(cert), sys.stdout)
    return 0


def _cmd_lemma_f(args) -> int:
    _require(args.n_max >= 1, "--n-max must be >= 1")
    try:
        p_list = [float(tok) for tok in args.p_list.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"--p-list must be comma-separated reals: {args.p_list!r}") from exc
    _require(bool(p_list), "--p-list must not be empty")
    _require(
        all(0.0 < p < math.inf for p in p_list), "--p-list entries must be finite and positive"
    )
    entries = []
    for p in p_list:
        for n in range(1, args.n_max + 1):
            entries.append({"p": p, "n": n, "f": ineq.f_lemma(p, n)})
    _emit({"entries": entries}, sys.stdout)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of main, built once per process: parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="qma",
        description="Quaternionic Monge-Ampere energy toolkit for the radial power family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_const = sub.add_parser("constants", help="inequality constants for (p, n)")
    p_const.add_argument("--p", type=_finite_float, required=True)
    p_const.add_argument("--n", type=int, required=True)
    p_const.set_defaults(func=_cmd_constants)

    p_moore = sub.add_parser("moore-det", help="Moore determinant of a matrix JSON file")
    p_moore.add_argument("--in", dest="infile", default=None, help="path to matrix JSON (stdin if omitted)")
    p_moore.set_defaults(func=_cmd_moore_det)

    p_dens = sub.add_parser("density-check", help="FD density vs closed form for u_a")
    p_dens.add_argument("--a", type=_finite_float, required=True)
    p_dens.add_argument("--n", type=int, required=True)
    p_dens.add_argument("--samples", type=int, default=20)
    p_dens.add_argument("--h", type=_finite_float, default=None)
    p_dens.set_defaults(func=_cmd_density_check)

    p_energy = sub.add_parser("energy", help="mutual p-energy of u_{a0} against a tail")
    p_energy.add_argument("--p", type=_finite_float, required=True)
    p_energy.add_argument("--n", type=int, required=True)
    p_energy.add_argument("--a0", type=_finite_float, required=True)
    p_energy.add_argument("--ai", type=str, required=True, help="comma-separated tail exponents")
    p_energy.add_argument("--method", choices=("closed", "quad", "both"), default="both")
    p_energy.set_defaults(func=_cmd_energy)

    p_scan = sub.add_parser("ratio-scan", help="closed-form ratio on a log grid, as CSV")
    p_scan.add_argument("--p", type=_finite_float, required=True)
    p_scan.add_argument("--n", type=int, required=True)
    p_scan.add_argument("--grid", type=int, default=64)
    p_scan.add_argument("--amin", type=_finite_float, default=0.1)
    p_scan.add_argument("--amax", type=_finite_float, default=4.0)
    p_scan.add_argument("--out", type=str, default=None)
    p_scan.set_defaults(func=_cmd_ratio_scan)

    p_cex = sub.add_parser("counterexample", help="search for a ratio certificate")
    p_cex.add_argument("--p", type=_finite_float, required=True)
    p_cex.add_argument("--n", type=int, required=True)
    p_cex.add_argument("--grid", type=int, default=64)
    p_cex.add_argument("--amin", type=_finite_float, default=0.1)
    p_cex.add_argument("--amax", type=_finite_float, default=4.0)
    p_cex.set_defaults(func=_cmd_counterexample)

    p_lemma = sub.add_parser("lemma-f", help="table of f(p, n) values")
    p_lemma.add_argument("--n-max", dest="n_max", type=int, required=True)
    p_lemma.add_argument("--p-list", dest="p_list", type=str, required=True)
    p_lemma.set_defaults(func=_cmd_lemma_f)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, ineq.CertificateError, energy.QuadratureError) as exc:
        # one line, also for a message holding a multi-line array repr
        message = re.sub(r"\n\s*", " ", str(exc))
        if isinstance(exc, UsageError):
            print(f"usage error: {message}", file=sys.stderr)
            return 2
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
