"""Command-line front end with deterministic JSON/CSV reports.

Exit codes: 0 success, 1 certificate-invalid or tolerance failure,
2 usage error.  Floats are rendered with 17 significant digits so that
identical flags produce byte-identical output.  _fmt_float is the one
spelling rule.  ratio-scan's cells are spelled by an array kernel instead
of one format call each: exact integer and double-double arithmetic gives
"%.17g"'s bytes on the finite values in [1e-4, 1e13) whose 17 significant
digits do not end in 0000, and every other value goes through _fmt_float
itself.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from typing import Optional, Sequence

import numpy as np

from . import energy, hessian, ineq, quatlin
from .specfun import _ArgumentError

_FLOAT_FMT = ".17g"
# the relative error of the FD density above which density-check fails: acceptance criterion 4's bound
_DENSITY_REL_TOL = 1e-4


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
    """Write obj as one JSON line; a report, a flat dataclass, comes as vars(report): its fields in order."""
    stream.write(_render_json(obj) + "\n")


def _require(cond: bool, message: str) -> None:
    """The check of a flag that no library function takes; the others are checked where they are used."""
    if not cond:
        raise _ArgumentError(message)


def _reals(flag: str, text: str) -> list[float]:
    """A comma-separated list of reals; what the reals must be is the library's to check."""
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise _ArgumentError(f"{flag} must be comma-separated reals: {text!r}") from None


def _cmd_constants(args) -> int:
    _emit(vars(ineq.constants_report(args.p, args.n)), sys.stdout)
    return 0


def _cmd_moore_det(args) -> int:
    if args.infile is None:
        text = sys.stdin.read()
    else:
        try:
            with open(args.infile, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise _ArgumentError(f"cannot read {args.infile}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _ArgumentError(f"matrix input is not valid JSON: {exc}") from exc
    matrix = quatlin.HyperhermitianMatrix.from_json_dict(payload)
    value = quatlin.moore_det(matrix)
    _emit({"dim": matrix.dim, "moore_det": value}, sys.stdout)
    return 0


def _cmd_density_check(args) -> int:
    """The worst relative error of the FD density against ma_density over random points of the ball.

    max_hh_residual is the largest max |A - A*| of the FD Hessians: the gap
    between the two triangles, whose entries sum the same differences in two
    orders, so it reads rounding, not the FD error.  A max_rel_err above 1e-4
    is a tolerance failure: nothing on stdout, one error line, exit 1.
    """
    member = hessian.PowerFamilyMember(args.a, args.n)
    _require(args.samples >= 1, "--samples must be >= 1")
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
    if not max_rel <= _DENSITY_REL_TOL:
        raise ValueError(f"max_rel_err {_fmt_float(max_rel)} exceeds the bound {_DENSITY_REL_TOL:.0e}")
    _emit(
        {"max_rel_err": max_rel, "max_hh_residual": max_resid, "points_tested": args.samples},
        sys.stdout,
    )
    return 0


def _cmd_energy(args) -> int:
    params = energy.EnergyParams(args.p, args.n)
    tail = _reals("--ai", args.ai)
    if args.method == "closed":
        value = energy.energy_closed_core(params.p, params.n, args.a0, tail)
        result = energy.EnergyResult(value, "closed_form")
    else:
        result = energy.energy_numeric(params, args.a0, tail)
        if args.method == "quad":
            result = energy.EnergyResult(result.value, "quadrature")
    _emit(vars(result), sys.stdout)
    return 0


def _cmd_ratio_scan(args) -> int:
    params = energy.EnergyParams(args.p, args.n)
    values, axis = ineq.ratio_grid(params, args.grid, args.amin, args.amax)
    if args.out is None:
        _write_scan_csv(values, axis, sys.stdout)
        return 0
    # opened once the grid is computed, so that a failed grid leaves the file as it was
    try:
        fh = open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        raise _ArgumentError(f"cannot write {args.out}: {exc}") from exc
    with fh:
        _write_scan_csv(values, axis, fh)
    return 0


# The cells of one block of _write_scan_csv: its byte matrix and the
# kernel's temporaries stay within a few hundred kB at any grid size, so
# they add little to a scan's peak RSS and stay in the CPU caches
_CSV_BLOCK_CELLS = 2048
# A cell is 40 bytes, 5 uint64 words, with "\0" wherever its spelling has no
# byte: byte 0 unused, bytes 1-5 the "0.000" slots of a value below 1, digit j
# of 17 at byte 6 + 2j with the slot of a decimal point after it at 7 + 2j,
# and "\n" at byte 39.
_CELL_WORDS = 5
_NEWLINE = ord("\n")
# the largest double below 1e13, the end of the kernel's fast domain: the
# integer part's digits then end in words 0-3, before the last group of four
_FAST_TOP = 9999999999999.998


def _words(table: np.ndarray) -> np.ndarray:
    """Rows of 8 k bytes as rows of k uint64 words, byte order kept."""
    return np.ascontiguousarray(table, np.uint8).view(np.uint64)


def _split(x):
    """Veltkamp's split x = hi + lo into halves of 26 bits, exact on doubles."""
    c = x * 134217729.0  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


@functools.cache
def _cell_tables():
    """The kernel's lookup tables, built by array arithmetic on a process's first scan.

    quad[g] is the word of four digits g, each followed by an empty point
    slot; last[g] the same with g's trailing zeros blanked and the cell's
    "\n".  lead[d] is the word 0 of a cell with leading digit d.
    point[e + 5] is a cell's 5 words for decade e = -5..13, past both ends
    of the fast domain [1e-4, 1e13) as the decade estimate may be: the "0."
    and zeros before a value below 1, or the decimal point after digit e.
    """
    g = np.arange(10_000, dtype=np.uint16)
    quad = np.zeros((10_000, 8), np.uint8)
    for k, unit in enumerate((1000, 100, 10, 1)):
        quad[:, 2 * k] = ord("0") + g // unit % 10
    tz4 = sum((g % unit == 0).astype(np.uint8) for unit in (10, 100, 1000, 10_000))
    last = np.where(np.arange(8) < 8 - 2 * tz4[:, None], quad, 0)
    last[:, 7] = _NEWLINE
    lead = np.zeros((10, 8), np.uint8)
    lead[:, 6] = ord("0") + np.arange(10)

    e = np.arange(-5, 14)[:, None]
    byte = np.arange(8 * _CELL_WORDS)
    below_one = (e < 0) & (byte >= 1) & (byte < 6) & ((byte < 3) | (byte >= 6 + e + 1))
    point = np.where(below_one, np.where(byte == 2, ord("."), ord("0")), 0)
    point = np.where((e >= 0) & (byte == 7 + 2 * e), ord("."), point)
    tables = _words(quad)[:, 0], _words(last)[:, 0], _words(lead)[:, 0], _words(point)
    for table in tables:
        table.flags.writeable = False  # shared by every scan of the process
    return tables


# 10^(16 - e) at e + 5 for e = -5..13, as point's rows, exact doubles (10^22 is the last), and their halves
_POW10 = np.array([float(10**k) for k in range(21, 2, -1)])
_POW10_HI, _POW10_LO = _split(_POW10)


def _render_cells(values: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Write each value's _fmt_float spelling and "\n" into its row of words; returns the fallback rows.

    words is an (m, 5) uint64 array, possibly a strided view, of the cells'
    40 bytes (see _CELL_WORDS).  On the fast domain, finite 1e-4 <= v <
    1e13 whose 17 significant digits do not end in 0000, the spelling is
    exact arithmetic:

    - the decade e = floor(log10 v), estimated, and s = 16 - e, so that
      10^s is an exact double (3 <= s <= 21 also where the estimate is one
      off);
    - v 10^s = hi + lo exactly: Dekker's product of Veltkamp's halves of v
      and 10^s (numpy has no fma);
    - the estimate is accepted when 1e16 <= hi + lo < 1e17 - 1/2, which
      (hi - 1e16) + lo >= 0 and N < 1e17 decide exactly: near 1e16 the
      difference is exact (Sterbenz) and hi's ulp, 2, is at least 2 |lo|;
    - N = int(hi) + rint(lo) rounds hi + lo half to even, as Python does:
      hi >= 1e16 > 2^53 is an even integer, so the parity of N is that of
      rint(lo);
    - N's 17 digits are five table words, a leading digit and four groups
      of four, laid out in the fixed notation that "%.17g" uses for
      -4 <= e <= 12 by point[e + 5].

    A last group other than 0000 holds the last significant digit, past
    the integer part at e <= 12, so that group's word trims every trailing
    zero and the decimal point is always shown.  Below 10 the point is in
    word 0, and words 1-3 take point's words only when the block holds a
    value of 10 or more.  Every other value, and one whose estimate is off
    or whose rounding carries to 1e17, is spelled by _fmt_float:
    non-finite, <= 0, -0.0, below 1e-4 (subnormal included), >= 1e13, and
    17 digits ending in 0000 (1.0 on every diagonal of a scan, 0.5, ...).
    """
    quad, last, lead_words, point = _cell_tables()
    # masked before log10, which warns on values <= 0; NaN goes to 1e-4
    x = np.fmin(np.fmax(values, 1e-4), _FAST_TOP)
    fast = x == values
    # e + 5 >= 0, so the cast floors it
    i = np.log10(x)
    i += 5.0
    i = i.astype(np.intp)
    p_hi, p_lo = _POW10_HI[i], _POW10_LO[i]
    v_hi, v_lo = _split(x)
    hi = x * _POW10[i]
    lo = ((v_hi * p_hi - hi) + v_hi * p_lo + v_lo * p_hi) + v_lo * p_lo
    fast &= (hi - 1e16) + lo >= 0.0
    n = hi.astype(np.int64)
    n += np.rint(lo).astype(np.int64)
    fast &= n < 10**17
    n[~fast] = 10**16  # any 17 digits: those rows are spelled below
    top = n // 10**8
    low = n - top * 10**8
    lead = top // 10**8
    mid = top - lead * 10**8
    g1 = mid // 10**4
    g2 = mid - g1 * 10**4
    g3 = low // 10**4
    g4 = low - g3 * 10**4
    fast &= g4 != 0
    words[:, 0] = lead_words[lead] | point[i, 0]
    words[:, 1] = quad[g1]
    words[:, 2] = quad[g2]
    words[:, 3] = quad[g3]
    words[:, 4] = last[g4]
    if i.max() > 5:
        words[:, 1:4] |= point[i, 1:4]
    fallback = np.flatnonzero(~fast)
    if fallback.size:
        text = "".join(_fmt_float(v).ljust(39, "\0") + "\n" for v in values[fallback].tolist())
        words[fallback] = np.frombuffer(text.encode("ascii"), np.uint64).reshape(-1, _CELL_WORDS)
    return fallback


def _write_scan_csv(values: np.ndarray, axis: np.ndarray, stream) -> None:
    """Write the "a,b,R" CSV of values[i, j] = R(axis[i], axis[j]), in blocks of whole rows.

    Every number is spelled as _fmt_float spells it: the axis labels by
    _fmt_float, once each, and the cells by _render_cells, which is exact
    on the finite cells in [1e-4, 1e13) whose 17 significant digits do not
    end in 0000, and calls _fmt_float on the others (non-finite, <= 0,
    tiny, subnormal, huge or round, as 1.0 is).  A block of at most
    _CSV_BLOCK_CELLS cells is a byte matrix of lines [a label, b label,
    cell], padded with "\0" that one translate per block deletes.
    """
    labels = [_fmt_float(x) + "," for x in axis]
    # labels padded to a multiple of 4 bytes put each line's cell words on 8-byte bounds
    width = -(-max(map(len, labels)) // 4) * 4
    label_bytes = np.frombuffer(
        "".join(label.ljust(width, "\0") for label in labels).encode("ascii"), np.uint8
    ).reshape(-1, width)
    size = len(axis)
    rows = min(size, max(1, _CSV_BLOCK_CELLS // size))
    block = np.zeros((rows, size, 2 * width + 8 * _CELL_WORDS), np.uint8)
    block[:, :, width : 2 * width] = label_bytes
    cells = block.reshape(rows * size, -1).view(np.uint64)[:, width // 4 :]
    stream.write("a,b,R\n")
    for lo in range(0, size, rows):
        part = block[: min(rows, size - lo)]
        part[:, :, :width] = label_bytes[lo : lo + rows, None]
        _render_cells(values[lo : lo + rows].ravel(), cells[: part.shape[0] * size])
        stream.write(part.tobytes().translate(None, b"\0").decode("ascii"))


def _cmd_counterexample(args) -> int:
    params = energy.EnergyParams(args.p, args.n)
    cert = ineq.find_violation(params, args.grid, args.amin, args.amax)
    _emit(vars(cert), sys.stdout)
    return 0


def _cmd_lemma_f(args) -> int:
    _require(args.n_max >= 1, "--n-max must be >= 1")
    entries = []
    for p in _reals("--p-list", args.p_list):
        for n in range(1, args.n_max + 1):
            entries.append({"p": p, "n": n, "f": ineq.f_lemma(p, n)})
    _emit({"entries": entries}, sys.stdout)
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and the class of its subparsers, whose syntax errors are usage errors.

    argparse would print its usage line and then the error; main prints the
    one "usage error:" line that every other bad argument gives.
    """

    def error(self, message):
        raise _ArgumentError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of main, built once per process: parsing leaves no state in it."""
    parser = _Parser(
        prog="qma",
        description="Quaternionic Monge-Ampere energy toolkit for the radial power family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_const = sub.add_parser("constants", help="inequality constants for (p, n)")
    p_const.add_argument("--p", type=float, required=True)
    p_const.add_argument("--n", type=int, required=True)
    p_const.set_defaults(func=_cmd_constants)

    p_moore = sub.add_parser("moore-det", help="Moore determinant of a matrix JSON file")
    p_moore.add_argument("--in", dest="infile", default=None, help="path to matrix JSON (stdin if omitted)")
    p_moore.set_defaults(func=_cmd_moore_det)

    p_dens = sub.add_parser("density-check", help="FD density vs closed form for u_a")
    p_dens.add_argument("--a", type=float, required=True)
    p_dens.add_argument("--n", type=int, required=True)
    p_dens.add_argument("--samples", type=int, default=20)
    p_dens.add_argument("--h", type=float, default=None)
    p_dens.set_defaults(func=_cmd_density_check)

    p_energy = sub.add_parser("energy", help="mutual p-energy of u_{a0} against a tail")
    p_energy.add_argument("--p", type=float, required=True)
    p_energy.add_argument("--n", type=int, required=True)
    p_energy.add_argument("--a0", type=float, required=True)
    p_energy.add_argument("--ai", type=str, required=True, help="comma-separated tail exponents")
    p_energy.add_argument("--method", choices=("closed", "quad", "both"), default="both")
    p_energy.set_defaults(func=_cmd_energy)

    p_scan = sub.add_parser("ratio-scan", help="closed-form ratio on a log grid, as CSV")
    p_scan.add_argument("--p", type=float, required=True)
    p_scan.add_argument("--n", type=int, required=True)
    p_scan.add_argument("--grid", type=int, default=64)
    p_scan.add_argument("--amin", type=float, default=0.1)
    p_scan.add_argument("--amax", type=float, default=4.0)
    p_scan.add_argument("--out", type=str, default=None)
    p_scan.set_defaults(func=_cmd_ratio_scan)

    p_cex = sub.add_parser("counterexample", help="search for a ratio certificate")
    p_cex.add_argument("--p", type=float, required=True)
    p_cex.add_argument("--n", type=int, required=True)
    p_cex.add_argument("--grid", type=int, default=64)
    p_cex.add_argument("--amin", type=float, default=0.1)
    p_cex.add_argument("--amax", type=float, default=4.0)
    p_cex.set_defaults(func=_cmd_counterexample)

    p_lemma = sub.add_parser("lemma-f", help="table of f(p, n) values")
    p_lemma.add_argument("--n-max", dest="n_max", type=int, required=True)
    p_lemma.add_argument("--p-list", dest="p_list", type=str, required=True)
    p_lemma.set_defaults(func=_cmd_lemma_f)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code) if exc.code is not None else 0
    except ValueError as exc:  # QuadratureError and CertificateError among them
        # one line, also for a message holding a multi-line array repr
        message = re.sub(r"\n\s*", " ", str(exc))
        if isinstance(exc, _ArgumentError):
            print(f"usage error: {message}", file=sys.stderr)
            return 2
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
