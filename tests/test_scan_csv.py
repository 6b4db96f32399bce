import io
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qma import cli
from qma.cli import _fmt_float, _render_cells, _write_scan_csv
from qma.energy import EnergyParams
from qma.ineq import ratio_grid

# every float: nan, +-inf, -0.0 and subnormals included
_cells = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_special = st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 5e-324, -2.2250738585072e-310])


@st.composite
def _grids(draw):
    size = draw(st.integers(1, 8))
    elements = st.one_of(_cells, _special)
    values = draw(arrays(np.float64, (size, size), elements=elements))
    axis = draw(arrays(np.float64, size, elements=elements))
    return values, axis


@settings(max_examples=200, deadline=None)
@given(_grids())
def test_write_scan_csv_matches_per_cell_rendering(grid):
    values, axis = grid
    stream = io.StringIO()
    _write_scan_csv(values, axis, stream)
    expected = "a,b,R\n" + "".join(
        f"{_fmt_float(a)},{_fmt_float(b)},{_fmt_float(values[i, j])}\n"
        for i, a in enumerate(axis)
        for j, b in enumerate(axis)
    )
    assert stream.getvalue() == expected


def _per_cell_csv(values, axis):
    """The CSV that per-cell _fmt_float rendering gives: the writer's reference."""
    return "a,b,R\n" + "".join(
        f"{_fmt_float(a)},{_fmt_float(b)},{_fmt_float(values[i, j])}\n"
        for i, a in enumerate(axis)
        for j, b in enumerate(axis)
    )


def _rendered(values):
    """(spellings, fallback rows) of _render_cells on a float array, 2^16 cells at a time."""
    spellings, fallback = [], []
    for lo in range(0, len(values), 1 << 16):
        chunk = values[lo : lo + (1 << 16)]
        words = np.empty((len(chunk), cli._CELL_WORDS), np.uint64)
        fallback.extend(lo + _render_cells(chunk, words))
        spellings += words.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]
    return spellings, np.array(fallback, dtype=np.intp)


def _assert_spelled_as_fmt_float(values):
    spellings, fallback = _rendered(values)
    assert len(spellings) == len(values)
    wrong = [(v, s) for v, s in zip(values.tolist(), spellings) if s != _fmt_float(v)]
    assert not wrong, wrong[:5]
    return fallback


def _ends_in_0000(v):
    """Whether the 17 significant digits of v end in 0000, by Python's own spelling."""
    return format(v, ".16e").split("e")[0].endswith("0000")


def _fallback_domain(values):
    """The rows that _render_cells must hand to _fmt_float: outside [1e-4, 1e13), or ending in 0000."""
    return [k for k, v in enumerate(values.tolist()) if not 1e-4 <= v < 1e13 or _ends_in_0000(v)]


def test_render_cells_spells_the_fast_domain_as_fmt_float():
    # log-uniform over [1e-4, 1e16): every decade, and all 17 digits random
    rng = np.random.default_rng(20261019)
    values = np.exp(rng.uniform(math.log(1e-4), math.log(1e16), 1_000_000))
    values = values[(values >= 1e-4) & (values < 1e16)]
    assert len(values) > 999_000
    fallback = _assert_spelled_as_fmt_float(values)
    # exactly the values >= 1e13 and the round ones fall back (about 100 below 1e13 end
    # in 0000); a value within an ulp or two of a power of ten is rarer than 1e-15
    round_ = [k for k in _fallback_domain(values) if values[k] < 1e13]
    assert len(round_) > 50
    assert fallback.tolist() == _fallback_domain(values)


def test_render_cells_rounds_ties_to_even():
    # 1 + k 2^-17 has 18 significant digits, the last a 5: half the ties
    # round down to an even 17th digit, half up
    ties = 1.0 + np.arange(1, 1 << 17, 2) * 2.0**-17
    assert _assert_spelled_as_fmt_float(ties).size == 0
    digits = [format(v, ".18g")[-1] for v in ties[:64].tolist()]
    assert set(digits) == {"5"}


def test_render_cells_spells_decade_edges_and_trailing_zeros():
    powers = [10.0**k for k in range(-5, 18)]
    # the doubles either side of a power of ten, such as nextafter(0.1, 0) and
    # nextafter(1e16, 0), whose log10 may round into the next decade
    near_powers = [float(np.nextafter(x, d)) for x in powers for d in (-math.inf, math.inf)]
    # trailing zeros: in the last group of four digits, past it, and in the
    # integer part of e >= 1, where the point moves into later words
    steps = np.concatenate([np.arange(1, 4000) * 10.0**k for k in range(-4, 13)])
    odd = [0.5, 1.5, 123.5, 1e15 + 0.5, 999999999999999.9, 4503599627370497.0, 0.00012, 1.0]
    # integer zeros before a last group other than 0000, up to the largest fast value
    odd += [10.25, 120000.000001, 1e12 + 0.5, 1e12 + 0.0625, 1234567890123.4567, 9999999999999.998]
    values = np.array(powers + near_powers + odd + steps.tolist())
    fallback = set(_assert_spelled_as_fmt_float(values).tolist())
    # the values outside [1e-4, 1e13) and those ending in 0000 fall back, and
    # besides them only a value an ulp or two from a power of ten
    required = set(_fallback_domain(values))
    assert required <= fallback
    for v in values[sorted(fallback - required)].tolist():
        assert min(abs(v / x - 1.0) for x in powers) < 5e-16, v


def test_render_cells_is_exact_whatever_the_decade_estimate_errs(monkeypatch):
    # a correctly rounded log10 puts no tested value in the wrong decade; one
    # off by 1e-9 either way does, near every power of ten, and the decade
    # check must send those values to the fallback on both sides
    powers = [10.0**k for k in range(-4, 16)]
    values = np.array(
        [x * (1.0 + d) for x in powers for d in (-2e-9, -1e-12, -1e-15, 0.0, 1e-15, 1e-12, 2e-9)]
        + [float(np.nextafter(x, d)) for x in powers for d in (-math.inf, math.inf)]
    )
    values = values[(values >= 1e-4) & (values < 1e16)]
    log10 = np.log10
    for error in (-1e-9, 1e-9):
        monkeypatch.setattr(np, "log10", lambda x, error=error: log10(x) + error)
        fallback = _assert_spelled_as_fmt_float(values)
        # a wrong estimate, not the domain, sends at least one value a power of ten
        misplaced = set(fallback.tolist()) - set(_fallback_domain(values))
        assert len(misplaced) >= sum(x < 1e13 for x in powers), error


def test_render_cells_falls_back_outside_the_fast_domain():
    inside = [1.0000000000001e-4, 9999999999999.9]
    # the doubles next to 1e-4 and 1e13 inside the domain are spelled either way: fast
    # unless their log10 rounds to the next decade, as a correctly rounded one does at 1e13
    next_to_edges = [float(np.nextafter(1e-4, 1.0)), float(np.nextafter(1e13, 0.0))]
    # 1e-4 is 1.0000000000000000e-04, whose digits end in 0000
    edges = [1e-4, float(np.nextafter(1e-4, 0.0)), 1e13, float(np.nextafter(1e16, 0.0)), 1e16]
    specials = [0.0, -0.0, -1.5, -1e-4, -2.5e15, 5e-324, 2.2250738585072e-310, 1e-300, 1e300]
    specials += [math.inf, -math.inf, math.nan, 1.7976931348623157e308, 9.99e-5, 1e17, 123456789012345678.0]
    values = np.array(inside + next_to_edges + edges + specials)
    fallback = _assert_spelled_as_fmt_float(values)
    fast = set(range(len(values))) - set(fallback.tolist())
    assert {0, 1} <= fast <= {0, 1, 2, 3}


def test_write_scan_csv_matches_per_cell_rendering_in_blocks(monkeypatch):
    writes = []

    class Stream(io.StringIO):
        def write(self, text):
            writes.append(len(text))
            return super().write(text)

    # three rows a block: 40 rows make 13 full blocks and a partial one of one row
    monkeypatch.setattr(cli, "_CSV_BLOCK_CELLS", 3 * 40)
    values, axis = ratio_grid(EnergyParams(2.3, 3), 40, 0.07, 5.5)
    # at large p, 25% and 39% of the cells are >= 10, whose decimal point is past
    # word 0, in blocks that also hold cells below 10 (the diagonal's 1.0 among them)
    large_p = [ratio_grid(EnergyParams(p, n), 40, 0.1, 4.0) for p, n in ((50.0, 5), (100.0, 6))]
    # cells of every kind, fallback ones among fast ones in the middle of blocks
    planted = values.copy()
    for (i, j), v in {
        (4, 17): math.inf,
        (4, 18): math.nan,
        (7, 3): 0.0,
        (7, 4): 1e-300,
        (16, 20): 12345.678901234567,  # the one cell >= 10 of its block
        (22, 39): 1e300,
        (23, 0): -0.0,
        (30, 30): 12345.0,
        (31, 2): 1e-4,
        (39, 39): -math.inf,
    }.items():
        planted[i, j] = v
    assert np.all(values < 10.0)
    for grid, grid_axis in [(values, axis), (planted, axis)] + large_p:
        writes.clear()
        stream = Stream()
        _write_scan_csv(grid, grid_axis, stream)
        assert stream.getvalue() == _per_cell_csv(grid, grid_axis)
        assert len(writes) == 1 + 14
    # one row a block, and a block larger than the grid
    for cells in (1, 1 << 20):
        monkeypatch.setattr(cli, "_CSV_BLOCK_CELLS", cells)
        stream = io.StringIO()
        _write_scan_csv(planted, axis, stream)
        assert stream.getvalue() == _per_cell_csv(planted, axis)
