import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qma.cli import _fmt_float, _write_scan_csv

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
