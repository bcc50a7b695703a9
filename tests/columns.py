"""The column count: the reference that Pick's formula in measures is compared against.

measures takes the interior count from Pick's formula, area2 = 2 * interior
+ boundary - 2, so a test that checks Pick's identity on measures compares
the formula with itself. This count walks the columns of the polygon instead,
each an integer y-range of polygon._interior_columns, and shares nothing with
Pick's formula or the boundary gcds. It costs O(x-extent * edges), so it is
meant for small inputs.
"""

from __future__ import annotations

from latsize import LatticePolygon
from latsize.polygon import _interior_columns


def column_interior_count(delta: LatticePolygon) -> int:
    """Lattice points strictly inside delta, column by column (0 unless delta is two-dimensional)."""
    if not delta.is_two_dim:
        return 0
    return sum(hi - lo + 1 for _, lo, hi in _interior_columns(delta))
