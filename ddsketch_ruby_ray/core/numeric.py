"""Small exact helpers shared by the oracle-mirrored pipelines.

Two jobs live here.

The repo's standing convention is that every float an oracle-backed query
emits is derived from exact integer arithmetic in a fixed operation order,
so the DuckDB mirror reproduces it bit-for-bit.  The one place a float has
to become an integer is the currency/value quantization step (value *
10^k -> int64); ``round_half_away`` pins that step's rounding convention to
the one DuckDB's ``round()`` uses.

Nearly every exact or mergeable operator ends the same way: sort by key,
mark where each run of equal keys starts, reduce each run.  ``run_starts``
is the one run-boundary kernel every such site calls.
"""

from __future__ import annotations

import numpy as np

__all__ = ["round_half_away", "run_starts"]


def round_half_away(v: np.ndarray) -> np.ndarray:
    """Round float64 half-AWAY-from-zero, exactly like DuckDB ``round(x)``.

    ``np.round`` is banker's rounding (half-to-even), so a value landing
    exactly on .5 diverges from the SQL mirror (ADVICE r2).  The naive
    ``floor(x + 0.5)`` fix has its own fp bug: for the largest double below
    0.5 the addition rounds UP to 1.0.  Instead compare the exact fractional
    part (``a - floor(a)`` is exact for ``a < 2**53`` by Sterbenz) against
    0.5 and bump — bit-identical to C's ``std::round`` on every finite
    double.
    """
    v = np.asarray(v, dtype=np.float64)
    a = np.abs(v)
    fl = np.floor(a)
    r = np.where(a - fl >= 0.5, fl + 1.0, fl)
    return np.copysign(r, v)


def run_starts(*sorted_cols) -> np.ndarray:
    """Bool mask: True at row 0 and wherever any column differs from the row
    before, over columns sorted together so equal keys form runs.

    Empty input gives an empty mask.  Rows compare with ``!=``, so each NaN
    starts its own run and object/string columns work.
    """
    first = sorted_cols[0]
    new = np.empty(len(first), dtype=bool)
    if new.size:
        new[0] = True
        new[1:] = first[1:] != first[:-1]
        for c in sorted_cols[1:]:
            new[1:] |= c[1:] != c[:-1]
    return new
